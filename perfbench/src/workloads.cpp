#include "workloads.h"

#include <cmath>

namespace perfbench {

using fdtdmm::McSampling;
using fdtdmm::StochasticAxis;
using fdtdmm::SweepSpec;

namespace {

// The paper's validation line (Figs. 4/5) with its '010' pattern on the
// default 180x24x23 mesh: every engine against both far-end loads. No
// stochastic axis: 3-bit patterns differ in edge count, and with it in RBF
// port Newton work per corner, so a seeded pattern would make the corner
// latencies depend on the seed.
SweepSpec tlineSpec(std::uint64_t /*seed*/) {
  SweepSpec s;
  s.scenario = "tline";
  s.driver = kModelName;
  s.receiver = kModelName;
  s.set("pattern", std::string("010"));
  s.axisStrings("engine", {"spice-rbf", "fdtd1d", "fdtd3d"});
  s.axisStrings("load", {"rc", "receiver"});
  return s;
}

// Nonlinear RBF driver on two coupled 32-section lines: four coupling
// corners, each with eight Latin-hypercube manufacturing draws. Eight
// corners per worker let the pool balance a slow worker; with four, the
// sweep time followed the slowest worker's chain of corners.
SweepSpec xtalkSpec(std::uint64_t seed) {
  SweepSpec s;
  s.scenario = "crosstalk";
  s.driver = kModelName;
  s.set("segments", 32.0);
  s.set("t_stop", 8e-9);
  s.axis("coupling", {0.05, 0.1, 0.2, 0.3});
  StochasticAxis tol;
  tol.name = "tol";
  tol.params = {fdtdmm::uniformParam("victim_r_far", 40.0, 60.0),
                fdtdmm::uniformParam("agg_load_c", 0.5e-12, 2e-12)};
  tol.samples = 8;
  tol.seed = seed;
  tol.sampling = McSampling::kLatinHypercube;
  s.stochasticAxis(tol);
  return s;
}

// Quiescent 64-section line under random plane-wave illumination: two
// field amplitudes, 512 Latin-hypercube arrival angles/polarizations each.
// The field enters through RHS sources only, so all 1024 corners share one
// base factorization. The 4 ns window, 10 ps step and 4 GHz pulse at
// 1.5 ns are those of examples/mc_tolerance_sweep.cpp; the family's 8 ns /
// 5 ps defaults would make one sweep about four times longer.
SweepSpec emcSpec(std::uint64_t seed) {
  SweepSpec s;
  s.scenario = "emc";
  s.set("drive", std::string("none"));
  s.set("segments", 64.0);
  s.set("t_stop", 4e-9);
  s.set("dt", 10e-12);
  s.set("pulse_t0", 1.5e-9);
  s.set("bandwidth", 4e9);
  s.axis("amplitude", {1e3, 2e3});
  StochasticAxis field;
  field.name = "field";
  field.params = {fdtdmm::uniformParam("theta", 20.0, 160.0),
                  fdtdmm::uniformParam("phi", 0.0, 360.0),
                  fdtdmm::uniformParam("pol_theta", 0.05, 1.0)};
  field.samples = 512;
  field.seed = seed;
  field.sampling = McSampling::kLatinHypercube;
  s.stochasticAxis(field);
  return s;
}

// 400 log-spaced frequencies, 1 MHz .. 10 GHz, on a lossy 1000-section
// ladder with the sqrt(f) skin-effect fit. No stochastic axis: the inputs
// are the same for every seed.
SweepSpec acSpec(std::uint64_t /*seed*/) {
  SweepSpec s;
  s.scenario = "ac";
  s.set("segments", 1000.0);
  s.set("line_r", 5.0);
  s.set("k_skin", 1e-4);
  constexpr int kPoints = 400;
  std::vector<double> freqs;
  freqs.reserve(kPoints);
  for (int i = 0; i < kPoints; ++i)
    freqs.push_back(1e6 * std::pow(1e4, static_cast<double>(i) / (kPoints - 1)));
  s.axis("frequency", freqs);
  return s;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> list = {
      {"tline_engines",
       "Fig. 4/5 line on spice-rbf, fdtd1d and fdtd3d: the 3D-FDTD corners and "
       "their port Newton bound the sweep; the only workload identifying driver "
       "and receiver",
       true, true, tlineSpec, /*seeded=*/false, 1, /*min_reps=*/4},
      {"xtalk_nonlinear",
       "32 nonlinear coupled-line crosstalk corners: per-iteration LU "
       "refactorization dominates Newton time; no FDTD, driver-only "
       "identification",
       true, false, xtalkSpec, /*seeded=*/true, 8},
      {"emc_mc_ensemble",
       "1024 random-illumination corners sharing one base LU: stresses the pool, "
       "caches, per-corner overhead and export; no identification",
       false, false, emcSpec, /*seeded=*/true, 32, /*min_reps=*/3,
       /*expand_repeats=*/50},
      {"ac_skin_band",
       "400-frequency AC sweep of a 1000-section skin-effect ladder: the only "
       "complex-LU workload, one symbolic analysis across all frequencies",
       false, false, acSpec, /*seeded=*/false, 1, /*min_reps=*/3,
       /*expand_repeats=*/100},
  };
  return list;
}

const Workload* findWorkload(const std::string& name) {
  for (const Workload& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

}  // namespace perfbench
