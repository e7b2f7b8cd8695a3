#include "layers.h"

#include <algorithm>
#include <sstream>
#include <variant>

namespace perfbench {

using namespace fdtdmm;

namespace {

constexpr const char* kTline = "tline_engines";
constexpr const char* kXtalk = "xtalk_nonlinear";
constexpr const char* kEmc = "emc_mc_ensemble";
constexpr const char* kAc = "ac_skin_band";

bool listed(const char* list, const std::string& workload) {
  std::stringstream ss(list);
  std::string item;
  while (std::getline(ss, item, ','))
    if (item == workload) return true;
  return false;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

const std::vector<LayerSpec>& layerSpecs() {
  using E = BypassExpect;
  static const std::string kNotTline =
      std::string(kXtalk) + "," + kEmc + "," + kAc;
  static const std::string kNotAc = std::string(kTline) + "," + kXtalk + "," + kEmc;
  static const std::string kNoId = std::string(kEmc) + "," + kAc;
  static const std::string kNoRcv = std::string(kXtalk) + "," + kEmc + "," + kAc;
  static const std::string kTlineXtalk = std::string(kTline) + "," + kXtalk;
  static const std::string kXtalkEmc = std::string(kXtalk) + "," + kEmc;
  static const std::vector<LayerSpec> specs = {
      // engine: runner, pool, caches, export
      {"engine.expand_s", "s", "lower", "setup_s", kEmc, kTline, E::kUnchanged, true},
      {"engine.pool_util", "frac", "higher", "sweep_s", kTlineXtalk.c_str(), kEmc,
       E::kUnchanged, true},
      {"engine.queue_wait_p50_s", "s", "lower", "corner_tail_s", kEmc, kTline,
       E::kUnchanged, true},
      {"engine.numeric_hit_ratio", "frac", "higher", "sweep_s", kEmc, kXtalk,
       E::kZero, true},
      {"engine.symbolic_hit_ratio", "frac", "higher", "sweep_s", kAc, kXtalk,
       E::kZero, true},
      {"engine.corner_overhead_s", "s", "lower", "corner_p50_s,corners_per_s", kEmc, kTline,
       E::kUnchanged, true},
      {"engine.export_s", "s", "lower", "time_to_results_s", kEmc, kTline,
       E::kUnchanged, true},
      // rbf / devices: identification
      {"rbf.identify_driver_s", "s", "lower", "setup_s", kTlineXtalk.c_str(),
       kNoId.c_str(), E::kNearZero, true},
      {"rbf.identify_receiver_s", "s", "lower", "setup_s", kTline, kNoRcv.c_str(),
       E::kNearZero, true},
      {"rbf.models_identified", "count", "lower", "setup_s", kTlineXtalk.c_str(),
       kNoId.c_str(), E::kZero, true},
      // rbf: ports (the paper's <= 3 Newton iterations at 1e-9; not gated)
      {"rbf.port_newton_max", "count", "lower", "sweep_s", kTlineXtalk.c_str(), kAc,
       E::kZero, true},
      // circuit: MNA SolverSession, summed RunTelemetry of transient corners
      {"circuit.factor_s", "s", "lower", "sweep_s", kXtalk, kAc, E::kZero, true},
      {"circuit.solve_s", "s", "lower", "sweep_s,corner_p50_s", kEmc, kAc, E::kZero,
       true},
      {"circuit.rhs_stamp_s", "s", "lower", "sweep_s,corner_p50_s", kEmc, kAc,
       E::kZero, true},
      {"circuit.newton_s", "s", "lower", "sweep_s", kXtalkEmc.c_str(), kAc, E::kZero,
       true},
      {"circuit.unattributed_s", "s", "lower", "sweep_s", kXtalkEmc.c_str(), kAc,
       E::kZero, true},
      {"circuit.lu_count", "count", "lower", "sweep_s", kXtalk, kEmc, E::kOne, true},
      {"circuit.newton_iters", "count", "lower", "sweep_s", kXtalkEmc.c_str(), kAc,
       E::kZero, true},
      {"circuit.steps", "count", "lower", "sweep_s", kXtalkEmc.c_str(), kAc, E::kZero,
       true},
      {"circuit.factor_share", "frac", "lower", "sweep_s", kXtalk, kAc, E::kZero,
       true},
      // math: LU classes as the MNA transient uses them
      {"math.lu_us", "us", "lower", "sweep_s", kXtalkEmc.c_str(), kAc, E::kZero, true},
      {"math.solve_us", "us", "lower", "sweep_s", kXtalkEmc.c_str(), kAc, E::kZero,
       true},
      // fdtd: 3D kernel with RBF ports, and the 1D line
      {"fdtd3d.corners", "count", "lower", "sweep_s", kTline, kNotTline.c_str(),
       E::kZero, true},
      {"fdtd3d.corner_s", "s", "lower", "sweep_s,time_to_results_s", kTline,
       kNotTline.c_str(), E::kZero, true},
      {"fdtd3d.cell_updates_per_s", "1/s", "higher", "sweep_s,time_to_results_s",
       kTline, kNotTline.c_str(), E::kZero, true},
      {"fdtd1d.corner_s", "s", "lower", "sweep_s", kTline, kNotTline.c_str(),
       E::kZero, true},
      // freq: AC sessions
      {"freq.factor_s", "s", "lower", "sweep_s", kAc, kNotAc.c_str(), E::kZero, true},
      {"freq.solve_s", "s", "lower", "sweep_s", kAc, kNotAc.c_str(), E::kZero, true},
      {"freq.lu_count", "count", "lower", "sweep_s", kAc, kNotAc.c_str(), E::kZero,
       true},
      {"freq.unattributed_s", "s", "lower", "sweep_s", kAc, kNotAc.c_str(), E::kZero,
       true},
      // signal: computeRunMetrics per corner
      {"signal.metrics_s", "s", "lower", "corner_p50_s,corners_per_s", kEmc, kTline,
       E::kUnchanged, true},
      // obs: traced vs untraced sweep_s
      {"obs.trace_overhead_frac", "frac", "lower", "sweep_s", kEmc, kTline,
       E::kUnchanged, false},
      // benchmark bookkeeping
      {"bench.unattributed_s", "s", "lower", "time_to_results_s", "", "",
       E::kUnchanged, false},
      {"check.result_max_dev", "rel", "lower", "sweep_s", "", "", E::kUnchanged,
       false},
  };
  return specs;
}

Engine engineOf(const SimulationTask& task) {
  const Scenario& s = *task.scenario;
  if (s.family() == "ac") return Engine::kAc;
  if (s.family() == "tline") {
    const std::string e = std::get<std::string>(s.get("engine"));
    if (e == "fdtd1d") return Engine::kFdtd1d;
    if (e == "fdtd3d") return Engine::kFdtd3d;
  }
  return Engine::kMna;
}

namespace {

// Sums of one repetition's per-corner telemetry, split by engine.
struct Totals {
  obs::TransientPhases mna;
  long long mna_lu = 0, mna_newton_iters = 0, mna_steps = 0;
  double mna_wall = 0.0;
  obs::TransientPhases ac;
  long long ac_lu = 0;
  double ac_wall = 0.0;
  std::vector<double> fdtd3d_wall, fdtd1d_wall;
  double corner_wall = 0.0;
  int newton_max = 0;
};

Totals totalsOf(const RepResult& rep) {
  Totals t;
  for (std::size_t i = 0; i < rep.result.runs.size(); ++i) {
    const SweepRunRecord& rec = rep.result.runs[i];
    if (!rec.ok) continue;
    const obs::RunTelemetry& tel = rec.telemetry;
    t.corner_wall += rec.wall_seconds;
    t.newton_max = std::max(t.newton_max, rec.metrics.max_newton_iterations);
    switch (engineOf(rep.setup.tasks[i])) {
      case Engine::kMna:
        t.mna += tel.phases;
        t.mna_lu += tel.lu_factorizations;
        t.mna_newton_iters += tel.newton_iterations;
        t.mna_steps += tel.steps;
        t.mna_wall += rec.wall_seconds;
        break;
      case Engine::kAc:
        t.ac += tel.phases;
        t.ac_lu += tel.lu_factorizations;
        t.ac_wall += rec.wall_seconds;
        break;
      case Engine::kFdtd3d:
        t.fdtd3d_wall.push_back(rec.wall_seconds);
        break;
      case Engine::kFdtd1d:
        t.fdtd1d_wall.push_back(rec.wall_seconds);
        break;
    }
  }
  return t;
}

}  // namespace

MetricMap layerMetricsOfRep(const RepResult& rep, const SpanLog* spans,
                            std::size_t workers) {
  const SweepResult& r = rep.result;
  const Totals t = totalsOf(rep);
  MetricMap m;

  m["engine.expand_s"] = rep.setup.expand_s;
  m["engine.export_s"] = rep.export_s;
  m["engine.pool_util"] =
      ratio(r.pool.busy_seconds, static_cast<double>(workers) * rep.sweep_s);
  const auto qw = r.histograms.find("pool.queue_wait_seconds");
  m["engine.queue_wait_p50_s"] = qw != r.histograms.end() ? qw->second.percentile(0.5) : 0.0;
  const SolverStateCacheStats& sc = r.solver_cache;
  m["engine.numeric_hit_ratio"] = ratio(static_cast<double>(sc.numeric_hits),
                                        static_cast<double>(sc.numeric_hits + sc.numeric_misses));
  m["engine.symbolic_hit_ratio"] =
      ratio(static_cast<double>(sc.symbolic_hits),
            static_cast<double>(sc.symbolic_hits + sc.symbolic_misses));
  m["engine.corner_overhead_s"] = r.pool.busy_seconds - t.corner_wall;

  m["rbf.identify_driver_s"] = rep.setup.identify_driver_s;
  m["rbf.identify_receiver_s"] = rep.setup.identify_receiver_s;
  m["rbf.models_identified"] = rep.setup.drivers_identified + rep.setup.receivers_identified;
  m["rbf.port_newton_max"] = t.newton_max;

  m["circuit.factor_s"] = t.mna.factor_seconds;
  m["circuit.solve_s"] = t.mna.solve_seconds;
  m["circuit.rhs_stamp_s"] = t.mna.rhs_stamp_seconds;
  m["circuit.newton_s"] = t.mna.newton_seconds;
  m["circuit.unattributed_s"] =
      t.mna_wall - t.mna.newton_seconds - t.mna.stamp_static_seconds;
  m["circuit.lu_count"] = static_cast<double>(t.mna_lu);
  m["circuit.newton_iters"] = static_cast<double>(t.mna_newton_iters);
  m["circuit.steps"] = static_cast<double>(t.mna_steps);
  m["circuit.factor_share"] = ratio(t.mna.factor_seconds, t.mna.newton_seconds);
  m["math.lu_us"] = 1e6 * ratio(t.mna.factor_seconds, static_cast<double>(t.mna_lu));
  m["math.solve_us"] = 1e6 * ratio(t.mna.solve_seconds, static_cast<double>(t.mna_steps));

  m["fdtd3d.corners"] = static_cast<double>(t.fdtd3d_wall.size());
  m["fdtd3d.corner_s"] = medianOf(t.fdtd3d_wall);
  m["fdtd1d.corner_s"] = medianOf(t.fdtd1d_wall);

  m["freq.factor_s"] = t.ac.factor_seconds;
  m["freq.solve_s"] = t.ac.solve_seconds;
  m["freq.lu_count"] = static_cast<double>(t.ac_lu);
  m["freq.unattributed_s"] = t.ac_wall - t.ac.factor_seconds - t.ac.solve_seconds;

  if (spans != nullptr && rep.rep_span >= 0)
    m["bench.unattributed_s"] = spans->selfSeconds(rep.rep_span);
  return m;
}

Waterfall waterfallOfRep(const RepResult& rep, const SpanLog& spans,
                         std::size_t workers) {
  const SweepResult& r = rep.result;
  const Totals t = totalsOf(rep);
  Waterfall w;
  w.emplace_back("bench.rep (wall)", spans.seconds(rep.rep_span));
  for (std::size_t i = 0; i < spans.spans().size(); ++i) {
    const SpanLog::Span& s = spans.spans()[i];
    if (s.parent != rep.rep_span) continue;
    const int id = static_cast<int>(i);
    w.emplace_back("  " + s.name + " (self)", spans.selfSeconds(id));
    if (s.name != "engine.sweep") continue;
    const double capacity = static_cast<double>(workers) * spans.seconds(id);
    w.emplace_back("    capacity = workers x wall [worker-s]", capacity);
    w.emplace_back("    engine.pool idle", capacity - r.pool.busy_seconds);
    w.emplace_back("    engine.corner_overhead (lookup, metrics, record)",
                   r.pool.busy_seconds - t.corner_wall);
    double fdtd3d = 0.0, fdtd1d = 0.0;
    for (double x : t.fdtd3d_wall) fdtd3d += x;
    for (double x : t.fdtd1d_wall) fdtd1d += x;
    if (!t.fdtd3d_wall.empty()) w.emplace_back("    fdtd3d corners (no inner phases)", fdtd3d);
    if (!t.fdtd1d_wall.empty()) w.emplace_back("    fdtd1d corners (no inner phases)", fdtd1d);
    if (t.mna_wall > 0.0) {
      w.emplace_back("    circuit.stamp_static", t.mna.stamp_static_seconds);
      w.emplace_back("    circuit.factor", t.mna.factor_seconds);
      w.emplace_back("    circuit.rhs_stamp", t.mna.rhs_stamp_seconds);
      w.emplace_back("    circuit.solve", t.mna.solve_seconds);
      w.emplace_back("    circuit.newton (self)",
                     t.mna.newton_seconds - t.mna.factor_seconds -
                         t.mna.rhs_stamp_seconds - t.mna.solve_seconds);
      w.emplace_back("    circuit unattributed (probes, build, hooks)",
                     t.mna_wall - t.mna.newton_seconds - t.mna.stamp_static_seconds);
    }
    if (t.ac_wall > 0.0) {
      w.emplace_back("    freq.factor", t.ac.factor_seconds);
      w.emplace_back("    freq.solve", t.ac.solve_seconds);
      w.emplace_back("    freq unattributed (assembly, restamp, ports)",
                     t.ac_wall - t.ac.factor_seconds - t.ac.solve_seconds);
    }
  }
  w.emplace_back("  unattributed (bench.rep self)", spans.selfSeconds(rep.rep_span));
  return w;
}

std::vector<std::string> selfTest(const std::string& workload, const MetricMap& values) {
  std::vector<std::string> failures;
  for (const LayerSpec& spec : layerSpecs()) {
    const auto it = values.find(spec.name);
    if (it == values.end()) {
      failures.push_back(std::string(spec.name) + " missing");
      continue;
    }
    const double v = it->second;
    if (spec.must_work && listed(spec.stress, workload) && !(v > 0.0))
      failures.push_back(std::string(spec.name) + " = " + std::to_string(v) +
                         ", expected work on its stressing workload");
    if (!listed(spec.bypass, workload)) continue;
    bool ok = true;
    switch (spec.expect) {
      case BypassExpect::kUnchanged: break;
      case BypassExpect::kZero: ok = v == 0.0; break;
      case BypassExpect::kOne: ok = v == 1.0; break;
      case BypassExpect::kNearZero: ok = v >= 0.0 && v < 1e-3; break;
    }
    if (!ok)
      failures.push_back(std::string(spec.name) + " = " + std::to_string(v) +
                         " breaks its bypass prediction");
  }
  return failures;
}

}  // namespace perfbench
