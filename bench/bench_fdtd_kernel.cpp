// 3D FDTD kernel throughput bench: the plane-sweep time step on the tline
// scenario's default 180x24x23 mesh (the Fig. 3 two-strip line, here with
// a linear Thevenin driver and the Fig. 4 RC load, so no macromodel has to
// be identified), run with 1 and 2 x-slabs.
//
// The 1-slab run is the solver on a task of a 1-worker pool (nothing idle
// to borrow); the 2-slab run is the same task on a 2-worker pool, whose idle
// worker the solver borrows for the upper slab. Each is repeated and the
// median reported in Mcells/s, together with the share of a 1-slab step the
// Mur boundary work takes (`mur_share`: its per-plane passes timed alone on
// the same mesh, with cold caches, so an upper bound on its cost inside the
// sweep) and the rest of the step (`sweep_share`: the volume H/E updates
// plus the serial PEC, port and probe work).
//
// Gate: every port and probe waveform must be bit-for-bit identical between
// the slab counts (exit 1 otherwise, or when the 2-slab run could not borrow
// its worker). There is deliberately no speed floor: shared CI runners are
// too noisy for one. Writes BENCH_fdtd.json.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.h"
#include "engine/thread_pool.h"
#include "fdtd/mur.h"
#include "fdtd/solver.h"
#include "signal/linear_ports.h"

namespace {

using namespace fdtdmm;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kNx = 180, kNy = 24, kNz = 23;
constexpr std::size_t kSteps = 1500;
constexpr int kReps = 3;

Grid3 tlineGrid(std::size_t& x0, std::size_t& x1, std::size_t& jc,
                std::size_t& k_dev) {
  const std::size_t len = 160, width = 4, gap = 3;
  GridSpec spec;
  spec.nx = kNx;
  spec.ny = kNy;
  spec.nz = kNz;
  spec.dx = spec.dy = spec.dz = 0.723e-3;
  Grid3 grid(spec);
  x0 = (kNx - len) / 2;
  x1 = x0 + len;
  const std::size_t jy0 = (kNy - width) / 2, jy1 = jy0 + width;
  const std::size_t kz0 = (kNz - gap) / 2, kz1 = kz0 + gap;
  grid.pecPlateZ(kz0, x0, x1, jy0, jy1);
  grid.pecPlateZ(kz1, x0, x1, jy0, jy1);
  jc = (jy0 + jy1) / 2;
  k_dev = kz1 - 1;
  grid.pecWireZ(x0, jc, kz0, k_dev);
  grid.pecWireZ(x1, jc, kz0, k_dev);
  grid.bake();
  return grid;
}

struct KernelRun {
  double seconds = 0.0;
  std::size_t slabs = 0;
  std::vector<Waveform> waves;  // port voltages and currents, then probes
};

KernelRun runLine() {
  std::size_t x0 = 0, x1 = 0, jc = 0, k_dev = 0;
  FdtdSolver solver(tlineGrid(x0, x1, jc, k_dev));
  LumpedPortSpec near_spec;
  near_spec.i = x0;
  near_spec.j = jc;
  near_spec.k = k_dev;
  near_spec.sign = -1;
  near_spec.label = "near";
  // 0 -> 1 V ramp over 100 ps behind 50 ohm.
  auto ramp = [](double t) { return std::clamp((t - 50e-12) / 100e-12, 0.0, 1.0); };
  solver.addLumpedPort(near_spec, std::make_shared<TheveninPort>(ramp, 50.0));
  LumpedPortSpec far_spec = near_spec;
  far_spec.i = x1;
  far_spec.label = "far";
  solver.addLumpedPort(far_spec, std::make_shared<ParallelRcPort>(500.0, 1e-12));
  solver.addVoltageProbe({Axis::kZ, kNx / 2, jc, k_dev - 2, k_dev + 1, -1, "mid"});
  solver.addFieldProbe({Axis::kY, 0, 2, 3, "ey_boundary"});

  const auto start = Clock::now();
  solver.run(kSteps);
  KernelRun run;
  run.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  run.slabs = solver.peakSlabs();
  for (const auto& p : solver.ports()) {
    run.waves.push_back(p->voltage());
    run.waves.push_back(p->current());
  }
  run.waves.push_back(solver.voltageProbe(0));
  run.waves.push_back(solver.fieldProbe(0));
  return run;
}

bool bitIdentical(const std::vector<Waveform>& a, const std::vector<Waveform>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t w = 0; w < a.size(); ++w) {
    if (a[w].size() != b[w].size()) return false;
    if (a[w].size() != 0 &&
        std::memcmp(a[w].samples().data(), b[w].samples().data(),
                    a[w].size() * sizeof(double)) != 0)
      return false;
  }
  return true;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// Median of kReps runs of the line as a task on a `workers`-worker pool.
KernelRun timedRuns(std::size_t workers, std::vector<double>& seconds) {
  KernelRun last;
  for (int rep = 0; rep < kReps; ++rep) {
    ThreadPool pool(workers);
    last = pool.submit(&runLine).get();
    seconds.push_back(last.seconds);
  }
  return last;
}

// Per-step cost of the Mur boundary work alone: every plane's snapshot,
// then every plane's boundary writes, as the sweep issues them.
double murSecondsPerStep() {
  std::size_t x0 = 0, x1 = 0, jc = 0, k_dev = 0;
  Grid3 grid = tlineGrid(x0, x1, jc, k_dev);
  MurBoundary mur(&grid);
  constexpr int kMurSteps = 2000;
  const auto start = Clock::now();
  for (int s = 0; s < kMurSteps; ++s) {
    for (std::size_t i = 0; i <= kNx; ++i) mur.snapshotPlane(i);
    for (std::size_t i = 0; i <= kNx; ++i) mur.finishPlane(i);
  }
  return std::chrono::duration<double>(Clock::now() - start).count() / kMurSteps;
}

}  // namespace

int main() {
  std::puts("=== bench_fdtd_kernel: plane-sweep 3D FDTD step, 1 vs 2 slabs ===");
  const double cell_steps =
      static_cast<double>(kNx * kNy * kNz) * static_cast<double>(kSteps);

  std::vector<double> t1, t2;
  const KernelRun one = timedRuns(1, t1);
  const KernelRun two = timedRuns(2, t2);
  const double s1 = median(t1), s2 = median(t2);
  const double mcells1 = cell_steps / s1 / 1e6, mcells2 = cell_steps / s2 / 1e6;
  const double step1 = s1 / static_cast<double>(kSteps);
  const double mur = murSecondsPerStep();
  const double mur_share = mur / step1;

  std::printf("mesh %zux%zux%zu, %zu steps, median of %d runs\n", kNx, kNy, kNz,
              kSteps, kReps);
  std::printf("  1 slab : %8.3f s  %7.1f Mcells/s  (peak slabs %zu)\n", s1, mcells1,
              one.slabs);
  std::printf("  2 slabs: %8.3f s  %7.1f Mcells/s  (peak slabs %zu)  %.2fx\n", s2,
              mcells2, two.slabs, s1 / s2);
  std::printf("  1-slab step %.1f us: Mur boundary %.1f us (%.1f%%), volume H/E "
              "+ ports + probes %.1f%%\n",
              step1 * 1e6, mur * 1e6, 100.0 * mur_share, 100.0 * (1.0 - mur_share));

  int failures = 0;
  const bool identical = bitIdentical(one.waves, two.waves);
  std::printf("waveforms 1 vs 2 slabs: %s\n", identical ? "bit-identical" : "DIFFER");
  if (!identical) ++failures;
  if (one.slabs != 1 || two.slabs != 2) {
    std::printf("FAIL: expected 1 and 2 slabs, got %zu and %zu\n", one.slabs,
                two.slabs);
    ++failures;
  }

  using benchutil::num;
  std::string json = "{\n";
  json += "  \"bench\": \"fdtd_kernel\",\n";
  json += "  \"mesh\": [" + std::to_string(kNx) + ", " + std::to_string(kNy) + ", " +
          std::to_string(kNz) + "],\n";
  json += "  \"steps\": " + std::to_string(kSteps) + ",\n";
  json += "  \"reps\": " + std::to_string(kReps) + ",\n";
  json += "  \"seconds_1slab\": " + num(s1) + ",\n";
  json += "  \"seconds_2slab\": " + num(s2) + ",\n";
  json += "  \"mcells_per_s_1slab\": " + num(mcells1) + ",\n";
  json += "  \"mcells_per_s_2slab\": " + num(mcells2) + ",\n";
  json += "  \"slab_speedup\": " + num(s1 / s2) + ",\n";
  json += "  \"step_us_1slab\": " + num(step1 * 1e6) + ",\n";
  json += "  \"mur_us_per_step\": " + num(mur * 1e6) + ",\n";
  json += "  \"mur_share\": " + num(mur_share) + ",\n";
  json += "  \"sweep_share\": " + num(1.0 - mur_share) + ",\n";
  json += std::string("  \"waveforms_identical\": ") + (identical ? "true" : "false") +
          "\n}\n";
  if (!benchutil::writeFile("BENCH_fdtd.json", json)) ++failures;
  std::puts(failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}
