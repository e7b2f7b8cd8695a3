// Benchmark of cross-corner solver-state sharing (SweepRunnerOptions::
// share_solver_state) on the workload it exists for: a linear RHS-only EMC
// immunity sweep where every corner assembles the same static MNA base.
// With sharing disabled each of the 12 amplitude x angle corners pays its
// own dense O(n^3) base factorization; with sharing enabled the whole grid
// is one numeric-base class and factors exactly once, so the sweep cost
// collapses to one factorization plus the per-corner O(n^2) substitutions.
//
// Exit status is nonzero (Release builds) if the sharing-enabled sweep is
// not at least `min_speedup` faster (default 2x; override with
// --min-speedup=<x> / FDTDMM_BENCH_MIN_REUSE_SPEEDUP for noisy runners),
// if the factorization counts violate the one-LU-per-class invariant, or
// if the exported metrics differ by a single byte between the two runs.
// Writes BENCH_reuse.json for the CI bench job's artifact trail.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_json.h"
#include "engine/sweep_runner.h"
#include "obs/trace.h"

namespace {

using namespace fdtdmm;
using Clock = std::chrono::steady_clock;

// A dense trace model (n ~ 1200 unknowns) so the base factorization
// dominates a corner's cost; coarse step and short window so per-step
// source stamping and substitutions stay cheap.
SweepSpec reuseSweepSpec() {
  SweepSpec spec;
  spec.scenario = "emc";
  spec.set("drive", std::string("none"));  // quiescent: linear, no models
  spec.set("solver", std::string("reuse_lu"));
  spec.set("segments", 600.0);
  spec.set("dt", 1e-10);
  spec.set("t_stop", 5e-10);
  spec.set("pulse_t0", 2e-10);
  spec.axis("amplitude", {500.0, 1000.0, 2000.0});
  spec.axis("theta", {20.0, 40.0, 60.0, 90.0});
  return spec;
}

struct SweepTiming {
  SweepResult result;
  double seconds = 0.0;
  long long total_lu = 0;
  std::string csv;
};

SweepTiming runSweep(bool share) {
  SweepRunnerOptions opt;
  opt.workers = 1;  // isolate the factorization economy from parallelism
  opt.share_solver_state = share;
  opt.reuse_results = false;  // time solver work, not result replay
  SweepRunner runner(opt);

  SweepTiming t;
  const auto start = Clock::now();
  t.result = runner.run(reuseSweepSpec());
  t.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  for (const SweepRunRecord& r : t.result.runs)
    t.total_lu += r.telemetry.lu_factorizations;

  const std::string path = share ? "bench_reuse_on.csv" : "bench_reuse_off.csv";
  writeSweepCsv(t.result, path);
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  t.csv = ss.str();
  std::remove(path.c_str());
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  std::puts("=== bench_factorization_reuse: shared vs per-corner base LU ===");
  const obs::ScopedTrace trace = obs::initTraceFromArgs(argc, argv);
  const double min_speedup =
      benchutil::minSpeedup(argc, argv, "FDTDMM_BENCH_MIN_REUSE_SPEEDUP", 2.0);
  int failures = 0;

  const SweepTiming off = runSweep(false);
  const SweepTiming on = runSweep(true);
  const std::size_t corners = on.result.runs.size();
  const double speedup = off.seconds / on.seconds;

  std::printf("%10s %9s %12s %9s\n", "sharing", "total LU", "wall [s]", "ok");
  std::printf("%10s %9lld %12.4f %8zu/%zu\n", "off", off.total_lu, off.seconds,
              off.result.okCount(), corners);
  std::printf("%10s %9lld %12.4f %8zu/%zu\n", "on", on.total_lu, on.seconds,
              on.result.okCount(), corners);
  std::printf("  speedup: %.2fx (gate: >= %.2fx, release builds)\n", speedup,
              min_speedup);

  if (off.result.okCount() != corners || on.result.okCount() != corners) {
    std::puts("FAIL: not every corner completed");
    ++failures;
  }
  // The PR's invariant: one factorization per numeric-base class. This grid
  // is a single class (amplitude/theta are RHS-only), so sharing must
  // factor exactly once; disabled, every corner factors privately.
  if (on.total_lu != 1 || on.result.solver_cache.numeric_misses != 1) {
    std::printf("FAIL: sharing-on factored %lld times (expected 1)\n",
                on.total_lu);
    ++failures;
  }
  if (off.total_lu != static_cast<long long>(corners)) {
    std::printf("FAIL: sharing-off factored %lld times (expected %zu)\n",
                off.total_lu, corners);
    ++failures;
  }
  if (on.csv != off.csv || on.csv.empty()) {
    std::puts("FAIL: exported metrics differ between sharing on and off");
    ++failures;
  }
#ifdef NDEBUG
  if (speedup < min_speedup) {
    std::printf("FAIL: expected >= %.2fx from factorization sharing\n",
                min_speedup);
    ++failures;
  }
#else
  std::puts("(non-optimized build: speedup reported, not gated)");
#endif

  const bool pass = failures == 0;
  using benchutil::num;
  const std::string json = std::string("{\n") +
      "  \"bench\": \"factorization_reuse\",\n" +
      "  \"build\": \"" + benchutil::buildKind() + "\",\n" +
      "  \"min_speedup\": " + num(min_speedup) + ",\n" +
      "  \"corners\": " + std::to_string(corners) + ",\n" +
      "  \"numeric_base_classes\": " +
      std::to_string(on.result.solver_cache.numeric_misses) + ",\n" +
      "  \"shared_base_reuses\": " +
      std::to_string(on.result.solver_cache.numeric_hits) + ",\n" +
      "  \"lu_with_sharing\": " + std::to_string(on.total_lu) + ",\n" +
      "  \"lu_without_sharing\": " + std::to_string(off.total_lu) + ",\n" +
      "  \"seconds_with_sharing\": " + num(on.seconds) + ",\n" +
      "  \"seconds_without_sharing\": " + num(off.seconds) + ",\n" +
      "  \"speedup\": " + num(speedup) + ",\n" +
      "  \"metrics_byte_identical\": " + (on.csv == off.csv ? "true" : "false") +
      ",\n" +
      "  \"sweep_observability\": " +
      benchutil::sweepObservabilityJson(on.result) + ",\n" +
      "  \"pass\": " + (pass ? "true" : "false") + "\n}\n";
  if (!benchutil::writeFile("BENCH_reuse.json", json)) ++failures;
  std::puts("\nwrote BENCH_reuse.json");

  if (failures == 0) std::puts("all checks passed");
  return failures == 0 ? 0 : 1;
}
