#pragma once
// Per-layer metrics: the layer table (which end-to-end metric each layer
// metric should move, on which workload, and which workload bypasses it),
// their derivation from one traced repetition, the self-time waterfall,
// and the self-test of the bypass predictions.

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"

namespace perfbench {

/// What a bypassing workload must read for a layer metric.
enum class BypassExpect {
  kUnchanged,  ///< no structural value; the prediction is "no change"
  kZero,       ///< exactly 0: the layer never runs there
  kOne,        ///< exactly 1 (one shared base LU)
  kNearZero,   ///< below 1 ms: only the skip is timed
};

struct LayerSpec {
  const char* name;
  const char* unit;
  const char* better;  ///< "lower" | "higher"
  const char* moves;   ///< end-to-end metric(s) it should move
  const char* stress;  ///< comma-separated workloads where it does work
  const char* bypass;  ///< comma-separated workloads that bypass it
  BypassExpect expect;
  bool must_work;  ///< nonzero on every stressing workload
};

/// Every per-layer metric, in output order.
const std::vector<LayerSpec>& layerSpecs();

using MetricMap = std::map<std::string, double>;

/// Engine a task runs on, from its family and (for tline) engine param.
enum class Engine { kMna, kFdtd1d, kFdtd3d, kAc };
Engine engineOf(const fdtdmm::SimulationTask& task);

/// Per-layer values of one repetition: its SweepResult counters and
/// telemetry plus the benchmark's own spans. Metrics that need another
/// run (signal.metrics_s, fdtd3d.cell_updates_per_s,
/// obs.trace_overhead_frac, check.*) are filled in by the caller.
MetricMap layerMetricsOfRep(const RepResult& rep, const SpanLog* spans,
                            std::size_t workers);

/// Self-time waterfall of one traced repetition: top-level lines in wall
/// seconds, lines inside the sweep in worker-seconds (workers x sweep wall
/// is the capacity they split).
using Waterfall = std::vector<std::pair<std::string, double>>;
Waterfall waterfallOfRep(const RepResult& rep, const SpanLog& spans,
                         std::size_t workers);

/// Failures of the stress/bypass predictions for `workload` (empty = pass).
std::vector<std::string> selfTest(const std::string& workload,
                                  const MetricMap& values);

}  // namespace perfbench
