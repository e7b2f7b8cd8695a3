#pragma once
// One repetition of a workload through the public API, the spans the
// benchmark records around its own calls, and the output checks.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/sweep_result.h"
#include "rbf/driver_model.h"
#include "rbf/receiver_model.h"
#include "workloads.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point a, Clock::time_point b);

/// Spans recorded around the benchmark's own calls into each module, kept
/// in memory for the self-time breakdown. While an obs::TraceWriter is
/// active each closed span is also written to it, next to the spans the
/// library records itself (task:<label>, transient, model_preload).
class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    Clock::time_point begin;
    Clock::time_point end;
  };

  /// RAII span; a null log makes it a no-op.
  class Scope {
   public:
    Scope(SpanLog* log, std::string name, int parent = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }

   private:
    SpanLog* log_;
    int id_ = -1;
  };

  const std::vector<Span>& spans() const { return spans_; }
  double seconds(int id) const;
  /// Duration minus the part its direct children cover.
  double selfSeconds(int id) const;

 private:
  std::vector<Span> spans_;
};

struct Models {
  std::shared_ptr<const fdtdmm::RbfDriverModel> driver;
  std::shared_ptr<const fdtdmm::RbfReceiverModel> receiver;
};

struct RepOptions {
  std::size_t workers = 1;
  bool keep_waveforms = false;
  std::string out_dir;       ///< where the three export files go
  SpanLog* spans = nullptr;  ///< null = untraced
};

/// Expansion plus identification of every model the workload needs.
struct SetupResult {
  double expand_s = 0.0;  ///< one expansion: mean of Workload::expand_repeats
  double identify_driver_s = 0.0;
  double identify_receiver_s = 0.0;
  double setup_s = 0.0;  ///< expand_s + identify_driver_s + identify_receiver_s
  int drivers_identified = 0;
  int receivers_identified = 0;
  Models models;
  std::vector<fdtdmm::SimulationTask> tasks;
};

/// Everything one repetition measured and produced.
struct RepResult {
  SetupResult setup;
  double sweep_s = 0.0;  ///< SweepRunner::run
  double export_s = 0.0;
  double time_to_results_s = 0.0;  ///< setup + sweep + export
  int rep_span = -1;  ///< root span id when traced
  fdtdmm::SweepResult result;
  std::string csv;  ///< the exported metrics CSV, byte for byte
};

/// runSetup, then the sweep on a fresh runner with fresh model, solver-state
/// and result caches, then the CSV, JSON and telemetry exports.
RepResult runRep(const Workload& w, std::uint64_t seed, const RepOptions& opt);

/// Runs already-expanded tasks with given models on a fresh runner.
fdtdmm::SweepResult runTasks(const std::vector<fdtdmm::SimulationTask>& tasks,
                             const Models& models, std::size_t workers,
                             bool keep_waveforms);

/// True when every metric of every ok record is finite.
bool metricsFinite(const fdtdmm::SweepResult& r, std::string* where);

/// Largest deviation of a metrics CSV from a reference CSV. Voltages are
/// compared relative to max(|ref|, 1 mV), times relative to
/// max(|ref|, 1 ps); eye_open must match exactly and max_newton_iterations
/// is left out (it is reported as rbf.port_newton_max). A row or label
/// mismatch makes the result infinite and fills `error`.
double maxDeviation(const std::string& csv, const std::string& ref_csv,
                    std::string* error);

/// Type-7 quantile and median of a sample (0 for an empty one).
double quantileOf(std::vector<double> v, double q);
double medianOf(const std::vector<double>& v);

/// Peak resident set size of this process so far [MB].
double peakRssMb();

std::string readFile(const std::string& path);

}  // namespace perfbench
