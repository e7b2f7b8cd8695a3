#pragma once
// The four benchmark workloads: which sweep each one runs, which models it
// identifies, and where its stored reference lives.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/sweep_spec.h"

namespace perfbench {

/// Component name the benchmark registers its freshly identified models
/// under. It is deliberately not "default": a ModelCache miss on it throws
/// instead of falling back to the process-wide defaultDriverModel() cache,
/// which would make every setup after the first one free.
inline const char* kModelName = "perfbench";

inline constexpr std::uint64_t kReferenceSeed = 1;

struct Workload {
  std::string name;
  std::string why;  ///< one line, mirrored in BENCHMARK.json
  bool needs_driver = false;
  bool needs_receiver = false;
  /// The sweep for a seed; the seed feeds every stochastic choice.
  fdtdmm::SweepSpec (*spec)(std::uint64_t seed) = nullptr;
  /// False when the inputs are the same for every seed (no stochastic axis).
  bool seeded = true;
  /// The stored reference perfbench/reference/<name>.csv holds every
  /// reference_stride-th corner of the workload at kReferenceSeed. An
  /// unseeded workload compares its measured CSV instead (stride 1).
  std::size_t reference_stride = 1;
  /// Untraced repetitions a run makes at least, whatever --seconds says.
  std::size_t min_reps = 3;
  /// Back-to-back expansions timed in each repetition's set-up; expand_s is
  /// their mean. Above 1 where one expansion takes a few milliseconds, too
  /// short to time steadily on its own.
  std::size_t expand_repeats = 1;
};

const std::vector<Workload>& workloads();

/// nullptr when no workload has that name.
const Workload* findWorkload(const std::string& name);

}  // namespace perfbench
