#pragma once
/// \file transient.h
/// Fixed-step transient analysis of a Circuit: theta-method companion
/// models for reactive elements and Newton-Raphson on the nonlinear MNA
/// system at every step (the standard SPICE algorithm).
///
/// Static/dynamic stamp contract
/// -----------------------------
/// The engine exploits the Element::stampStatic / stampDynamic split:
///
///  1. After Element::begin(dt), every element's stampStatic is assembled
///     exactly once into a *base matrix* (R/C/L companion conductances,
///     source and line incidence rows). Static stamps may only write to
///     sys.a; a static RHS contribution would be lost when the RHS is
///     rebuilt each iteration, so the engine rejects it (std::logic_error).
///  2. The base matrix is LU-factored once. Inside the Newton loop only
///     stampDynamic runs: it rebuilds the RHS (sources, companion
///     histories, line reflections) and, for nonlinear devices, adds
///     Jacobian entries on top of a fresh copy of the base matrix.
///  3. A dirty-pattern check (StampSystem::matrix_dirty, set by the matrix
///     stamp helpers) decides whether the cached base factorization is
///     still valid. A purely linear circuit therefore performs exactly ONE
///     LU factorization for the entire run — every Newton iteration is a
///     forward/back substitution — while circuits with nonlinear devices
///     re-factor only on iterations whose dynamic stamps touched the
///     matrix. No Matrix/Vector allocations happen inside the loop.
///
/// Sparse path (TransientSolverMode::kSparse)
/// ------------------------------------------
/// The same static/dynamic contract drives a compressed-sparse-row
/// assembly: the *symbolic pattern* is built once from the static stamps
/// (StampSystem routes element writes into a SparseMatrix target), numeric
/// values are refreshed in place each iteration, and the factorization is a
/// BandLu<double> (math/band_lu.h) — reverse Cuthill-McKee fill-reducing
/// ordering plus banded LU with partial pivoting. Segmented RLGC board
/// models are chain-structured, so the permuted bandwidth stays O(1) in the
/// segment count and the run scales O(n) instead of the dense path's
/// O(n^3) factor + O(n^2) solves.
/// Dynamic stamps that touch entries outside the static pattern (e.g. a
/// MOSFET whose drain/source orientation swaps) are buffered as pattern
/// overflow; the engine then widens the cached pattern once and continues —
/// pattern growth costs one recompile per new position set, not one per
/// iteration. A purely linear circuit still performs exactly ONE (sparse)
/// factorization for the entire run.
///
/// TransientOptions::solver_mode selects between these paths and the legacy
/// full-restamp path (rebuild + refactor the complete system every
/// iteration), kept as the bit-for-bit reference for equivalence tests.

#include <map>
#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "circuit/solver_state.h"
#include "obs/telemetry.h"
#include "signal/waveform.h"

namespace fdtdmm {

/// Linear-solver strategy of the transient engine.
enum class TransientSolverMode {
  /// Assemble static stamps once, cache the LU factorization of the base
  /// matrix, re-factor only when a dynamic stamp dirties the matrix.
  kReuseFactorization,
  /// Legacy reference path: restamp the full system and factor it at every
  /// Newton iteration. Slower; used by equivalence tests and benchmarks.
  kFullRestamp,
  /// Sparse CSR assembly + banded-LU-with-RCM factorization (see the file
  /// comment). Same caching discipline as kReuseFactorization; orders of
  /// magnitude faster on large segmented RLGC systems.
  kSparse,
};

/// Stable names for the solver modes ("reuse_lu", "full_restamp",
/// "sparse") — the currency of scenario parameters and bench flags, so
/// sweeps can put an axis on the solver mode.
const char* transientSolverModeName(TransientSolverMode mode);

/// Parses a solver-mode name. \throws std::invalid_argument on an unknown
/// name (the message lists the valid ones).
TransientSolverMode transientSolverModeFromName(const std::string& name);

/// All mode names, in enum order (descriptor choice lists).
std::vector<std::string> transientSolverModeNames();

/// Options for a transient run.
struct TransientOptions {
  double dt = 1e-12;        ///< time step [s]; must be > 0
  double t_stop = 1e-9;     ///< end time [s]; must be > 0
  double settle_time = 0.0; ///< pre-roll with t < 0 to reach steady state
  int max_newton_iterations = 100;
  double v_tolerance = 1e-9;  ///< Newton convergence on max |dx|
  double max_delta_v = 1.0;   ///< per-iteration voltage damping clamp [V]
  TransientSolverMode solver_mode = TransientSolverMode::kReuseFactorization;
  /// Optional telemetry sink: when non-null the run *accumulates* its
  /// phase wall times (static stamp, factor, RHS stamp, solve, Newton
  /// loop) and solver counters into it (+=, so one sink can aggregate
  /// several runs — see obs/telemetry.h for the schema). Null keeps the
  /// Newton loop clock-free: every instrumentation point then costs one
  /// branch. Timings never influence results — waveforms are bit-identical
  /// with telemetry on or off.
  obs::RunTelemetry* telemetry = nullptr;
  /// Numerical-health collection (obs/health.h). With health.collect set
  /// AND telemetry attached, the run records factorization pivot stats, a
  /// Hager condition estimate on the cached factors, one post-run relative
  /// residual, and per-step Newton convergence quality into
  /// telemetry->health, then grades it against health.thresholds. Off (the
  /// default) the solver pays one branch per site and — as with telemetry —
  /// results are bit-identical either way. Sweeps enable collection for
  /// every corner via sharing.health instead; this per-run field wins when
  /// its collect flag is set.
  obs::HealthOptions health;
  /// Optional cross-run solver-state sharing (see circuit/solver_state.h).
  /// Default-constructed (null provider) = no sharing, the historical
  /// behavior. With a provider and non-empty keys, the run checks its
  /// symbolic analysis and/or base factorization out of the provider
  /// instead of computing private copies — results are guaranteed
  /// bit-identical either way *provided the keys are honest* (equal keys
  /// only for runs whose shared pieces are bit-identical).
  SolverSharing sharing;
};

/// A named voltage probe between two nodes.
struct NodeProbe {
  std::string label;
  int n1 = 0;  ///< positive node
  int n2 = 0;  ///< negative node (usually ground)
};

/// A named branch-current probe on a voltage source. The recorded value is
/// the current flowing from the source's n1 terminal through the source to
/// n2. Forcing a device port with a source and probing this current is how
/// the identification pipeline measures port currents.
struct BranchProbe {
  std::string label;
  const VoltageSource* source = nullptr;
};

/// Result of a transient run.
struct TransientResult {
  std::map<std::string, Waveform> probes;  ///< keyed by probe label
  std::size_t steps = 0;                   ///< accepted steps (t >= 0)
  int max_newton_iterations = 0;           ///< worst step
  long long total_newton_iterations = 0;
  /// LU factorizations performed (dense or sparse). Exactly 1 in the
  /// kReuseFactorization and kSparse modes when no dynamic stamp touches
  /// the matrix (purely linear circuits); equals total_newton_iterations
  /// (+1 for the base) otherwise.
  long long lu_factorizations = 0;
  bool converged = true;  ///< false if any step hit the iteration cap

  /// Access with existence check. \throws std::out_of_range.
  const Waveform& at(const std::string& label) const { return probes.at(label); }
};

/// Runs a transient analysis.
/// \throws std::invalid_argument on bad options, probe nodes out of range,
///         or duplicate probe labels (across node and branch probes alike —
///         a duplicate would silently shadow another probe's waveform).
/// \throws std::logic_error if an element's stampStatic writes to the RHS.
/// \throws std::runtime_error if the Newton iteration diverges (non-finite
///         values); mere non-convergence is reported via `converged`.
TransientResult runTransient(Circuit& circuit, const TransientOptions& opt,
                             const std::vector<NodeProbe>& probes,
                             const std::vector<BranchProbe>& branch_probes = {});

}  // namespace fdtdmm
