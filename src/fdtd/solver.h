#pragma once
/// \file solver.h
/// 3D FDTD time stepper with lumped behavioral elements in the mesh — the
/// paper's hybridization engine (Section 3). Each time step:
///   1. one sweep over the x-planes i = 0..nx that, per plane, updates the
///      (scattered) H of plane i, then its volume E with baked material
///      coefficients, the scattered-field dielectric corrections from the
///      incident wave, and the plane's share of the absorbing boundary
///      (Mur-1 or CPML; see mur.h and cpml.h);
///   2. tangential-E forcing on PEC edges (E_s = -E_i);
///   3. per-port Newton-Raphson solve of the coupled Eq. (8) + device law
///      (Eq. (13) for RBF macromodels), overwriting the port edge field;
///   4. probe recording and near-to-far-field accumulation.
///
/// Plane order. H(i) reads E(i) and E(i+1), which the sweep has not yet
/// written this step; E(i) reads H(i) and H(i-1), both already new. Every
/// element therefore sees exactly the operands of a whole-grid H pass
/// followed by a whole-grid E pass, and all field arrays stream through
/// the cache once per step instead of once per pass. Within plane i the
/// order is: Mur snapshot(i), H(i), CPML H(i), E(i), CPML E(i), material
/// corrections(i), then the boundary writes plane i completes.
///
/// Slabs. The sweep is cut into contiguous x-slabs run concurrently by the
/// calling thread and by idle workers it borrows from the pool running it
/// (WorkerLender::current(); none outside a pool). At a slab boundary m the
/// upper slab does H(m) first and defers E(m) (with its corrections and
/// boundary writes) to the end of its slab, after the lower slab has
/// published that H(m-1) — the last reader of the old E(m) — is done. PEC
/// forcing, ports, probes and NTFF run serially after all slabs finish.
/// The result is bit-for-bit the same for any slab count; the count
/// follows only from how many workers happen to be idle.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fdtd/cpml.h"
#include "fdtd/grid.h"
#include "fdtd/incident.h"
#include "fdtd/mur.h"
#include "fdtd/ntff.h"
#include "signal/port_model.h"
#include "signal/waveform.h"

namespace fdtdmm {

/// Placement of a lumped one-port on an E edge of any orientation.
struct LumpedPortSpec {
  Axis axis = Axis::kZ;             ///< edge direction of the device
  std::size_t i = 0, j = 0, k = 0;  ///< edge indices (must be interior in the
                                    ///< two transverse directions)
  int sign = +1;  ///< +1: device + terminal at the lower node along `axis`
                  ///< (v_device = sign * E_axis * d_axis)
  std::string label = "port";
};

/// A lumped behavioral element inserted in the mesh, solved per Eq. (8).
class LumpedPort {
 public:
  LumpedPort(const LumpedPortSpec& spec, PortModelPtr model);

  const std::string& label() const { return spec_.label; }
  const LumpedPortSpec& spec() const { return spec_; }

  /// Port voltage/current histories (device sign convention), recorded at
  /// every accepted step.
  const Waveform& voltage() const { return v_rec_; }
  const Waveform& current() const { return i_rec_; }

  int maxNewtonIterations() const { return max_newton_; }
  long long totalNewtonIterations() const { return total_newton_; }

 private:
  friend class FdtdSolver;

  LumpedPortSpec spec_;
  PortModelPtr model_;
  // Precomputed alpha coefficients of Eqs. (9)-(12).
  double alpha0_ = 1.0, alpha1_ = 1.0, alpha2_ = 0.0, alpha3_ = 0.0;
  double d_axis_ = 0.0;     ///< edge length along the port axis
  double v_total_ = 0.0;    ///< total cell voltage at the previous step
  double i_prev_ = 0.0;     ///< device current at the previous step (mesh sign)
  double inc_delay_ = 0.0;  ///< plane-wave delay at the edge center
  int max_newton_ = 0;
  long long total_newton_ = 0;
  Waveform v_rec_;
  Waveform i_rec_;
};

/// Voltage probe: line integral of the total E component along `axis` over
/// a contiguous edge span, times `sign` (so it can match a device's
/// terminal convention). For axis = kZ the span runs over k in [k0, k1)
/// at fixed (i, j); analogously for the other axes (the `0`/`1` fields
/// index the probe axis, i/j the transverse coordinates in x,y,z order
/// with the probe axis removed).
struct VoltageProbeSpec {
  Axis axis = Axis::kZ;
  std::size_t i = 0, j = 0, k0 = 0, k1 = 1;
  int sign = +1;
  std::string label = "v";
};

/// Point probe of one total E component.
struct FieldProbeSpec {
  Axis axis = Axis::kZ;
  std::size_t i = 0, j = 0, k = 0;
  std::string label = "e";
};

/// Current probe: Ampere loop around the E edge (axis, i, j, k); records
/// the total (conduction + displacement) current through the loop in the
/// +axis direction. On a lumped-port edge at DC this equals the device
/// current.
struct CurrentProbeSpec {
  Axis axis = Axis::kZ;
  std::size_t i = 0, j = 0, k = 0;
  std::string label = "i";
};

/// Absorbing boundary selector.
enum class BoundaryKind {
  kMur1,  ///< first-order Mur (cheap, ~1-2 % reflection)
  kCpml,  ///< convolutional PML (8 cells, reflections typically < 0.1 %)
};

/// Options for the solver.
struct FdtdSolverOptions {
  double newton_tolerance = 1e-9;  ///< the paper's "very stringent" 1e-9
  int max_newton_iterations = 50;
  BoundaryKind boundary = BoundaryKind::kMur1;
  CpmlOptions cpml{};  ///< used when boundary == kCpml
};

/// The 3D FDTD engine. Owns the grid (moved in) and all attachments.
class FdtdSolver {
 public:
  /// \throws std::invalid_argument if the grid is not baked.
  explicit FdtdSolver(Grid3 grid, const FdtdSolverOptions& opt = {});

  Grid3& grid() { return grid_; }
  const Grid3& grid() const { return grid_; }
  double dt() const { return grid_.dt(); }
  double time() const { return static_cast<double>(step_) * grid_.dt(); }

  /// Attaches the incident plane wave (scattered-field formulation).
  /// Must be called before the first step.
  void setIncidentWave(const PlaneWave& wave);

  /// Adds a lumped one-port at a z-directed edge. The edge must be strictly
  /// interior and not PEC. Returns a stable pointer owned by the solver.
  /// \throws std::invalid_argument on bad placement.
  LumpedPort* addLumpedPort(const LumpedPortSpec& spec, PortModelPtr model);

  /// Adds a voltage probe (recorded every step). Returns its index.
  std::size_t addVoltageProbe(const VoltageProbeSpec& spec);

  /// Adds a field probe. Returns its index.
  std::size_t addFieldProbe(const FieldProbeSpec& spec);

  /// Adds an Ampere-loop current probe. Returns its index.
  std::size_t addCurrentProbe(const CurrentProbeSpec& spec);

  /// Attaches a near-to-far-field Huygens surface (radiation
  /// post-processing). Returns a stable pointer owned by the solver.
  NtffRecorder* addNtffSurface(const NtffSpec& spec);

  /// Advances n time steps. When called from a pool task, idle pool
  /// workers are borrowed for the plane sweep (retried every few steps,
  /// at most the pool's fair share) and returned before run() returns or
  /// throws. \throws std::runtime_error if a port Newton solve fails to
  /// converge.
  void run(std::size_t n_steps);

  /// Advances until time() >= t_stop; borrows workers like run().
  void runUntil(double t_stop);

  /// Probe results (after run).
  const Waveform& voltageProbe(std::size_t index) const;
  const Waveform& fieldProbe(std::size_t index) const;
  const Waveform& currentProbe(std::size_t index) const;
  const std::vector<std::unique_ptr<LumpedPort>>& ports() const { return ports_; }

  /// Worst-case Newton iteration count across all ports and steps.
  int maxNewtonIterations() const;

  /// Most x-slabs any step so far was split into: 1 unless the solver ran
  /// as a pool task while workers were idle.
  std::size_t peakSlabs() const { return peak_slabs_; }

 private:
  struct SlabCrew;
  class CrewScope;

  void stepOnce();
  std::size_t maxSlabs() const;
  void recruitHelpers();
  static void helperLoop(FdtdSolver* solver, SlabCrew& crew, std::size_t slot);
  void sweep(double t_half);
  void sweepSlab(std::size_t slab, std::size_t n_slabs, double t_half,
                 SlabCrew* crew, std::uint64_t ticket);
  void updateHPlane(std::size_t i);
  void updateEPlane(std::size_t i, double t_half);
  void applyIncidentMaterialCorrections(std::size_t i, double t_half);
  void applyPecEdges(double t_new);
  void solvePorts(double t_new, double t_half);
  void recordProbes();
  double totalE(Axis axis, std::size_t i, std::size_t j, std::size_t k,
                double t) const;

  Grid3 grid_;
  FdtdSolverOptions opt_;
  std::unique_ptr<MurBoundary> mur_;
  std::unique_ptr<CpmlBoundary> cpml_;
  std::unique_ptr<PlaneWave> incident_;
  std::size_t step_ = 0;
  bool started_ = false;

  // Borrowed workers of the run()/runUntil() call in progress (null when
  // none can be borrowed).
  std::shared_ptr<SlabCrew> crew_;
  std::size_t peak_slabs_ = 1;

  std::vector<std::unique_ptr<LumpedPort>> ports_;
  std::vector<VoltageProbeSpec> v_probe_specs_;
  std::vector<Waveform> v_probes_;
  std::vector<FieldProbeSpec> f_probe_specs_;
  std::vector<Waveform> f_probes_;
  std::vector<CurrentProbeSpec> i_probe_specs_;
  std::vector<Waveform> i_probes_;
  std::vector<std::unique_ptr<NtffRecorder>> ntff_;

  // Precomputed incident-wave data for the PEC edge forcing.
  struct PecIncident {
    std::size_t id;   ///< linear index into the component array
    int axis;
    double delay;     ///< plane-wave delay at the edge center
    double amp;       ///< polarization * amplitude for this component
  };
  std::vector<PecIncident> pec_incident_[3];
  // Incident-correction data per material edge (delay and component amp),
  // indexed by x-plane.
  struct MatIncident {
    std::size_t id;
    int axis;
    double delay;
    double amp;
    double cb_deps;   ///< cb * (eps_eff - eps0)
    double cb_sigma;  ///< cb * sigma_eff
  };
  std::vector<std::vector<MatIncident>> mat_incident_;
};

}  // namespace fdtdmm
