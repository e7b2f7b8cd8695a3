#include "fdtd/solver.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "exec/worker_lender.h"
#include "math/newton.h"

namespace fdtdmm {

using namespace constants;

namespace {

// Fewest x-planes a slab may own. It keeps the per-step hand-off small next
// to the slab's work and gives the first and last slab the planes the
// x-face boundary updates span (0, 1 and nx-1, nx) whole.
constexpr std::size_t kMinSlabPlanes = 8;
// Most slabs per step (the slab count shares a 64-bit word with the step
// ticket, 8 bits of it).
constexpr std::size_t kMaxSlabs = 16;
// Steps between two attempts to borrow idle workers: a corner that starts
// while its siblings still occupy the pool picks up their workers as they
// finish.
constexpr std::size_t kRecruitEverySteps = 16;

inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

// The waits inside one step are a few microseconds: spin, then yield so a
// waiting thread cannot starve the one it waits for on a busy machine.
template <typename Done>
void spinUntil(Done done) {
  for (unsigned n = 0; !done(); ++n) {
    if (n < 4096) {
      cpuRelax();
    } else {
      std::this_thread::yield();
    }
  }
}

}  // namespace

/// The workers borrowed for one run()/runUntil() call. Lent jobs share
/// ownership, so one that starts after the run ended finds `stop` set and
/// returns without touching the solver.
struct FdtdSolver::SlabCrew {
  /// (step ticket << 8) | slab count of the step in flight; helper h runs
  /// slab h of it when h < count.
  std::atomic<std::uint64_t> go{0};
  /// Helper slabs of the step in flight not yet done.
  std::atomic<std::size_t> pending{0};
  std::atomic<bool> stop{false};
  /// Per slab: ticket of the last step whose H update of the slab's top
  /// plane is done, the hand-off the slab above waits for.
  std::array<std::atomic<std::uint64_t>, kMaxSlabs> h_done{};
  double t_half = 0.0;       ///< of the step in flight; published by `go`
  WorkerLender* lender = nullptr;  ///< caller-owned; the pool running the run
  std::size_t helpers = 0;   ///< caller-owned
  std::uint64_t ticket = 0;  ///< caller-owned
  std::size_t steps = 0;     ///< caller-owned; steps of this run so far
};

/// Holds a crew for the lifetime of one run()/runUntil() call and sends
/// the helpers back on every exit, a throwing port Newton included.
class FdtdSolver::CrewScope {
 public:
  explicit CrewScope(FdtdSolver& s) : s_(s) {
    WorkerLender* lender = WorkerLender::current();
    if (lender == nullptr || s_.maxSlabs() < 2) return;
    s_.crew_ = std::make_shared<SlabCrew>();
    s_.crew_->lender = lender;
  }
  ~CrewScope() {
    if (s_.crew_) s_.crew_->stop.store(true, std::memory_order_release);
    s_.crew_.reset();
  }
  CrewScope(const CrewScope&) = delete;
  CrewScope& operator=(const CrewScope&) = delete;

 private:
  FdtdSolver& s_;
};

LumpedPort::LumpedPort(const LumpedPortSpec& spec, PortModelPtr model)
    : spec_(spec), model_(std::move(model)) {
  if (!model_) throw std::invalid_argument("LumpedPort: null model");
  if (spec_.sign != 1 && spec_.sign != -1)
    throw std::invalid_argument("LumpedPort: sign must be +1 or -1");
}

FdtdSolver::FdtdSolver(Grid3 grid, const FdtdSolverOptions& opt)
    : grid_(std::move(grid)), opt_(opt) {
  if (!grid_.baked())
    throw std::invalid_argument("FdtdSolver: grid must be baked before use");
  if (opt_.newton_tolerance <= 0.0 || opt_.max_newton_iterations < 1)
    throw std::invalid_argument("FdtdSolver: bad Newton options");
  if (opt_.boundary == BoundaryKind::kCpml) {
    cpml_ = std::make_unique<CpmlBoundary>(&grid_, opt_.cpml);
  } else {
    mur_ = std::make_unique<MurBoundary>(&grid_);
  }
}

void FdtdSolver::setIncidentWave(const PlaneWave& wave) {
  if (started_) throw std::logic_error("FdtdSolver: cannot set incident wave after start");
  incident_ = std::make_unique<PlaneWave>(wave);

  // Precompute PEC forcing tables: only edges with nonzero polarization
  // component need per-step evaluation.
  for (auto& v : pec_incident_) v.clear();
  for (const Grid3::PecEdge& e : grid_.pecEdges()) {
    const double amp = incident_->polarization(e.axis) * incident_->amplitude();
    if (amp == 0.0) continue;
    double x, y, z;
    grid_.edgeCenter(e.axis, e.i, e.j, e.k, x, y, z);
    pec_incident_[static_cast<int>(e.axis)].push_back(
        {grid_.idx(e.i, e.j, e.k), static_cast<int>(e.axis),
         incident_->delay(x, y, z), amp});
  }
  // Precompute dielectric correction tables, per x-plane for the sweep.
  mat_incident_.assign(grid_.nx() + 1, {});
  for (const Grid3::MaterialEdge& e : grid_.materialEdges()) {
    const double amp = incident_->polarization(e.axis) * incident_->amplitude();
    if (amp == 0.0) continue;
    double x, y, z;
    grid_.edgeCenter(e.axis, e.i, e.j, e.k, x, y, z);
    mat_incident_[e.i].push_back({grid_.idx(e.i, e.j, e.k), static_cast<int>(e.axis),
                                  incident_->delay(x, y, z), amp, e.cb * e.d_eps,
                                  e.cb * e.sigma});
  }
}

LumpedPort* FdtdSolver::addLumpedPort(const LumpedPortSpec& spec, PortModelPtr model) {
  if (started_) throw std::logic_error("FdtdSolver: cannot add ports after start");
  // The Eq. (8) update needs the curl of H at the edge, which requires the
  // edge to be strictly interior in the two transverse directions.
  bool interior = false;
  switch (spec.axis) {
    case Axis::kX:
      interior = spec.j >= 1 && spec.k >= 1 && spec.j < grid_.ny() &&
                 spec.k < grid_.nz() && spec.i < grid_.nx();
      break;
    case Axis::kY:
      interior = spec.i >= 1 && spec.k >= 1 && spec.i < grid_.nx() &&
                 spec.k < grid_.nz() && spec.j < grid_.ny();
      break;
    case Axis::kZ:
      interior = spec.i >= 1 && spec.j >= 1 && spec.i < grid_.nx() &&
                 spec.j < grid_.ny() && spec.k < grid_.nz();
      break;
  }
  if (!interior)
    throw std::invalid_argument(
        "FdtdSolver: lumped port edge must be strictly interior transversally");
  if (grid_.isPecEdge(spec.axis, spec.i, spec.j, spec.k))
    throw std::invalid_argument("FdtdSolver: lumped port edge is PEC");

  auto port = std::make_unique<LumpedPort>(spec, std::move(model));
  // Alpha coefficients of Eqs. (9)-(12), evaluated with the edge-effective
  // material around the port cell. d_axis is the edge length; the current
  // density spreads over the transverse cell area.
  const double eps = grid_.edgeEps(spec.axis, spec.i, spec.j, spec.k);
  const double sigma = grid_.edgeSigma(spec.axis, spec.i, spec.j, spec.k);
  const double dt = grid_.dt();
  double d_axis = grid_.dz(), area = grid_.dx() * grid_.dy();
  switch (spec.axis) {
    case Axis::kX:
      d_axis = grid_.dx();
      area = grid_.dy() * grid_.dz();
      break;
    case Axis::kY:
      d_axis = grid_.dy();
      area = grid_.dx() * grid_.dz();
      break;
    case Axis::kZ:
      break;
  }
  const double h = sigma * dt / (2.0 * eps);
  port->alpha0_ = 1.0 + h;
  port->alpha1_ = 1.0 - h;
  port->alpha2_ = d_axis * dt / eps;
  port->alpha3_ = d_axis * dt / (2.0 * eps * area);
  port->d_axis_ = d_axis;
  if (incident_) {
    double x, y, z;
    grid_.edgeCenter(spec.axis, spec.i, spec.j, spec.k, x, y, z);
    port->inc_delay_ = incident_->delay(x, y, z);
  }
  ports_.push_back(std::move(port));
  return ports_.back().get();
}

std::size_t FdtdSolver::addVoltageProbe(const VoltageProbeSpec& spec) {
  bool ok = spec.k0 < spec.k1;
  switch (spec.axis) {
    case Axis::kX:
      ok = ok && spec.i <= grid_.ny() && spec.j <= grid_.nz() && spec.k1 <= grid_.nx();
      break;
    case Axis::kY:
      ok = ok && spec.i <= grid_.nx() && spec.j <= grid_.nz() && spec.k1 <= grid_.ny();
      break;
    case Axis::kZ:
      ok = ok && spec.i <= grid_.nx() && spec.j <= grid_.ny() && spec.k1 <= grid_.nz();
      break;
  }
  if (!ok) throw std::invalid_argument("FdtdSolver: invalid voltage probe span");
  v_probe_specs_.push_back(spec);
  v_probes_.emplace_back(0.0, grid_.dt(), Vector{});
  return v_probes_.size() - 1;
}

std::size_t FdtdSolver::addCurrentProbe(const CurrentProbeSpec& spec) {
  bool ok = false;
  switch (spec.axis) {
    case Axis::kX:
      ok = spec.j >= 1 && spec.k >= 1 && spec.i < grid_.nx() && spec.j < grid_.ny() &&
           spec.k < grid_.nz();
      break;
    case Axis::kY:
      ok = spec.i >= 1 && spec.k >= 1 && spec.i < grid_.nx() && spec.j < grid_.ny() &&
           spec.k < grid_.nz();
      break;
    case Axis::kZ:
      ok = spec.i >= 1 && spec.j >= 1 && spec.i < grid_.nx() && spec.j < grid_.ny() &&
           spec.k < grid_.nz();
      break;
  }
  if (!ok)
    throw std::invalid_argument("FdtdSolver: current probe edge must be interior");
  i_probe_specs_.push_back(spec);
  i_probes_.emplace_back(0.0, grid_.dt(), Vector{});
  return i_probes_.size() - 1;
}

NtffRecorder* FdtdSolver::addNtffSurface(const NtffSpec& spec) {
  if (started_) throw std::logic_error("FdtdSolver: cannot add NTFF surface after start");
  ntff_.push_back(std::make_unique<NtffRecorder>(&grid_, spec));
  return ntff_.back().get();
}

std::size_t FdtdSolver::addFieldProbe(const FieldProbeSpec& spec) {
  if (spec.i > grid_.nx() || spec.j > grid_.ny() || spec.k > grid_.nz())
    throw std::invalid_argument("FdtdSolver: invalid field probe");
  f_probe_specs_.push_back(spec);
  f_probes_.emplace_back(0.0, grid_.dt(), Vector{});
  return f_probes_.size() - 1;
}

double FdtdSolver::totalE(Axis axis, std::size_t i, std::size_t j, std::size_t k,
                          double t) const {
  double e = 0.0;
  switch (axis) {
    case Axis::kX: e = grid_.ex(i, j, k); break;
    case Axis::kY: e = grid_.ey(i, j, k); break;
    case Axis::kZ: e = grid_.ez(i, j, k); break;
  }
  if (incident_) {
    double x, y, z;
    grid_.edgeCenter(axis, i, j, k, x, y, z);
    e += incident_->field(axis, x, y, z, t);
  }
  return e;
}

std::size_t FdtdSolver::maxSlabs() const {
  return std::min(kMaxSlabs, (grid_.nx() + 1) / kMinSlabPlanes);
}

void FdtdSolver::recruitHelpers() {
  SlabCrew& crew = *crew_;
  const std::size_t want = std::min(maxSlabs(), crew.lender->fairShare());
  while (crew.helpers + 1 < want) {
    const std::size_t slot = crew.helpers + 1;
    // The job may start after this run has ended; helperLoop then leaves
    // without dereferencing the solver pointer (see SlabCrew).
    std::shared_ptr<SlabCrew> shared = crew_;
    if (!crew.lender->tryLend([this, shared, slot] { helperLoop(this, *shared, slot); }))
      break;
    // The next step published counts the helper in, whether or not its
    // job has started yet: the step then waits until it has.
    ++crew.helpers;
  }
}

void FdtdSolver::helperLoop(FdtdSolver* solver, SlabCrew& crew, std::size_t slot) {
  std::uint64_t seen = 0;  // tickets start at 1
  for (;;) {
    std::uint64_t word = 0;
    spinUntil([&] {
      word = crew.go.load(std::memory_order_acquire);
      return (word >> 8) != seen || crew.stop.load(std::memory_order_acquire);
    });
    // The crew stops only between steps, never while one waits for us.
    if (crew.stop.load(std::memory_order_acquire)) return;
    seen = word >> 8;
    const std::size_t n_slabs = word & 0xffu;
    if (slot >= n_slabs) continue;  // lent after this step was published
    solver->sweepSlab(slot, n_slabs, crew.t_half, &crew, seen);
    crew.pending.fetch_sub(1, std::memory_order_release);
  }
}

void FdtdSolver::sweep(double t_half) {
  SlabCrew* crew = crew_.get();
  const std::size_t n_slabs = crew != nullptr ? crew->helpers + 1 : 1;
  peak_slabs_ = std::max(peak_slabs_, n_slabs);
  if (n_slabs == 1) {
    sweepSlab(0, 1, t_half, nullptr, 0);
    return;
  }
  const std::uint64_t ticket = ++crew->ticket;
  crew->t_half = t_half;
  crew->pending.store(n_slabs - 1, std::memory_order_relaxed);
  crew->go.store((ticket << 8) | n_slabs, std::memory_order_release);
  sweepSlab(0, n_slabs, t_half, crew, ticket);
  spinUntil([&] { return crew->pending.load(std::memory_order_acquire) == 0; });
}

void FdtdSolver::sweepSlab(std::size_t slab, std::size_t n_slabs, double t_half,
                           SlabCrew* crew, std::uint64_t ticket) {
  const std::size_t planes = grid_.nx() + 1;
  const std::size_t lo = slab * planes / n_slabs;
  const std::size_t hi = (slab + 1) * planes / n_slabs;
  // E(lo) reads H(lo-1), and H(lo-1) reads the old E(lo): the first plane
  // of every slab but the lowest waits for the slab below.
  const bool defer_first = slab > 0;
  for (std::size_t i = lo; i < hi; ++i) {
    if (mur_) mur_->snapshotPlane(i);
    updateHPlane(i);
    if (i + 1 == hi && slab + 1 < n_slabs)
      crew->h_done[slab].store(ticket, std::memory_order_release);
    if (defer_first && i == lo) continue;
    updateEPlane(i, t_half);
  }
  if (defer_first) {
    spinUntil([&] {
      return crew->h_done[slab - 1].load(std::memory_order_acquire) >= ticket;
    });
    updateEPlane(lo, t_half);
  }
}

void FdtdSolver::updateHPlane(std::size_t i) {
  Grid3& g = grid_;
  const std::size_t nx = g.nx(), ny = g.ny(), nz = g.nz();
  const std::size_t sj = nz + 1, si = (ny + 1) * sj;  // j and i strides
  const double chx = g.dt() / kMu0;
  const double idx_ = 1.0 / g.dx(), idy = 1.0 / g.dy(), idz = 1.0 / g.dz();
  const double* __restrict ex = g.exData().data();
  const double* __restrict ey = g.eyData().data();
  const double* __restrict ez = g.ezData().data();
  double* __restrict hx = g.hxData().data();
  double* __restrict hy = g.hyData().data();
  double* __restrict hz = g.hzData().data();

  for (std::size_t j = 0; j < ny; ++j)
    for (std::size_t id = g.idx(i, j, 0), end = id + nz; id < end; ++id)
      hx[id] -= chx * ((ez[id + sj] - ez[id]) * idy - (ey[id + 1] - ey[id]) * idz);
  if (i < nx) {
    for (std::size_t j = 0; j <= ny; ++j)
      for (std::size_t id = g.idx(i, j, 0), end = id + nz; id < end; ++id)
        hy[id] -= chx * ((ex[id + 1] - ex[id]) * idz - (ez[id + si] - ez[id]) * idx_);
    for (std::size_t j = 0; j < ny; ++j)
      for (std::size_t id = g.idx(i, j, 0), end = id + nz + 1; id < end; ++id)
        hz[id] -= chx * ((ey[id + si] - ey[id]) * idx_ - (ex[id + sj] - ex[id]) * idy);
  }
  if (cpml_) cpml_->updateHPlane(i);
}

void FdtdSolver::updateEPlane(std::size_t i, double t_half) {
  Grid3& g = grid_;
  const std::size_t nx = g.nx(), ny = g.ny(), nz = g.nz();
  const std::size_t sj = nz + 1, si = (ny + 1) * sj;
  const double idx_ = 1.0 / g.dx(), idy = 1.0 / g.dy(), idz = 1.0 / g.dz();
  const double* __restrict hx = g.hxData().data();
  const double* __restrict hy = g.hyData().data();
  const double* __restrict hz = g.hzData().data();
  double* __restrict ex = g.exData().data();
  double* __restrict ey = g.eyData().data();
  double* __restrict ez = g.ezData().data();
  const double* __restrict ca_ex = g.caEx().data();
  const double* __restrict cb_ex = g.cbEx().data();
  const double* __restrict ca_ey = g.caEy().data();
  const double* __restrict cb_ey = g.cbEy().data();
  const double* __restrict ca_ez = g.caEz().data();
  const double* __restrict cb_ez = g.cbEz().data();

  if (i < nx) {
    for (std::size_t j = 1; j < ny; ++j)
      for (std::size_t id = g.idx(i, j, 1), end = id + nz - 1; id < end; ++id) {
        const double curl = (hz[id] - hz[id - sj]) * idy - (hy[id] - hy[id - 1]) * idz;
        ex[id] = ca_ex[id] * ex[id] + cb_ex[id] * curl;
      }
  }
  if (i >= 1 && i < nx) {
    for (std::size_t j = 0; j < ny; ++j)
      for (std::size_t id = g.idx(i, j, 1), end = id + nz - 1; id < end; ++id) {
        const double curl = (hx[id] - hx[id - 1]) * idz - (hz[id] - hz[id - si]) * idx_;
        ey[id] = ca_ey[id] * ey[id] + cb_ey[id] * curl;
      }
    for (std::size_t j = 1; j < ny; ++j)
      for (std::size_t id = g.idx(i, j, 0), end = id + nz; id < end; ++id) {
        const double curl = (hy[id] - hy[id - si]) * idx_ - (hx[id] - hx[id - sj]) * idy;
        ez[id] = ca_ez[id] * ez[id] + cb_ez[id] * curl;
      }
  }
  if (cpml_) cpml_->updateEPlane(i);
  applyIncidentMaterialCorrections(i, t_half);
  if (mur_) {
    mur_->finishPlane(i);
  } else {
    cpml_->applyPecBackingPlane(i);
  }
}

void FdtdSolver::applyIncidentMaterialCorrections(std::size_t i, double t_half) {
  if (!incident_) return;
  const PulseShape& shape = incident_->shape();
  std::vector<double>* fields[3] = {&grid_.exData(), &grid_.eyData(), &grid_.ezData()};
  for (const MatIncident& m : mat_incident_[i]) {
    const double xi = t_half - m.delay;
    // E_s update gains -cb * [(eps-eps0) dEi/dt + sigma Ei].
    (*fields[m.axis])[m.id] -=
        m.cb_deps * m.amp * shape.dg(xi) + m.cb_sigma * m.amp * shape.g(xi);
  }
}

void FdtdSolver::applyPecEdges(double t_new) {
  std::vector<double>* fields[3] = {&grid_.exData(), &grid_.eyData(), &grid_.ezData()};
  if (incident_) {
    const PulseShape& shape = incident_->shape();
    // Zero all PEC edges first (cheap relative to the incident subset), then
    // subtract the incident field where the polarization reaches.
    for (const Grid3::PecEdge& e : grid_.pecEdges()) {
      (*fields[static_cast<int>(e.axis)])[grid_.idx(e.i, e.j, e.k)] = 0.0;
    }
    for (int c = 0; c < 3; ++c) {
      std::vector<double>& f = *fields[c];
      for (const PecIncident& p : pec_incident_[c]) {
        f[p.id] = -p.amp * shape.g(t_new - p.delay);
      }
    }
  } else {
    for (const Grid3::PecEdge& e : grid_.pecEdges()) {
      (*fields[static_cast<int>(e.axis)])[grid_.idx(e.i, e.j, e.k)] = 0.0;
    }
  }
}

void FdtdSolver::solvePorts(double t_new, double t_half) {
  Grid3& g = grid_;
  const double idx_ = 1.0 / g.dx(), idy = 1.0 / g.dy(), idz = 1.0 / g.dz();
  for (auto& pp : ports_) {
    LumpedPort& port = *pp;
    const std::size_t i = port.spec_.i, j = port.spec_.j, k = port.spec_.k;
    const Axis axis = port.spec_.axis;
    const double s = static_cast<double>(port.spec_.sign);

    // Port-axis component of curl(H_s) at the port edge, time n+1/2.
    double w = 0.0;
    switch (axis) {
      case Axis::kX:
        w = (g.hz(i, j, k) - g.hz(i, j - 1, k)) * idy -
            (g.hy(i, j, k) - g.hy(i, j, k - 1)) * idz;
        break;
      case Axis::kY:
        w = (g.hx(i, j, k) - g.hx(i, j, k - 1)) * idz -
            (g.hz(i, j, k) - g.hz(i - 1, j, k)) * idx_;
        break;
      case Axis::kZ:
        w = (g.hy(i, j, k) - g.hy(i - 1, j, k)) * idx_ -
            (g.hx(i, j, k) - g.hx(i, j - 1, k)) * idy;
        break;
    }
    double ei_new = 0.0;
    if (incident_) {
      const PulseShape& shape = incident_->shape();
      const double amp = incident_->polarization(axis) * incident_->amplitude();
      // eps0 dEi/dt contribution of Eq. (8), evaluated at n+1/2.
      w += kEps0 * amp * shape.dg(t_half - port.inc_delay_);
      ei_new = amp * shape.g(t_new - port.inc_delay_);
    }

    const double rhs = port.alpha1_ * port.v_total_ + port.alpha2_ * w -
                       port.alpha3_ * s * port.i_prev_;
    double v = port.v_total_;  // warm start from the previous step
    PortModel& dev = *port.model_;
    NewtonOptions nopt;
    nopt.tolerance = opt_.newton_tolerance;
    nopt.max_iterations = opt_.max_newton_iterations;
    auto f = [&](double vx, double& df) {
      double didv = 0.0;
      const double idev = dev.current(s * vx, t_new, didv);
      df = port.alpha0_ + port.alpha3_ * didv;
      return port.alpha0_ * vx + port.alpha3_ * s * idev - rhs;
    };
    const NewtonResult nr = newtonScalar(f, v, nopt);
    if (!nr.converged)
      throw std::runtime_error("FdtdSolver: port '" + port.spec_.label +
                               "' Newton solve did not converge");
    port.max_newton_ = std::max(port.max_newton_, nr.iterations);
    port.total_newton_ += nr.iterations;

    double didv = 0.0;
    const double i_dev = dev.current(s * v, t_new, didv);
    dev.commit(s * v, t_new);
    port.i_prev_ = i_dev;
    port.v_total_ = v;
    // Write back the scattered field: E_s = v_total/d - E_i.
    const double es = v / port.d_axis_ - ei_new;
    switch (axis) {
      case Axis::kX: g.ex(i, j, k) = es; break;
      case Axis::kY: g.ey(i, j, k) = es; break;
      case Axis::kZ: g.ez(i, j, k) = es; break;
    }

    port.v_rec_.push(s * v);
    port.i_rec_.push(i_dev);
  }
}

void FdtdSolver::recordProbes() {
  const double t = time();
  for (std::size_t p = 0; p < v_probe_specs_.size(); ++p) {
    const VoltageProbeSpec& spec = v_probe_specs_[p];
    double acc = 0.0;
    double d = grid_.dz();
    for (std::size_t u = spec.k0; u < spec.k1; ++u) {
      switch (spec.axis) {
        case Axis::kX:
          acc += totalE(Axis::kX, u, spec.i, spec.j, t);
          d = grid_.dx();
          break;
        case Axis::kY:
          acc += totalE(Axis::kY, spec.i, u, spec.j, t);
          d = grid_.dy();
          break;
        case Axis::kZ:
          acc += totalE(Axis::kZ, spec.i, spec.j, u, t);
          d = grid_.dz();
          break;
      }
    }
    v_probes_[p].push(static_cast<double>(spec.sign) * acc * d);
  }
  for (std::size_t p = 0; p < f_probe_specs_.size(); ++p) {
    const FieldProbeSpec& spec = f_probe_specs_[p];
    f_probes_[p].push(totalE(spec.axis, spec.i, spec.j, spec.k, t));
  }
  for (std::size_t p = 0; p < i_probe_specs_.size(); ++p) {
    const CurrentProbeSpec& spec = i_probe_specs_[p];
    const Grid3& g = grid_;
    const std::size_t i = spec.i, j = spec.j, k = spec.k;
    // Ampere loop of the scattered H around the edge (the incident H
    // carries no net current: it is source-free in vacuum).
    double cur = 0.0;
    switch (spec.axis) {
      case Axis::kX:
        cur = (g.hz(i, j, k) - g.hz(i, j - 1, k)) * g.dz() +
              (g.hy(i, j, k - 1) - g.hy(i, j, k)) * g.dy();
        break;
      case Axis::kY:
        cur = (g.hx(i, j, k) - g.hx(i, j, k - 1)) * g.dx() +
              (g.hz(i - 1, j, k) - g.hz(i, j, k)) * g.dz();
        break;
      case Axis::kZ:
        cur = (g.hy(i, j, k) - g.hy(i - 1, j, k)) * g.dy() +
              (g.hx(i, j - 1, k) - g.hx(i, j, k)) * g.dx();
        break;
    }
    i_probes_[p].push(cur);
  }
}

void FdtdSolver::stepOnce() {
  if (!started_) {
    started_ = true;
    for (auto& p : ports_) {
      p->model_->prepare(grid_.dt());
      p->v_rec_ = Waveform(grid_.dt(), grid_.dt(), Vector{});
      p->i_rec_ = Waveform(grid_.dt(), grid_.dt(), Vector{});
    }
    for (std::size_t p = 0; p < v_probes_.size(); ++p)
      v_probes_[p] = Waveform(grid_.dt(), grid_.dt(), Vector{});
    for (std::size_t p = 0; p < f_probes_.size(); ++p)
      f_probes_[p] = Waveform(grid_.dt(), grid_.dt(), Vector{});
    for (std::size_t p = 0; p < i_probes_.size(); ++p)
      i_probes_[p] = Waveform(grid_.dt(), grid_.dt(), Vector{});
  }
  const double dt = grid_.dt();
  const double t_new = static_cast<double>(step_ + 1) * dt;
  const double t_half = (static_cast<double>(step_) + 0.5) * dt;

  if (crew_ && crew_->steps++ % kRecruitEverySteps == 0) recruitHelpers();
  sweep(t_half);
  applyPecEdges(t_new);
  solvePorts(t_new, t_half);
  ++step_;
  recordProbes();
  for (auto& rec : ntff_) rec->accumulate(time());
}

void FdtdSolver::run(std::size_t n_steps) {
  CrewScope crew(*this);
  for (std::size_t s = 0; s < n_steps; ++s) stepOnce();
}

void FdtdSolver::runUntil(double t_stop) {
  CrewScope crew(*this);
  while (time() < t_stop) stepOnce();
}

const Waveform& FdtdSolver::voltageProbe(std::size_t index) const {
  if (index >= v_probes_.size())
    throw std::out_of_range("FdtdSolver::voltageProbe: bad index");
  return v_probes_[index];
}

const Waveform& FdtdSolver::fieldProbe(std::size_t index) const {
  if (index >= f_probes_.size())
    throw std::out_of_range("FdtdSolver::fieldProbe: bad index");
  return f_probes_[index];
}

const Waveform& FdtdSolver::currentProbe(std::size_t index) const {
  if (index >= i_probes_.size())
    throw std::out_of_range("FdtdSolver::currentProbe: bad index");
  return i_probes_[index];
}

int FdtdSolver::maxNewtonIterations() const {
  int m = 0;
  for (const auto& p : ports_) m = std::max(m, p->maxNewtonIterations());
  return m;
}

}  // namespace fdtdmm
