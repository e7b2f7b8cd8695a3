// Bit-for-bit golden for the 3D FDTD time step. Every probe and port
// waveform of three fixtures is hashed (FNV-1a over the raw IEEE-754
// bytes) and compared with hashes recorded from the reference kernel, so
// any reordering of the update arithmetic shows up as a changed hash.
//
// Each fixture runs serially and under a lender of 2 and 3 threads that the
// solver borrows for its x-slabs: the hashes must not depend on how many
// slabs the step was cut into.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "engine/thread_pool.h"
#include "exec/worker_lender.h"
#include "fdtd/solver.h"
#include "rbf/driver_model.h"
#include "signal/bit_pattern.h"
#include "signal/linear_ports.h"
#include "tiny_models.h"

namespace fdtdmm {
namespace {

constexpr double kDeg = 3.14159265358979323846 / 180.0;

class WaveHash {
 public:
  void add(const Waveform& w) {
    mix(w.size());
    for (std::size_t n = 0; n < w.size(); ++n) {
      const double v = w[n];
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof bits);
      mix(bits);
    }
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
    return buf;
  }

 private:
  void mix(std::uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (x >> (8 * b)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

struct CaseRun {
  std::string hash;
  std::size_t slabs = 0;  ///< most x-slabs a step was split into
};

CaseRun hashAll(const FdtdSolver& s, std::size_t n_v, std::size_t n_f,
                std::size_t n_i) {
  WaveHash h;
  for (const auto& p : s.ports()) {
    h.add(p->voltage());
    h.add(p->current());
  }
  for (std::size_t p = 0; p < n_v; ++p) h.add(s.voltageProbe(p));
  for (std::size_t p = 0; p < n_f; ++p) h.add(s.fieldProbe(p));
  for (std::size_t p = 0; p < n_i; ++p) h.add(s.currentProbe(p));
  return {h.hex(), s.peakSlabs()};
}

// The Fig. 3 two-strip line of the tline scenario on its default
// 180x24x23 mesh: RBF driver at the near end, parallel RC at the far end,
// Mur boundary, a 0.2 ns bit time so the short run sees two edges.
CaseRun runTline() {
  const std::size_t nx = 180, ny = 24, nz = 23, len = 160, width = 4, gap = 3;
  GridSpec spec;
  spec.nx = nx;
  spec.ny = ny;
  spec.nz = nz;
  spec.dx = spec.dy = spec.dz = 0.723e-3;
  Grid3 grid(spec);
  const std::size_t x0 = (nx - len) / 2, x1 = x0 + len;
  const std::size_t jy0 = (ny - width) / 2, jy1 = jy0 + width;
  const std::size_t kz0 = (nz - gap) / 2, kz1 = kz0 + gap;
  grid.pecPlateZ(kz0, x0, x1, jy0, jy1);
  grid.pecPlateZ(kz1, x0, x1, jy0, jy1);
  const std::size_t jc = (jy0 + jy1) / 2, k_dev = kz1 - 1;
  grid.pecWireZ(x0, jc, kz0, k_dev);
  grid.pecWireZ(x1, jc, kz0, k_dev);
  grid.bake();

  FdtdSolver solver(std::move(grid));
  LumpedPortSpec near_spec;
  near_spec.i = x0;
  near_spec.j = jc;
  near_spec.k = k_dev;
  near_spec.sign = -1;
  near_spec.label = "near";
  const BitPattern pattern("010", 0.2e-9);
  solver.addLumpedPort(near_spec, std::make_shared<RbfDriverPort>(
                                      testmodels::tinyDriver(), pattern));
  LumpedPortSpec far_spec = near_spec;
  far_spec.i = x1;
  far_spec.label = "far";
  solver.addLumpedPort(far_spec, std::make_shared<ParallelRcPort>(500.0, 1e-12));
  solver.addVoltageProbe({Axis::kZ, nx / 2, jc, kz0, kz1, -1, "mid"});
  solver.addCurrentProbe({Axis::kZ, x1, jc, k_dev, "i_far"});
  solver.runUntil(0.6e-9);
  return hashAll(solver, 1, 0, 1);
}

// Mur boundary, oblique incident plane wave and a lossy dielectric slab
// carrying PEC strips: exercises the scattered-field material corrections
// and the PEC forcing of pcb_scenario on a small mesh. The order of the
// Mur face updates shows only on the edges where two boundary faces meet
// (nothing inside reads them), so three probes sit on such edges; and the
// cells are not cubic, since with equal Mur coefficients on every axis
// those edges come out the same in either order.
CaseRun runMurIncidentDielectric() {
  GridSpec spec;
  spec.nx = 40;
  spec.ny = 22;
  spec.nz = 14;
  spec.dx = 1e-3;
  spec.dy = 1.25e-3;
  spec.dz = 0.8e-3;
  Grid3 grid(spec);
  grid.setDielectricBox(4, 36, 3, 19, 4, 8, 4.3, 0.02);
  grid.pecPlateZ(4, 4, 36, 3, 19);
  grid.pecPlateZ(6, 8, 32, 10, 12);
  grid.pecWireZ(8, 11, 4, 5);
  grid.pecWireZ(32, 11, 5, 6);
  grid.bake();

  FdtdSolver solver(std::move(grid));
  const PlaneWave wave(60.0 * kDeg, 30.0 * kDeg, 500.0,
                       gaussianPulseShape(0.12e-9, 0.03e-9), 0.6, 0.8);
  solver.setIncidentWave(wave);
  solver.addLumpedPort({Axis::kZ, 8, 11, 5, +1, "near"},
                       std::make_shared<ResistorPort>(50.0));
  solver.addLumpedPort({Axis::kZ, 32, 11, 4, +1, "far"},
                       std::make_shared<ParallelRcPort>(100.0, 0.5e-12));
  solver.addVoltageProbe({Axis::kZ, 20, 11, 4, 6, +1, "v_mid"});
  solver.addFieldProbe({Axis::kX, 20, 11, 9, "ex_air"});
  solver.addFieldProbe({Axis::kY, 1, 0, 13, "ey_top"});
  solver.addFieldProbe({Axis::kZ, 0, 0, 5, "ez_x0_y0"});
  solver.addFieldProbe({Axis::kY, 40, 3, 0, "ey_x1_z0"});
  solver.addFieldProbe({Axis::kX, 5, 0, 14, "ex_y0_z1"});
  solver.addCurrentProbe({Axis::kZ, 20, 11, 5, "i_mid"});
  solver.runUntil(0.35e-9);
  return hashAll(solver, 1, 5, 1);
}

// CPML boundary with an incident wave on a wire over a ground plane, the
// emc fdtd_reference arrangement, plus a dielectric block inside the PML
// reach so the CPML and material corrections meet on the same planes.
CaseRun runCpmlIncident() {
  GridSpec spec;
  spec.nx = 36;
  spec.ny = 20;
  spec.nz = 20;
  spec.dx = spec.dy = spec.dz = 1e-3;
  Grid3 grid(spec);
  grid.setDielectricBox(3, 12, 6, 14, 4, 7, 3.0);
  grid.pecPlateZ(4, 0, 36, 0, 20);
  for (std::size_t i = 10; i < 26; ++i) grid.pecEdge(Axis::kX, i, 10, 7);
  grid.pecWireZ(10, 10, 5, 7);
  grid.pecWireZ(26, 10, 5, 7);
  grid.bake();

  FdtdSolverOptions opt;
  opt.boundary = BoundaryKind::kCpml;
  opt.cpml.thickness = 6;
  FdtdSolver solver(std::move(grid), opt);
  const PlaneWave wave(45.0 * kDeg, 200.0 * kDeg, 1000.0,
                       gaussianPulseShape(0.15e-9, 0.03e-9));
  solver.setIncidentWave(wave);
  solver.addLumpedPort({Axis::kZ, 10, 10, 4, -1, "near"},
                       std::make_shared<ResistorPort>(50.0));
  solver.addLumpedPort({Axis::kZ, 26, 10, 4, -1, "far"},
                       std::make_shared<ResistorPort>(150.0));
  solver.addVoltageProbe({Axis::kZ, 18, 10, 4, 7, -1, "v_mid"});
  solver.addFieldProbe({Axis::kZ, 2, 3, 12, "ez_pml"});
  solver.addCurrentProbe({Axis::kX, 18, 10, 8, "i_above"});
  solver.runUntil(0.4e-9);
  return hashAll(solver, 1, 1, 1);
}

using CaseFn = CaseRun (*)();

// Lends each job a thread of its own while fewer than `threads - 1` are
// out, so a run under it is cut into exactly `threads` slabs whatever the
// scheduler does. A ThreadPool lends only workers that have already
// parked, which a loaded machine may delay past the end of a short run.
class ThreadLender final : public WorkerLender {
 public:
  explicit ThreadLender(std::size_t threads) : threads_(threads) {}
  ~ThreadLender() override {
    for (std::thread& t : jobs_) t.join();
  }
  ThreadLender(const ThreadLender&) = delete;
  ThreadLender& operator=(const ThreadLender&) = delete;
  bool tryLend(std::function<void()> job) override {
    if (out_.load() + 1 >= threads_) return false;
    ++out_;
    jobs_.emplace_back([this, job = std::move(job)] {
      try {
        job();
      } catch (...) {
        ADD_FAILURE() << "a lent slab job threw";
      }
      --out_;
    });
    return true;
  }
  std::size_t fairShare() const override { return threads_; }

 private:
  const std::size_t threads_;
  std::atomic<std::size_t> out_{0};
  std::vector<std::thread> jobs_;  ///< touched by the lending run's thread only
};

void expectGolden(CaseFn fn, const char* golden) {
  const CaseRun serial = fn();
  EXPECT_EQ(serial.hash, golden) << "serial";
  EXPECT_EQ(serial.slabs, 1u);
  for (std::size_t threads : {2u, 3u}) {
    ThreadLender lender(threads);
    WorkerLender::Scope scope(&lender);
    const CaseRun lent = fn();
    EXPECT_EQ(lent.hash, golden) << threads << " threads";
    EXPECT_EQ(lent.slabs, threads);
  }
}

TEST(FdtdStepGolden, TlineRbfDriverRcLoadMur) {
  expectGolden(&runTline, "5836d8590551f57a");
}

TEST(FdtdStepGolden, MurIncidentDielectric) {
  expectGolden(&runMurIncidentDielectric, "44c18f7f6ae3f754");
}

TEST(FdtdStepGolden, CpmlIncident) {
  expectGolden(&runCpmlIncident, "ba6179fbcc05099b");
}

// A load whose device law fails mid-run, like a port Newton that throws.
// It fails once the solver has cut a step into slabs, that is once the
// idle worker was lent, so the test does not depend on when that worker
// parks. A lender that never lends makes it fail after 30 s of wall time
// instead, and the slab count then fails the test rather than hanging it.
class FailingPort final : public PortModel {
 public:
  explicit FailingPort(const FdtdSolver& solver) : solver_(solver) {}
  void prepare(double) override {}
  double current(double v, double, double& didv) override {
    if (solver_.peakSlabs() > 1 || std::chrono::steady_clock::now() > deadline_)
      throw std::runtime_error("device law failed");
    didv = 1.0 / 50.0;
    return v / 50.0;
  }
  void commit(double, double) override {}
  std::string name() const override { return "failing"; }

 private:
  const FdtdSolver& solver_;
  const std::chrono::steady_clock::time_point deadline_ =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
};

TEST(FdtdStepGolden, ThrowingPortReturnsBorrowedWorkers) {
  ThreadPool pool(2);
  std::size_t slabs = 0;
  auto run = [&slabs] {
    GridSpec spec;
    spec.nx = 40;
    spec.ny = spec.nz = 12;
    Grid3 grid(spec);
    grid.bake();
    FdtdSolver solver(std::move(grid));
    solver.addLumpedPort({Axis::kZ, 20, 6, 6, +1, "bad"},
                         std::make_shared<FailingPort>(solver));
    try {
      solver.runUntil(1.0);  // ended by the port, lent or not
    } catch (...) {
      slabs = solver.peakSlabs();
      throw;
    }
  };
  EXPECT_THROW(pool.submit(run).get(), std::runtime_error);
  EXPECT_EQ(slabs, 2u);  // the failing run did borrow the idle worker
  // Both workers are free again: two tasks that wait for each other can
  // only finish when they run at the same time.
  std::promise<void> first_started;
  std::shared_future<void> started = first_started.get_future().share();
  auto first = pool.submit([&first_started] { first_started.set_value(); });
  auto second = pool.submit([started] { started.wait(); });
  ASSERT_EQ(second.wait_for(std::chrono::seconds(30)), std::future_status::ready)
      << "a borrowed worker was not returned";
  first.get();
  second.get();
}

}  // namespace
}  // namespace fdtdmm
