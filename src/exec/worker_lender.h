#pragma once
/// \file worker_lender.h
/// The seam through which a running task borrows idle threads from the
/// pool that runs it. A compute kernel deep in the stack (the 3D FDTD plane
/// sweep) asks WorkerLender::current() for its lender and splits its work
/// across whatever it is lent; it never sees the pool type, and a task run
/// outside any pool simply finds no lender and runs alone. The sweep
/// engine's ThreadPool is the implementation.

#include <cstddef>
#include <functional>

namespace fdtdmm {

class WorkerLender {
 public:
  virtual ~WorkerLender() = default;

  /// Non-blocking: hands `job` to a worker that is idle right now and
  /// returns true, or returns false (dropping `job`) when no worker is idle
  /// or other work is waiting for one. An accepted job always runs to
  /// completion, also when the lender shuts down meanwhile. An exception
  /// it throws stops the job only: the lender counts it, and the job must
  /// report anything its caller needs to know.
  virtual bool tryLend(std::function<void()> job) = 0;

  /// Threads, the caller's own included, one running task may occupy so
  /// that every running task gets an equal share of the workers.
  virtual std::size_t fairShare() const = 0;

  /// The lender of the task running on the calling thread, or null when
  /// the thread runs no pool task (or runs a lent job, which may not lend
  /// further).
  static WorkerLender* current();

  /// Makes `lender` the calling thread's current() for the guard's
  /// lifetime; the previous value comes back on destruction.
  class Scope {
   public:
    explicit Scope(WorkerLender* lender);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    WorkerLender* previous_;
  };
};

}  // namespace fdtdmm
