#include "exec/worker_lender.h"

namespace fdtdmm {

namespace {
thread_local WorkerLender* t_current = nullptr;
}  // namespace

WorkerLender* WorkerLender::current() { return t_current; }

WorkerLender::Scope::Scope(WorkerLender* lender) : previous_(t_current) {
  t_current = lender;
}

WorkerLender::Scope::~Scope() { t_current = previous_; }

}  // namespace fdtdmm
