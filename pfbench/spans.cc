#include "pfbench/spans.h"

#include "src/sim/task.h"

namespace pfbench {
namespace {

thread_local Lane* tl_lane = nullptr;
Lane* shared_lane = nullptr;

}  // namespace

Lane* ThreadLane() { return tl_lane != nullptr ? tl_lane : shared_lane; }
void SetThreadLane(Lane* lane) { tl_lane = lane; }
void SetSharedLane(Lane* lane) { shared_lane = lane; }

uint32_t Lane::Push(Kind kind, Layer layer, sim::Pid pid, uint32_t parent, uint32_t op) {
  if (full()) {
    return kNoSpan;
  }
  Span s;
  s.parent = parent;
  s.op = op;
  s.pid = pid;
  s.kind = kind;
  s.layer = layer;
  spans_.push_back(s);
  const auto idx = static_cast<uint32_t>(spans_.size() - 1);
  open_.push_back(idx);
  // Stamped last, so the bookkeeping above is charged to the parent.
  spans_[idx].start_ns = NowNs();
  return idx;
}

uint32_t Lane::OpenRoot(Kind kind, Layer layer, sim::Pid pid) {
  if (!open_.empty() || full()) {
    return kNoSpan;
  }
  return Push(kind, layer, pid, kNoSpan, next_op_++);
}

uint32_t Lane::OpenChild(Kind kind, Layer layer, sim::Pid pid) {
  if (open_.empty()) {
    return kNoSpan;
  }
  const uint32_t parent = open_.back();
  return Push(kind, layer, pid, parent, spans_[parent].op);
}

void Lane::Close(uint32_t idx) {
  const int64_t now = NowNs();
  // Spans close innermost first; anything still open above `idx` (a task
  // that unwound without its exit notifications) ends here too.
  while (!open_.empty()) {
    const uint32_t top = open_.back();
    open_.pop_back();
    spans_[top].end_ns = now;
    if (top == idx) {
      break;
    }
  }
}

SpanModule* SpanModule::Install(sim::Kernel& kernel, bool classify) {
  auto module = std::make_unique<SpanModule>(kernel, classify);
  SpanModule* raw = module.get();
  const size_t slot = kernel.AddModule(std::move(module));
  raw->engine_->set_slot(slot);
  return raw;
}

SpanModule::SpanModule(sim::Kernel& kernel, bool classify)
    : engine_(std::make_unique<core::Engine>(kernel, core::EngineConfig{})),
      classify_(classify) {}

Outcome SpanModule::Classify() {
  const core::EngineStats now = engine_->stats();
  Outcome out = Outcome::kFastpath;
  if (now.vcache_state_hits != last_.vcache_state_hits) {
    out = Outcome::kStateHit;
  } else if (now.vcache_hits != last_.vcache_hits) {
    out = Outcome::kHit;
  } else if (now.vcache_misses != last_.vcache_misses) {
    out = Outcome::kMiss;
  } else if (now.vcache_bypasses != last_.vcache_bypasses) {
    out = Outcome::kBypass;
  }
  last_ = now;
  return out;
}

int64_t SpanModule::Authorize(sim::AccessRequest& req) {
  Lane* lane = ThreadLane();
  if (lane == nullptr || lane->empty_stack()) {
    last_valid_ = false;
    return engine_->Authorize(req);
  }
  const sim::Pid pid = req.task != nullptr ? req.task->pid : 0;
  if (classify_ && !last_valid_) {
    const uint32_t t = lane->OpenChild(Kind::kTrace, Layer::kBench, pid);
    last_ = engine_->stats();
    last_valid_ = true;
    lane->Close(t);
  }
  const uint32_t idx = lane->OpenChild(Kind::kAuthorize, Layer::kCore, pid);
  const int64_t rv = engine_->Authorize(req);
  if (idx == kNoSpan) {
    last_valid_ = false;
    return rv;
  }
  lane->Close(idx);
  if (classify_) {
    const uint32_t t = lane->OpenChild(Kind::kTrace, Layer::kBench, pid);
    lane->at(idx).outcome = Classify();
    lane->Close(t);
  }
  return rv;
}

void SpanModule::OnSyscallEnter(sim::Task& task) {
  engine_->OnSyscallEnter(task);
  Lane* lane = ThreadLane();
  if (lane == nullptr || lane->empty_stack()) {
    return;
  }
  // A task other than the one whose span is innermost only runs while that
  // one is blocked (a forked child while its parent waits): its life is a
  // span of its own, so the parent's blocked call is not charged for it.
  if (lane->top()->pid != task.pid) {
    lane->OpenChild(Kind::kProc, Layer::kApps, task.pid);
  }
  // fork and waitpid are the scheduler's: thread creation and the baton
  // hand-off happen inside them.
  const bool sched = task.syscall_nr == sim::SyscallNr::kFork ||
                     task.syscall_nr == sim::SyscallNr::kWaitpid;
  lane->OpenChild(Kind::kSyscall, sched ? Layer::kSched : Layer::kSim, task.pid);
}

void SpanModule::OnSyscallExit(sim::Task& task) {
  engine_->OnSyscallExit(task);
  Lane* lane = ThreadLane();
  if (lane == nullptr) {
    return;
  }
  const Span* top = lane->top();
  if (top != nullptr && top->kind == Kind::kSyscall && top->pid == task.pid) {
    lane->Close(lane->top_index());
  }
}

void SpanModule::OnTaskExit(sim::Task& task) {
  engine_->OnTaskExit(task);
  Lane* lane = ThreadLane();
  if (lane == nullptr) {
    return;
  }
  // The exiting task's spans end here: exit never returns to the caller, so
  // its exit syscall span and its kProc span close together.
  while (const Span* top = lane->top()) {
    if (top->pid != task.pid || top->kind == Kind::kOp || top->kind == Kind::kSched) {
      break;
    }
    lane->Close(lane->top_index());
  }
}

void SpanModule::OnTaskFork(sim::Task& parent, sim::Task& child) {
  engine_->OnTaskFork(parent, child);
}

void SpanModule::OnTaskExec(sim::Task& task) { engine_->OnTaskExec(task); }

}  // namespace pfbench
