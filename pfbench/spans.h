// In-memory span recorder and the forwarding security module of the traced
// run.
//
// A traced run replaces InstallProcessFirewall with SpanModule: it owns the
// Engine, registers itself with the kernel in the engine's place, forwards
// every hook, and records a span around each Authorize call and each system
// call. The workload code records the remaining spans (the op root, the
// Fork/Waitpid calls, rule commits, audit drains) around its own calls.
//
// Spans go into a Lane: a preallocated vector plus a stack of open spans. The
// simulated processes of one kernel run one at a time (the scheduler's baton
// orders every hand-off), so they share one lane; threads that call the
// engine concurrently (hooks_mt) each install their own with SetThreadLane.
#ifndef PFBENCH_SPANS_H_
#define PFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/engine.h"
#include "src/sim/kernel.h"

namespace pfbench {

namespace core = pf::core;
namespace sim = pf::sim;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// What a span covers. The layer its self time is charged to follows from the
// kind (and, for system calls, from the call; see SpanModule).
enum class Kind : uint8_t {
  kOp,         // root: one op of the workload
  kSyscall,    // one system call (SyscallScope enter .. exit)
  kAuthorize,  // one Engine::Authorize call
  kSched,      // the workload's Fork / Waitpid call
  kProc,       // a forked task's life while its parent is blocked
  kCommit,     // root: one Pftables rule edit
  kDrain,      // root: one AuditHub::Drain
  kTrace,      // the tracer's own work (Engine::stats() reads)
};

enum class Layer : uint8_t { kApps, kSim, kCore, kSched, kAudit, kBench, kCount };
inline constexpr size_t kLayerCount = static_cast<size_t>(Layer::kCount);

// How the engine served one Authorize call, from its stats counters.
enum class Outcome : uint8_t { kNone, kHit, kStateHit, kMiss, kBypass, kFastpath };
inline constexpr size_t kOutcomeCount = 6;

inline constexpr uint32_t kNoSpan = 0xffffffffu;

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = -1;  // -1 while open
  uint32_t parent = kNoSpan;
  uint32_t op = 0;      // id of the root this span belongs to
  sim::Pid pid = 0;     // task the span ran in (0: the director)
  Kind kind = Kind::kOp;
  Layer layer = Layer::kApps;
  Outcome outcome = Outcome::kNone;
};

class Lane {
 public:
  explicit Lane(size_t capacity) { spans_.reserve(capacity); }

  Lane(const Lane&) = delete;
  Lane& operator=(const Lane&) = delete;

  // A root span starts a new op id. Returns kNoSpan once the lane is full;
  // the workload stops tracing new ops at that point.
  uint32_t OpenRoot(Kind kind, Layer layer, sim::Pid pid);
  // A child of the innermost open span; kNoSpan when no root is open (work
  // outside any traced op is not recorded) or the lane is full.
  uint32_t OpenChild(Kind kind, Layer layer, sim::Pid pid);
  void Close(uint32_t idx);

  bool full() const { return spans_.size() >= spans_.capacity(); }
  bool empty_stack() const { return open_.empty(); }
  const Span* top() const { return open_.empty() ? nullptr : &spans_[open_.back()]; }
  uint32_t top_index() const { return open_.empty() ? kNoSpan : open_.back(); }
  Span& at(uint32_t idx) { return spans_[idx]; }
  const std::vector<Span>& spans() const { return spans_; }
  uint32_t roots() const { return next_op_; }

 private:
  uint32_t Push(Kind kind, Layer layer, sim::Pid pid, uint32_t parent, uint32_t op);

  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
  uint32_t next_op_ = 0;
};

// The lane spans go to on the calling thread; null means "not traced".
Lane* ThreadLane();
// Installs `lane` for the calling thread (hooks_mt workers).
void SetThreadLane(Lane* lane);
// The lane of every thread that installed none (the simulated processes).
void SetSharedLane(Lane* lane);

// RAII span around one of the workload's own calls; free when untraced. Op,
// commit and drain spans are roots; the others nest in the innermost open
// span.
class SpanScope {
 public:
  SpanScope(Kind kind, Layer layer, sim::Pid pid) : lane_(ThreadLane()) {
    if (lane_ != nullptr) {
      const bool root = kind == Kind::kOp || kind == Kind::kCommit || kind == Kind::kDrain;
      idx_ = root ? lane_->OpenRoot(kind, layer, pid) : lane_->OpenChild(kind, layer, pid);
    }
  }
  ~SpanScope() {
    if (lane_ != nullptr && idx_ != kNoSpan) {
      lane_->Close(idx_);
    }
  }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Lane* lane_;
  uint32_t idx_ = kNoSpan;
};

// Forwarding and observing security module (stands in for
// InstallProcessFirewall in the traced run).
class SpanModule : public sim::SecurityModule {
 public:
  // Constructs the engine, registers this module with `kernel` and points the
  // engine at this module's per-task state slot.
  static SpanModule* Install(sim::Kernel& kernel, bool classify);

  SpanModule(sim::Kernel& kernel, bool classify);

  core::Engine* engine() { return engine_.get(); }

  std::string_view ModuleName() const override { return "pf"; }
  int64_t Authorize(sim::AccessRequest& req) override;
  void OnSyscallEnter(sim::Task& task) override;
  void OnSyscallExit(sim::Task& task) override;
  void OnTaskExit(sim::Task& task) override;
  void OnTaskFork(sim::Task& parent, sim::Task& child) override;
  void OnTaskExec(sim::Task& task) override;

 private:
  Outcome Classify();

  std::unique_ptr<core::Engine> engine_;
  // Reads Engine::stats() after each traced decision to learn how it was
  // served. Only sound while one thread drives the engine, so hooks_mt
  // turns it off.
  bool classify_;
  core::EngineStats last_{};
  bool last_valid_ = false;  // last_ is current (no decision since it was read)
};

}  // namespace pfbench

#endif  // PFBENCH_SPANS_H_
