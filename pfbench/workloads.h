// The four pfbench workloads and the system they run on.
//
// Every workload runs on a freshly booted system with the paper's PF Full
// rule base (RuleLibrary::DefaultRuleBase() plus 1200 synthetic entrypoint
// rules = 1218 rules), the default EngineConfig and no calibrated syscall
// cost. A workload generates all of its inputs from the seed when it is
// constructed, builds its fixtures in Prepare() (part of the timed set-up),
// and runs closed-loop windows in Run(), checking the outcome of every op.
#ifndef PFBENCH_WORKLOADS_H_
#define PFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "pfbench/spans.h"
#include "src/core/engine.h"
#include "src/core/pftables.h"
#include "src/sim/sched.h"

namespace pfbench {

// A booted system. Untraced rigs install the engine with
// InstallProcessFirewall; traced rigs install it through SpanModule.
struct Rig {
  std::unique_ptr<sim::Kernel> kernel;
  core::Engine* engine = nullptr;  // owned by the kernel
  SpanModule* tracer = nullptr;    // set on traced rigs only
  std::unique_ptr<core::Pftables> pftables;
  std::unique_ptr<sim::Scheduler> sched;
  std::shared_ptr<void> fixture;   // workload state tied to this system

  Rig() = default;
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
  ~Rig() {
    sched.reset();
    fixture.reset();
    pftables.reset();
  }
};

// Counters read at a phase boundary.
struct Counters {
  core::EngineStats stats;
  uint64_t syscalls = 0;        // Kernel::tick()
  uint64_t kernel_hooks = 0;    // Kernel::authorize_calls()
  uint64_t kernel_denials = 0;  // Kernel::denial_count()
  uint64_t delta_commits = 0;
  uint64_t full_commits = 0;
  uint64_t audit_drained = 0;
};
Counters Snap(Rig& rig);

// One measured phase: a warm-up, then a timed window cut into slices.
struct Phase {
  uint64_t ops = 0;          // ops completed inside the window
  double seconds = 0;        // op time inside the window (pauses excluded)
  uint64_t attempted = 0;    // outcome-checked operations, warm-up included
  uint64_t failed = 0;       // of those, the ones whose outcome was wrong
  std::vector<float> op_us;  // per-op latency (every op, or 1 in N)
  // Per slice: its length, its ops, and the end of its samples in op_us.
  std::vector<double> slice_s;
  std::vector<uint64_t> slice_ops;
  std::vector<size_t> slice_end;
  std::vector<double> commit_ms;
  std::vector<double> fork_wait_us;
  std::vector<double> drain_us;
  // Oracle inputs over the whole phase (warm-up included).
  Counters start, begin, end;      // phase start, window start, phase end
  uint64_t expect_pf_denials = 0;  // Engine drops the workload must cause
  uint64_t expect_kernel_denials = 0;
  bool audit_on = false;
  std::vector<std::string> problems;  // failed whole-phase checks
  size_t task_states = 0;

  double rate() const { return seconds > 0 ? static_cast<double>(ops) / seconds : 0; }
  // Closes a slice of `s` seconds and `n` ops.
  void EndSlice(double s, uint64_t n) {
    slice_s.push_back(s);
    slice_ops.push_back(n);
    slice_end.push_back(op_us.size());
    seconds += s;
    ops += n;
  }
};

struct RunSpec {
  double warm_s = 0.5;
  double window_s = 1.0;
  int slices = 1;
  // Called with the clock stopped after every `between_every`-th slice
  // (set-up samples, rule edits and audit drains spread over the run; see
  // main.cc). A few milliseconds of untimed ops follow each call, so the
  // next slice does not start on caches that work has just evicted.
  std::function<void(Phase&)> between;
  int between_every = 1;
  int threads = 2;        // hooks_mt only
  Lane* lane = nullptr;   // traced window: spans of the simulated processes
  std::vector<std::unique_ptr<Lane>>* thread_lanes = nullptr;  // hooks_mt
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds the fixtures on a booted rig (timed as part of set-up).
  virtual void Prepare(Rig& rig) = 0;
  virtual Phase Run(Rig& rig, const RunSpec& spec) = 0;
  // True when the workload edits rules and drains audit inside its own
  // window.
  virtual bool edits_rules() const { return false; }

  // Rule appends for timed edits, generated from the seed.
  std::vector<std::string> edits;
};

// Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

// Boots a system, commits the 1218-rule base and prepares `w`'s fixtures.
std::unique_ptr<Rig> Boot(uint64_t seed, bool traced, bool classify, Workload& w);

// Times `n` rule edits through Pftables, alternating an append from
// w.edits and the delete of that rule; each one commits a new generation.
void TimeRuleEdits(Rig& rig, const Workload& w, int n, Phase* phase);

// Times one AuditHub::Drain, as the operator's audit consumer would call it.
void TimeDrain(Rig& rig, Phase* phase);

// Times `n` fork+execve(/bin/true)+waitpid cycles of a probe process, for a
// workload whose own ops fork nothing. False when a cycle failed.
bool ProbeForks(Rig& rig, int n, Phase* phase);

}  // namespace pfbench

#endif  // PFBENCH_WORKLOADS_H_
