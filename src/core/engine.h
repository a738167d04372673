// The Process Firewall engine.
//
// Registered as a SecurityModule behind the kernel's authorization hooks, it
// builds a Packet for each mediated operation, fetches process/resource
// context through context modules (lazily, with per-syscall caching), and
// traverses the rule base — using entrypoint-specific chains where enabled.
// The three optimizations are independently toggleable to reproduce the
// ablation columns of paper Table 6:
//
//   FULL     = {lazy_context=false, cache_context=false, ept_chains=false}
//   CONCACHE = {lazy_context=false, cache_context=true,  ept_chains=false}
//   LAZYCON  = {lazy_context=true,  cache_context=true,  ept_chains=false}
//   EPTSPC   = {lazy_context=true,  cache_context=true,  ept_chains=true}
//   VCACHE   = EPTSPC + verdict_cache (commit-time compilation + AVC-style
//              verdict cache; see DESIGN.md "Verdict cache and commit-time
//              compilation")
//
// Every rung runs the same evaluator: a switch loop over the commit-time
// arena-packed program (DESIGN.md "Compiled PF programs").
//
// Concurrency model (paper §5.1 makes the hooks re-entrant "without
// disabling interrupts"; here the same property is carried to real worker
// threads — see DESIGN.md "Concurrency model"):
//
//   * Per-task state (the STATE dictionary, context caches) lives in a
//     lock-striped shard table keyed by task id. Each PfTaskState carries a
//     small mutex guarding its dictionary and cache slots; context caches
//     are immutable snapshots published by shared_ptr, so a reader never
//     observes a torn unwind.
//   * Statistics are per-worker ("per-CPU") cache-line-aligned counter
//     blocks bumped with relaxed atomics and aggregated on read — there is
//     no shared hot counter.
//   * The compiled rule base is published RCU-style: each pftables commit
//     copies the staging RuleSet into an immutable CompiledRuleset snapshot
//     and bumps a generation counter. Hook-side readers pin the snapshot
//     through a per-worker epoch cache (one relaxed/acquire load on the fast
//     path; the commit mutex is taken only when the generation moved), so
//     rule reloads never block evaluation.
#ifndef SRC_CORE_ENGINE_H_
#define SRC_CORE_ENGINE_H_

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "src/analysis/diagnostics.h"  // standalone by design, like pftables.h
#include "src/audit/hub.h"
#include "src/core/log.h"
#include "src/core/packet.h"
#include "src/core/program.h"
#include "src/core/ruleset.h"
#include "src/core/status.h"
#include "src/sim/kernel.h"
#include "src/trace/hub.h"

namespace pf::core {

// Maximum JUMP nesting depth. A chain entered at this depth is not
// evaluated (ExecChain falls through), so rules only reachable beyond
// the bound are dead — the static analyzer (src/analysis) flags them.
inline constexpr int kMaxChainDepth = 8;

// Operations by which the process *affects* resources (mediated by the
// output chain in addition to input); reads/deliveries are input-only.
bool IsOutputOp(sim::Op op);

// Creation operations, which consult the `create` chain first (paper
// template T2) before output/input.
bool IsCreateOp(sim::Op op);

struct EngineConfig {
  bool enabled = true;
  bool lazy_context = true;   // fetch context only when a rule needs it
  bool cache_context = true;  // reuse unwinds across hooks within a syscall
  bool ept_chains = true;     // entrypoint-specific chain index
  // AVC-style verdict cache: requests whose applicable chains are pure
  // (commit-time classification) are served from a sharded hash of final
  // verdicts instead of re-traversing the rule base. Chains with stateful or
  // side-effecting rules (STATE, LOG, SYSCALL_ARGS, ...) bypass the cache.
  bool verdict_cache = true;
  // STATE-protocol automaton lowering (DESIGN.md §5i): compile the rule
  // base's STATE keys into per-task mixed-radix DFAs at commit time and
  // serve stateful decisions whose guards are digit-pure from the verdict
  // cache, with the task's current automaton state folded into the key. A
  // stateful cache hit replays the recorded dictionary writes and per-rule
  // hit counters bit-identically to a traversal (AUTOMATA ablation rung);
  // rules the pass cannot lower transparently stay on the bypass path.
  // Effective only together with verdict_cache.
  bool automata = true;
  // Incremental CommitRuleset: when the staging edit touched only some
  // chains (per-chain edit sequences), copy the published program and
  // re-lower just the dirty chains instead of relowering everything. The
  // delta program is bit-equivalent to a from-scratch relower (churn test)
  // and is still verifier-gated before publication.
  bool incremental_commits = true;
  // Audit mode: evaluate rules and count/log would-be denials, but allow
  // everything. This is how an OS distributor shakes out false positives
  // before enforcing a generated rule base (paper §6.3.2).
  bool audit_only = false;
};

// Aggregated engine statistics (a consistent-enough snapshot: each counter
// is the sum of the per-worker blocks at read time; see Engine::stats() for
// the exact tearing contract).
struct EngineStats {
  uint64_t invocations = 0;
  uint64_t drops = 0;
  uint64_t audited_drops = 0;  // denials suppressed by audit mode
  uint64_t rules_evaluated = 0;
  uint64_t ept_chain_hits = 0;
  uint64_t unwinds = 0;
  uint64_t unwind_cache_hits = 0;
  uint64_t ruleset_refreshes = 0;  // per-worker snapshot re-pins
  uint64_t vcache_hits = 0;        // verdicts served without traversal
  uint64_t vcache_misses = 0;      // traversed, then inserted
  uint64_t vcache_bypasses = 0;    // unlowerable stateful chains: never cached
  // Stateful-tier split of the totals above: hits/misses whose key carried
  // automaton state (also counted in vcache_hits/vcache_misses), and the
  // bypasses attributed to each kBypass* cause (the highest-priority set bit
  // of the applicable buckets' unioned causes; with the automaton pass on,
  // the array sums to vcache_bypasses — with it off no cause information
  // exists and only the total moves).
  uint64_t vcache_state_hits = 0;
  uint64_t vcache_state_misses = 0;
  std::array<uint64_t, kBypassCauseCount> vcache_bypass_causes{};
  uint64_t trace_records = 0;      // TraceRecords ever emitted
  uint64_t trace_drops = 0;        // records lost to full rings
  // Audit-pipeline conservation counters (src/audit): emitted = admitted +
  // suppressed; admitted records either drain, sit buffered, or are counted
  // in audit_ring_drops when a full ring evicted them unread.
  uint64_t audit_emitted = 0;
  uint64_t audit_records = 0;      // admitted into the per-worker rings
  uint64_t audit_suppressed = 0;   // collapsed by token-bucket suppression
  uint64_t audit_ring_drops = 0;   // evicted unread from full rings
  std::array<uint64_t, static_cast<size_t>(Ctx::kCount)> ctx_fetches{};
  // Counter-mutation generation at read time (see Engine::stats()). Odd, or
  // different before/after aggregation, means a reset/zeroing ran while this
  // snapshot was summed: `torn` is set and the values may mix pre- and
  // post-reset counts.
  uint64_t stats_generation = 0;
  bool torn = false;
};

// One per-worker ("per-CPU") counter block. The atomics are only ever
// contended when more threads than blocks exist (indices wrap); the common
// case is an uncontended relaxed add on a worker-private cache line.
struct alignas(64) EngineStatsBlock {
  std::atomic<uint64_t> invocations{0};
  std::atomic<uint64_t> drops{0};
  std::atomic<uint64_t> audited_drops{0};
  std::atomic<uint64_t> rules_evaluated{0};
  std::atomic<uint64_t> ept_chain_hits{0};
  std::atomic<uint64_t> unwinds{0};
  std::atomic<uint64_t> unwind_cache_hits{0};
  std::atomic<uint64_t> ruleset_refreshes{0};
  std::atomic<uint64_t> vcache_hits{0};
  std::atomic<uint64_t> vcache_misses{0};
  std::atomic<uint64_t> vcache_bypasses{0};
  std::atomic<uint64_t> vcache_state_hits{0};
  std::atomic<uint64_t> vcache_state_misses{0};
  std::array<std::atomic<uint64_t>, kBypassCauseCount> vcache_bypass_causes{};
  std::array<std::atomic<uint64_t>, static_cast<size_t>(Ctx::kCount)> ctx_fetches{};
};

// Worker lanes: the per-thread indices that pick a thread's ruleset pin
// slot and its trace/audit rings. A thread claims the lowest free lane on
// its first call and releases it when the thread exits, so a lane has at
// most one live owner and the rings stay single-producer however many
// threads come and go.
inline constexpr size_t kWorkerLanes = 64;
// Returned while every lane is held by a live thread. Callers treat it as
// lane-less: the ruleset pin falls back to a locked copy, and the trace and
// audit hubs serialize its producers on a shared overflow ring.
inline constexpr size_t kOverflowLane = kWorkerLanes;

// The calling thread's lane in [0, kWorkerLanes), or kOverflowLane. Shared
// by every engine instance in the process; the fast path is one
// thread_local load.
size_t WorkerIndex();

// An immutable unwind snapshot, valid while `serial` matches the task's
// syscall count. Published by shared_ptr so concurrent hook evaluations on
// one task can pin it while a newer syscall refreshes the cache.
struct StackSnapshot {
  uint64_t serial = 0;
  std::vector<BinFrame> frames;
  UnwindStatus status = UnwindStatus::kAborted;
};

struct InterpSnapshot {
  uint64_t serial = 0;
  std::vector<InterpRec> frames;
  UnwindStatus status = UnwindStatus::kAborted;
};

// Per-task Process Firewall state (the struct task_struct extension of the
// paper, held in the engine's shard table keyed by task id). Created lazily:
// only tasks that actually hit a stateful rule or a context unwind get one —
// the authorization fast path never touches the shard table.
struct PfTaskState {
  // Guards dict and the automaton-state cache below. Held for pointer-sized
  // critical sections.
  std::mutex mu;

  // STATE match/target dictionary.
  std::map<std::string, int64_t> dict;

  // Mutation sequence of `dict`, bumped under mu by every set/unset/replay
  // (exec_insn.inc, StateTarget::Fire, stateful cache-hit replay). The
  // stateful verdict-cache tier uses it two ways: to invalidate the derived
  // automaton-state cache below, and to prove a miss traversal ran free of
  // concurrent dictionary interference before inserting its verdict.
  uint64_t dict_seq = 0;

  // Cached DeriveAutomatonState result: the per-protocol digit products for
  // program `astate_tag` at dictionary version `astate_seq`. Guarded by mu;
  // rederived (a few map lookups) only when the dictionary moved.
  uint64_t astate_tag = 0;
  uint64_t astate_seq = ~0ull;
  std::vector<uint32_t> astate;

  // Context caches (null until first fill; reset on execve). Atomic
  // shared_ptr slots: a cache hit is one acquire load, a miss publishes its
  // snapshot with one release store — no lock round-trips on either path,
  // and a racing refresh simply wins with its own equally-valid snapshot.
  std::atomic<std::shared_ptr<const StackSnapshot>> stack;
  std::atomic<std::shared_ptr<const InterpSnapshot>> interp;
};

// Lock-striped per-task state table. Striping bounds contention when many
// workers fault in or look up state for different tasks concurrently.
class TaskStateStore {
 public:
  static constexpr size_t kShards = 16;  // power of two

  PfTaskState& GetOrCreate(sim::Pid pid);
  std::shared_ptr<PfTaskState> Find(sim::Pid pid);
  void Put(sim::Pid pid, std::shared_ptr<PfTaskState> state);
  void Erase(sim::Pid pid);
  size_t size() const;

 private:
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::unordered_map<sim::Pid, std::shared_ptr<PfTaskState>> map;
  };

  Shard& ShardFor(sim::Pid pid) { return shards_[Mix(pid) & (kShards - 1)]; }
  const Shard& ShardFor(sim::Pid pid) const { return shards_[Mix(pid) & (kShards - 1)]; }
  static size_t Mix(sim::Pid pid) {
    uint64_t x = static_cast<uint64_t>(pid) * 0x9e3779b97f4a7c15ULL;
    return static_cast<size_t>(x >> 32);
  }

  std::array<Shard, kShards> shards_;
};

// One published generation of the rule base: a structural copy of the
// staging RuleSet (sharing the heap-allocated Rule objects) plus its
// arena-packed program, whose per-(chain, op) buckets are the only dispatch
// tables hook evaluation reads.
struct CompiledRuleset {
  RuleSet rules;
  uint64_t generation = 0;

  // The arena-packed program form of the same generation (see program.h):
  // lowered by LowerProgram during compilation, consumed by the evaluator,
  // the static analyzer, and `pftables -L --compiled`.
  PfProgram program;

  // Load-time verification of `program` (src/core/verify.h), a mandatory
  // pass of CompileRuleset. `verified` is true iff the pass proved the
  // program safe; CommitRuleset refuses to publish otherwise. pfcheck and
  // pftables --check surface the report.
  analysis::AnalysisReport verify_report;
  bool verified = false;
  uint64_t verify_ns = 0;
};

// Verdict-cache key: every input a *pure* traversal can read. The ruleset
// generation covers rule commits, the MAC epoch covers policy/label mutation
// (adversary accessibility, SYSHIGH), the object generation covers inode
// recycling, and relabels move object_sid. Entrypoint fields participate
// only when some applicable rule needs entrypoint context (kEptInKey), so
// pure non-entrypoint rulesets never force an unwind. Per-task state is
// never an input to a pure traversal, and the task-varying inputs that are
// (subject sid, entrypoint) sit in the key — so execve/exit need no sweep.
// The stateful tier (EngineConfig::automata) extends the same key with the
// inputs an automaton-lowered traversal can additionally read, each probed
// at key-build time so a change re-keys instead of staling: the task's
// folded automaton state (kStateInKey), the syscall number when a
// SYSCALL_ARGS --arg 0 guard is reachable (kNrInKey), and the
// SIGNAL_MATCH predicate — handler installed and signal blockable — as one
// bit (kSigHandled, meaningful under kSigInKey).
struct VerdictKey {
  enum Flags : uint32_t {
    kHasObject = 1u << 0,
    kEptInKey = 1u << 1,
    kEptValid = 1u << 2,
    kStateInKey = 1u << 3,
    kNrInKey = 1u << 4,
    kSigInKey = 1u << 5,
    kSigHandled = 1u << 6,
  };

  uint64_t generation = 0;
  uint64_t mac_epoch = 0;
  uint32_t op = 0;
  uint32_t flags = 0;
  sim::Sid subject_sid = sim::kInvalidSid;
  sim::Sid object_sid = sim::kInvalidSid;
  sim::FileId object;
  uint64_t object_generation = 0;
  sim::FileId ept_image;
  uint64_t ept_offset = 0;
  uint64_t astate = 0;      // FoldAutomatonState product (kStateInKey)
  uint32_t syscall_nr = 0;  // request syscall number (kNrInKey)

  bool operator==(const VerdictKey&) const = default;
};

struct VerdictKeyHash {
  size_t operator()(const VerdictKey& k) const {
    size_t h = std::hash<uint64_t>()(k.generation);
    h = HashCombine(h, std::hash<uint64_t>()(k.mac_epoch));
    h = HashCombine(h, std::hash<uint64_t>()((static_cast<uint64_t>(k.op) << 32) | k.flags));
    h = HashCombine(h, std::hash<uint64_t>()((static_cast<uint64_t>(k.subject_sid) << 32) |
                                             k.object_sid));
    h = HashCombine(h, sim::FileIdHash()(k.object));
    h = HashCombine(h, std::hash<uint64_t>()(k.object_generation));
    h = HashCombine(h, sim::FileIdHash()(k.ept_image));
    h = HashCombine(h, std::hash<uint64_t>()(k.ept_offset));
    h = HashCombine(h, std::hash<uint64_t>()(
                           k.astate ^ (static_cast<uint64_t>(k.syscall_nr) << 40)));
    return h;
  }
};

// One recorded STATE-dictionary write (or unset) of a stateful miss
// traversal, keyed by value (not pool index) so replay needs no program to
// decode it.
struct DictDelta {
  std::string key;
  bool unset = false;
  int64_t value = 0;
};

// The side effects a stateful cache hit must replay to stay bit-identical
// with a traversal: the rules whose hit counters a traversal from this exact
// key would bump (in traversal order) and the literal dictionary writes it
// would perform (which advance the automaton — the next probe re-derives the
// state vector from the mutated dictionary). Automaton-lowered buckets admit
// no LOG rules, so log order is preserved trivially. The Rule pointers stay
// valid while the entry's generation is pinned (same lifetime contract as
// the compiled program itself).
struct StatefulEffects {
  std::vector<const Rule*> hits;
  std::vector<DictDelta> deltas;
};

// A cached final verdict. `fx` is null for pure entries; stateful entries
// carry the replayable effects above. chain_id/rule_index name the rule that
// produced the verdict when the entry was inserted (-1 when the chain policy
// decided) — a pure function of the key, so replaying it on every hit keeps
// audit attribution of cached denials exact without a traversal.
struct CachedVerdict {
  bool drop = false;
  int32_t chain_id = -1;
  int32_t rule_index = -1;
  std::shared_ptr<const StatefulEffects> fx;
};

// Sharded, lock-striped verdict cache (the SELinux AVC analogue). Stores the
// final accept/drop of pure traversals — plus replayable effects for
// automaton-lowered stateful traversals; invalidation is by key construction
// (see VerdictKey), so the only maintenance is clearing dead generations on
// commit and dumping a shard that grows past its cap — the cache is a memo,
// never a source of truth.
class VerdictCache {
 public:
  static constexpr size_t kShards = 16;        // power of two
  static constexpr size_t kMaxPerShard = 4096; // dump-and-refill threshold

  std::optional<CachedVerdict> Lookup(const VerdictKey& key, size_t hash) const;
  void Insert(const VerdictKey& key, size_t hash, CachedVerdict verdict);
  void Clear();
  size_t size() const;

 private:
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::unordered_map<VerdictKey, CachedVerdict, VerdictKeyHash> map;
  };

  std::array<Shard, kShards> shards_;
};

class Engine : public sim::SecurityModule {
 public:
  Engine(sim::Kernel& kernel, EngineConfig config);

  // --- SecurityModule ---
  std::string_view ModuleName() const override { return "pf"; }
  int64_t Authorize(sim::AccessRequest& req) override;
  void OnTaskExit(sim::Task& task) override;
  void OnTaskFork(sim::Task& parent, sim::Task& child) override;
  void OnTaskExec(sim::Task& task) override;

  // --- configuration / data ---
  EngineConfig& config() { return config_; }
  // The staging rule base, edited by pftables. Structural edits are not seen
  // by hook evaluation until CommitRuleset() publishes a snapshot.
  RuleSet& ruleset() { return ruleset_; }
  LogSink& log() { return log_; }
  sim::Kernel& kernel() { return kernel_; }
  sim::MacPolicy& policy() { return kernel_.policy(); }
  void set_slot(size_t slot) { slot_ = slot; }
  size_t slot() const { return slot_; }

  // Aggregates the per-worker counter blocks.
  //
  // Tearing contract: every per-worker counter is read with a relaxed load
  // while workers keep adding, so the snapshot is not a point-in-time cut —
  // two counters may disagree by in-flight decisions (e.g. `drops` can
  // momentarily exceed what `invocations` implies). Each counter is
  // individually monotone between resets, and sums converge once workers
  // quiesce, which is all the stats consumers (benches, pfshell, metrics)
  // need. The one non-monotone hazard is a concurrent ResetStats() or
  // `pftables -Z`: those bump `stats_gen_` to odd for their duration, and
  // stats() re-reads the generation after aggregating — a reader that saw an
  // odd or moved generation gets `torn = true` in the snapshot and should
  // retry or discard (MetricsText() and pftrace do exactly that).
  EngineStats stats() const;
  void ResetStats();

  // Marks a counter-mutation window (even/odd generation) so concurrent
  // stats() readers can detect mid-zeroing aggregation. ResetStats() and
  // Pftables::ZeroCounters() bracket themselves with these; nesting is not
  // supported.
  void BeginCounterMutation() { stats_gen_.fetch_add(1, std::memory_order_acq_rel); }
  void EndCounterMutation() { stats_gen_.fetch_add(1, std::memory_order_acq_rel); }

  // The tracing control plane and record stream for this engine (src/trace).
  // Disabled (and nearly free) by default; compiled out under PF_NO_TRACE.
  trace::TraceHub& trace() { return trace_; }
  const trace::TraceHub& trace() const { return trace_; }

  // The security-event audit pipeline (src/audit, DESIGN.md §5j). Disabled
  // it costs one relaxed load per Authorize; compiled out with tracing under
  // PF_NO_TRACE.
  audit::AuditHub& audit() { return audit_; }
  const audit::AuditHub& audit() const { return audit_; }

  // Prometheus text-exposition (format 0.0.4) of the engine counters, the
  // verdict-cache rates, the ring drop counters, and every non-empty
  // (op, path) latency histogram. `pfshell stats --prom` and the benches
  // serve this verbatim. Implemented in metrics.cc.
  std::string MetricsText() const;

  // Publishes the staging rule base as a new immutable generation. Called by
  // Pftables after every successful mutating command; safe to call while
  // worker threads evaluate. When the load-time verifier rejects the
  // compiled program, nothing is published — the live generation keeps
  // serving and the error carries the verifier's report.
  Status CommitRuleset();

  // Compiles the staging rule base into a CompiledRuleset snapshot without
  // publishing it (generation stays 0). This is what the static analyzer
  // (src/analysis) and the pftables --check gate run over: analysis sees
  // exactly the structures hook evaluation would, including uncommitted
  // staging edits, with no effect on the live generation.
  std::shared_ptr<CompiledRuleset> CompileRuleset() const;

  // Incremental twin of CompileRuleset: copies `prev`'s program and
  // recompiles only the chains named in `dirty` (see EngineConfig::
  // incremental_commits). Requires the staging chain-name set to equal
  // prev's; CommitRuleset checks that via CanDeltaCompile.
  std::shared_ptr<CompiledRuleset> CompileRulesetDelta(
      const CompiledRuleset& prev, const std::vector<std::string>& dirty) const;

  // True when an incremental recompile against `prev` is sound; fills
  // `dirty` with the names of the chains whose edit sequence (or derived
  // index state) diverged from the published copy.
  bool CanDeltaCompile(const CompiledRuleset& prev,
                       std::vector<std::string>* dirty) const;

  // The currently published generation (nullptr before the first commit
  // completes — the constructor commits generation 1, so users always see a
  // snapshot). Tests and tools use this to inspect the delta-built program
  // that hooks actually execute; the hot path pins via worker slots instead.
  std::shared_ptr<const CompiledRuleset> PublishedRuleset() const {
    std::lock_guard<std::mutex> lock(commit_mu_);
    return published_;
  }

  uint64_t ruleset_generation() const {
    return generation_.load(std::memory_order_acquire);
  }
  // Commit-path split: how many publications went through the incremental
  // delta path vs a from-scratch relower (includes the compaction fallback).
  uint64_t delta_commits() const { return delta_commits_.load(std::memory_order_relaxed); }
  uint64_t full_commits() const { return full_commits_.load(std::memory_order_relaxed); }

  // Per-task state, created on demand in the shard table.
  PfTaskState& TaskState(sim::Task& task);
  size_t task_state_count() const { return states_.size(); }

  // Context-module dispatch: collects every field in `mask` not yet in the
  // packet. Fields that cannot be collected are marked collected-but-absent
  // (rules needing them simply fail to match).
  void EnsureContext(Packet& pkt, CtxMask mask);

  // Emits a LOG record for the packet.
  void EmitLog(Packet& pkt, const std::string& prefix);

 private:
  enum class Verdict { kAccept, kDrop, kFallthrough, kReturn };

  // Pins the current ruleset generation for this worker. `hold` keeps the
  // snapshot alive for threads on the overflow lane.
  const CompiledRuleset& PinRuleset(std::shared_ptr<const CompiledRuleset>* hold);

  EngineStatsBlock& StatsLocal();

  // The evaluator (engine.cc "rule evaluation"): a switch-dispatch loop over
  // the program arena, no virtual calls on the builtin-module path. Runs one
  // builtin chain and applies its default policy on fallthrough.
  Verdict RunBuiltinCompiled(const CompiledRuleset& rs, const ProgramChain& pc,
                             Packet& pkt);
  Verdict ExecChain(const CompiledRuleset& rs, const ProgramChain& pc, Packet& pkt,
                    int depth);
  // op_checked: the entry list came from a per-op bucket (op-filtered by
  // construction), so rule bodies enter past their kCheckOp guard; the
  // entrypoint index's lists are not op-filtered and keep the guard.
  Verdict ExecEntries(const CompiledRuleset& rs, uint32_t off, uint32_t len,
                      bool op_checked, Packet& pkt, int depth);
  // The switch loop over one rule body (handlers in src/core/exec_insn.inc).
  Verdict ExecRule(const CompiledRuleset& rs, const RuleRecord& rec, uint32_t start,
                   Packet& pkt, int depth);

  void FetchObject(Packet& pkt);
  void FetchLinkTarget(Packet& pkt);
  void FetchAdversaryAccess(Packet& pkt);
  void FetchStack(Packet& pkt);
  void FetchInterp(Packet& pkt);

  sim::Kernel& kernel_;
  EngineConfig config_;
  RuleSet ruleset_;  // staging copy (control plane)
  LogSink log_;
  size_t slot_ = 0;

  TaskStateStore states_;
  VerdictCache vcache_;
  trace::TraceHub trace_;
  audit::AuditHub audit_;
  std::atomic<uint64_t> stats_gen_{0};  // even: stable; odd: mutation running

  // --- RCU-style ruleset publication ---
  struct alignas(64) WorkerSlot {
    std::shared_ptr<const CompiledRuleset> snap;
    uint64_t generation = ~0ull;
  };
  mutable std::mutex commit_mu_;  // guards published_/retired_ swaps
  std::shared_ptr<const CompiledRuleset> published_;
  // The generation most recently unpublished, kept so the next incremental
  // compile can recycle its allocations: when no reader still pins it
  // (use_count == 1), CompileRulesetDelta steals its containers and
  // copy-assigns the new generation into them — warm pages and reusable
  // map nodes instead of ~40MB of fresh allocations per one-rule commit at
  // 100k-rule scale. Never handed out; only swapped under commit_mu_.
  mutable std::shared_ptr<const CompiledRuleset> retired_;
  std::atomic<uint64_t> generation_{0};
  std::atomic<uint64_t> delta_commits_{0};
  std::atomic<uint64_t> full_commits_{0};
  std::array<WorkerSlot, kWorkerLanes> workers_;  // indexed by worker lane

  // Per-worker stats blocks (indices wrap; see EngineStatsBlock).
  static constexpr size_t kStatsBlocks = 64;
  std::array<EngineStatsBlock, kStatsBlocks> stats_blocks_;
};

// Creates an Engine, registers it with the kernel, and wires its per-task
// state slot. The kernel owns the engine; the returned pointer stays valid
// for the kernel's lifetime.
Engine* InstallProcessFirewall(sim::Kernel& kernel, EngineConfig config = {});

}  // namespace pf::core

#endif  // SRC_CORE_ENGINE_H_
