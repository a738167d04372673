#include "src/core/engine.h"

#include <algorithm>
#include <bit>
#include <chrono>

#include "src/core/automata.h"
#include "src/core/modules.h"
#include "src/core/verify.h"
#include "src/sim/task.h"

namespace pf::core {

namespace {
constexpr auto kRelaxed = std::memory_order_relaxed;

// Per-decision observer scratch: the one spine both observers — the tracer
// and the audit pipeline — share. Authorize builds it on the stack and
// publishes it through one thread-local pointer, at most once per decision,
// so the stages it calls into (EnsureContext, the compiled evaluator, the
// LOG and @phase hooks) can attribute their cost and park security events
// without any signature changes. Null whenever nothing observes the current
// decision — every hook below gates on that single TLS load, and the whole
// mechanism compiles out under PF_NO_TRACE.
struct ObsScratch {
  static constexpr uint32_t kMaxPending = 4;

  // Attribution and timing, read by both observers.
  uint64_t ctx_ns = 0;       // summed EnsureContext time of this decision
  int32_t chain_id = -1;     // verdict-producing rule (-1: chain policy)
  int32_t rule_index = -1;
  uint16_t worker = 0;       // set when traced; audit resolves it at emission
  uint8_t op = 0;
  bool trace_rules = false;      // emit Event::kRule per verdict + rule ns
  bool trace_ctx = false;        // emit Event::kCtxFetch per fetch
  bool time_ctx = false;         // accumulate ctx_ns (clock reads per fetch)
  pf::trace::TraceHub* hub = nullptr;  // null: no trace records through here

  // Security events that surface mid-traversal — LOG-target hits, `@phase`
  // transitions — parked (fixed-size, overflow-counted) for the audit
  // epilogue, where the serving tier, timing and packet provenance are all
  // known. The kLog handler deposits its RuleRecord identity in
  // cur_chain/cur_rule just before EmitLog; any other caller leaves -1 (the
  // tracing convention).
  int32_t cur_chain = -1;
  int32_t cur_rule = -1;
  int32_t log_chain[kMaxPending];
  int32_t log_rule[kMaxPending];
  uint32_t log_count = 0;
  int64_t phase_from[kMaxPending];
  int64_t phase_to[kMaxPending];
  uint32_t phase_count = 0;

  ObsScratch* prev = nullptr;

  void NoteLog() {
    if (log_count < kMaxPending) {
      log_chain[log_count] = cur_chain;
      log_rule[log_count] = cur_rule;
    }
    ++log_count;
    cur_chain = -1;
    cur_rule = -1;
  }
  void NotePhase(int64_t from, int64_t to) {
    if (phase_count < kMaxPending) {
      phase_from[phase_count] = from;
      phase_to[phase_count] = to;
    }
    ++phase_count;
  }
};

thread_local ObsScratch* g_obs = nullptr;

// Stateful-effects capture (NoteRuleHit/NoteDictDelta below), armed by
// Authorize around a miss traversal it intends to cache with automaton state
// in the key. `own_mutations` counts the dictionary writes this traversal
// performed itself; comparing the task's dict_seq across the traversal
// against it proves no concurrent writer interleaved (in which case the
// capture would describe a mixed history and must not be inserted).
struct EffectsCapture {
  StatefulEffects fx;
  uint64_t own_mutations = 0;
};

thread_local EffectsCapture* g_capture = nullptr;

// Stateful-miss capture hooks: every rule-hit and dictionary-write handler in
// exec_insn.inc reports through these (no-ops when unarmed, one predictable
// branch). The capture becomes the cache entry's StatefulEffects.
void NoteRuleHit(const Rule* rule) {
  if (EffectsCapture* cap = g_capture) {
    cap->fx.hits.push_back(rule);
  }
}

void NoteDictDelta(const std::string& key, bool unset, int64_t value) {
  if (EffectsCapture* cap = g_capture) {
    cap->fx.deltas.push_back(DictDelta{key, unset, value});
    ++cap->own_mutations;
  }
}

// Audit-observer hook: every `@phase` dictionary write site — the kStateSet
// handler and the stateful cache-hit replay — reports the transition through
// this while an observed decision (traced or audited) has its scratch armed
// (no-op otherwise, one predictable branch on a path that already took a
// mutex).
void NotePhaseTransition(int64_t from, int64_t to) {
  if constexpr (trace::kTraceCompiledIn) {
    if (ObsScratch* os = g_obs) {
      os->NotePhase(from, to);
    }
  } else {
    (void)from;
    (void)to;
  }
}

}  // namespace

bool IsOutputOp(sim::Op op) {
  switch (op) {
    case sim::Op::kFileWrite:
    case sim::Op::kFileSetattr:
    case sim::Op::kFileCreate:
    case sim::Op::kFileUnlink:
    case sim::Op::kDirAddName:
    case sim::Op::kDirRemoveName:
    case sim::Op::kSocketBind:
    case sim::Op::kSocketSetattr:
      return true;
    default:
      return false;
  }
}

bool IsCreateOp(sim::Op op) {
  return op == sim::Op::kFileCreate || op == sim::Op::kDirAddName ||
         op == sim::Op::kSocketBind;
}

// --- worker lanes --------------------------------------------------------------

static_assert(kWorkerLanes == 64, "the lane registry is one 64-bit word");
static_assert(trace::TraceHub::kMaxWorkers == kWorkerLanes &&
                  audit::AuditHub::kMaxWorkers == kWorkerLanes,
              "trace and audit rings share the worker-lane registry");

namespace {

// Bit i is set while a live thread owns lane i.
std::atomic<uint64_t> g_lanes_held{0};

// kOverflowLane until the thread holds a lane; kLaneReleased once its
// thread-exit release ran (a later Authorize from another thread_local
// destructor then stays on the overflow lane instead of reclaiming).
constexpr size_t kLaneReleased = kOverflowLane + 1;
thread_local size_t t_lane = kOverflowLane;

struct LaneRelease {
  ~LaneRelease() {
    const size_t lane = t_lane;
    t_lane = kLaneReleased;
    if (lane < kWorkerLanes) {
      // Release pairs with the claiming CAS: the next owner of the lane sees
      // every write this thread made to the lane's pin slot and rings.
      g_lanes_held.fetch_and(~(1ull << lane), std::memory_order_release);
    }
  }
};

// Slow path of WorkerIndex: first call on this thread, or every lane was
// held at the last attempt. Claims the lowest free lane.
[[gnu::noinline]] size_t ClaimWorkerLane() {
  if (t_lane == kLaneReleased) {
    return kOverflowLane;
  }
  thread_local LaneRelease release;  // registered once, runs at thread exit
  uint64_t held = g_lanes_held.load(kRelaxed);
  while (held != ~0ull) {
    const auto lane = static_cast<size_t>(std::countr_one(held));
    if (g_lanes_held.compare_exchange_weak(held, held | (1ull << lane),
                                           std::memory_order_acquire, kRelaxed)) {
      t_lane = lane;
      return lane;
    }
  }
  return kOverflowLane;
}

}  // namespace

size_t WorkerIndex() {
  const size_t lane = t_lane;
  return lane < kWorkerLanes ? lane : ClaimWorkerLane();
}

// --- TaskStateStore ----------------------------------------------------------

PfTaskState& TaskStateStore::GetOrCreate(sim::Pid pid) {
  Shard& shard = ShardFor(pid);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto& slot = shard.map[pid];
  if (!slot) {
    slot = std::make_shared<PfTaskState>();
  }
  return *slot;
}

std::shared_ptr<PfTaskState> TaskStateStore::Find(sim::Pid pid) {
  Shard& shard = ShardFor(pid);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(pid);
  return it == shard.map.end() ? nullptr : it->second;
}

void TaskStateStore::Put(sim::Pid pid, std::shared_ptr<PfTaskState> state) {
  Shard& shard = ShardFor(pid);
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.map[pid] = std::move(state);
}

void TaskStateStore::Erase(sim::Pid pid) {
  Shard& shard = ShardFor(pid);
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.map.erase(pid);
}

size_t TaskStateStore::size() const {
  size_t n = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    n += shard.map.size();
  }
  return n;
}

// --- Engine wiring -----------------------------------------------------------

Engine::Engine(sim::Kernel& kernel, EngineConfig config)
    : kernel_(kernel), config_(config) {
  // Publish generation 1 (the empty builtin chains). An empty program always
  // verifies, so the commit cannot fail here.
  (void)CommitRuleset();
}

Engine* InstallProcessFirewall(sim::Kernel& kernel, EngineConfig config) {
  auto engine = std::make_unique<Engine>(kernel, config);
  Engine* raw = engine.get();
  size_t slot = kernel.AddModule(std::move(engine));
  raw->set_slot(slot);
  return raw;
}

namespace {

// Stamps the load-time verifier's verdict on a compiled generation.
void RecordVerification(CompiledRuleset& snap, const VerifyOptions& opts) {
  const auto t0 = std::chrono::steady_clock::now();
  VerifyResult vr = VerifyProgram(snap.program, opts);
  snap.verify_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  snap.verified = vr.ok();
  snap.verify_report = std::move(vr.report);
}

}  // namespace

std::shared_ptr<CompiledRuleset> Engine::CompileRuleset() const {
  auto snap = std::make_shared<CompiledRuleset>();
  snap->rules = ruleset_;  // shares the Rule objects, copies chain structure

  // --- commit-time compilation ---
  // Pass 1: lower the whole generation into the arena-packed program form
  // (compile.cc), building each chain's per-op buckets as it goes.
  LowerProgram(*snap);
  // Pass 2: STATE-protocol automaton lowering (automata.cc). Gated so the
  // NOAUTOMATA bench rung measures the baseline compile; with the pass off,
  // program.automata_built stays false and every consumer ignores the
  // astate fields.
  if (config_.automata) {
    BuildAutomata(*snap);
  }
  // Pass 3: close every bucket's facts over its JUMP edges.
  CloseBuckets(snap->program);
  // Pass 4: the load-time verifier (verify.h). The evaluator trusts every
  // arena fetch; this pass is where that trust is earned. CommitRuleset
  // refuses to publish on errors.
  RecordVerification(*snap, VerifyOptions());
  return snap;
}

bool Engine::CanDeltaCompile(const CompiledRuleset& prev,
                             std::vector<std::string>* dirty) const {
  if (!config_.incremental_commits) {
    return false;
  }
  // Delta verification assumes the base program's untouched prefix was
  // proven when it published; never build on an unverified base.
  if (!prev.verified) {
    return false;
  }
  // Compaction threshold: once half the arena is dead, relower from scratch
  // (bounds memory to 2x the live program across any edit history).
  const PfProgram& pp = prev.program;
  if (pp.dead_arena_words * 2 > pp.arena.size()) {
    return false;
  }
  // Chain ids are positional: any change to the chain-name set reshuffles
  // them, so only same-set edits take the delta path.
  const auto& staged = ruleset_.filter().chains();
  const auto& base = prev.rules.filter().chains();
  if (staged.size() != base.size()) {
    return false;
  }
  auto bit = base.begin();
  for (const auto& [name, chain] : staged) {
    if (bit->first != name) {
      return false;
    }
    // edit_seq covers rule-list and policy mutations; index_built is derived
    // state (pftables reindexes per command) and is compared separately.
    if (chain.edit_seq() != bit->second.edit_seq() ||
        chain.index_built() != bit->second.index_built()) {
      dirty->push_back(name);
    }
    ++bit;
  }
  return true;
}

std::shared_ptr<CompiledRuleset> Engine::CompileRulesetDelta(
    const CompiledRuleset& prev, const std::vector<std::string>& dirty) const {
  // Recycle the retired generation's allocations when nothing still pins it:
  // the copy-assignments below then reuse its vector pages and its map/chain
  // nodes (libstdc++ recycles nodes on container copy-assignment) instead of
  // faulting in a fresh ~40MB working set per commit.
  std::shared_ptr<CompiledRuleset> snap;
  {
    std::lock_guard<std::mutex> lock(commit_mu_);
    if (retired_ && retired_.use_count() == 1) {
      snap = std::const_pointer_cast<CompiledRuleset>(retired_);
      retired_.reset();
    }
  }
  if (snap == nullptr) {
    snap = std::make_shared<CompiledRuleset>();
  } else {
    snap->verify_report = analysis::AnalysisReport();
    snap->verified = false;
    snap->verify_ns = 0;
  }
  snap->rules = ruleset_;

  // Pass 1: splice — copy the base program, kill the dirty chains' records,
  // append their relowered bodies and tables (compile.cc).
  LowerProgramDelta(*snap, prev.program, dirty);
  // Pass 2: delta automaton lowering — reclassifies only the dirty chains
  // when their STATE facts are unchanged, full rebuild otherwise.
  if (config_.automata) {
    BuildAutomataDelta(*snap, dirty);
  }
  // Pass 3: the closure reruns over every chain, so a clean chain that
  // jumps into a dirty one picks up the dirty chain's new facts.
  CloseBuckets(snap->program);
  // Pass 4: delta verification. The untouched prefix was proven when the
  // base generation published and the splice never rewrites it (dead
  // marking only clears RuleRecord::rule), so the verifier re-checks the
  // appended records, the rebuilt chains' dispatch tables, and the global
  // properties (arena alignment, jump-depth proof) that span generations.
  VerifyOptions opts;
  opts.delta = true;
  opts.from_record = static_cast<uint32_t>(prev.program.rules.size());
  for (const std::string& name : dirty) {
    opts.recheck_chains.push_back(snap->program.chain_ids.at(name));
  }
  RecordVerification(*snap, opts);
  return snap;
}

Status Engine::CommitRuleset() {
  std::shared_ptr<const CompiledRuleset> prev;
  {
    std::lock_guard<std::mutex> lock(commit_mu_);
    prev = published_;
  }
  std::vector<std::string> dirty;
  const bool delta = prev != nullptr && CanDeltaCompile(*prev, &dirty);
  std::shared_ptr<CompiledRuleset> snap =
      delta ? CompileRulesetDelta(*prev, dirty) : CompileRuleset();
  if (!snap->verified) {
    // Abort the publish: hook evaluation keeps serving the previous
    // generation, exactly as if the commit never happened. (The staging
    // RuleSet keeps the caller's edit — pftables rolls it back when it holds
    // a --check backup.)
    return Status::Error("program verification failed:\n" +
                         snap->verify_report.RenderText());
  }
  {
    std::lock_guard<std::mutex> lock(commit_mu_);
    snap->generation = generation_.load(kRelaxed) + 1;
    // Keep the generation being unpublished for allocation recycling (see
    // retired_). The generation it displaces is freed here if unpinned.
    retired_ = std::move(published_);
    published_ = std::move(snap);
    generation_.store(published_->generation, std::memory_order_release);
  }
  (delta ? delta_commits_ : full_commits_).fetch_add(1, kRelaxed);
  // Entries of dead generations are unreachable by key; clear them out so
  // frequent commits do not pin stale verdicts in memory.
  vcache_.Clear();
  return Status::Ok();
}

const CompiledRuleset& Engine::PinRuleset(std::shared_ptr<const CompiledRuleset>* hold) {
  const size_t index = WorkerIndex();
  if (index < kWorkerLanes) {
    WorkerSlot& w = workers_[index];
    if (w.generation != generation_.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(commit_mu_);
      w.snap = published_;
      w.generation = w.snap->generation;
      StatsLocal().ruleset_refreshes.fetch_add(1, kRelaxed);
    }
    return *w.snap;
  }
  // Threads on the overflow lane (every lane held) pin via `hold`.
  std::lock_guard<std::mutex> lock(commit_mu_);
  *hold = published_;
  return **hold;
}

// --- VerdictCache ------------------------------------------------------------

std::optional<CachedVerdict> VerdictCache::Lookup(const VerdictKey& key,
                                                  size_t hash) const {
  const Shard& shard = shards_[hash & (kShards - 1)];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    return std::nullopt;
  }
  return it->second;  // copies bool + one shared_ptr ref
}

void VerdictCache::Insert(const VerdictKey& key, size_t hash, CachedVerdict verdict) {
  Shard& shard = shards_[hash & (kShards - 1)];
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.map.size() >= kMaxPerShard) {
    shard.map.clear();  // memo, not truth: dump the shard and let it refill
  }
  shard.map[key] = std::move(verdict);
}

void VerdictCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.map.clear();
  }
}

size_t VerdictCache::size() const {
  size_t n = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    n += shard.map.size();
  }
  return n;
}

EngineStatsBlock& Engine::StatsLocal() {
  return stats_blocks_[WorkerIndex() & (kStatsBlocks - 1)];
}

EngineStats Engine::stats() const {
  EngineStats out;
  const uint64_t gen_before = stats_gen_.load(std::memory_order_acquire);
  for (const EngineStatsBlock& b : stats_blocks_) {
    out.invocations += b.invocations.load(kRelaxed);
    out.drops += b.drops.load(kRelaxed);
    out.audited_drops += b.audited_drops.load(kRelaxed);
    out.rules_evaluated += b.rules_evaluated.load(kRelaxed);
    out.ept_chain_hits += b.ept_chain_hits.load(kRelaxed);
    out.unwinds += b.unwinds.load(kRelaxed);
    out.unwind_cache_hits += b.unwind_cache_hits.load(kRelaxed);
    out.ruleset_refreshes += b.ruleset_refreshes.load(kRelaxed);
    out.vcache_hits += b.vcache_hits.load(kRelaxed);
    out.vcache_misses += b.vcache_misses.load(kRelaxed);
    out.vcache_bypasses += b.vcache_bypasses.load(kRelaxed);
    out.vcache_state_hits += b.vcache_state_hits.load(kRelaxed);
    out.vcache_state_misses += b.vcache_state_misses.load(kRelaxed);
    for (size_t i = 0; i < out.vcache_bypass_causes.size(); ++i) {
      out.vcache_bypass_causes[i] += b.vcache_bypass_causes[i].load(kRelaxed);
    }
    for (size_t i = 0; i < out.ctx_fetches.size(); ++i) {
      out.ctx_fetches[i] += b.ctx_fetches[i].load(kRelaxed);
    }
  }
  out.trace_records = trace_.records();
  out.trace_drops = trace_.drops();
  out.audit_emitted = audit_.emitted();
  out.audit_records = audit_.records();
  out.audit_suppressed = audit_.suppressed();
  out.audit_ring_drops = audit_.ring_drops();
  const uint64_t gen_after = stats_gen_.load(std::memory_order_acquire);
  out.stats_generation = gen_after;
  out.torn = (gen_after & 1) != 0 || gen_after != gen_before;
  return out;
}

void Engine::ResetStats() {
  BeginCounterMutation();
  for (EngineStatsBlock& b : stats_blocks_) {
    b.invocations.store(0, kRelaxed);
    b.drops.store(0, kRelaxed);
    b.audited_drops.store(0, kRelaxed);
    b.rules_evaluated.store(0, kRelaxed);
    b.ept_chain_hits.store(0, kRelaxed);
    b.unwinds.store(0, kRelaxed);
    b.unwind_cache_hits.store(0, kRelaxed);
    b.ruleset_refreshes.store(0, kRelaxed);
    b.vcache_hits.store(0, kRelaxed);
    b.vcache_misses.store(0, kRelaxed);
    b.vcache_bypasses.store(0, kRelaxed);
    b.vcache_state_hits.store(0, kRelaxed);
    b.vcache_state_misses.store(0, kRelaxed);
    for (auto& c : b.vcache_bypass_causes) {
      c.store(0, kRelaxed);
    }
    for (auto& c : b.ctx_fetches) {
      c.store(0, kRelaxed);
    }
  }
  EndCounterMutation();
}

// --- per-task state ----------------------------------------------------------

PfTaskState& Engine::TaskState(sim::Task& task) { return states_.GetOrCreate(task.pid); }

void Engine::OnTaskExit(sim::Task& task) { states_.Erase(task.pid); }

void Engine::OnTaskFork(sim::Task& parent, sim::Task& child) {
  // The STATE dictionary follows the process across fork (context caches do
  // not: the child's first access re-unwinds its own stack).
  auto parent_state = states_.Find(parent.pid);
  if (!parent_state) {
    return;
  }
  auto state = std::make_shared<PfTaskState>();
  {
    std::lock_guard<std::mutex> lock(parent_state->mu);
    state->dict = parent_state->dict;
  }
  states_.Put(child.pid, std::move(state));
}

void Engine::OnTaskExec(sim::Task& task) {
  // execve replaces the image: cached unwinds describe a dead address space.
  // (The serial check would also reject them on the next syscall; dropping
  // them here keeps even same-syscall hooks from seeing pre-exec frames.)
  auto state = states_.Find(task.pid);
  if (!state) {
    return;
  }
  state->stack.store(nullptr, std::memory_order_release);
  state->interp.store(nullptr, std::memory_order_release);
}

// --- context modules ---------------------------------------------------------

void Engine::FetchObject(Packet& pkt) {
  StatsLocal().ctx_fetches[static_cast<size_t>(Ctx::kObject)].fetch_add(1, kRelaxed);
  sim::AccessRequest& req = *pkt.req;
  if (req.inode != nullptr) {
    pkt.has_object = true;
    pkt.object_sid = req.inode->sid;
    pkt.object_id = req.id;
    pkt.object_generation = req.inode->generation;
    pkt.object_owner = req.inode->uid;
  }
  pkt.Mark(Ctx::kObject);
}

void Engine::FetchLinkTarget(Packet& pkt) {
  StatsLocal().ctx_fetches[static_cast<size_t>(Ctx::kLinkTarget)].fetch_add(1, kRelaxed);
  sim::AccessRequest& req = *pkt.req;
  if (req.op == sim::Op::kLnkFileRead && req.inode != nullptr) {
    pkt.link_owner = req.inode->uid;
    if (req.link_target != nullptr) {
      pkt.has_link_target = true;
      pkt.link_target_owner = req.link_target->uid;
      pkt.link_target_sid = req.link_target->sid;
      pkt.link_target_id = req.link_target->id();
    }
  }
  pkt.Mark(Ctx::kLinkTarget);
}

void Engine::FetchAdversaryAccess(Packet& pkt) {
  if (!pkt.Has(Ctx::kObject)) {
    FetchObject(pkt);
  }
  StatsLocal().ctx_fetches[static_cast<size_t>(Ctx::kAdversaryAccess)].fetch_add(1,
                                                                                kRelaxed);
  if (pkt.has_object) {
    const sim::MacPolicy& pol = kernel_.policy();
    pkt.adversary_writable = pol.AdversaryWritable(pkt.object_sid);
    pkt.adversary_readable = pol.AdversaryReadable(pkt.object_sid);
  }
  pkt.Mark(Ctx::kAdversaryAccess);
}

void Engine::FetchStack(Packet& pkt) {
  EngineStatsBlock& sb = StatsLocal();
  sb.ctx_fetches[static_cast<size_t>(Ctx::kEntrypoint)].fetch_add(1, kRelaxed);
  sim::Task& task = *pkt.req->task;
  PfTaskState& state = TaskState(task);
  std::shared_ptr<const StackSnapshot> snap;
  if (config_.cache_context) {
    snap = state.stack.load(std::memory_order_acquire);
    if (snap && snap->serial != task.syscall_count) {
      snap = nullptr;  // stale: belongs to an earlier system call
    }
  }
  if (snap) {
    sb.unwind_cache_hits.fetch_add(1, kRelaxed);
  } else {
    sb.unwinds.fetch_add(1, kRelaxed);
    UnwindResult res = UnwindUserStack(task);
    auto fresh = std::make_shared<StackSnapshot>();
    fresh->serial = task.syscall_count;
    fresh->frames = std::move(res.frames);
    fresh->status = res.status;
    snap = std::move(fresh);
    // Single publication (no check/unlock/relock round-trip): a concurrent
    // refresh for the same syscall stores an equally-valid snapshot.
    state.stack.store(snap, std::memory_order_release);
  }
  pkt.stack = &snap->frames;
  pkt.stack_status = snap->status;
  if (snap->status != UnwindStatus::kAborted && !snap->frames.empty()) {
    pkt.entrypoint_valid = true;
    pkt.entrypoint = snap->frames.front();
  }
  pkt.stack_hold = std::move(snap);
  pkt.Mark(Ctx::kEntrypoint);
  pkt.Mark(Ctx::kUserStack);
}

void Engine::FetchInterp(Packet& pkt) {
  StatsLocal().ctx_fetches[static_cast<size_t>(Ctx::kInterpStack)].fetch_add(1, kRelaxed);
  sim::Task& task = *pkt.req->task;
  PfTaskState& state = TaskState(task);
  std::shared_ptr<const InterpSnapshot> snap;
  if (config_.cache_context) {
    snap = state.interp.load(std::memory_order_acquire);
    if (snap && snap->serial != task.syscall_count) {
      snap = nullptr;
    }
  }
  if (!snap) {
    InterpUnwindResult res = UnwindInterpStack(task);
    auto fresh = std::make_shared<InterpSnapshot>();
    fresh->serial = task.syscall_count;
    fresh->frames = std::move(res.frames);
    fresh->status = res.status;
    snap = std::move(fresh);
    state.interp.store(snap, std::memory_order_release);
  }
  pkt.interp = &snap->frames;
  pkt.interp_status = snap->status;
  pkt.interp_hold = std::move(snap);
  pkt.Mark(Ctx::kInterpStack);
}

void Engine::EnsureContext(Packet& pkt, CtxMask mask) {
  CtxMask missing = mask & ~pkt.have;
  if (missing == 0) {
    return;
  }
  // Context-fetch tracepoint: only observed decisions carry a scratch, so
  // the unobserved hot path pays one thread-local load past this point.
  // Timing is opt-in per decision (tracer active, or audit with
  // Config::timed): an armed-but-untimed audit pipeline must not put two
  // clock reads on every allow-path context fetch.
  uint64_t t0 = 0;
  if constexpr (trace::kTraceCompiledIn) {
    if (g_obs != nullptr && g_obs->time_ctx) {
      t0 = trace::NowNs();
    }
  }
  if (missing & CtxBit(Ctx::kObject)) {
    FetchObject(pkt);
  }
  if (missing & CtxBit(Ctx::kLinkTarget)) {
    FetchLinkTarget(pkt);
  }
  if (missing & CtxBit(Ctx::kAdversaryAccess)) {
    FetchAdversaryAccess(pkt);
  }
  if (missing & (CtxBit(Ctx::kEntrypoint) | CtxBit(Ctx::kUserStack))) {
    FetchStack(pkt);
  }
  if (missing & CtxBit(Ctx::kInterpStack)) {
    FetchInterp(pkt);
  }
  if constexpr (trace::kTraceCompiledIn) {
    if (ObsScratch* ds = g_obs; ds != nullptr && ds->time_ctx) {
      const uint64_t dt = trace::NowNs() - t0;
      ds->ctx_ns += dt;
      if (ds->trace_ctx) {
        trace::TraceRecord rec;
        rec.ts_ns = trace::NowNs();
        rec.worker = ds->worker;
        rec.op = ds->op;
        rec.event = static_cast<uint8_t>(trace::Event::kCtxFetch);
        rec.subject_sid = pkt.req->task->cred.sid;
        rec.chain_id = static_cast<int32_t>(missing);  // fetched CtxMask
        rec.eval_ns = trace::ClampNs(dt);
        ds->hub->Emit(rec);
      }
    }
  }
}

// --- logging -------------------------------------------------------------------

void Engine::EmitLog(Packet& pkt, const std::string& prefix) {
  EnsureContext(pkt, CtxBit(Ctx::kObject) | CtxBit(Ctx::kAdversaryAccess) |
                         CtxBit(Ctx::kEntrypoint));
  const sim::AccessRequest& req = *pkt.req;
  LogRecord rec;
  rec.tick = kernel_.tick();
  rec.pid = req.task->pid;
  rec.comm = req.task->comm;
  rec.exe = req.task->exe;
  rec.op = req.op;
  rec.syscall = std::string(sim::SyscallName(req.syscall_nr));
  rec.subject_label = kernel_.labels().Name(req.task->cred.sid);
  if (pkt.has_object) {
    rec.object_label = kernel_.labels().Name(pkt.object_sid);
    rec.object = pkt.object_id;
  }
  rec.name = std::string(req.name);
  if (pkt.entrypoint_valid) {
    rec.entry_valid = true;
    rec.program = pkt.entrypoint.image_path;
    rec.entrypoint = pkt.entrypoint.offset;
  }
  rec.adversary_writable = pkt.adversary_writable;
  rec.adversary_readable = pkt.adversary_readable;
  rec.prefix = prefix;
  log_.Append(std::move(rec));
  // Audit hook: a LOG fired during an observed decision is parked, and
  // becomes a kLogHit record in the epilogue when the decision is audited.
  // The kLog handler parked its rule identity in cur_chain/cur_rule just
  // before calling here; any other caller leaves -1 (the tracing
  // convention). The audit-drop EmitLog in Authorize runs after the scratch
  // is popped, so a denial never double-reports as a log hit.
  if constexpr (trace::kTraceCompiledIn) {
    if (ObsScratch* os = g_obs) {
      os->NoteLog();
    }
  }
}

// --- rule evaluation (the compiled evaluator) -----------------------------------
//
// The engine's one traversal: an instruction interpreter over the arena.
// Every handler replicates the reference semantics of its rule part — the
// default matches and the builtin modules' Matches()/Fire() — bit for bit:
// same counter totals, same EnsureContext order, same side effects. The
// differential fuzz test holds it to that against the Rule-object tree
// walker kept as its reference (tests/core/reference_walker.h). Builtin
// matches and targets execute inline from pool operands;
// kMatchNative/kTargetNative escape into the extension module's virtual
// Matches()/Fire().
//
// The handler bodies live in src/core/exec_insn.inc, expanded once as the
// cases of ExecRule's switch loop. An opcode outside the instruction set
// matches no case and is skipped.
//
// The unchecked pool indexing in the handlers is safe because no program
// reaches this code unverified: Engine::CompileRuleset runs the load-time
// verifier (verify.h) over every compiled program and CommitRuleset refuses
// to publish one whose proof fails — the eBPF contract, transplanted.

Engine::Verdict Engine::ExecRule(const CompiledRuleset& rs, const RuleRecord& rec,
                                 uint32_t start, Packet& pkt, int depth) {
  const PfProgram& prog = rs.program;
  const sim::AccessRequest& req = *pkt.req;
  for (uint32_t pc = start; pc < rec.end; pc += kPfInsnWords) {
    const PfInsn insn = prog.Fetch(pc);
    switch (static_cast<PfOp>(insn.op)) {
#include "src/core/exec_insn.inc"  // NOLINT(bugprone-suspicious-include)
    }
  }
  return Verdict::kFallthrough;
}

Engine::Verdict Engine::ExecEntries(const CompiledRuleset& rs, uint32_t off, uint32_t len,
                                    bool op_checked, Packet& pkt, int depth) {
  const PfProgram& prog = rs.program;
  const uint32_t* recs = prog.entries.data() + off;
  ObsScratch* ds = nullptr;
  if constexpr (trace::kTraceCompiledIn) {
    ds = g_obs;
  }
  // rules_evaluated is batched: one thread-local lookup and one atomic add
  // per entry list instead of per rule. Totals match a per-rule count
  // exactly (every return path below flushes); the per-rule `evals` counter
  // stays per rule — `pftables -L -v` prints it.
  EngineStatsBlock& sb = StatsLocal();
  uint32_t evals = 0;
  const auto flush = [&] { sb.rules_evaluated.fetch_add(evals, kRelaxed); };
  for (uint32_t i = 0; i < len; ++i) {
    const RuleRecord& rec = prog.rules[recs[i]];
    ++evals;
    rec.rule->evals.fetch_add(1, kRelaxed);
    // Bucket lists are op-filtered at compile time, so the kCheckOp guard is
    // a tautology there and evaluation enters past it; entrypoint-index
    // lists keep it (they are selected by (image, offset), not by op).
    const uint32_t start = op_checked ? rec.body : rec.entry + kPfInsnWords;
    Verdict v;
    if (ds != nullptr && ds->trace_rules) {
      // Per-rule attribution: inclusive time (a JUMP rule's span covers the
      // jumped-to chain), accumulated into the rule's eval_ns counter, plus
      // one kRule record whenever the rule produced a verdict.
      const uint64_t t0 = trace::NowNs();
      v = ExecRule(rs, rec, start, pkt, depth);
      const uint64_t dt = trace::NowNs() - t0;
      rec.rule->eval_ns.fetch_add(dt, kRelaxed);
      if (v != Verdict::kFallthrough) {
        trace::TraceRecord tr;
        tr.ts_ns = trace::NowNs();
        tr.worker = ds->worker;
        tr.op = ds->op;
        tr.event = static_cast<uint8_t>(trace::Event::kRule);
        tr.subject_sid = pkt.req->task->cred.sid;
        tr.chain_id = rec.chain_id;
        tr.rule_index = static_cast<int32_t>(rec.chain_index);
        tr.eval_ns = trace::ClampNs(dt);
        if (v == Verdict::kDrop) {
          tr.flags |= trace::kFlagDrop;
        }
        ds->hub->Emit(tr);
      }
    } else {
      v = ExecRule(rs, rec, start, pkt, depth);
    }
    if (v != Verdict::kFallthrough) {
      // First accept/drop wins attribution: with JUMPs the innermost rule
      // that actually decided sets it, and the enclosing JUMP rules (whose
      // ExecRule propagates that verdict) find it already claimed.
      if (ds != nullptr && ds->chain_id < 0 &&
          (v == Verdict::kAccept || v == Verdict::kDrop)) {
        ds->chain_id = rec.chain_id;
        ds->rule_index = static_cast<int32_t>(rec.chain_index);
      }
      flush();
      return v;  // accept, drop, or RETURN to the calling chain
    }
  }
  flush();
  return Verdict::kFallthrough;
}

Engine::Verdict Engine::ExecChain(const CompiledRuleset& rs, const ProgramChain& pc,
                                  Packet& pkt, int depth) {
  if (depth >= kMaxChainDepth) {
    return Verdict::kFallthrough;
  }
  const ProgramBucket& bucket = pc.ops[static_cast<size_t>(pkt.req->op)];
  if (config_.ept_chains && pc.index_built) {
    Verdict v = ExecEntries(rs, bucket.plain_off, bucket.plain_len,
                            /*op_checked=*/true, pkt, depth);
    if (v != Verdict::kFallthrough) {
      return v;
    }
    if (bucket.has_indexed && pc.ept) {
      EnsureContext(pkt, CtxBit(Ctx::kEntrypoint));
      if (pkt.entrypoint_valid) {
        auto it = pc.ept->find(EptKey{pkt.entrypoint.image, pkt.entrypoint.offset});
        if (it != pc.ept->end()) {
          StatsLocal().ept_chain_hits.fetch_add(1, kRelaxed);
          return ExecEntries(rs, it->second.first, it->second.second,
                             /*op_checked=*/false, pkt, depth);
        }
      }
    }
    return Verdict::kFallthrough;
  }
  return ExecEntries(rs, bucket.all_off, bucket.all_len, /*op_checked=*/true, pkt,
                     depth);
}

Engine::Verdict Engine::RunBuiltinCompiled(const CompiledRuleset& rs,
                                           const ProgramChain& pc, Packet& pkt) {
  Verdict v = ExecChain(rs, pc, pkt, 0);
  if (v == Verdict::kReturn) {
    v = Verdict::kFallthrough;
  }
  if (v == Verdict::kFallthrough && pc.policy_drop) {
    v = Verdict::kDrop;
  }
  return v;
}

int64_t Engine::Authorize(sim::AccessRequest& req) {
  if (!config_.enabled || req.task == nullptr) {
    return 0;
  }
  EngineStatsBlock& sb = StatsLocal();
  sb.invocations.fetch_add(1, kRelaxed);
  std::shared_ptr<const CompiledRuleset> hold;
  const CompiledRuleset& rs = PinRuleset(&hold);

  // Builtin chains this operation traverses, in order (create -> output ->
  // input, paper template T2). The commit-time op-coverage mask skips chains
  // with no rule that can match this op — when none remain, the default
  // allow costs neither a Packet nor any per-task state.
  const size_t op_index = static_cast<size_t>(req.op);
  const PfProgram& prog = rs.program;
  const ProgramChain* applicable[3];
  size_t num_applicable = 0;
  auto consider = [&](int32_t id) {
    if (id < 0) {
      return;
    }
    const ProgramChain& pc = prog.chains[static_cast<size_t>(id)];
    if (((pc.op_mask >> op_index) & 1) != 0 || pc.policy_drop) {
      applicable[num_applicable++] = &pc;
    }
  };
  if (req.op == sim::Op::kSyscallBegin) {
    consider(prog.root_syscallbegin);
  } else {
    // Creation operations consult the create chain first (template T2),
    // write-type operations additionally the output chain, then everything
    // falls through to input.
    if (IsCreateOp(req.op)) {
      consider(prog.root_create);
    }
    if (IsOutputOp(req.op)) {
      consider(prog.root_output);
    }
    consider(prog.root_input);
  }
  if (num_applicable == 0) {
    return 0;  // fast-path allow: never traced (no Packet, no rule base work)
  }

  // --- observer prologue. Unobserved, this is two relaxed loads (the trace
  // event mask and the audit enable flag) and no TLS install; PF_NO_TRACE
  // removes even those. An observed decision — traced, audited, or both —
  // installs the one ObsScratch once. Attribution (verdict-producing rule,
  // context time) and the audit event parking ride on it; an audited but
  // untraced decision keeps its trace flags false and its hub null, so no
  // trace records are emitted through it. Stage timing is armed when tracing
  // or the audit hub (Config::timed) asks for it — the default audited
  // decision reads the clock once, at emission.
  ObsScratch obs;
  bool trace_decision = false;
  bool trace_vcache = false;
  bool trace_active = false;
  [[maybe_unused]] bool audit_active = false;
  uint64_t t_start = 0;
  [[maybe_unused]] trace::Path path = trace::Path::kVcache;
  [[maybe_unused]] uint8_t cache_outcome = trace::kCacheNone;
  if constexpr (trace::kTraceCompiledIn) {
    const uint32_t ev = trace_.events();
    if (ev != 0 && ((trace_.op_filter() >> (static_cast<uint32_t>(req.op) &
                                            (trace::TraceHub::kMaxOps - 1))) &
                    1) != 0) {
      trace_decision = (ev & trace::EventBit(trace::Event::kDecision)) != 0;
      trace_vcache = (ev & trace::EventBit(trace::Event::kVcache)) != 0;
      obs.trace_rules = (ev & trace::EventBit(trace::Event::kRule)) != 0;
      obs.trace_ctx = (ev & trace::EventBit(trace::Event::kCtxFetch)) != 0;
      trace_active = trace_decision || trace_vcache || obs.trace_rules || obs.trace_ctx;
      if (trace_active) {
        // An audited-only decision resolves its worker lane at emission
        // time instead, so the (dominant) allow path never pays for it.
        obs.worker = static_cast<uint16_t>(WorkerIndex());
        obs.op = static_cast<uint8_t>(req.op);
        obs.time_ctx = true;
        obs.hub = &trace_;
      }
    }
    if (audit_.enabled()) {
      audit_active = true;
      obs.time_ctx = obs.time_ctx || audit_.timed();
    }
    if (trace_active || audit_active) {
      obs.prev = g_obs;
      g_obs = &obs;
      if (obs.time_ctx) {
        t_start = trace::NowNs();
      }
    }
  }

  Packet pkt;
  pkt.req = &req;
  if (!config_.lazy_context) {
    EnsureContext(pkt, kAllCtx);
  }

  // Verdict-cache probe, three tiers:
  //   * pure: every applicable bucket's verdict is a function of the key
  //     alone — probe with the base key (unchanged from before the stateful
  //     tier existed);
  //   * stateful: some bucket is impure but every impure one is
  //     automaton-lowered (astate.causes == 0) — probe with the key extended
  //     by the task's folded automaton state (plus syscall number / signal
  //     disposition when lowered guards read them); a hit replays the
  //     memoized rule hits and dictionary writes, a miss traverses under an
  //     armed effects capture;
  //   * bypass: some impure bucket is not lowerable (LOG, variable STATE
  //     operands, SYSCALL_ARGS beyond the number, ...) — traverse uncached,
  //     attributing the primary cause to the per-cause counters.
  bool cacheable = config_.verdict_cache;
  CtxMask needs = 0;
  for (size_t i = 0; i < num_applicable; ++i) {
    const ProgramBucket& bucket = applicable[i]->ops[op_index];
    cacheable = cacheable && bucket.cacheable;
    needs |= bucket.needs;
  }
  bool state_probe = false;
  bool nr_in_key = false;
  bool sig_in_key = false;
  uint8_t bypass_causes = 0;
  uint64_t astate_fold = 0;
  std::vector<uint16_t> protocols;
  if (config_.verdict_cache && !cacheable) {
    const bool automata_ok = config_.automata && prog.automata_built;
    bool admissible = automata_ok;
    for (size_t i = 0; i < num_applicable; ++i) {
      const ProgramBucket& pb = applicable[i]->ops[op_index];
      if (pb.cacheable) {
        continue;  // pure bucket: contributes nothing stateful
      }
      if (!automata_ok) {
        admissible = false;
        continue;
      }
      bypass_causes |= pb.astate.causes;
      if (pb.astate.causes != 0) {
        admissible = false;
        continue;
      }
      nr_in_key = nr_in_key || pb.astate.nr_in_key;
      sig_in_key = sig_in_key || pb.astate.sig_in_key;
      protocols.insert(protocols.end(), pb.astate.protocols.begin(),
                       pb.astate.protocols.end());
    }
    state_probe = admissible;
    if (state_probe && !protocols.empty()) {
      std::sort(protocols.begin(), protocols.end());
      protocols.erase(std::unique(protocols.begin(), protocols.end()), protocols.end());
    }
  }
  VerdictKey key;
  size_t key_hash = 0;
  bool insert_on_miss = false;
  bool drop = false;
  bool decided = false;
  [[maybe_unused]] int32_t hit_chain = -1;
  [[maybe_unused]] int32_t hit_rule = -1;
  std::shared_ptr<PfTaskState> tstate;
  if (state_probe) {
    // Fold the task's current automaton state into the key. Tasks with no
    // PfTaskState yet have an empty dictionary: every digit (and the fold)
    // is zero, with no state faulted in.
    tstate = states_.Find(req.task->pid);
    std::optional<uint64_t> fold;
    if (tstate != nullptr) {
      std::lock_guard<std::mutex> lock(tstate->mu);
      const std::vector<uint32_t>& vec =
          DeriveAutomatonState(rs.program, rs.generation, *tstate);
      fold = FoldAutomatonState(rs.program, protocols, &vec);
    } else {
      fold = FoldAutomatonState(rs.program, protocols, nullptr);
    }
    if (fold) {
      astate_fold = *fold;
    } else {
      state_probe = false;  // fold overflow: serve as a plain bypass
    }
  }
  if (cacheable || state_probe) {
    key.generation = rs.generation;
    key.mac_epoch = kernel_.policy().epoch();
    key.op = static_cast<uint32_t>(req.op);
    key.subject_sid = req.task->cred.sid;
    if (req.inode != nullptr) {
      key.flags |= VerdictKey::kHasObject;
      key.object = req.id;
      key.object_generation = req.inode->generation;
      key.object_sid = req.inode->sid;
    }
    if ((needs & (CtxBit(Ctx::kEntrypoint) | CtxBit(Ctx::kUserStack))) != 0) {
      // Some applicable rule reads the entrypoint, so it is a verdict input;
      // fetch it (cached across hooks of this syscall) and key on it.
      key.flags |= VerdictKey::kEptInKey;
      EnsureContext(pkt, CtxBit(Ctx::kEntrypoint));
      if (pkt.entrypoint_valid) {
        key.flags |= VerdictKey::kEptValid;
        key.ept_image = pkt.entrypoint.image;
        key.ept_offset = pkt.entrypoint.offset;
      }
    }
    if (state_probe) {
      key.flags |= VerdictKey::kStateInKey;
      key.astate = astate_fold;
      if (nr_in_key) {
        key.flags |= VerdictKey::kNrInKey;
        key.syscall_nr = static_cast<uint32_t>(req.syscall_nr);
      }
      if (sig_in_key) {
        // SIGNAL_MATCH reads exactly one predicate of the request: the
        // delivered signal has a handler installed and is blockable. Key on
        // that bit (probed here, so a handler change re-keys, never stales).
        key.flags |= VerdictKey::kSigInKey;
        if (req.op == sim::Op::kSignalDeliver && req.task->signals.HasHandler(req.sig) &&
            !sim::IsUnblockable(req.sig)) {
          key.flags |= VerdictKey::kSigHandled;
        }
      }
    }
    key_hash = VerdictKeyHash()(key);
    if (std::optional<CachedVerdict> cached = vcache_.Lookup(key, key_hash)) {
      sb.vcache_hits.fetch_add(1, kRelaxed);
      cache_outcome = trace::kCacheHit;
      drop = cached->drop;
      decided = true;
      // Cached-hit denials keep exact rule attribution for the audit
      // pipeline: the verdict-producing rule is a pure function of the key,
      // memoized at insert time.
      hit_chain = cached->chain_id;
      hit_rule = cached->rule_index;
      if (state_probe) {
        sb.vcache_state_hits.fetch_add(1, kRelaxed);
        if (cached->fx != nullptr) {
          // Replay the traversal's effects: per-rule hit counters in
          // traversal order, then the dictionary writes (which advance the
          // automaton — the next probe derives the successor state).
          for (const Rule* r : cached->fx->hits) {
            r->hits.fetch_add(1, kRelaxed);
          }
          if (!cached->fx->deltas.empty()) {
            PfTaskState& st = TaskState(*req.task);
            std::lock_guard<std::mutex> lock(st.mu);
            for (const DictDelta& d : cached->fx->deltas) {
              if (d.unset) {
                st.dict.erase(d.key);
              } else {
                // Audit emit point (stateful replay): a memoized @phase write
                // is the same protocol transition the traversal performed.
                if constexpr (trace::kTraceCompiledIn) {
                  if (g_obs != nullptr && d.key == kPhaseKeyName) {
                    auto it = st.dict.find(d.key);
                    NotePhaseTransition(it != st.dict.end()
                                            ? it->second
                                            : PhaseId(kPhaseInitName),
                                        d.value);
                  }
                }
                st.dict[d.key] = d.value;
              }
              ++st.dict_seq;
            }
          }
        }
      }
    } else {
      sb.vcache_misses.fetch_add(1, kRelaxed);
      cache_outcome = trace::kCacheMiss;
      insert_on_miss = true;
      if (state_probe) {
        sb.vcache_state_misses.fetch_add(1, kRelaxed);
      }
    }
  } else if (config_.verdict_cache) {
    sb.vcache_bypasses.fetch_add(1, kRelaxed);
    if (bypass_causes != 0) {
      const unsigned cause = static_cast<unsigned>(std::countr_zero(bypass_causes));
      if (cause < kBypassCauseCount) {
        sb.vcache_bypass_causes[cause].fetch_add(1, kRelaxed);
      }
    }
    cache_outcome = trace::kCacheBypass;
  }
  if constexpr (trace::kTraceCompiledIn) {
    if (trace_vcache && cache_outcome != trace::kCacheNone) {
      trace::TraceRecord rec;
      rec.ts_ns = trace::NowNs();
      rec.worker = obs.worker;
      rec.op = obs.op;
      rec.event = static_cast<uint8_t>(trace::Event::kVcache);
      rec.subject_sid = req.task->cred.sid;
      rec.cache = cache_outcome;
      if (state_probe) {
        // Stateful-tier attribution: kVcache records carry no timing, so
        // the folded automaton state rides in total_ns (kFlagStateKey marks
        // it meaningful) — pftrace renders it as the probe's state id.
        rec.flags |= trace::kFlagStateKey;
        rec.total_ns = trace::ClampNs(astate_fold);
      }
      trace_.Emit(rec);
    }
  }

  if (!decided) {
    // A stateful miss traverses under an armed effects capture; the entry is
    // inserted only when the task's dict_seq moved by exactly this
    // traversal's own writes — a concurrent writer interleaving with the
    // traversal would make the capture describe a mixed history.
    EffectsCapture capture;
    EffectsCapture* prev_capture = nullptr;
    uint64_t seq_before = 0;
    const bool capturing = state_probe && insert_on_miss;
    if (capturing) {
      if (tstate != nullptr) {
        std::lock_guard<std::mutex> lock(tstate->mu);
        seq_before = tstate->dict_seq;
      }
      prev_capture = g_capture;
      g_capture = &capture;
    }
    path = trace::Path::kCompiled;
    Verdict verdict = Verdict::kFallthrough;
    for (size_t i = 0; i < num_applicable && verdict == Verdict::kFallthrough; ++i) {
      verdict = RunBuiltinCompiled(rs, *applicable[i], pkt);
    }
    drop = verdict == Verdict::kDrop;
    if (capturing) {
      g_capture = prev_capture;
    }
    if (insert_on_miss) {
      CachedVerdict cv;
      cv.drop = drop;
      // Memoize attribution when an observer was watching the traversal
      // (-1 otherwise — the tracing convention). Like
      // the verdict it is a pure function of the key, so a later hit can
      // report the matched rule without re-traversing.
      cv.chain_id = obs.chain_id;
      cv.rule_index = obs.rule_index;
      bool insert = true;
      if (state_probe) {
        if (tstate == nullptr) {
          // The traversal (or a concurrent one) may have faulted state in;
          // the empty pre-traversal dictionary corresponds to seq 0.
          tstate = states_.Find(req.task->pid);
          seq_before = 0;
        }
        if (tstate != nullptr) {
          std::lock_guard<std::mutex> lock(tstate->mu);
          insert = tstate->dict_seq == seq_before + capture.own_mutations;
        }
        if (insert && (!capture.fx.hits.empty() || !capture.fx.deltas.empty())) {
          cv.fx = std::make_shared<const StatefulEffects>(std::move(capture.fx));
        }
      }
      if (insert) {
        vcache_.Insert(key, key_hash, std::move(cv));
      }
    }
  }

  // --- observer epilogue: pop the scratch and close the decision's timing
  // window, then feed each observer that watched this decision.
  [[maybe_unused]] uint64_t total = 0;
  if constexpr (trace::kTraceCompiledIn) {
    if (trace_active || audit_active) {
      g_obs = obs.prev;
      if (obs.time_ctx) {
        total = trace::NowNs() - t_start;
      }
    }
  }

  // --- decision tracepoint, epilogue: histogram sample + one kDecision
  // record covering context fetch, probe, and traversal of this request.
  if constexpr (trace::kTraceCompiledIn) {
    if (trace_decision) {
      trace_.RecordLatency(static_cast<uint32_t>(req.op), path, total);
      trace::TraceRecord rec;
      rec.ts_ns = trace::NowNs();
      rec.worker = obs.worker;
      rec.op = obs.op;
      rec.event = static_cast<uint8_t>(trace::Event::kDecision);
      rec.path = static_cast<uint8_t>(path);
      rec.cache = cache_outcome;
      rec.subject_sid = req.task->cred.sid;
      rec.object_sid = pkt.has_object ? pkt.object_sid : sim::kInvalidSid;
      rec.chain_id = obs.chain_id;
      rec.rule_index = obs.rule_index;
      rec.ctx_ns = trace::ClampNs(obs.ctx_ns);
      rec.total_ns = trace::ClampNs(total);
      rec.eval_ns = trace::ClampNs(total >= obs.ctx_ns ? total - obs.ctx_ns : 0);
      if (drop) {
        rec.flags |= trace::kFlagDrop;
        if (config_.audit_only) {
          rec.flags |= trace::kFlagAudited;
        }
      }
      if (pkt.entrypoint_valid) {
        rec.flags |= trace::kFlagEptValid;
        rec.ept_dev = pkt.entrypoint.image.dev;
        rec.ept_ino = pkt.entrypoint.image.ino;
        rec.ept_offset = pkt.entrypoint.offset;
      }
      if (state_probe) {
        rec.flags |= trace::kFlagStateKey;  // decision keyed on automaton state
      }
      trace_.Emit(rec);
    }
  }

  // --- audit epilogue: materialize this decision's security events with
  // full provenance. Runs after the scratch pop on purpose — the audit-mode
  // EmitLog in the verdict tail below must not double-report as a kLogHit.
  if constexpr (trace::kTraceCompiledIn) {
    if (audit_active) {
      // Stack-local event check before anything shared: an allow that saw no
      // mid-traversal events — the hot path — pays no atomic load here (a
      // kind mask of 0 zeroes every event count below).
      const bool any_event = drop || obs.phase_count != 0 || obs.log_count != 0;
      const uint32_t kinds = any_event ? audit_.kinds() : 0;
      const bool deny_event =
          drop && (kinds & audit::KindBit(config_.audit_only
                                              ? audit::Kind::kAuditedDeny
                                              : audit::Kind::kDeny)) != 0;
      const uint32_t n_phase = (kinds & audit::KindBit(audit::Kind::kPhase)) != 0
                                   ? std::min(obs.phase_count, ObsScratch::kMaxPending)
                                   : 0;
      const uint32_t n_log = (kinds & audit::KindBit(audit::Kind::kLogHit)) != 0
                                 ? std::min(obs.log_count, ObsScratch::kMaxPending)
                                 : 0;
      if (deny_event || n_phase != 0 || n_log != 0) {
        const size_t w = trace_active ? obs.worker : WorkerIndex();
        audit::AuditRecord base;
        base.ts_ns = trace::NowNs();
        base.generation = rs.generation;
        base.subject_sid = req.task->cred.sid;
        base.pid = static_cast<uint32_t>(req.task->pid);
        base.worker = static_cast<uint16_t>(w);
        base.op = static_cast<uint8_t>(req.op);
        if (req.inode != nullptr) {
          base.flags |= audit::kFlagHasObject;
          base.object_sid = req.inode->sid;
          base.object_dev = req.id.dev;
          base.object_ino = req.id.ino;
          base.object_gen = req.inode->generation;
        }
        if (pkt.entrypoint_valid) {
          base.flags |= audit::kFlagEptValid;
          base.ept_dev = pkt.entrypoint.image.dev;
          base.ept_ino = pkt.entrypoint.image.ino;
          base.ept_offset = pkt.entrypoint.offset;
        }
        if (obs.time_ctx) {
          base.flags |= audit::kFlagTimed;
          base.total_ns = total;
          base.ctx_ns = obs.ctx_ns;
        }
        // Serving-tier attribution: which layer of the engine produced (or
        // replayed) the verdict this event belongs to.
        if (decided) {
          base.tier = static_cast<uint8_t>(state_probe ? audit::Tier::kVcacheState
                                                       : audit::Tier::kVcache);
        } else if (cache_outcome == trace::kCacheBypass) {
          base.tier = static_cast<uint8_t>(audit::Tier::kBypass);
          base.cause = bypass_causes;
        } else {
          base.tier = static_cast<uint8_t>(audit::Tier::kCompiled);
        }
        if (state_probe) {
          base.flags |= audit::kFlagStateKey;
          base.automaton = protocols.empty()
                               ? audit::kNoAutomaton
                               : static_cast<uint16_t>(protocols.front());
          base.astate_in = astate_fold;
          base.astate_out = astate_fold;
          // Successor state: re-fold after this decision's recorded effects
          // (traversal writes or replayed deltas) have been applied.
          std::shared_ptr<PfTaskState> ts =
              tstate != nullptr ? tstate : states_.Find(req.task->pid);
          std::optional<uint64_t> out_fold;
          if (ts != nullptr) {
            std::lock_guard<std::mutex> lock(ts->mu);
            const std::vector<uint32_t>& vec =
                DeriveAutomatonState(rs.program, rs.generation, *ts);
            out_fold = FoldAutomatonState(rs.program, protocols, &vec);
          } else {
            out_fold = FoldAutomatonState(rs.program, protocols, nullptr);
          }
          if (out_fold) {
            base.astate_out = *out_fold;
          }
        }
        // Mid-traversal events first, in occurrence order, then the verdict.
        for (uint32_t i = 0; i < n_phase; ++i) {
          audit::AuditRecord rec = base;
          rec.kind = static_cast<uint8_t>(audit::Kind::kPhase);
          rec.flags = static_cast<uint16_t>(rec.flags & ~audit::kFlagStateKey);
          rec.automaton = audit::kNoAutomaton;
          rec.astate_in = static_cast<uint64_t>(obs.phase_from[i]);
          rec.astate_out = static_cast<uint64_t>(obs.phase_to[i]);
          audit_.Emit(w, rec);
        }
        for (uint32_t i = 0; i < n_log; ++i) {
          audit::AuditRecord rec = base;
          rec.kind = static_cast<uint8_t>(audit::Kind::kLogHit);
          rec.chain_id = obs.log_chain[i];
          rec.rule_index = obs.log_rule[i];
          audit_.Emit(w, rec);
        }
        if (deny_event) {
          audit::AuditRecord rec = base;
          rec.kind = static_cast<uint8_t>(config_.audit_only
                                              ? audit::Kind::kAuditedDeny
                                              : audit::Kind::kDeny);
          rec.chain_id = decided ? hit_chain : obs.chain_id;
          rec.rule_index = decided ? hit_rule : obs.rule_index;
          audit_.Emit(w, rec);
        }
      }
    }
  }

  if (drop) {
    if (config_.audit_only) {
      // Permissive deployment: log what enforcement would have denied.
      sb.audited_drops.fetch_add(1, kRelaxed);
      EmitLog(pkt, "audit-drop");
      return 0;
    }
    sb.drops.fetch_add(1, kRelaxed);
    return sim::SysError(sim::Err::kAcces);
  }
  return 0;  // default allow
}

}  // namespace pf::core
