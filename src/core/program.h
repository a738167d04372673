// Compiled PF programs: the flat, arena-packed form of a committed rule
// base (DESIGN.md §"Compiled PF programs").
//
// iptables' kernel hot path walks a contiguous ipt_entry blob, not a pointer
// graph. This module gives the Process Firewall the same shape: at commit
// time every filter-table chain is *lowered* into a single relocatable arena
// of fixed-size instruction records — default matches and builtin -m modules
// become inline-operand match ops, verdicts become terminal ops, JUMP edges
// become chain ids resolved at lowering, and stateful/extension modules
// become escape ops that call back into the module object. Strings and
// LabelSets are interned into side pools so an instruction is 24 bytes of
// plain integers. The engine's hot path then runs a tight switch-dispatch
// loop over the arena (no virtual calls, no shared_ptr traffic); the
// analyzer and `pftables -L --compiled` consume the same artifact, so what
// is analyzed, printed, and executed can never disagree.
//
// Alignment / aliasing: the arena is a vector of uint64_t words and every
// instruction is an alignas(8) trivially-copyable 3-word record accessed
// through memcpy views (PfProgram::Fetch / ProgramBuilder::Emit) — no
// reinterpret_cast, no unaligned loads, UBSan-clean by construction.
#ifndef SRC_CORE_PROGRAM_H_
#define SRC_CORE_PROGRAM_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "src/core/modules.h"
#include "src/core/ruleset.h"

namespace pf::core {

// Instruction opcodes. Guard ops fall through on success and end the rule
// (no match) on failure; terminal ops produce the rule's verdict. The
// k*Native ops are the escape hatch for extension modules registered via
// Pftables::RegisterMatch/RegisterTarget: they dispatch virtually into the
// module object held in the program's native pools.
enum class PfOp : uint8_t {
  kRuleBegin = 1,   // a = rule-record index (bumps eval counters)
  kCheckOp,         // a = sim::Op the rule's -o pins
  kMatchSubject,    // a = labelset pool index (-s)
  kEnsureCtx,       // a = CtxMask to collect (the rule's install-time needs)
  // The entrypoint/object checks are self-guarding: each ensures its context
  // bit (a short-circuit after kEnsureCtx) and fails the rule when the
  // request lacks a valid frame / an object, before comparing.
  kCheckProgram,    // b = image dev, c = image ino (-p)
  kCheckEptOff,     // b = binary-relative PC (-i)
  kCheckIno,        // b = inode number (--ino)
  kMatchObject,     // a = labelset pool index (-d)
  kMatchState,      // a = key string idx, b = cmp operand idx (kFlagHasCmp)
  kMatchSignal,     // SIGNAL_MATCH (no operands)
  kMatchSyscallArg, // aux = arg index, b = value (as uint64)
  kMatchCompare,    // b = operand idx v1, c = operand idx v2
  kMatchInterp,     // a = suffix string idx, aux = lang + 1 (0 = any)
  kMatchNative,     // a = native-match pool index (virtual escape)
  kAccept,          // terminal verdicts --------------------------------
  kDrop,
  kReturn,
  kContinue,        // side-effect-free CONTINUE (keep traversing)
  kJump,            // a = chain id (kPfNoIndex: undefined), b = name idx
  kStateSet,        // a = key string idx, b = value operand idx
  kStateUnset,      // a = key string idx
  kLog,             // a = prefix string idx
  kTargetNative,    // a = native-target pool index (virtual escape)
  // Compile-time-specialized forms, appended so the base opcodes keep their
  // numbering. Lowering resolves the operand-kind and comparison-sense
  // branches of the generic ops above at compile time (the --cmp / --nequal
  // flags, the arg-0-means-syscall-nr convention), so the hot loop
  // dispatches straight to a handler with no per-insn flag tests. The
  // generic forms stay executable (hand-built programs, older dumps) and
  // every specialized form disassembles to the same text as its generic
  // twin — listings are invariant under specialization.
  kMatchStateEq,      // kMatchState + kPfHasCmp, equal sense
  kMatchStateNe,      // kMatchState + kPfHasCmp + kPfNegate
  kMatchSyscallNrEq,  // kMatchSyscallArg with aux == 0 (the syscall number)
  kMatchSyscallNrNe,
  kMatchSyscallArgEq,  // kMatchSyscallArg with aux >= 1 (argument aux - 1)
  kMatchSyscallArgNe,
  kMatchCompareEq,  // kMatchCompare, equal sense
  kMatchCompareNe,  // kMatchCompare + kPfNegate
  // Temporal-phase guard (PHASE match, DESIGN.md §5i): compares the task's
  // current phase — STATE dictionary key "@phase", or the distinguished
  // "init" phase while the key is absent — against a phase-name id.
  kMatchPhase,  // a = phase-name string idx, b = phase id (PhaseId(name))
};

// One past the highest opcode: the bound the load-time verifier proves every
// fetched op against.
inline constexpr uint32_t kPfOpCount = static_cast<uint32_t>(PfOp::kMatchPhase) + 1;

// Instruction flags.
inline constexpr uint8_t kPfNegate = 1u << 0;  // --nequal / negated compare
inline constexpr uint8_t kPfHasCmp = 1u << 1;  // STATE match carries --cmp

// Sentinel for "no pool entry / unresolved chain".
inline constexpr uint32_t kPfNoIndex = 0xffffffffu;

// One fixed-size instruction: 24 bytes, three arena words. A trivial type
// (construct with `PfInsn{}` for zeroed fields) so it can be memcpy'd in
// and out of the word arena without tripping -Wclass-memaccess.
struct alignas(8) PfInsn {
  uint8_t op;
  uint8_t flags;
  uint16_t aux;
  uint32_t a;
  uint64_t b;
  uint64_t c;
};
static_assert(sizeof(PfInsn) == 24, "PfInsn must stay three arena words");
static_assert(alignof(PfInsn) == 8, "PfInsn records are word-aligned");
static_assert(std::is_trivial_v<PfInsn> && std::is_trivially_copyable_v<PfInsn>,
              "memcpy views require it");

inline constexpr uint32_t kPfInsnWords =
    static_cast<uint32_t>(sizeof(PfInsn) / sizeof(uint64_t));

// An interned LabelSet: a slice of the shared sid pool plus the three
// modifier bits. Match semantics mirror LabelSet exactly (rule.cc).
struct alignas(8) LabelSetRef {
  uint32_t off = 0;  // into PfProgram::sid_pool
  uint32_t len = 0;
  uint8_t syshigh = 0;
  uint8_t negate = 0;
  uint8_t wildcard = 0;
};

// Per-rule metadata: where the rule's instructions live in the arena plus
// the side-table links the analyzer and the stats counters need. `rule`
// points into the Rule objects shared with the owning CompiledRuleset, so a
// record is valid exactly as long as its program.
// Why a rule (and therefore any bucket that can reach it) cannot be served
// through the stateful verdict-cache tier (DESIGN.md §5i). One bit per
// cause so the engine's bypass counters and `pftables -L -v` can attribute
// the residual bypass share after automaton lowering.
inline constexpr uint8_t kBypassState = 1u << 0;        // unlowerable STATE op
inline constexpr uint8_t kBypassSyscallArgs = 1u << 1;  // arg >= 1 guard
inline constexpr uint8_t kBypassLog = 1u << 2;          // LOG side effect
inline constexpr uint8_t kBypassInterp = 1u << 3;       // interpreter stack
inline constexpr uint8_t kBypassCompare = 1u << 4;      // un-keyed COMPARE vars
inline constexpr uint8_t kBypassNative = 1u << 5;       // opaque native module
inline constexpr size_t kBypassCauseCount = 6;

const char* BypassCauseName(uint8_t bit);  // automata.cc
std::string RenderBypassCauses(uint8_t causes);

// RuleRecord::astate_flags — the pool-independent half of a record's
// automaton classification, written by the same scan that collects the
// chain's STATE facts so classification never re-reads the instruction
// stream of a record that touches no state (the common case).
inline constexpr uint8_t kAstateScanned = 1u << 0;   // raw scan happened
inline constexpr uint8_t kAstateNrInKey = 1u << 1;   // syscall-nr guard
inline constexpr uint8_t kAstateSigInKey = 1u << 2;  // signal-bit guard
inline constexpr uint8_t kAstateHasState = 1u << 3;  // has STATE/PHASE ops

struct RuleRecord {
  uint32_t entry = 0;  // arena word offset of kRuleBegin
  uint32_t end = 0;    // one past the rule's last word
  // Evaluator fast entry: past kRuleBegin (whose counter bumps the evaluator
  // prologue performs) and past any kCheckOp guard, which is true by
  // construction for rules reached through a per-op bucket. Entrypoint-index
  // lists are NOT op-filtered and must enter at entry + kPfInsnWords instead.
  uint32_t body = 0;
  uint32_t jump_name = kPfNoIndex;  // string idx of the declared JUMP target
  int32_t jump_chain = -1;          // resolved chain id (-1: none/undefined)
  // Owning chain and position within it, filled during lowering. This is the
  // (chain, rule) attribution the tracepoints put in TraceRecords and
  // `pftables -L -v` prints — the evaluator itself never reads them.
  int32_t chain_id = -1;
  uint32_t chain_index = 0;
  std::optional<TargetKind> static_kind;  // terminal kind, when static
  const Rule* rule = nullptr;
  // Automaton lowering annotation (BuildAutomata): why this rule keeps a
  // stateful decision on the bypass path (0 = pure or automaton-lowered),
  // and the STATE protocol its keys belong to (-1 = touches no state).
  // `pftables -L -v` and pfcheck's JSON automata block render these.
  // `astate_flags` (kAstate*) caches the pool-independent scan results so
  // reclassification against new pools only rescans records with STATE ops.
  uint8_t astate_causes = 0;
  uint8_t astate_flags = 0;
  int16_t astate_protocol = -1;
};

// ---------------------------------------------------------------------------
// STATE-protocol automata (DESIGN.md §5i). BuildAutomata (automata.cc) groups
// the program's STATE keys into protocols (connected components of keys that
// co-occur in a rule) and compiles each into a mixed-radix DFA over per-key
// abstract domains: digit 0 = key absent, digits 1..n = the n literal values
// any rule in the program compares or stores, digit n+1 = present with some
// other value. The product of a protocol's key digits is the task's current
// automaton state — a pure function of the STATE dictionary — and joining it
// to the VerdictKey makes previously-bypassing stateful decisions cacheable:
// a cached entry replays the recorded literal dictionary writes (advancing
// the automaton) and per-rule hit counters bit-identically to a traversal.

// Per-key domain caps. A key with more distinct literals, or a protocol
// whose digit product overflows, keeps its rules on the bypass path
// (cause kBypassState) instead of lowering unsoundly.
inline constexpr uint32_t kMaxAutomatonValues = 14;
inline constexpr uint32_t kMaxAutomatonStates = 1u << 16;

// One STATE key of a protocol: its interned name, the sorted unique literal
// slice in PfProgram::automaton_values, and its mixed-radix weight.
struct AutomatonKey {
  uint32_t name = 0;       // string pool idx
  uint32_t value_off = 0;  // slice of automaton_values (sorted, unique)
  uint32_t value_cnt = 0;
  uint32_t radix = 0;   // value_cnt + 2: absent / each literal / other
  uint32_t stride = 0;  // product of the protocol's preceding radices
  uint8_t phase = 0;    // "@phase" key: absent digit means the init phase
};

// One protocol: a key slice of PfProgram::automaton_keys (name-sorted) and
// the total state count (the product of the key radices — every digit vector
// maps to exactly one state, so the transition function is total).
struct AutomatonProtocol {
  uint32_t key_off = 0;  // slice of automaton_keys
  uint32_t key_cnt = 0;
  uint32_t state_count = 0;
  uint8_t phase = 0;  // distinguished temporal-phase automaton
};

// Automaton classification of one (chain, op) bucket: the causes that keep
// it off the stateful cache tier (0 = every reachable rule is pure or
// automaton-lowered), which extra request fields must join the VerdictKey,
// and the sorted protocol ids whose state the bucket's rules read or write.
// All three are transitively closed over JUMP edges by CloseBuckets.
struct BucketAutomata {
  uint8_t causes = 0;
  bool nr_in_key = false;   // syscall-number guard: req.syscall_nr joins key
  bool sig_in_key = false;  // SIGNAL_MATCH guard: handler bit joins key
  std::vector<uint16_t> protocols;
  bool operator==(const BucketAutomata&) const = default;
};

// Per-chain STATE facts, cached on ProgramChain so a delta commit can prove
// the automaton pools unchanged without rescanning clean chains: the key
// groups each state-touching rule co-occurs (protocol edges) and the literal
// domain each key contributes. Compared by value across generations.
struct ChainStateFacts {
  std::vector<std::vector<std::string>> rule_keys;
  std::map<std::string, std::vector<int64_t>> domains;
  bool operator==(const ChainStateFacts&) const = default;
};

// Per-(chain, op) dispatch bucket, built at lowering straight from the
// chain's rule list: `all` holds the rules that can match the op (no -o
// operand, or an equal one) in chain order, `plain` the subset the
// entrypoint index does not cover, both as entry-table slices. Each fact
// Authorize reads to pick a verdict-cache tier comes in two forms — the
// value folded from the bucket's own rules (base_needs, base_cacheable,
// astate_base) and the value CloseBuckets closes over `jumps`, folding every
// bucket the op can reach (needs, cacheable, astate).
struct ProgramBucket {
  uint32_t all_off = 0;    // slice of PfProgram::entries: every rule that
  uint32_t all_len = 0;    //   can match the op, in chain order
  uint32_t plain_off = 0;  // the non-entrypoint-indexed subset
  uint32_t plain_len = 0;
  bool has_indexed = false;  // some entrypoint-indexed rule can match the op
  CtxMask base_needs = 0;
  bool base_cacheable = true;
  // Closed: the union of every reachable rule's context mask, and whether
  // every reachable rule is a pure function of the verdict-cache key.
  CtxMask needs = 0;
  bool cacheable = true;
  // Automaton classification (valid when PfProgram::automata_built). A
  // bucket with astate.causes == 0 is *state-cacheable*: its verdict is a
  // pure function of the VerdictKey extended with the listed protocols'
  // automaton state (and nr/sig fields), so Authorize may serve it from the
  // verdict cache instead of bypassing.
  BucketAutomata astate_base;
  BucketAutomata astate;
  // Distinct resolved JUMP-target chain ids of the bucket's rules: the
  // edges the closure iterates, so it never rescans rule bodies.
  std::vector<int32_t> jumps;
};

// Entrypoint index of one lowered chain: key -> an entry-table slice.
using EptSliceMap =
    std::unordered_map<EptKey, std::pair<uint32_t, uint32_t>, EptKeyHash>;

// One lowered chain. `rules` lists the chain's rule records in chain order
// (the disassembler's and analyzer's view); the buckets and the entrypoint
// index give the evaluator its op-filtered slices.
struct ProgramChain {
  std::string name;
  bool builtin = false;
  bool policy_drop = false;
  bool index_built = false;
  uint64_t op_mask = 0;
  std::vector<uint32_t> rules;  // rule-record indices, chain order
  std::array<ProgramBucket, sim::kOpCount> ops;
  // Entrypoint index re-pointed at entry-table slices. Like the staging
  // Chain index (Chain::EptRules) the per-key rule list is NOT op-filtered
  // (the kCheckOp guard handles mismatches and bumps the eval counters).
  // Immutable once the chain is lowered and held by shared_ptr (null = no
  // indexed entrypoints): a delta commit's program copy shares every clean
  // chain's map instead of re-hashing it, which is what keeps a one-rule
  // edit from paying O(total rules) per generation.
  std::shared_ptr<const EptSliceMap> ept;
  // STATE facts of this chain's live rules, cached for delta commits: when
  // the dirty chains' facts are value-equal across generations the automaton
  // pools are provably unchanged and BuildAutomataDelta reclassifies only
  // the dirty chains' buckets.
  ChainStateFacts state_facts;
};

// The compiled program artifact: one relocatable arena plus interned pools.
// Immutable after lowering; shares the Rule/module objects with the
// CompiledRuleset that owns it.
struct PfProgram {
  std::vector<uint64_t> arena;    // instruction words
  std::vector<uint32_t> entries;  // flattened bucket/index rule-record lists
  std::vector<RuleRecord> rules;
  std::vector<ProgramChain> chains;  // chain id = index (name-sorted)
  std::map<std::string, int32_t> chain_ids;
  int32_t root_input = -1;
  int32_t root_output = -1;
  int32_t root_create = -1;
  int32_t root_syscallbegin = -1;

  // Interned operand pools.
  std::vector<std::string> strings;
  std::vector<sim::Sid> sid_pool;
  std::vector<LabelSetRef> labelsets;
  std::vector<Operand> operands;
  // Escape-op targets: raw pointers into the module objects owned by the
  // shared Rule instances (same lifetime as the program).
  std::vector<const MatchModule*> native_matches;
  std::vector<const TargetModule*> native_targets;

  // STATE-protocol automaton pools (see AutomatonProtocol above). Valid —
  // and the per-bucket astate classifications meaningful — only when
  // `automata_built` is set by BuildAutomata; an engine configured with
  // automata off skips the pass and every consumer ignores the fields.
  std::vector<AutomatonKey> automaton_keys;
  std::vector<int64_t> automaton_values;
  std::vector<AutomatonProtocol> automaton_protocols;
  bool automata_built = false;
  uint64_t automata_build_ns = 0;

  // Delta-commit bookkeeping. A delta lowering (LowerProgramDelta) copies the
  // previous generation's program, marks the dirty chains' records dead
  // (RuleRecord::rule == nullptr; never reachable from any live table), and
  // appends the relowered chains. Dead words accumulate until the compaction
  // threshold in Engine::CommitRuleset forces a from-scratch relower.
  uint64_t dead_arena_words = 0;
  uint32_t dead_rule_records = 0;

  // Intern maps live on the program (not the builder) so a delta build
  // dedupes against the pools it copied from the base generation.
  std::unordered_map<std::string, uint32_t> intern_strings;
  std::map<std::string, uint32_t> intern_labelsets;  // keyed by canonical form

  PfInsn Fetch(uint32_t pc) const {
    PfInsn insn{};
    std::memcpy(&insn, arena.data() + pc, sizeof(insn));
    return insn;
  }

  int32_t FindChain(const std::string& name) const {
    auto it = chain_ids.find(name);
    return it == chain_ids.end() ? -1 : it->second;
  }

  // LabelSet match semantics over the interned pool (mirrors rule.cc).
  bool SubjectMatches(uint32_t labelset, sim::Sid sid,
                      const sim::MacPolicy& policy) const {
    const LabelSetRef& ref = labelsets[labelset];
    if (ref.wildcard != 0) {
      return true;
    }
    bool in = SidInSlice(ref, sid) || (ref.syshigh != 0 && policy.IsSyshighSubject(sid));
    return ref.negate != 0 ? !in : in;
  }
  bool ObjectMatches(uint32_t labelset, sim::Sid sid,
                     const sim::MacPolicy& policy) const {
    const LabelSetRef& ref = labelsets[labelset];
    if (ref.wildcard != 0) {
      return true;
    }
    bool in = SidInSlice(ref, sid) || (ref.syshigh != 0 && policy.IsSyshighObject(sid));
    return ref.negate != 0 ? !in : in;
  }

 private:
  bool SidInSlice(const LabelSetRef& ref, sim::Sid sid) const {
    for (uint32_t i = 0; i < ref.len; ++i) {
      if (sid_pool[ref.off + i] == sid) {
        return true;
      }
    }
    return false;
  }
};

// Emits instructions and interns operands while a program is being built.
// Module Lower() overrides receive this; the lowering pass itself lives in
// compile.cc.
class ProgramBuilder {
 public:
  explicit ProgramBuilder(PfProgram& prog) : prog_(prog) {}

  // Appends one instruction; returns its arena word offset.
  uint32_t Emit(const PfInsn& insn);

  uint32_t InternString(const std::string& s);
  uint32_t InternLabelSet(const LabelSet& ls);
  uint32_t InternOperand(const Operand& op);
  uint32_t AddNativeMatch(const MatchModule* m);
  uint32_t AddNativeTarget(const TargetModule* t);

  // Chain id for a name, or -1 when undefined. Chain records are created
  // before any rule body is lowered, so forward JUMPs resolve.
  int32_t ChainId(const std::string& name) const { return prog_.FindChain(name); }

  PfProgram& program() { return prog_; }

 private:
  PfProgram& prog_;
};

struct CompiledRuleset;  // engine.h

// The commit-time lowering pass (compile.cc): flattens every filter-table
// chain of `snap` into snap.program and builds each chain's per-op buckets
// (with their own-rule facts and JUMP edges) and entrypoint index as
// entry-table slices.
void LowerProgram(CompiledRuleset& snap);

// Incremental lowering: copy `prev`'s program (arena, pools, tables, intern
// maps), mark the records of the chains named in `dirty` dead, and re-lower
// only those chains, appending their records and slices.
// Requires the staging chain-name set to equal prev's (Engine::CommitRuleset
// falls back to LowerProgram otherwise).
void LowerProgramDelta(CompiledRuleset& snap, const PfProgram& prev,
                       const std::vector<std::string>& dirty);

// Closes every bucket's facts over its JUMP edges to a monotone fixpoint:
// `needs`, `cacheable` and — when the automaton pass ran — `astate` restart
// from the bucket's own values and fold in every bucket the op can reach.
// Runs after lowering (and the automaton pass) on every full and delta
// commit, so a clean chain that jumps into an edited one never keeps its
// pre-edit facts.
void CloseBuckets(PfProgram& prog);

// Renders the program as deterministic, pool-resolved assembly (the
// `pftables -L --compiled` listing). Interned content is printed by value
// (label names, strings, chain names), never by pool index or counter, so
// the disassembly of a dump restored into a fresh kernel matches the
// original commit byte for byte.
std::string DisassemblePfProgram(const PfProgram& prog, const sim::LabelRegistry& labels);

}  // namespace pf::core

#endif  // SRC_CORE_PROGRAM_H_
