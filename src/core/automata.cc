// STATE-protocol automaton lowering (automata.h; DESIGN.md §5i).
//
// The pass runs at the end of CompileRuleset (after LowerProgram built the
// arena and the bucket tables, before the load-time verifier proves the
// result) and works entirely on the instruction stream — the same extraction
// the analyzer's protocol lints use — so what it classifies is exactly what
// the evaluator will execute:
//
//   1. Scan: per chain, one fused pass collects the STATE facts — which
//      keys each rule touches (the protocol's co-occurrence edges) and the
//      literal each guard compares or each target stores (the key's
//      abstract domain) — and writes each record's pool-independent
//      classification (bypass causes from non-STATE ops, nr/sig key
//      demands) onto the RuleRecord itself. Facts are cached on
//      ProgramChain so a delta commit can prove the pools unchanged without
//      rescanning clean chains.
//   2. Pools: union-find the keys into protocols, sort everything by name
//      and value for determinism, and emit the mixed-radix AutomatonKey /
//      AutomatonProtocol pools. A key with too many literals or a protocol
//      whose digit product overflows is dropped whole — its rules keep the
//      bypass path (cause kBypassState) instead of lowering unsoundly.
//   3. Classification: resolve the pool-dependent half (protocol id, domain
//      overflow) by rescanning only the records that touch STATE, proving
//      every instruction's outcome a pure function of (VerdictKey, digit
//      vector, syscall nr, signal bit) or recording the cause that keeps it
//      on the bypass path; fold the records into per-bucket base values.
//      CloseBuckets (compile.cc) closes them over JUMP edges together with
//      the buckets' context needs and purity.
//
// Soundness of the digit abstraction: a digit is 0 (absent), 1..n (one of
// the n literals any rule in the program compares or stores for the key),
// or n+1 ("other": present with a value outside the domain). Every lowered
// guard compares against an in-domain literal, so "other" uniformly fails
// equality and passes inequality; every lowered write stores an in-domain
// literal. The task's digit vector is always derived from the live STATE
// dictionary (never incrementally shadowed), so writes by *unlowered* rules
// — variable operands, cross-rule interference — are reflected the moment
// they bump the dictionary sequence.

#include "src/core/automata.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "src/core/engine.h"

namespace pf::core {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// --- Facts ----------------------------------------------------------------

void AddLiteral(std::vector<int64_t>& domain, int64_t value) {
  auto it = std::lower_bound(domain.begin(), domain.end(), value);
  if (it == domain.end() || *it != value) {
    domain.insert(it, value);
  }
}

bool OperandCovered(const PfProgram& prog, uint64_t idx) {
  return idx < prog.operands.size() && prog.operands[idx].CoveredByVerdictKey();
}

// One fused pass over a chain's instruction stream: collects the chain's
// STATE facts (domains + co-occurrence groups, the delta-commit cache) and
// writes every record's pool-INDEPENDENT classification — bypass causes from
// non-STATE ops, the nr/sig key demands, and whether the record touches
// state at all — into the record itself (astate_causes raw, astate_flags).
// ClassifyChain then resolves the pool-DEPENDENT half (protocol id, domain
// overflow) by rescanning only records flagged kAstateHasState, so a program
// with no STATE rules classifies without a second instruction-stream pass.
ChainStateFacts ScanChain(PfProgram& prog, const ProgramChain& pc) {
  ChainStateFacts facts;
  std::vector<std::string> keys;
  for (uint32_t rec_idx : pc.rules) {
    RuleRecord& rec = prog.rules[rec_idx];
    if (rec.rule == nullptr) {
      continue;
    }
    uint8_t causes = 0;
    uint8_t flags = kAstateScanned;
    keys.clear();
    for (uint32_t p = rec.entry; p < rec.end; p += kPfInsnWords) {
      const PfInsn insn = prog.Fetch(p);
      switch (static_cast<PfOp>(insn.op)) {
        case PfOp::kMatchState:
        case PfOp::kMatchStateEq:
        case PfOp::kMatchStateNe:
        case PfOp::kStateSet:
        case PfOp::kStateUnset:
        case PfOp::kMatchPhase: {
          const std::optional<InsnStateRef> ref = StateRefOfInsn(prog, insn);
          if (!ref.has_value()) {
            break;
          }
          flags |= kAstateHasState;
          std::string key(ref->key);
          if (ref->variable) {
            causes |= kBypassState;
          }
          if (ref->literal.has_value()) {
            AddLiteral(facts.domains[key], *ref->literal);
          }
          if (ref->phase) {
            // The absent "@phase" key means the distinguished init phase, so
            // the init id is always part of the domain (a phase guard
            // comparing against it must see a dedicated digit, not "other").
            AddLiteral(facts.domains[key], PhaseId(kPhaseInitName));
          }
          if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
            keys.push_back(std::move(key));
          }
          break;
        }
        case PfOp::kMatchSignal:
          flags |= kAstateSigInKey;
          break;
        case PfOp::kMatchSyscallArg:
          if (insn.aux == 0) {
            flags |= kAstateNrInKey;
          } else {
            causes |= kBypassSyscallArgs;
          }
          break;
        case PfOp::kMatchSyscallNrEq:
        case PfOp::kMatchSyscallNrNe:
          flags |= kAstateNrInKey;
          break;
        case PfOp::kMatchSyscallArgEq:
        case PfOp::kMatchSyscallArgNe:
          causes |= kBypassSyscallArgs;
          break;
        case PfOp::kMatchCompare:
        case PfOp::kMatchCompareEq:
        case PfOp::kMatchCompareNe:
          if (!OperandCovered(prog, insn.b) || !OperandCovered(prog, insn.c)) {
            causes |= kBypassCompare;
          }
          break;
        case PfOp::kMatchInterp:
          causes |= kBypassInterp;
          break;
        case PfOp::kLog:
          causes |= kBypassLog;
          break;
        case PfOp::kMatchNative:
          if (insn.a >= prog.native_matches.size() ||
              !prog.native_matches[insn.a]->CacheableByKey()) {
            causes |= kBypassNative;
          }
          break;
        case PfOp::kTargetNative:
          if (insn.a >= prog.native_targets.size() ||
              !prog.native_targets[insn.a]->CacheableByKey()) {
            causes |= kBypassNative;
          }
          break;
        default:
          break;  // default-match guards and terminals: pure by key
      }
    }
    rec.astate_causes = causes;
    rec.astate_flags = flags;
    rec.astate_protocol = -1;
    if (!keys.empty()) {
      std::sort(keys.begin(), keys.end());
      facts.rule_keys.push_back(keys);
    }
  }
  return facts;
}

// --- Pool construction ----------------------------------------------------

// Key-name union-find (protocol = connected component under rule
// co-occurrence). Few keys; simplicity over path compression.
struct KeyForest {
  std::map<std::string, std::string> parent;

  void Add(const std::string& key) { parent.emplace(key, key); }
  const std::string& Find(const std::string& key) {
    std::string cur = key;
    while (parent.at(cur) != cur) {
      cur = parent.at(cur);
    }
    // One-pass shortening: point the chain at the root.
    std::string walk = key;
    while (parent.at(walk) != cur) {
      walk = std::exchange(parent.at(walk), cur);
    }
    return parent.find(cur)->first;
  }
  void Union(const std::string& a, const std::string& b) {
    const std::string ra = Find(a);
    const std::string rb = Find(b);
    if (ra != rb) {
      // Deterministic orientation: the lexicographically smaller name roots.
      parent.at(std::max(ra, rb)) = std::min(ra, rb);
    }
  }
};

// Where a key landed in the pools: protocol id, or dropped by a cap.
struct KeyIndex {
  std::map<std::string, uint16_t> protocol_of;
  std::set<std::string> overflowed;
};

KeyIndex BuildPools(PfProgram& prog) {
  prog.automaton_keys.clear();
  prog.automaton_values.clear();
  prog.automaton_protocols.clear();

  // Merge every chain's cached facts.
  std::map<std::string, std::vector<int64_t>> domains;
  KeyForest forest;
  for (const ProgramChain& pc : prog.chains) {
    for (const auto& [key, values] : pc.state_facts.domains) {
      std::vector<int64_t>& dom = domains[key];
      forest.Add(key);
      for (int64_t v : values) {
        AddLiteral(dom, v);
      }
    }
    for (const std::vector<std::string>& group : pc.state_facts.rule_keys) {
      for (const std::string& key : group) {
        domains.try_emplace(key);
        forest.Add(key);
      }
      for (size_t i = 1; i < group.size(); ++i) {
        forest.Union(group[0], group[i]);
      }
    }
  }

  // Group by root; std::map iteration orders protocols (and their keys) by
  // name, so pool layout is deterministic across rebuilds and deltas.
  std::map<std::string, std::vector<std::string>> components;
  for (const auto& [key, dom] : domains) {
    components[forest.Find(key)].push_back(key);
  }

  KeyIndex index;
  ProgramBuilder builder(prog);
  for (const auto& [root, keys] : components) {
    uint64_t states = 1;
    bool overflow = false;
    for (const std::string& key : keys) {
      const size_t cnt = domains.at(key).size();
      if (cnt > kMaxAutomatonValues) {
        overflow = true;
        break;
      }
      states *= cnt + 2;
      if (states > kMaxAutomatonStates) {
        overflow = true;
        break;
      }
    }
    if (overflow) {
      index.overflowed.insert(keys.begin(), keys.end());
      continue;
    }
    AutomatonProtocol proto;
    proto.key_off = static_cast<uint32_t>(prog.automaton_keys.size());
    proto.key_cnt = static_cast<uint32_t>(keys.size());
    uint32_t stride = 1;
    for (const std::string& key : keys) {
      const std::vector<int64_t>& dom = domains.at(key);
      AutomatonKey ak;
      ak.name = builder.InternString(key);
      ak.value_off = static_cast<uint32_t>(prog.automaton_values.size());
      ak.value_cnt = static_cast<uint32_t>(dom.size());
      ak.radix = ak.value_cnt + 2;
      ak.stride = stride;
      ak.phase = key == kPhaseKeyName ? 1 : 0;
      stride *= ak.radix;
      proto.phase |= ak.phase;
      prog.automaton_values.insert(prog.automaton_values.end(), dom.begin(), dom.end());
      prog.automaton_keys.push_back(ak);
    }
    proto.state_count = stride;
    const uint16_t id = static_cast<uint16_t>(prog.automaton_protocols.size());
    for (const std::string& key : keys) {
      index.protocol_of.emplace(key, id);
    }
    prog.automaton_protocols.push_back(proto);
  }
  return index;
}

// --- Classification -------------------------------------------------------

// Pool-dependent half of a state-touching record's classification: resolve
// each STATE key against the (re)built pools — overflowed keys and variable
// operands keep the record on the bypass path, in-pool keys pin its
// protocol. Rescans only this record's instruction slice; the raw scan
// already proved which records need it (kAstateHasState).
void ResolveStateRecord(const PfProgram& prog, RuleRecord& rec, const KeyIndex& index) {
  uint8_t causes = rec.astate_causes & static_cast<uint8_t>(~kBypassState);
  int16_t protocol = -1;
  for (uint32_t p = rec.entry; p < rec.end; p += kPfInsnWords) {
    const std::optional<InsnStateRef> ref = StateRefOfInsn(prog, prog.Fetch(p));
    if (!ref.has_value()) {
      continue;
    }
    const std::string key(ref->key);
    if (ref->variable || index.overflowed.count(key) != 0) {
      causes |= kBypassState;
      continue;
    }
    const auto it = index.protocol_of.find(key);
    if (it == index.protocol_of.end()) {
      causes |= kBypassState;  // unreachable by construction
    } else {
      protocol = static_cast<int16_t>(it->second);
    }
  }
  rec.astate_causes = causes;
  rec.astate_protocol = protocol;
}

void MergeProtocol(std::vector<uint16_t>& protocols, uint16_t id) {
  auto it = std::lower_bound(protocols.begin(), protocols.end(), id);
  if (it == protocols.end() || *it != id) {
    protocols.insert(it, id);
  }
}

// Per-chain base classification: resolve the pool-dependent half of every
// state-touching record (the raw scan already classified the rest), then
// fold the records' cached fields into the chain's per-op buckets.
void ClassifyChain(PfProgram& prog, ProgramChain& pc, const KeyIndex& index) {
  for (uint32_t rec_idx : pc.rules) {
    RuleRecord& rec = prog.rules[rec_idx];
    if (rec.rule != nullptr && (rec.astate_flags & kAstateHasState) != 0) {
      ResolveStateRecord(prog, rec, index);
    }
  }
  for (ProgramBucket& b : pc.ops) {
    b.astate_base = BucketAutomata{};
    for (uint32_t i = 0; i < b.all_len; ++i) {
      const uint32_t rec_idx = prog.entries[b.all_off + i];
      const RuleRecord& rec = prog.rules[rec_idx];
      if (rec.rule == nullptr || (rec.astate_flags & kAstateScanned) == 0) {
        continue;
      }
      b.astate_base.causes |= rec.astate_causes;
      b.astate_base.nr_in_key |= (rec.astate_flags & kAstateNrInKey) != 0;
      b.astate_base.sig_in_key |= (rec.astate_flags & kAstateSigInKey) != 0;
      if (rec.astate_protocol >= 0) {
        MergeProtocol(b.astate_base.protocols,
                      static_cast<uint16_t>(rec.astate_protocol));
      }
    }
  }
}

void RebuildFromFacts(PfProgram& prog) {
  const KeyIndex index = BuildPools(prog);
  for (ProgramChain& pc : prog.chains) {
    ClassifyChain(prog, pc, index);
  }
}

KeyIndex IndexFromPools(const PfProgram& prog) {
  KeyIndex index;
  for (uint16_t id = 0; id < prog.automaton_protocols.size(); ++id) {
    const AutomatonProtocol& proto = prog.automaton_protocols[id];
    for (uint32_t k = 0; k < proto.key_cnt; ++k) {
      index.protocol_of.emplace(prog.strings[prog.automaton_keys[proto.key_off + k].name],
                                id);
    }
  }
  // Keys present in facts but absent from the pools were dropped by a cap.
  for (const ProgramChain& pc : prog.chains) {
    for (const auto& [key, dom] : pc.state_facts.domains) {
      if (index.protocol_of.find(key) == index.protocol_of.end()) {
        index.overflowed.insert(key);
      }
    }
    for (const std::vector<std::string>& group : pc.state_facts.rule_keys) {
      for (const std::string& key : group) {
        if (index.protocol_of.find(key) == index.protocol_of.end()) {
          index.overflowed.insert(key);
        }
      }
    }
  }
  return index;
}

}  // namespace

std::optional<InsnStateRef> StateRefOfInsn(const PfProgram& prog, const PfInsn& insn) {
  InsnStateRef ref;
  switch (static_cast<PfOp>(insn.op)) {
    case PfOp::kMatchState:
    case PfOp::kMatchStateEq:
    case PfOp::kMatchStateNe: {
      ref.key = prog.strings[insn.a];
      ref.is_check = true;
      const bool has_cmp = static_cast<PfOp>(insn.op) != PfOp::kMatchState ||
                           (insn.flags & kPfHasCmp) != 0;
      if (has_cmp) {
        const Operand& cmp = prog.operands[insn.b];
        if (cmp.is_var) {
          ref.variable = true;
        } else {
          ref.literal = cmp.literal;
        }
      }
      return ref;
    }
    case PfOp::kStateSet: {
      ref.key = prog.strings[insn.a];
      ref.is_set = true;
      const Operand& value = prog.operands[insn.b];
      if (value.is_var) {
        ref.variable = true;
      } else {
        ref.literal = value.literal;
      }
      return ref;
    }
    case PfOp::kStateUnset:
      ref.key = prog.strings[insn.a];
      ref.is_unset = true;
      return ref;
    case PfOp::kMatchPhase:
      ref.key = kPhaseKeyName;
      ref.is_check = true;
      ref.phase = true;
      ref.literal = static_cast<int64_t>(insn.b);
      return ref;
    default:
      return std::nullopt;
  }
}

const char* BypassCauseName(uint8_t bit) {
  switch (bit) {
    case kBypassState:
      return "state";
    case kBypassSyscallArgs:
      return "syscall-args";
    case kBypassLog:
      return "log";
    case kBypassInterp:
      return "interp";
    case kBypassCompare:
      return "compare";
    case kBypassNative:
      return "native";
    default:
      return "unknown";
  }
}

std::string RenderBypassCauses(uint8_t causes) {
  std::string out;
  for (size_t i = 0; i < kBypassCauseCount; ++i) {
    const uint8_t bit = static_cast<uint8_t>(1u << i);
    if ((causes & bit) != 0) {
      if (!out.empty()) {
        out += '+';
      }
      out += BypassCauseName(bit);
    }
  }
  return out;
}

void BuildAutomata(CompiledRuleset& snap) {
  const uint64_t t0 = NowNs();
  PfProgram& prog = snap.program;
  for (ProgramChain& pc : prog.chains) {
    pc.state_facts = ScanChain(prog, pc);
  }
  RebuildFromFacts(prog);
  prog.automata_built = true;
  prog.automata_build_ns = NowNs() - t0;
}

void BuildAutomataDelta(CompiledRuleset& snap, const std::vector<std::string>& dirty) {
  const uint64_t t0 = NowNs();
  PfProgram& prog = snap.program;
  if (!prog.automata_built) {
    BuildAutomata(snap);
    return;
  }
  bool facts_changed = false;
  for (const std::string& name : dirty) {
    const int32_t id = prog.FindChain(name);
    if (id < 0) {
      continue;
    }
    ProgramChain& pc = prog.chains[static_cast<size_t>(id)];
    ChainStateFacts facts = ScanChain(prog, pc);
    if (!(facts == pc.state_facts)) {
      facts_changed = true;
    }
    pc.state_facts = std::move(facts);
  }
  if (facts_changed) {
    // The edit moved a STATE fact, so the pools (or a cap decision) may have
    // changed under every chain: rebuild from the merged facts. Clean
    // chains' facts are already cached — only their classification rescans.
    RebuildFromFacts(prog);
  } else {
    // Pools provably unchanged: reclassify only the dirty chains' new
    // records; the clean chains keep their copied base values.
    const KeyIndex index = IndexFromPools(prog);
    for (const std::string& name : dirty) {
      const int32_t id = prog.FindChain(name);
      if (id >= 0) {
        ClassifyChain(prog, prog.chains[static_cast<size_t>(id)], index);
      }
    }
  }
  prog.automata_build_ns += NowNs() - t0;
}

const std::vector<uint32_t>& DeriveAutomatonState(const PfProgram& prog, uint64_t tag,
                                                  PfTaskState& state) {
  const size_t protocols = prog.automaton_protocols.size();
  if (state.astate_tag == tag && state.astate_seq == state.dict_seq &&
      state.astate.size() == protocols) {
    return state.astate;
  }
  state.astate.assign(protocols, 0);
  for (size_t pi = 0; pi < protocols; ++pi) {
    const AutomatonProtocol& proto = prog.automaton_protocols[pi];
    uint32_t sigma = 0;
    for (uint32_t k = 0; k < proto.key_cnt; ++k) {
      const AutomatonKey& key = prog.automaton_keys[proto.key_off + k];
      const auto it = state.dict.find(prog.strings[key.name]);
      uint32_t digit = 0;
      if (it != state.dict.end()) {
        const auto begin = prog.automaton_values.begin() + key.value_off;
        const auto end = begin + key.value_cnt;
        const auto pos = std::lower_bound(begin, end, it->second);
        digit = (pos != end && *pos == it->second)
                    ? static_cast<uint32_t>(pos - begin) + 1
                    : key.radix - 1;
      }
      sigma += digit * key.stride;
    }
    state.astate[pi] = sigma;
  }
  state.astate_tag = tag;
  state.astate_seq = state.dict_seq;
  return state.astate;
}

std::optional<uint64_t> FoldAutomatonState(const PfProgram& prog,
                                           const std::vector<uint16_t>& protocols,
                                           const std::vector<uint32_t>* astate) {
  uint64_t folded = 0;
  uint64_t stride = 1;
  for (uint16_t id : protocols) {
    if (id >= prog.automaton_protocols.size()) {
      return std::nullopt;
    }
    const uint64_t count = prog.automaton_protocols[id].state_count;
    if (count == 0 || stride > ~0ull / count) {
      return std::nullopt;
    }
    const uint32_t sigma =
        (astate != nullptr && id < astate->size()) ? (*astate)[id] : 0;
    folded += sigma * stride;
    stride *= count;
  }
  return folded;
}

AutomataStats ComputeAutomataStats(const PfProgram& prog) {
  AutomataStats stats;
  stats.protocols = static_cast<uint32_t>(prog.automaton_protocols.size());
  stats.keys = static_cast<uint32_t>(prog.automaton_keys.size());
  for (const AutomatonProtocol& proto : prog.automaton_protocols) {
    stats.states += proto.state_count;
    stats.phase_protocols += proto.phase != 0 ? 1 : 0;
  }
  for (const ProgramChain& pc : prog.chains) {
    for (uint32_t rec_idx : pc.rules) {
      const RuleRecord& rec = prog.rules[rec_idx];
      if (rec.rule == nullptr) {
        continue;
      }
      if (rec.astate_causes != 0) {
        ++stats.bypass_rules;
      } else if (rec.astate_protocol >= 0) {
        ++stats.lowered_rules;
      }
    }
    for (const ProgramBucket& b : pc.ops) {
      // A state bucket is one the stateful tier serves: admissible (no
      // bypass cause) and in need of the extended key, which a pure bucket
      // never is.
      if (b.all_len > 0 && b.astate.causes == 0 &&
          (!b.astate.protocols.empty() || b.astate.nr_in_key || b.astate.sig_in_key)) {
        ++stats.state_buckets;
      }
    }
  }
  return stats;
}

}  // namespace pf::core
