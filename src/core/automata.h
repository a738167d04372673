// STATE-protocol automaton lowering (DESIGN.md §5i).
//
// The commit-time pass behind the stateful verdict-cache tier: it promotes
// the analyzer's set/check graph extraction (analysis/analyzer.cc) into a
// shared core pass that groups the program's STATE keys into protocols,
// compiles each protocol into a mixed-radix per-task DFA (program.h
// AutomatonKey/AutomatonProtocol pools), and classifies every (chain, op)
// bucket as state-cacheable or bypass-with-cause. Engine::Authorize folds
// the task's current automaton state into the VerdictKey for state-cacheable
// buckets; rules whose guards the pass cannot prove digit-pure (variable
// --set/--cmp operands, SYSCALL_ARGS beyond the syscall number, LOG,
// INTERP, un-keyed COMPARE, opaque natives, domain overflow) transparently
// keep their buckets on the bypass path.
#ifndef SRC_CORE_AUTOMATA_H_
#define SRC_CORE_AUTOMATA_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/core/program.h"

namespace pf::core {

struct CompiledRuleset;  // engine.h
struct PfTaskState;      // engine.h

// How one instruction touches the STATE dictionary — the per-insn extraction
// shared between this pass and the analyzer's protocol lints, so both see
// exactly what the compiled evaluator will execute. `key` views into the
// program's string pool (kMatchPhase reports the reserved "@phase" key).
struct InsnStateRef {
  std::string_view key;
  bool is_check = false;  // kMatchState*/kMatchPhase
  bool is_set = false;    // kStateSet
  bool is_unset = false;  // kStateUnset
  bool phase = false;     // kMatchPhase (absent key means the init phase)
  // The literal the guard compares or the target stores, when the operand is
  // a compile-time constant; nullopt for variable operands (which keep the
  // rule off the automaton tier) and for cmp-less presence checks / unsets.
  std::optional<int64_t> literal;
  bool variable = false;  // operand present but not a literal
};

std::optional<InsnStateRef> StateRefOfInsn(const PfProgram& prog, const PfInsn& insn);

// Runs the pass over snap.program: rebuilds the automaton pools from every
// live rule record, annotates each record (astate_causes/astate_protocol),
// classifies each bucket (astate_base), and caches per-chain
// ChainStateFacts for delta commits. CloseBuckets (program.h) then closes
// the classification over JUMP edges (astate).
void BuildAutomata(CompiledRuleset& snap);

// Delta twin: recomputes facts for the dirty chains only; when they are
// value-equal to the copied base generation's facts the pools are provably
// unchanged and only the dirty chains' buckets are reclassified. Any facts
// change falls back to the full rebuild.
void BuildAutomataDelta(CompiledRuleset& snap, const std::vector<std::string>& dirty);

// Derives the task's current automaton state vector (one digit product per
// protocol, in protocol-id order) from its STATE dictionary. Caller holds
// state.mu. The result is cached on the task keyed by (generation tag,
// dict_seq); `tag` disambiguates programs across commits.
const std::vector<uint32_t>& DeriveAutomatonState(const PfProgram& prog, uint64_t tag,
                                                  PfTaskState& state);

// Folds the listed protocols' digits of `astate` (absent/empty => state 0)
// into one VerdictKey field. Returns nullopt on mixed-radix overflow — the
// caller then treats the decision as a plain bypass.
std::optional<uint64_t> FoldAutomatonState(const PfProgram& prog,
                                           const std::vector<uint16_t>& protocols,
                                           const std::vector<uint32_t>* astate);

// Shape summary for pfcheck --json / pftables --check.
struct AutomataStats {
  uint32_t protocols = 0;
  uint32_t keys = 0;
  uint64_t states = 0;          // sum of per-protocol state counts
  uint32_t lowered_rules = 0;   // stateful rules the automaton tier covers
  uint32_t bypass_rules = 0;    // stateful rules left on the bypass path
  uint32_t state_buckets = 0;   // impure buckets now served via the cache
  uint32_t phase_protocols = 0; // distinguished temporal-phase automata
};
AutomataStats ComputeAutomataStats(const PfProgram& prog);

}  // namespace pf::core

#endif  // SRC_CORE_AUTOMATA_H_
