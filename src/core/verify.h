// Load-time verification of arena-packed PF programs (DESIGN.md §5f).
//
// The compiled evaluator executes arbitrary arena bytes with no bounds
// checks on its hot path — the switch loop indexes the interned pools raw. What makes that
// safe is the same contract eBPF uses: no program reaches the evaluator
// until a load-time verifier has proved, instruction by instruction, that
// every fetch it can perform is in bounds. VerifyProgram is that pass: one
// forward walk over every rule record proving
//
//   * arena integrity — record bounds inside the arena, instruction-aligned,
//     every body opening with RULE_BEGIN naming its own record;
//   * pool safety — every string/labelset/operand/sid-slice reference on
//     every instruction resolves inside its pool;
//   * store discipline — the only mutating ops are STATE_SET/STATE_UNSET and
//     their key/value references are valid STATE slots;
//   * native-escape validity — MATCH_NATIVE/TARGET_NATIVE indices resolve to
//     live module pointers;
//   * jump soundness — every JUMP target is a real chain id (or the explicit
//     kPfNoIndex "undefined chain" sentinel, which the evaluator treats as a
//     fallthrough), and the chain dispatch tables (buckets, entrypoint
//     index) only reference real rule records;
//   * bounded depth — chains reachable from the builtin roots only beyond
//     kMaxChainDepth JUMP hops are flagged. The runtime depth guard already
//     makes such chains unreachable (never executed, not unsafe), so depth
//     findings are warnings by default and errors only under strict_depth —
//     the engine's mandatory commit gate must keep accepting the deep/cyclic
//     rule bases the static analyzer exists to diagnose.
//
// Engine::CompileRuleset runs this pass on every compilation and
// CommitRuleset refuses to publish a generation whose report has errors, so
// a corrupted or miscompiled program can never reach a hook. pfcheck and
// pftables --check surface the same report.
#ifndef SRC_CORE_VERIFY_H_
#define SRC_CORE_VERIFY_H_

#include <vector>

#include "src/analysis/diagnostics.h"
#include "src/core/program.h"

namespace pf::core {

struct VerifyOptions {
  // Escalate depth-exceeded findings from warning to error. Off in the
  // engine's commit gate (the runtime depth guard makes over-deep chains
  // dead, not dangerous); on when a caller wants "every rule reachable" as
  // a hard property.
  bool strict_depth = false;
  // Delta verification (incremental commits): the program is a copy of an
  // already-verified base with records appended from `from_record` and the
  // chains in `recheck_chains` rebuilt. Per-record checks run only on the
  // appended suffix and per-chain table checks only on the rebuilt chains —
  // everything else is byte-identical to the proven base. Global properties
  // (arena alignment, the jump-depth proof) always run over the whole
  // program. Dead records (RuleRecord::rule == nullptr) are skipped in
  // every mode: they are unreachable from all live dispatch tables.
  bool delta = false;
  uint32_t from_record = 0;
  std::vector<int32_t> recheck_chains;
};

struct VerifyResult {
  analysis::AnalysisReport report;
  bool ok() const { return !report.HasErrors(); }
};

// Single forward verification pass over `prog`. Diagnostics use the stable
// codes: arena-truncated, rule-malformed, bad-opcode, pool-oob,
// state-slot-oob, native-oob, jump-target-oob, syscall-arg-oob,
// ctx-mask-invalid, chain-table-oob, depth-exceeded, automaton-oob,
// automaton-malformed, automaton-unsound, automaton-dead (warning). The automaton proofs run only when the program
// carries built automaton tables (PfProgram::automata_built).
VerifyResult VerifyProgram(const PfProgram& prog, const VerifyOptions& opts = {});

}  // namespace pf::core

#endif  // SRC_CORE_VERIFY_H_
