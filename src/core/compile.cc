// Commit-time lowering: CompiledRuleset -> arena-packed PfProgram (see
// program.h for the instruction format).
//
// Lowering builds the program's only dispatch tables: per-(chain, op)
// buckets and the entrypoint index as entry-table slices, each bucket with
// its own rules' context needs and purity and its JUMP edges, which
// CloseBuckets then closes to a fixpoint. Rule bodies are emitted in chain
// order, one guard/match instruction sequence per rule, in the reference
// evaluation order of a Rule object (op precheck, subject precheck, one
// context round-trip, the entrypoint/object default matches, -m modules,
// target).
//
// Two entry points share the per-chain machinery: LowerProgram builds a
// program from scratch, LowerProgramDelta copies the previous generation's
// program, marks the dirty chains' records dead, and re-lowers only those
// chains — appending their bodies and slices to the copied arena and pools
// (DESIGN.md §5g).
#include <algorithm>
#include <iterator>

#include "src/core/engine.h"
#include "src/core/program.h"

namespace pf::core {

namespace {

PfInsn Op0(PfOp op) {
  PfInsn insn{};
  insn.op = static_cast<uint8_t>(op);
  return insn;
}

RuleRecord LowerRule(ProgramBuilder& b, const Rule& rule, uint32_t rec_idx) {
  PfProgram& prog = b.program();
  RuleRecord rec;
  rec.rule = &rule;
  rec.entry = static_cast<uint32_t>(prog.arena.size());

  PfInsn begin = Op0(PfOp::kRuleBegin);
  begin.a = rec_idx;
  b.Emit(begin);

  // Contextless prechecks first (EvalRule's order): -o, then -s.
  if (rule.op) {
    PfInsn insn = Op0(PfOp::kCheckOp);
    insn.a = static_cast<uint32_t>(*rule.op);
    b.Emit(insn);
  }
  // Per-op buckets only admit rules whose -o already matches, so evaluation
  // through a bucket enters past the guard; entrypoint-index lists enter at
  // entry + kPfInsnWords (see RuleRecord::body).
  rec.body = static_cast<uint32_t>(prog.arena.size());
  if (!rule.subject.wildcard) {
    PfInsn insn = Op0(PfOp::kMatchSubject);
    insn.a = b.InternLabelSet(rule.subject);
    b.Emit(insn);
  }
  // One context round-trip for the rule's install-time needs union; the
  // guard ops below re-ensure their own bits, which then short-circuit.
  if (rule.needs != 0) {
    PfInsn insn = Op0(PfOp::kEnsureCtx);
    insn.a = rule.needs;
    b.Emit(insn);
  }
  // Default matches: entrypoint (-p / -i), then object (--ino / -d). The
  // check ops are self-guarding (each ensures + validates its own context),
  // so no standalone require instruction is emitted.
  if (rule.has_program()) {
    PfInsn insn = Op0(PfOp::kCheckProgram);
    insn.b = rule.program_file.dev;
    insn.c = rule.program_file.ino;
    b.Emit(insn);
  }
  if (rule.entrypoint) {
    PfInsn insn = Op0(PfOp::kCheckEptOff);
    insn.b = *rule.entrypoint;
    b.Emit(insn);
  }
  if (rule.ino) {
    PfInsn insn = Op0(PfOp::kCheckIno);
    insn.b = *rule.ino;
    b.Emit(insn);
  }
  if (!rule.object.wildcard) {
    PfInsn insn = Op0(PfOp::kMatchObject);
    insn.a = b.InternLabelSet(rule.object);
    b.Emit(insn);
  }
  // -m modules in install order. Builtins lower to inline ops; extension
  // modules become virtual escapes.
  for (const auto& match : rule.matches) {
    if (!match->Lower(b)) {
      PfInsn insn = Op0(PfOp::kMatchNative);
      insn.a = b.AddNativeMatch(match.get());
      b.Emit(insn);
    }
  }
  // The target terminates the rule body.
  if (!rule.target->Lower(b)) {
    PfInsn insn = Op0(PfOp::kTargetNative);
    insn.a = b.AddNativeTarget(rule.target.get());
    b.Emit(insn);
  }
  rec.end = static_cast<uint32_t>(prog.arena.size());

  // Side-table links for the analyzer and the disassembler.
  const std::string& jump = rule.target->jump_chain();
  if (!jump.empty()) {
    rec.jump_name = b.InternString(jump);
    rec.jump_chain = b.ChainId(jump);
  }
  rec.static_kind = rule.target->StaticKind();
  return rec;
}

// --- per-chain lowering (shared by full and delta builds) ---------------------

// Lowers one chain's rule bodies, then builds its per-op buckets straight
// from the rule list (the op filter, the plain/indexed split, each bucket's
// own needs/cacheable and deduplicated JUMP edges) and its entrypoint index.
// Rule i of the chain is record pc.rules[i].
void LowerChain(ProgramBuilder& b, PfProgram& prog, int32_t id, const Chain& chain) {
  ProgramChain& pc = prog.chains[static_cast<size_t>(id)];
  for (const auto& rule : chain.rules()) {
    const uint32_t rec_idx = static_cast<uint32_t>(prog.rules.size());
    prog.rules.push_back(LowerRule(b, *rule, rec_idx));
    RuleRecord& rec = prog.rules.back();
    rec.chain_id = id;
    rec.chain_index = static_cast<uint32_t>(pc.rules.size());
    pc.rules.push_back(rec_idx);
  }

  const auto& rules = chain.rules();
  std::vector<uint32_t> plain;
  pc.op_mask = 0;
  for (size_t op = 0; op < sim::kOpCount; ++op) {
    ProgramBucket& pb = pc.ops[op];  // fresh: a new chain, or reset by the delta
    pb.all_off = static_cast<uint32_t>(prog.entries.size());
    plain.clear();
    for (size_t i = 0; i < rules.size(); ++i) {
      const Rule& rule = *rules[i];
      if (rule.op && static_cast<size_t>(*rule.op) != op) {
        continue;  // the op precheck can never pass; drop at compile time
      }
      const uint32_t rec_idx = pc.rules[i];
      prog.entries.push_back(rec_idx);
      pb.base_needs |= rule.needs;
      pb.base_cacheable = pb.base_cacheable && rule.CacheableByKey();
      if (chain.index_built() && rule.IndexableByEntrypoint()) {
        pb.has_indexed = true;
      } else {
        plain.push_back(rec_idx);
      }
      const int32_t target = prog.rules[rec_idx].jump_chain;
      if (target >= 0 && std::find(pb.jumps.begin(), pb.jumps.end(), target) == pb.jumps.end()) {
        pb.jumps.push_back(target);
      }
    }
    pb.all_len = static_cast<uint32_t>(prog.entries.size()) - pb.all_off;
    pb.plain_off = static_cast<uint32_t>(prog.entries.size());
    pb.plain_len = static_cast<uint32_t>(plain.size());
    prog.entries.insert(prog.entries.end(), plain.begin(), plain.end());
    if (pb.all_len != 0) {
      pc.op_mask |= 1ull << op;
    }
  }

  if (chain.index_built() && !chain.ept_index().empty()) {
    std::unordered_map<const Rule*, uint32_t> rec_of;
    rec_of.reserve(rules.size());
    for (size_t i = 0; i < rules.size(); ++i) {
      rec_of.emplace(rules[i].get(), pc.rules[i]);
    }
    auto ept = std::make_shared<EptSliceMap>();
    ept->reserve(chain.ept_index().size());
    for (const auto& [key, indexed] : chain.ept_index()) {
      const uint32_t off = static_cast<uint32_t>(prog.entries.size());
      for (const Rule* rule : indexed) {
        prog.entries.push_back(rec_of.at(rule));
      }
      ept->emplace(key, std::pair<uint32_t, uint32_t>(
                            off, static_cast<uint32_t>(indexed.size())));
    }
    pc.ept = std::move(ept);
  }
}

}  // namespace

void LowerProgram(CompiledRuleset& snap) {
  PfProgram& prog = snap.program;
  ProgramBuilder b(prog);
  Table& filter = snap.rules.filter();

  // Phase 1: create every chain record up front so forward JUMPs resolve to
  // ids during lowering. std::map iteration makes ids name-sorted and
  // deterministic.
  for (const auto& [name, chain] : filter.chains()) {
    const int32_t id = static_cast<int32_t>(prog.chains.size());
    prog.chain_ids.emplace(name, id);
    ProgramChain pc;
    pc.name = name;
    pc.builtin = chain.builtin();
    pc.policy_drop = chain.policy() == Chain::Policy::kDrop;
    pc.index_built = chain.index_built();
    prog.chains.push_back(std::move(pc));
  }
  prog.root_input = prog.FindChain("input");
  prog.root_output = prog.FindChain("output");
  prog.root_create = prog.FindChain("create");
  prog.root_syscallbegin = prog.FindChain("syscallbegin");

  // Phase 2: lower every chain — rule bodies and dispatch tables — in id
  // order.
  for (const auto& [name, chain] : filter.chains()) {
    LowerChain(b, prog, prog.chain_ids.at(name), chain);
  }
}

void LowerProgramDelta(CompiledRuleset& snap, const PfProgram& prev,
                       const std::vector<std::string>& dirty_names) {
  PfProgram& prog = snap.program;
  // Prime the append-heavy pools with headroom before the base copy. When
  // `snap` recycles a retired generation's buffers (Engine::CompileRulesetDelta)
  // a bare operator= would size them exactly, and the phase-2 appends below
  // would immediately reallocate — paying the full-pool copy twice. clear()
  // first so a growing reserve moves no stale bytes.
  const auto prime = [](auto& pool, size_t need) {
    if (pool.capacity() < need) {
      pool.clear();
      pool.reserve(need);
    }
  };
  prime(prog.arena, prev.arena.size() + prev.arena.size() / 8 + 1024);
  prime(prog.entries, prev.entries.size() + prev.entries.size() / 8 + 256);
  prime(prog.rules, prev.rules.size() + prev.rules.size() / 8 + 64);
  prog = prev;  // copy-on-write: the base generation stays live and untouched
  ProgramBuilder b(prog);
  Table& filter = snap.rules.filter();

  std::vector<std::string> dirty(dirty_names);
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());

  // Phase 1: mark the dirty chains' old records dead. Dead records keep
  // their arena words (the suffix append never moves live code) but are
  // unreachable from every live dispatch table; their reclaimable size
  // accumulates until Engine::CommitRuleset's compaction threshold forces a
  // from-scratch relower.
  for (const std::string& name : dirty) {
    ProgramChain& pc = prog.chains[static_cast<size_t>(prog.chain_ids.at(name))];
    for (uint32_t rec_idx : pc.rules) {
      RuleRecord& rec = prog.rules[rec_idx];
      prog.dead_arena_words += rec.end - rec.entry;
      ++prog.dead_rule_records;
      rec.rule = nullptr;
    }
    pc.rules.clear();
    pc.ops.fill(ProgramBucket{});
    pc.ept.reset();
  }

  // Phase 2: re-lower the dirty chains (name-sorted), appending bodies and
  // slices. Clean chains' slices are byte-identical to the (already
  // verified) base generation; their closed facts are recomputed by
  // CloseBuckets like every other bucket's.
  for (const std::string& name : dirty) {
    const Chain* chain = filter.Find(name);
    const int32_t id = prog.chain_ids.at(name);
    ProgramChain& pc = prog.chains[static_cast<size_t>(id)];
    pc.policy_drop = chain->policy() == Chain::Policy::kDrop;
    pc.index_built = chain->index_built();
    LowerChain(b, prog, id, *chain);
  }
}

void CloseBuckets(PfProgram& prog) {
  const bool automata = prog.automata_built;
  for (ProgramChain& pc : prog.chains) {
    for (ProgramBucket& b : pc.ops) {
      b.needs = b.base_needs;
      b.cacheable = b.base_cacheable;
      if (automata) {
        b.astate = b.astate_base;
      }
    }
  }
  // Iteration (rather than DFS memoization) keeps mutually-recursive chains
  // correct: a bucket's final value folds every reachable rule, exactly the
  // set the depth-limited runtime can evaluate. Every fact only grows (needs
  // bits, lost purity, bypass causes, key fields, protocols) over a finite
  // lattice, so the fixpoint terminates; one round is O(edges), not O(rules).
  bool changed = true;
  while (changed) {
    changed = false;
    for (ProgramChain& pc : prog.chains) {
      for (size_t op = 0; op < sim::kOpCount; ++op) {
        ProgramBucket& b = pc.ops[op];
        for (int32_t target : b.jumps) {
          const ProgramBucket& t = prog.chains[static_cast<size_t>(target)].ops[op];
          if ((t.needs & ~b.needs) != 0 || (b.cacheable && !t.cacheable)) {
            b.needs |= t.needs;
            b.cacheable = b.cacheable && t.cacheable;
            changed = true;
          }
          if (!automata) {
            continue;
          }
          BucketAutomata& a = b.astate;
          if ((t.astate.causes & ~a.causes) != 0 || (t.astate.nr_in_key && !a.nr_in_key) ||
              (t.astate.sig_in_key && !a.sig_in_key)) {
            a.causes |= t.astate.causes;
            a.nr_in_key = a.nr_in_key || t.astate.nr_in_key;
            a.sig_in_key = a.sig_in_key || t.astate.sig_in_key;
            changed = true;
          }
          if (!std::includes(a.protocols.begin(), a.protocols.end(),
                             t.astate.protocols.begin(), t.astate.protocols.end())) {
            std::vector<uint16_t> merged;
            std::set_union(a.protocols.begin(), a.protocols.end(),
                           t.astate.protocols.begin(), t.astate.protocols.end(),
                           std::back_inserter(merged));
            a.protocols = std::move(merged);
            changed = true;
          }
        }
      }
    }
  }
}

}  // namespace pf::core
