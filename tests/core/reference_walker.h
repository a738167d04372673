// The reference evaluator the engine's compiled evaluator is diffed against:
// a tree walker that evaluates each rule through its Rule object — the
// default matches, every -m module's Matches(), the target's Fire() — where
// the engine runs the rule's lowered instructions (engine.cc ExecRule,
// handlers in src/core/exec_insn.inc). It is test code only; the engine
// ships one evaluator. Header-only, like fuzz_rules.h.
//
// ReferenceWalker::Authorize decides a request the way Engine::Authorize
// does with the verdict cache off: the same applicable builtin chains
// (create -> output -> input), the same per-(chain, op) buckets of the
// published program, the same JUMP depth cutoff. It keeps its own
// entrypoint index (Chain::EptRules on the published RuleSet copy) rather
// than ProgramChain::ept, and its own decision counters (stats()). Context
// is fetched through Engine::EnsureContext, so the unwind and context-fetch
// counters still land in Engine::stats(), and a mismatch in fetch order
// between walker and evaluator shows there. Per-rule evals/hits counters,
// STATE dictionaries and LOG records are the engine's own, shared with the
// evaluator.
//
// The walker reads only Engine's public API. It installs no trace or audit
// observer and never consults the verdict cache.
#ifndef TESTS_CORE_REFERENCE_WALKER_H_
#define TESTS_CORE_REFERENCE_WALKER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/engine.h"
#include "src/core/packet.h"
#include "src/core/program.h"
#include "src/core/rule.h"
#include "src/core/ruleset.h"

namespace pf::core {

class ReferenceWalker {
 public:
  // The decision counters of EngineStats that the walker bumps itself.
  struct Stats {
    uint64_t invocations = 0;
    uint64_t drops = 0;
    uint64_t audited_drops = 0;
    uint64_t rules_evaluated = 0;
    uint64_t ept_chain_hits = 0;
  };

  explicit ReferenceWalker(Engine& engine) : engine_(engine) {}

  int64_t Authorize(sim::AccessRequest& req) {
    const EngineConfig& cfg = engine_.config();
    if (!cfg.enabled || req.task == nullptr) {
      return 0;
    }
    ++stats_.invocations;
    const std::shared_ptr<const CompiledRuleset> rs = engine_.PublishedRuleset();
    const PfProgram& prog = rs->program;
    const size_t op_index = static_cast<size_t>(req.op);
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
      if (IsCreateOp(req.op)) {
        consider(prog.root_create);
      }
      if (IsOutputOp(req.op)) {
        consider(prog.root_output);
      }
      consider(prog.root_input);
    }
    if (num_applicable == 0) {
      return 0;
    }

    Packet pkt;
    pkt.req = &req;
    if (!cfg.lazy_context) {
      engine_.EnsureContext(pkt, kAllCtx);
    }
    Verdict verdict = Verdict::kFallthrough;
    for (size_t i = 0; i < num_applicable && verdict == Verdict::kFallthrough; ++i) {
      verdict = RunBuiltin(*rs, *applicable[i], pkt);
    }
    if (verdict == Verdict::kDrop) {
      if (cfg.audit_only) {
        ++stats_.audited_drops;
        engine_.EmitLog(pkt, "audit-drop");
        return 0;
      }
      ++stats_.drops;
      return sim::SysError(sim::Err::kAcces);
    }
    return 0;
  }

  const Stats& stats() const { return stats_; }

 private:
  enum class Verdict { kAccept, kDrop, kFallthrough, kReturn };

  static constexpr auto kRelaxed = std::memory_order_relaxed;

  bool DefaultMatches(const Rule& rule, Packet& pkt) {
    const sim::AccessRequest& req = *pkt.req;
    if (rule.op && *rule.op != req.op) {
      return false;
    }
    if (!rule.subject.wildcard &&
        !rule.subject.MatchesSubject(req.task->cred.sid, engine_.policy())) {
      return false;
    }
    if (rule.has_program() || rule.entrypoint) {
      engine_.EnsureContext(pkt, CtxBit(Ctx::kEntrypoint));
      if (!pkt.entrypoint_valid) {
        return false;  // unusable stack forfeits only this process's protection
      }
      if (rule.has_program() && !(pkt.entrypoint.image == rule.program_file)) {
        return false;
      }
      if (rule.entrypoint && pkt.entrypoint.offset != *rule.entrypoint) {
        return false;
      }
    }
    if (!rule.object.wildcard || rule.ino) {
      engine_.EnsureContext(pkt, CtxBit(Ctx::kObject));
      if (!pkt.has_object) {
        return false;
      }
      if (rule.ino && pkt.object_id.ino != *rule.ino) {
        return false;
      }
      if (!rule.object.wildcard) {
        // SYSHIGH membership is a policy (adversary accessibility) question.
        if (rule.object.syshigh) {
          engine_.EnsureContext(pkt, CtxBit(Ctx::kAdversaryAccess));
        }
        if (!rule.object.MatchesObject(pkt.object_sid, engine_.policy())) {
          return false;
        }
      }
    }
    return true;
  }

  Verdict EvalRule(const CompiledRuleset& rs, const Rule& rule, Packet& pkt, int depth) {
    ++stats_.rules_evaluated;
    rule.evals.fetch_add(1, kRelaxed);
    const sim::AccessRequest& req = *pkt.req;
    // Contextless prechecks first, then one context round-trip: rule.needs is
    // the install-time union of the default matches, every -m module, and the
    // target, so the EnsureContext calls inside DefaultMatches and the modules
    // all short-circuit on the bitmask.
    if (rule.op && *rule.op != req.op) {
      return Verdict::kFallthrough;
    }
    if (!rule.subject.wildcard &&
        !rule.subject.MatchesSubject(req.task->cred.sid, engine_.policy())) {
      return Verdict::kFallthrough;
    }
    engine_.EnsureContext(pkt, rule.needs);
    if (!DefaultMatches(rule, pkt)) {
      return Verdict::kFallthrough;
    }
    for (const auto& match : rule.matches) {
      if (!match->Matches(pkt, engine_)) {
        return Verdict::kFallthrough;
      }
    }
    rule.hits.fetch_add(1, kRelaxed);
    switch (rule.target->Fire(pkt, engine_)) {
      case TargetKind::kAccept:
        return Verdict::kAccept;
      case TargetKind::kDrop:
        return Verdict::kDrop;
      case TargetKind::kContinue:
        return Verdict::kFallthrough;
      case TargetKind::kReturn:
        return Verdict::kReturn;  // ends this chain; caller continues
      case TargetKind::kJump: {
        const int32_t next = rs.program.FindChain(rule.target->jump_chain());
        if (next >= 0 && depth < kMaxChainDepth) {
          Verdict v = TraverseChain(rs, rs.program.chains[static_cast<size_t>(next)], pkt,
                                    depth + 1);
          if (v == Verdict::kAccept || v == Verdict::kDrop) {
            return v;
          }
        }
        return Verdict::kFallthrough;
      }
    }
    return Verdict::kFallthrough;
  }

  Verdict EvalSlice(const CompiledRuleset& rs, uint32_t off, uint32_t len, Packet& pkt,
                    int depth) {
    const PfProgram& prog = rs.program;
    for (uint32_t i = 0; i < len; ++i) {
      Verdict v = EvalRule(rs, *prog.rules[prog.entries[off + i]].rule, pkt, depth);
      if (v != Verdict::kFallthrough) {
        return v;  // accept, drop, or RETURN to the calling chain
      }
    }
    return Verdict::kFallthrough;
  }

  Verdict EvalRules(const CompiledRuleset& rs, const std::vector<const Rule*>& rules,
                    Packet& pkt, int depth) {
    for (const Rule* rule : rules) {
      Verdict v = EvalRule(rs, *rule, pkt, depth);
      if (v != Verdict::kFallthrough) {
        return v;
      }
    }
    return Verdict::kFallthrough;
  }

  Verdict TraverseChain(const CompiledRuleset& rs, const ProgramChain& pc, Packet& pkt,
                        int depth) {
    if (depth >= kMaxChainDepth) {
      return Verdict::kFallthrough;
    }
    const ProgramBucket& bucket = pc.ops[static_cast<size_t>(pkt.req->op)];
    if (engine_.config().ept_chains && pc.index_built) {
      // Non-entrypoint rules first (paper §4.3), then the hash-selected
      // entrypoint chain. The per-op bucket already excludes rules whose -o
      // operand cannot match.
      Verdict v = EvalSlice(rs, bucket.plain_off, bucket.plain_len, pkt, depth);
      if (v != Verdict::kFallthrough) {
        return v;
      }
      if (bucket.has_indexed) {
        engine_.EnsureContext(pkt, CtxBit(Ctx::kEntrypoint));
        if (pkt.entrypoint_valid) {
          const auto* rules = rs.rules.filter().Find(pc.name)->EptRules(
              EptKey{pkt.entrypoint.image, pkt.entrypoint.offset});
          if (rules != nullptr) {
            ++stats_.ept_chain_hits;
            return EvalRules(rs, *rules, pkt, depth);
          }
        }
      }
      return Verdict::kFallthrough;
    }
    // Linear traversal of the op's bucket (chain order preserved).
    return EvalSlice(rs, bucket.all_off, bucket.all_len, pkt, depth);
  }

  // Runs one builtin chain and applies its default policy on fallthrough.
  Verdict RunBuiltin(const CompiledRuleset& rs, const ProgramChain& pc, Packet& pkt) {
    Verdict v = TraverseChain(rs, pc, pkt, 0);
    if (v == Verdict::kReturn) {
      v = Verdict::kFallthrough;
    }
    if (v == Verdict::kFallthrough && pc.policy_drop) {
      v = Verdict::kDrop;
    }
    return v;
  }

  Engine& engine_;
  Stats stats_;
};

}  // namespace pf::core

#endif  // TESTS_CORE_REFERENCE_WALKER_H_
