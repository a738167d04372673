// Compiled PF programs: commit-time lowering into the arena-packed form
// (program.h), the `pftables -L --compiled` disassembly, and the compiled
// evaluator. Bit-equivalence with the reference tree walker
// (reference_walker.h) is covered separately by the REFERENCE ablation rung
// and the differential fuzz test; these tests pin the structure of the
// artifact itself.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/apps/programs.h"
#include "src/core/engine.h"
#include "src/core/pftables.h"
#include "src/core/program.h"
#include "src/sim/sched.h"
#include "src/sim/sysimage.h"
#include "tests/testutil.h"

namespace pf::core {
namespace {

using sim::Pid;
using sim::Proc;

// A rule base exercising every lowering path: default matches (-o, -s, -d,
// -p, -i, --ino), all builtin -m modules with inline lowerings, every
// builtin target, a user chain, and entrypoint-indexed rules.
std::vector<std::string> RepresentativeRules() {
  return {
      "pftables -N guard",
      "pftables -A guard -o FILE_OPEN -d shadow_t -j DROP",
      "pftables -A guard -m STATE --key seen --cmp 1 -j RETURN",
      "pftables -A input -s staff_t -j guard",
      "pftables -A input -o SOCKET_BIND -j STATE --set --key seen --value 1",
      "pftables -A input -o FILE_OPEN -d etc_t -m COMPARE --v1 C_UID --v2 0 "
      "-j LOG --prefix root-etc",
      "pftables -A input -o PROCESS_SIGNAL_DELIVERY -m SIGNAL_MATCH -j DROP",
      "pftables -A syscallbegin -m SYSCALL_ARGS --arg 0 --equal 2 -j CONTINUE",
      "pftables -A input -o FILE_OPEN -m INTERP --lang php --script admin.php -j DROP",
      "pftables -p /bin/true -i 0x100 -o FILE_OPEN -d tmp_t -j DROP",
      "pftables -p /usr/bin/apache2 -i 0x200 -o FILE_OPEN -j DROP",
  };
}

class CompiledProgramTest : public pf::testing::SimTest {
 protected:
  CompiledProgramTest() : engine_(InstallProcessFirewall(kernel())), pft_(engine_) {
    apps::InstallPrograms(kernel());
  }

  Engine* engine_;
  Pftables pft_;
};

TEST_F(CompiledProgramTest, DisassemblyListsLoweredRules) {
  ASSERT_TRUE(pft_.ExecAll(RepresentativeRules()).ok());
  std::string disasm = pft_.ListCompiled();

  // Header + chain banners.
  EXPECT_NE(disasm.find(";; pf program:"), std::string::npos);
  EXPECT_NE(disasm.find("chain input (builtin"), std::string::npos);
  EXPECT_NE(disasm.find("chain guard (user"), std::string::npos);

  // Default matches lower to guard ops with pool operands rendered by value.
  EXPECT_NE(disasm.find("CHECK_OP FILE_OPEN"), std::string::npos);
  EXPECT_NE(disasm.find("MATCH_SUBJECT staff_t"), std::string::npos);
  EXPECT_NE(disasm.find("MATCH_OBJECT shadow_t"), std::string::npos);
  EXPECT_NE(disasm.find("CHECK_PROGRAM /bin/true"), std::string::npos);
  EXPECT_NE(disasm.find("CHECK_EPT_OFF 0x100"), std::string::npos);

  // Builtin modules lower inline; JUMP edges resolve to chain names.
  EXPECT_NE(disasm.find("MATCH_STATE --key seen"), std::string::npos);
  EXPECT_NE(disasm.find("MATCH_COMPARE"), std::string::npos);
  EXPECT_NE(disasm.find("MATCH_SIGNAL"), std::string::npos);
  EXPECT_NE(disasm.find("MATCH_SYSCALL_ARG --arg 0"), std::string::npos);
  EXPECT_NE(disasm.find("MATCH_INTERP --script admin.php --lang php"), std::string::npos);
  EXPECT_NE(disasm.find("STATE_SET --key seen"), std::string::npos);
  EXPECT_NE(disasm.find("LOG --prefix root-etc"), std::string::npos);
  EXPECT_NE(disasm.find("JUMP -> guard"), std::string::npos);

  // Nothing lowered through the native escape hatch: every module above is
  // a builtin with an inline instruction form.
  EXPECT_EQ(disasm.find("MATCH_NATIVE"), std::string::npos);
  EXPECT_EQ(disasm.find("TARGET_NATIVE"), std::string::npos);
  EXPECT_NE(disasm.find("native_matches=0 native_targets=0"), std::string::npos);

  // The entrypoint index made it into the program form.
  EXPECT_NE(disasm.find("ept /bin/true+0x100"), std::string::npos);
}

TEST_F(CompiledProgramTest, DisassemblyRoundTripsThroughSaveRestore) {
  ASSERT_TRUE(pft_.ExecAll(RepresentativeRules()).ok());
  std::string disasm = pft_.ListCompiled();
  std::string dump = pft_.Save();

  // Restore into a *different* kernel instance (different seed, so inode
  // numbers and interned sids differ). The disassembly prints interned
  // content by value, so the listing must match byte for byte.
  sim::Kernel other(0xf00d);
  sim::BuildSysImage(other);
  apps::InstallPrograms(other);
  Engine* engine2 = InstallProcessFirewall(other);
  Pftables pft2(engine2);
  Status s = pft2.Restore(dump);
  ASSERT_TRUE(s.ok()) << s.message();
  EXPECT_EQ(pft2.ListCompiled(), disasm);
}

TEST_F(CompiledProgramTest, BucketsRePointAtEntrySlices) {
  ASSERT_TRUE(pft_.ExecAll(RepresentativeRules()).ok());
  auto snap = engine_->CompileRuleset();
  const PfProgram& prog = snap->program;
  const Table& filter = snap->rules.filter();
  ASSERT_EQ(prog.chains.size(), filter.chains().size());
  const auto rule_at = [&prog](uint32_t off, size_t i) {
    return prog.rules[prog.entries[off + i]].rule;
  };

  // Every bucket is checked against a direct op filter of the chain's own
  // rule list: the slices resolve to exactly those rules in chain order, and
  // the own-rule facts fold exactly those rules.
  bool saw_indexed = false;
  for (const auto& [name, chain] : filter.chains()) {
    const int32_t id = prog.FindChain(name);
    ASSERT_GE(id, 0) << name;
    const ProgramChain& pc = prog.chains[static_cast<size_t>(id)];
    uint64_t op_mask = 0;
    for (size_t op = 0; op < sim::kOpCount; ++op) {
      std::vector<const Rule*> all;
      std::vector<const Rule*> plain;
      CtxMask needs = 0;
      bool cacheable = true;
      bool has_indexed = false;
      for (const auto& rule : chain.rules()) {
        if (rule->op && static_cast<size_t>(*rule->op) != op) {
          continue;
        }
        all.push_back(rule.get());
        needs |= rule->needs;
        cacheable = cacheable && rule->CacheableByKey();
        if (chain.index_built() && rule->IndexableByEntrypoint()) {
          has_indexed = true;
        } else {
          plain.push_back(rule.get());
        }
      }
      op_mask |= all.empty() ? 0 : 1ull << op;
      saw_indexed = saw_indexed || has_indexed;
      const ProgramBucket& pb = pc.ops[op];
      ASSERT_EQ(pb.all_len, all.size()) << name << " op " << op;
      ASSERT_EQ(pb.plain_len, plain.size()) << name << " op " << op;
      for (size_t i = 0; i < all.size(); ++i) {
        EXPECT_EQ(rule_at(pb.all_off, i), all[i]) << name << " op " << op;
      }
      for (size_t i = 0; i < plain.size(); ++i) {
        EXPECT_EQ(rule_at(pb.plain_off, i), plain[i]) << name << " op " << op;
      }
      EXPECT_EQ(pb.has_indexed, has_indexed) << name << " op " << op;
      EXPECT_EQ(pb.base_needs, needs) << name << " op " << op;
      EXPECT_EQ(pb.base_cacheable, cacheable) << name << " op " << op;
      // The closed facts cover the bucket's own and every JUMP target's.
      EXPECT_EQ(pb.needs & needs, needs) << name << " op " << op;
      EXPECT_TRUE(cacheable || !pb.cacheable) << name << " op " << op;
      for (int32_t target : pb.jumps) {
        const ProgramBucket& tb = prog.chains[static_cast<size_t>(target)].ops[op];
        EXPECT_EQ(pb.needs & tb.needs, tb.needs) << name << " op " << op;
        EXPECT_TRUE(tb.cacheable || !pb.cacheable) << name << " op " << op;
      }
    }
    EXPECT_EQ(pc.op_mask, op_mask) << name;
  }
  EXPECT_TRUE(saw_indexed);  // the rule base exercises the plain/indexed split

  // input JUMPs to guard, whose STATE guard matches every op: input's
  // getattr bucket is pure on its own rules but not once closed.
  const ProgramBucket& getattr =
      prog.chains[static_cast<size_t>(prog.FindChain("input"))]
          .ops[static_cast<size_t>(sim::Op::kFileGetattr)];
  EXPECT_TRUE(getattr.base_cacheable);
  EXPECT_FALSE(getattr.cacheable);
  ASSERT_EQ(getattr.jumps.size(), 1u);
  EXPECT_EQ(getattr.jumps[0], prog.FindChain("guard"));
}

TEST_F(CompiledProgramTest, RuleBodiesAreContiguousAlignedRecords) {
  ASSERT_TRUE(pft_.ExecAll(RepresentativeRules()).ok());
  auto snap = engine_->CompileRuleset();
  const PfProgram& prog = snap->program;
  ASSERT_FALSE(prog.rules.empty());
  EXPECT_EQ(prog.arena.size() % kPfInsnWords, 0u);
  for (const RuleRecord& rec : prog.rules) {
    EXPECT_EQ(rec.entry % kPfInsnWords, 0u);
    EXPECT_EQ((rec.end - rec.entry) % kPfInsnWords, 0u);
    EXPECT_GT(rec.end, rec.entry);  // at least RULE_BEGIN + target
    ASSERT_NE(rec.rule, nullptr);
    // Every body starts with RULE_BEGIN naming its own record and ends with
    // a terminal/target instruction.
    EXPECT_EQ(static_cast<PfOp>(prog.Fetch(rec.entry).op), PfOp::kRuleBegin);
  }
}

TEST_F(CompiledProgramTest, NativeEscapesDispatchIntoModules) {
  // A custom target lowers through the TARGET_NATIVE escape and must still
  // fire (virtually) under the compiled evaluator.
  int counter = 0;
  pft_.RegisterTarget("COUNT", [&counter](const std::vector<std::string>& opts,
                                          std::unique_ptr<TargetModule>* out) {
    if (!opts.empty()) {
      return Status::Error("COUNT takes no options");
    }
    class CountTarget : public TargetModule {
     public:
      explicit CountTarget(int* c) : c_(c) {}
      std::string_view Name() const override { return "COUNT"; }
      TargetKind Fire(Packet&, Engine&) const override {
        ++*c_;
        return TargetKind::kContinue;
      }
      std::string Render() const override { return "COUNT"; }

     private:
      int* c_;
    };
    *out = std::make_unique<CountTarget>(&counter);
    return Status::Ok();
  });
  ASSERT_TRUE(pft_.Exec("pftables -o FILE_OPEN -d etc_t -j COUNT").ok());

  std::string disasm = pft_.ListCompiled();
  EXPECT_NE(disasm.find("TARGET_NATIVE COUNT"), std::string::npos);

  Pid pid = sched().Spawn({.exe = sim::kBinTrue}, [](Proc& p) {
    p.Open("/etc/passwd", sim::kORdOnly);
    p.Open("/etc/shadow", sim::kORdOnly);  // shadow_t: not counted
  });
  sched().RunUntilExit(pid);
  EXPECT_EQ(counter, 1);
}

TEST_F(CompiledProgramTest, CompiledEvaluatorEnforces) {
  ASSERT_TRUE(pft_.Exec("pftables -o FILE_OPEN -d shadow_t -j DROP").ok());
  Pid pid = sched().Spawn({.exe = sim::kBinTrue}, [](Proc& p) {
    EXPECT_EQ(p.Open("/etc/shadow", sim::kORdOnly), sim::SysError(sim::Err::kAcces));
    EXPECT_GE(p.Open("/etc/passwd", sim::kORdOnly), 0);
  });
  sched().RunUntilExit(pid);
  EXPECT_EQ(engine_->stats().drops, 1u);
}

}  // namespace
}  // namespace pf::core
