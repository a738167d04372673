// Differential proof of pfexplain (DESIGN.md §5j): over the same seeded
// random rule bases the evaluator and symbolic-model batteries use,
// ExplainRequest's replay must agree with Engine::Authorize (its verdict IS
// the engine's verdict) *and* with the symbolic decision-space model (the
// region containing the request's atom assignment predicts the same
// outcome), while the provenance tree stays internally consistent: a denial
// served by a traversal tier names a rule whose eval counter moved, and the
// serving tier matches the verdict-cache counter movement.
//
// Seed control: PF_FUZZ_SEEDS=N runs N consecutive seeds (default 16).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "src/analysis/symbolic/model.h"
#include "src/apps/explain.h"
#include "src/apps/programs.h"
#include "src/core/engine.h"
#include "src/core/pftables.h"
#include "src/sim/error.h"
#include "src/sim/sysimage.h"
#include "tests/core/fuzz_rules.h"

namespace pf::apps {
namespace {

namespace sym = pf::analysis::symbolic;

constexpr uint64_t kSeedBase = 0xf002;  // same base as the evaluator battery

int SeedCount() {
  if (const char* env = std::getenv("PF_FUZZ_SEEDS"); env != nullptr) {
    const int n = std::atoi(env);
    if (n >= 1) {
      return n;
    }
  }
  return 16;
}

// COUNT with a declared static kind, so the model stays determinate (same
// shadowing the symbolic battery performs).
class StaticCountTarget : public core::fuzzgen::CountTarget {
 public:
  using CountTarget::CountTarget;
  std::optional<core::TargetKind> StaticKind() const override {
    return core::TargetKind::kContinue;
  }
};

struct TaskProfile {
  const char* label;
  const char* bin;      // nullptr = no stack frames (invalid entrypoint)
  uint64_t offset = 0;  // binary-relative entrypoint offset
};

const TaskProfile kProfiles[] = {
    {"staff_t", "/bin/true", 0x100},
    {"user_t", "/bin/true", 0x200},
    {"etc_t", "/usr/bin/apache2", 0x8000},
    {"user_t", "/bin/sh", 0x8040},
    {"staff_t", "/bin/true", 0x9999},
    {"tmp_t", nullptr},
};

struct Env {
  std::unique_ptr<sim::Kernel> kernel;
  core::Engine* engine = nullptr;  // owned by the kernel module list
  std::unique_ptr<core::Pftables> pft;
  uint64_t count_fires = 0;
};

Env BootEnv(uint64_t seed, bool ept) {
  Env env;
  env.kernel = std::make_unique<sim::Kernel>(0x5eed);
  sim::BuildSysImage(*env.kernel);
  apps::InstallPrograms(*env.kernel);
  core::EngineConfig cfg;
  cfg.ept_chains = ept;
  env.engine = core::InstallProcessFirewall(*env.kernel, cfg);
  env.pft = std::make_unique<core::Pftables>(env.engine);
  core::fuzzgen::RegisterFuzzModules(*env.pft, &env.count_fires);
  env.pft->RegisterTarget(
      "COUNT", [fires = &env.count_fires](const std::vector<std::string>& opts,
                                          std::unique_ptr<core::TargetModule>* t) {
        if (!opts.empty()) {
          return core::Status::Error("COUNT takes no options");
        }
        *t = std::make_unique<StaticCountTarget>(fires);
        return core::Status::Ok();
      });
  env.kernel->MkFileAt("/tmp/t", "x", 0666, 0, 0, "tmp_t");

  std::mt19937_64 rule_rng(seed);
  core::Status s = env.pft->ExecAll(
      core::fuzzgen::RandomRules(rule_rng, core::fuzzgen::FlavorForSeed(seed)));
  EXPECT_TRUE(s.ok()) << "seed " << seed << ": " << s.message();
  return env;
}

std::unique_ptr<sim::Task> MakeTask(sim::Kernel& kernel, const TaskProfile& prof,
                                    sim::Pid pid) {
  auto task = std::make_unique<sim::Task>();
  task->pid = pid;
  task->comm = "explainfuzz";
  task->exe = prof.bin != nullptr ? prof.bin : sim::kBinTrue;
  task->cred.uid = 0;
  task->cred.euid = 0;
  task->cred.sid = kernel.labels().Intern(prof.label);
  task->cwd = kernel.vfs().root()->id();
  task->mm.Reset(kernel.AslrStackBase());
  if (prof.bin != nullptr) {
    kernel.MapImage(*task, kernel.LookupNoHooks(prof.bin), prof.bin);
    const sim::Mapping* map = task->mm.FindMappingByPath(prof.bin);
    task->mm.PushFrame(map->base + prof.offset, 16, false);
  }
  return task;
}

// Concrete truth of the generators' three opaque predicate shapes (the same
// semantics the symbolic battery pins down).
bool OpaqueTruth(const std::string& id, bool has_object, uint64_t ino) {
  if (id.rfind("ODD_INO", 0) == 0) {
    return has_object && ino % 2 == 1;
  }
  if (id.rfind("SIGNAL_MATCH", 0) == 0) {
    return false;
  }
  if (id.rfind("COMPARE", 0) == 0) {
    const size_t v2 = id.find("--v2 ");
    EXPECT_NE(v2, std::string::npos) << "unparseable COMPARE id: " << id;
    const int64_t rhs = std::strtoll(id.c_str() + v2 + 5, nullptr, 0);
    const bool negate = id.find("--nequal") != std::string::npos;
    const bool equal = rhs == 0;  // C_UID is 0 for every task in this test
    return negate ? !equal : equal;
  }
  ADD_FAILURE() << "opaque dimension with unknown concrete semantics: " << id;
  return false;
}

std::vector<uint32_t> Assignment(const sym::Universe& u, sim::Kernel& kernel,
                                 const TaskProfile& prof, const sim::Task& task,
                                 const sim::AccessRequest& req,
                                 const std::map<std::string, int64_t>& dict) {
  std::vector<uint32_t> a(u.dim_count(), 0);
  a[sym::kDimSubject] = u.AtomForSid(task.cred.sid);
  const bool has_object = req.inode != nullptr;
  const uint64_t ino = has_object ? req.id.ino : 0;
  if (has_object) {
    a[sym::kDimObject] = u.AtomForSid(req.inode->sid);
    a[sym::kDimIno] = u.AtomForIno(ino);
  }
  if (prof.bin != nullptr) {
    const sim::FileId image = kernel.LookupNoHooks(prof.bin)->id();
    a[sym::kDimEpt] = u.AtomForEpt(true, image, prof.offset);
  } else {
    a[sym::kDimEpt] = u.AtomForEpt(false, {}, 0);
  }
  a[sym::kDimInterp] = u.AtomForInterp(sim::InterpLang::kNone, "");
  a[sym::kDimArgBase] = u.AtomForArg(0, static_cast<int64_t>(req.syscall_nr));
  for (int i = 1; i < sym::kNumArgDims; ++i) {
    a[sym::kDimArgBase + i] = u.AtomForArg(i, req.args[static_cast<size_t>(i - 1)]);
  }
  for (size_t i = 0; i < u.state_dims.size(); ++i) {
    const auto it = dict.find(u.state_dims[i].key);
    a[u.StateDimIndex(i)] = u.AtomForState(
        i, it == dict.end() ? std::nullopt : std::optional<int64_t>(it->second));
  }
  for (size_t i = 0; i < u.opaque_ids.size(); ++i) {
    a[u.OpaqueDimIndex(i)] = OpaqueTruth(u.opaque_ids[i], has_object, ino) ? 1 : 0;
  }
  return a;
}

// The tiers whose name ExplainRequest may report, for the consistency check.
bool IsTraversalTier(const std::string& tier) {
  return tier == "compiled" || tier == "bypass";
}

void RunExplainProof(uint64_t seed, bool ept) {
  Env env = BootEnv(seed, ept);
  if (::testing::Test::HasFatalFailure()) {
    return;
  }
  sym::ModelOptions opts;
  opts.ept_chains = ept;
  const sym::SymbolicModel model = sym::BuildModel(
      *env.engine->CompileRuleset(), env.engine->policy(), nullptr, opts);
  ASSERT_FALSE(model.indeterminate) << "seed " << seed;
  const sym::Universe& u = *model.universe;

  std::vector<std::unique_ptr<sim::Task>> tasks;
  for (size_t i = 0; i < std::size(kProfiles); ++i) {
    tasks.push_back(
        MakeTask(*env.kernel, kProfiles[i], static_cast<sim::Pid>(700 + i)));
  }

  const char* kPaths[] = {"/etc/passwd", "/etc/shadow", "/tmp/t", "/bin/true"};
  std::vector<std::shared_ptr<sim::Inode>> pins;
  std::mt19937_64 rng(seed ^ 0xe8b1a117ull);

  for (int i = 0; i < 120; ++i) {
    const size_t ti = rng() % std::size(kProfiles);
    sim::Task& task = *tasks[ti];
    sim::AccessRequest req;
    req.task = &task;
    switch (rng() % 6) {
      case 0:
      case 1:
      case 2: {
        auto inode = env.kernel->LookupNoHooks(kPaths[rng() % std::size(kPaths)]);
        req.op = sim::Op::kFileOpen;
        req.inode = inode.get();
        req.id = inode->id();
        req.syscall_nr = sim::SyscallNr::kOpen;
        pins.push_back(std::move(inode));
        break;
      }
      case 3: {
        auto inode = env.kernel->LookupNoHooks(kPaths[rng() % std::size(kPaths)]);
        req.op = sim::Op::kFileGetattr;
        req.inode = inode.get();
        req.id = inode->id();
        req.syscall_nr = sim::SyscallNr::kStat;
        pins.push_back(std::move(inode));
        break;
      }
      case 4:
        req.op = sim::Op::kSignalDeliver;
        req.sig = sim::kSigUsr1;
        req.sig_sender = 1;
        req.syscall_nr = sim::SyscallNr::kKill;
        break;
      default:
        req.op = sim::Op::kSyscallBegin;
        req.syscall_nr = static_cast<sim::SyscallNr>(rng() % 8);
        break;
    }

    // Region membership is a function of the pre-decision STATE.
    const std::map<std::string, int64_t> dict = env.engine->TaskState(task).dict;
    const std::vector<uint32_t> a =
        Assignment(u, *env.kernel, kProfiles[ti], task, req, dict);
    const sym::DecisionRegion* region = model.Find(req.op, a);
    ASSERT_NE(region, nullptr) << "seed " << seed << " request " << i;

    const ExplainResult got = ExplainRequest(*env.engine, req);
    const int64_t predicted = region->outcome == sym::OutcomeKind::kAllow
                                  ? 0
                                  : sim::SysError(sim::Err::kAcces);
    ASSERT_EQ(got.verdict, predicted)
        << "seed " << seed << " (flavor "
        << core::fuzzgen::FlavorName(core::fuzzgen::FlavorForSeed(seed))
        << ", ept " << (ept ? "on" : "off") << ") request " << i << " op "
        << sim::OpName(req.op) << " tier " << got.tier
        << ": pfexplain disagrees with region decided by " << region->decided_by;

    // Internal consistency of the provenance tree.
    EXPECT_EQ(got.drop, got.verdict != 0);
    EXPECT_FALSE(got.tier.empty());
    if (got.drop && IsTraversalTier(got.tier) && got.chain_id >= 0) {
      bool named = false;
      for (const ExplainStep& s : got.steps) {
        named |= s.produced_verdict;
        if (s.produced_verdict) {
          EXPECT_GT(s.hits, 0u)
              << "seed " << seed << " request " << i
              << ": the verdict-producing rule's hit counter did not move";
        }
      }
      EXPECT_TRUE(named)
          << "seed " << seed << " request " << i << ": denial attributed to "
          << got.chain_id << ":" << got.rule_index
          << " but no evaluated step carries it";
    }
    if (got.tier == "fast-path") {
      EXPECT_TRUE(got.steps.empty())
          << "seed " << seed << " request " << i
          << ": a fast-path decision cannot have evaluated rules";
    }
  }
}

TEST(ExplainFuzzTest, ExplainAgreesWithEngineAndModel) {
  const int seeds = SeedCount();
  for (int i = 0; i < seeds; ++i) {
    const uint64_t seed = kSeedBase + static_cast<uint64_t>(i);
    RunExplainProof(seed, /*ept=*/i % 2 == 0);
    if (::testing::Test::HasFailure()) {
      return;  // first divergence wins
    }
  }
}

}  // namespace
}  // namespace pf::apps
