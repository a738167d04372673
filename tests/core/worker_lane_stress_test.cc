// Worker-lane churn under concurrency (label: stress; run under the tsan
// preset). Many short-lived threads claim and release lanes, then several
// threads decide at once while a follower drains the rings. Every ring must
// keep one producer at a time — TSan flags a second one as a data race on
// the ring's producer cursor — and both pipelines must conserve records:
//
//   trace:  consumed + drops == pushed
//   audit:  emitted == pushed + suppressed, pushed == drained + ring drops

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "src/apps/programs.h"
#include "src/audit/hub.h"
#include "src/core/engine.h"
#include "src/core/pftables.h"
#include "src/sim/sysimage.h"
#include "src/trace/hub.h"

namespace pf::core {
namespace {

constexpr int kShortLived = 128;  // twice the lane count
constexpr int kConcurrent = 4;
constexpr int kDecisionsPerThread = 3000;

std::unique_ptr<sim::Task> MakeTask(sim::Kernel& kernel, int idx) {
  auto task = std::make_unique<sim::Task>();
  task->pid = static_cast<sim::Pid>(2000 + idx);
  task->comm = "lanes";
  task->exe = sim::kBinTrue;
  task->cred.sid = kernel.labels().Intern("staff_t");
  task->cwd = kernel.vfs().root()->id();
  task->mm.Reset(kernel.AslrStackBase());
  return task;
}

TEST(WorkerLaneStressTest, LaneChurnKeepsRingsSingleProducerAndConserving) {
  if (!trace::kTraceCompiledIn) {
    GTEST_SKIP() << "observability compiled out (PF_NO_TRACE)";
  }
  sim::Kernel kernel{0x5eed};
  sim::BuildSysImage(kernel);
  apps::InstallPrograms(kernel);
  Engine* engine = InstallProcessFirewall(kernel);
  Pftables pft(engine);
  ASSERT_TRUE(pft.Exec("pftables -o FILE_OPEN -d shadow_t -j DROP").ok());
  // Small rings force eviction; the default token bucket forces suppression.
  engine->trace().Enable();
  audit::AuditHub::Config acfg;
  acfg.ring_capacity = 64;
  engine->audit().Enable(acfg);
  auto shadow = kernel.LookupNoHooks("/etc/shadow");
  auto passwd = kernel.LookupNoHooks("/etc/passwd");

  std::vector<std::unique_ptr<sim::Task>> tasks;
  for (int i = 0; i < kShortLived + kConcurrent; ++i) {
    tasks.push_back(MakeTask(kernel, i));
  }
  const auto decide = [&](sim::Task& task, int n) {
    for (int i = 0; i < n; ++i) {
      sim::AccessRequest req;
      req.task = &task;
      req.op = sim::Op::kFileOpen;
      sim::Inode* inode = i % 2 == 0 ? shadow.get() : passwd.get();
      req.inode = inode;
      req.id = inode->id();
      req.syscall_nr = sim::SyscallNr::kOpen;
      ++task.syscall_count;
      const int64_t v = engine->Authorize(req);
      EXPECT_EQ(v < 0, i % 2 == 0);
    }
  };

  // A follower drains both pipelines for the whole run.
  std::atomic<bool> done{false};
  uint64_t trace_consumed = 0;
  std::thread follower([&] {
    while (!done.load(std::memory_order_acquire)) {
      trace_consumed += engine->trace().Drain().size();
      (void)engine->audit().Drain();
      std::this_thread::yield();
    }
  });

  // Phase 1: short-lived threads in overlapping waves, so lanes are claimed,
  // released, and reclaimed while neighbours are still running.
  for (int wave = 0; wave < kShortLived; wave += 8) {
    std::vector<std::thread> threads;
    for (int i = wave; i < wave + 8; ++i) {
      threads.emplace_back([&, i] { decide(*tasks[static_cast<size_t>(i)], 4); });
    }
    for (std::thread& t : threads) {
      t.join();
    }
  }
  // Phase 2: concurrent producers on reused lanes.
  std::vector<std::thread> threads;
  for (int i = 0; i < kConcurrent; ++i) {
    threads.emplace_back([&, i] {
      decide(*tasks[static_cast<size_t>(kShortLived + i)], kDecisionsPerThread);
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  done.store(true, std::memory_order_release);
  follower.join();
  trace_consumed += engine->trace().Drain().size();
  (void)engine->audit().Drain();

  const trace::TraceHub& th = engine->trace();
  EXPECT_GT(th.records(), 0u);
  EXPECT_EQ(trace_consumed + th.drops(), th.records());

  const audit::AuditHub& ah = engine->audit();
  EXPECT_GT(ah.emitted(), 0u);
  EXPECT_GT(ah.suppressed(), 0u) << "the token bucket never engaged";
  EXPECT_EQ(ah.emitted(), ah.records() + ah.suppressed());
  EXPECT_EQ(ah.records(), ah.drained() + ah.ring_drops());
}

}  // namespace
}  // namespace pf::core
