// Worker lanes (engine.h WorkerIndex): a thread's lane selects its ruleset
// pin slot and its trace/audit rings, and every ring is single-producer. A
// lane must therefore have at most one live owner: lanes of exited threads
// are reused, a live thread's lane never is, and a thread that finds every
// lane held runs lane-less on the serialized overflow ring.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
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

// A booted kernel whose engine denies /etc/shadow, with decision tracing
// and the audit pipeline (suppression off) armed.
struct Rig {
  sim::Kernel kernel{0x5eed};
  Engine* engine = nullptr;
  sim::Task task;
  std::shared_ptr<sim::Inode> shadow;

  Rig() {
    sim::BuildSysImage(kernel);
    apps::InstallPrograms(kernel);
    engine = InstallProcessFirewall(kernel);
    Pftables pft(engine);
    EXPECT_TRUE(pft.Exec("pftables -o FILE_OPEN -d shadow_t -j DROP").ok());
    engine->trace().Enable(trace::EventBit(trace::Event::kDecision));
    audit::AuditHub::Config acfg;
    acfg.bucket_capacity = 0;
    engine->audit().Enable(acfg);
    task.pid = 100;
    task.comm = "lanes";
    task.exe = sim::kBinTrue;
    task.cred.sid = kernel.labels().Intern("staff_t");
    task.cwd = kernel.vfs().root()->id();
    task.mm.Reset(kernel.AslrStackBase());
    shadow = kernel.LookupNoHooks("/etc/shadow");
  }

  // One denied open: one decision trace record and one deny audit record,
  // both tagged with the calling thread's worker lane.
  int64_t DeniedOpen() {
    sim::AccessRequest req;
    req.task = &task;
    req.op = sim::Op::kFileOpen;
    req.inode = shadow.get();
    req.id = shadow->id();
    req.syscall_nr = sim::SyscallNr::kOpen;
    return engine->Authorize(req);
  }

  // Worker fields of the drained decision and deny records, in emission order.
  void DrainWorkers(std::vector<uint16_t>* trace_workers,
                    std::vector<uint16_t>* audit_workers) {
    for (const trace::TraceRecord& r : engine->trace().Drain()) {
      trace_workers->push_back(r.worker);
    }
    for (const audit::AuditRecord& r : engine->audit().Drain()) {
      audit_workers->push_back(r.worker);
    }
  }
};

size_t LaneOfNewThread() {
  size_t lane = 0;
  std::thread([&lane] { lane = WorkerIndex(); }).join();
  return lane;
}

TEST(WorkerLaneTest, LaneIsStablePerThreadAndReusedAfterExit) {
  const size_t first = LaneOfNewThread();
  ASSERT_LT(first, kWorkerLanes);
  // No other thread claims in between, so the lowest free lane is the one
  // the exited thread released.
  EXPECT_EQ(LaneOfNewThread(), first);
  size_t a = 0;
  size_t b = 0;
  std::thread([&] {
    a = WorkerIndex();
    b = WorkerIndex();
  }).join();
  EXPECT_EQ(a, b);
}

// The aliasing regression: thread A stays alive while 63 other threads come
// and go, then thread B starts. With indices handed out once per thread and
// masked to 64 rings, B landed on A's ring and both produced into one SPSC
// ring. With lanes, B reuses an exited thread's lane, never A's.
TEST(WorkerLaneTest, LiveThreadsNeverShareARing) {
  if (!trace::kTraceCompiledIn) {
    GTEST_SKIP() << "observability compiled out (PF_NO_TRACE)";
  }
  Rig rig;
  std::mutex mu;
  std::condition_variable cv;
  bool a_done = false;
  bool release_a = false;

  std::thread a([&] {
    EXPECT_LT(rig.DeniedOpen(), 0);
    std::unique_lock<std::mutex> lock(mu);
    a_done = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release_a; });
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return a_done; });
  }
  for (int i = 0; i < 63; ++i) {
    std::thread([&rig] { EXPECT_LT(rig.DeniedOpen(), 0); }).join();
  }
  std::vector<uint16_t> churn_trace;
  std::vector<uint16_t> churn_audit;
  rig.DrainWorkers(&churn_trace, &churn_audit);  // A's record first

  std::thread([&rig] { EXPECT_LT(rig.DeniedOpen(), 0); }).join();  // B
  std::vector<uint16_t> b_trace;
  std::vector<uint16_t> b_audit;
  rig.DrainWorkers(&b_trace, &b_audit);
  {
    std::lock_guard<std::mutex> lock(mu);
    release_a = true;
  }
  cv.notify_all();
  a.join();

  ASSERT_EQ(churn_trace.size(), 64u);
  ASSERT_EQ(churn_audit.size(), 64u);
  ASSERT_EQ(b_trace.size(), 1u);
  ASSERT_EQ(b_audit.size(), 1u);
  EXPECT_NE(b_trace[0], churn_trace[0]) << "B's trace ring is live thread A's";
  EXPECT_NE(b_audit[0], churn_audit[0]) << "B's audit ring is live thread A's";
  EXPECT_LT(churn_trace[0], kWorkerLanes);
  EXPECT_LT(b_trace[0], kWorkerLanes);
}

// With every lane held by a live thread, the next thread runs on the
// overflow lane: its decisions still pin a ruleset (through the locked
// fallback) and its records land in the shared overflow ring, not in a
// live thread's ring.
TEST(WorkerLaneTest, ThreadBeyondTheLanesUsesTheOverflowRing) {
  if (!trace::kTraceCompiledIn) {
    GTEST_SKIP() << "observability compiled out (PF_NO_TRACE)";
  }
  Rig rig;
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::vector<std::thread> holders;
  // Other threads of this process (the main thread among them) may already
  // hold lanes, so start holders until one of them finds none left.
  constexpr size_t kUnset = ~size_t{0};
  std::array<std::atomic<size_t>, kWorkerLanes + 1> lanes;
  for (std::atomic<size_t>& l : lanes) {
    l.store(kUnset);
  }
  size_t lane = kUnset;
  for (size_t i = 0; i < lanes.size() && lane != kOverflowLane; ++i) {
    holders.emplace_back([&, i] {
      lanes[i].store(WorkerIndex());
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release; });
    });
    while ((lane = lanes[i].load()) == kUnset) {
      std::this_thread::yield();
    }
  }
  std::vector<uint16_t> trace_workers;
  std::vector<uint16_t> audit_workers;
  uint64_t trace_overflow = 0;
  uint64_t audit_overflow = 0;
  if (lane == kOverflowLane) {
    std::thread([&rig] { EXPECT_LT(rig.DeniedOpen(), 0); }).join();
    rig.DrainWorkers(&trace_workers, &audit_workers);
    if (const auto* ring = rig.engine->trace().ring(trace::TraceHub::kMaxWorkers)) {
      trace_overflow = ring->pushed();
    }
    if (const auto* ring = rig.engine->audit().ring(audit::AuditHub::kMaxWorkers)) {
      audit_overflow = ring->pushed();
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  for (std::thread& t : holders) {
    t.join();
  }
  ASSERT_EQ(lane, kOverflowLane) << "every holder found a free lane";
  ASSERT_EQ(trace_workers.size(), 1u);
  ASSERT_EQ(audit_workers.size(), 1u);
  EXPECT_EQ(trace_workers[0], kOverflowLane);
  EXPECT_EQ(audit_workers[0], kOverflowLane);
  EXPECT_EQ(trace_overflow, 1u);
  EXPECT_EQ(audit_overflow, 1u);
  // The holders released their lanes: a new thread gets a real one again.
  EXPECT_LT(LaneOfNewThread(), kWorkerLanes);
}

}  // namespace
}  // namespace pf::core
