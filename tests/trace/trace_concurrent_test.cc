// Concurrent producer/consumer stress for the trace ring and hub (label:
// stress; run under the tsan preset). The invariants checked:
//
//   * no record is ever corrupted — a consumed record is always one the
//     producer published, bit for bit (encoded self-checks);
//   * conservation: pushed == consumed + dropped + left-in-ring;
//   * consumed timestamps are strictly increasing (FIFO survives eviction);
//   * the hub's multi-worker Drain() under live producers stays sane.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/trace/hub.h"
#include "src/trace/record.h"
#include "src/trace/ring.h"

namespace pf::trace {
namespace {

// A record whose payload fields are all derived from its sequence number, so
// a consumer can detect any torn or corrupted copy.
TraceRecord SelfChecking(uint64_t n, uint16_t worker) {
  TraceRecord r;
  r.ts_ns = n + 1;  // strictly positive, strictly increasing
  r.ept_ino = n * 0x9e3779b97f4a7c15ull;
  r.ept_offset = ~n;
  r.ept_dev = static_cast<uint32_t>(n);
  r.subject_sid = static_cast<uint32_t>(n >> 1);
  r.object_sid = static_cast<uint32_t>(n >> 2);
  r.chain_id = static_cast<int32_t>(n % 97);
  r.rule_index = static_cast<int32_t>(n % 31);
  r.ctx_ns = static_cast<uint32_t>(n * 3);
  r.eval_ns = static_cast<uint32_t>(n * 5);
  r.total_ns = static_cast<uint32_t>(n * 7);
  r.worker = worker;
  r.op = static_cast<uint8_t>(n % 19);
  r.event = static_cast<uint8_t>(Event::kDecision);
  return r;
}

::testing::AssertionResult CheckRecord(const TraceRecord& r) {
  const uint64_t n = r.ts_ns - 1;
  if (r.ept_ino != n * 0x9e3779b97f4a7c15ull || r.ept_offset != ~n ||
      r.ept_dev != static_cast<uint32_t>(n) ||
      r.subject_sid != static_cast<uint32_t>(n >> 1) ||
      r.object_sid != static_cast<uint32_t>(n >> 2) ||
      r.chain_id != static_cast<int32_t>(n % 97) ||
      r.rule_index != static_cast<int32_t>(n % 31) ||
      r.ctx_ns != static_cast<uint32_t>(n * 3) ||
      r.eval_ns != static_cast<uint32_t>(n * 5) ||
      r.total_ns != static_cast<uint32_t>(n * 7) ||
      r.op != static_cast<uint8_t>(n % 19)) {
    return ::testing::AssertionFailure() << "torn record at n=" << n;
  }
  return ::testing::AssertionSuccess();
}

TEST(TraceConcurrentTest, SpscStressNoTornRecords) {
  constexpr uint64_t kPushes = 200000;
  TraceRing ring(64);  // small ring: maximizes eviction/consumer races

  std::atomic<bool> done{false};
  std::thread producer([&] {
    for (uint64_t n = 0; n < kPushes; ++n) {
      ring.Push(SelfChecking(n, 0));
    }
    done.store(true, std::memory_order_release);
  });

  uint64_t consumed = 0;
  uint64_t last_ts = 0;
  TraceRecord out;
  for (;;) {
    if (ring.Pop(&out)) {
      ASSERT_TRUE(CheckRecord(out));
      ASSERT_GT(out.ts_ns, last_ts) << "FIFO violated after " << consumed;
      last_ts = out.ts_ns;
      ++consumed;
    } else if (done.load(std::memory_order_acquire)) {
      break;  // producer finished and the ring is drained
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  // One more sweep: records published between the last empty Pop and the
  // done flag.
  while (ring.Pop(&out)) {
    ASSERT_TRUE(CheckRecord(out));
    ASSERT_GT(out.ts_ns, last_ts);
    last_ts = out.ts_ns;
    ++consumed;
  }

  // Conservation: every record is accounted for exactly once.
  EXPECT_EQ(ring.pushed(), kPushes);
  EXPECT_EQ(consumed + ring.drops(), kPushes);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_GT(ring.drops(), 0u) << "stress never overflowed a 64-slot ring?";
}

TEST(TraceConcurrentTest, SlowConsumerOnlyLosesOldest) {
  constexpr uint64_t kPushes = 50000;
  TraceRing ring(256);
  std::atomic<bool> done{false};

  std::thread producer([&] {
    for (uint64_t n = 0; n < kPushes; ++n) {
      ring.Push(SelfChecking(n, 0));
    }
    done.store(true, std::memory_order_release);
  });

  // A deliberately slow consumer: pop in bursts with pauses. Everything it
  // does read must be valid and in order.
  uint64_t consumed = 0;
  uint64_t last_ts = 0;
  TraceRecord out;
  while (!done.load(std::memory_order_acquire) || ring.size() > 0) {
    for (int burst = 0; burst < 16 && ring.Pop(&out); ++burst) {
      ASSERT_TRUE(CheckRecord(out));
      ASSERT_GT(out.ts_ns, last_ts);
      last_ts = out.ts_ns;
      ++consumed;
    }
    std::this_thread::yield();
  }
  producer.join();
  while (ring.Pop(&out)) {
    ASSERT_TRUE(CheckRecord(out));
    ASSERT_GT(out.ts_ns, last_ts);
    last_ts = out.ts_ns;
    ++consumed;
  }
  EXPECT_EQ(consumed + ring.drops(), kPushes);
}

TEST(TraceConcurrentTest, HubManyProducersOneFollower) {
  if (!kTraceCompiledIn) {
    GTEST_SKIP() << "tracing compiled out (PF_NO_TRACE)";
  }
  constexpr int kWorkers = 4;
  constexpr uint64_t kPerWorker = 40000;
  TraceHub hub;
  hub.set_ring_capacity(128);
  hub.Enable();

  std::atomic<int> running{kWorkers};
  std::vector<std::thread> workers;
  workers.reserve(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&hub, &running, w] {
      for (uint64_t n = 0; n < kPerWorker; ++n) {
        hub.Emit(SelfChecking(n, static_cast<uint16_t>(w)));
      }
      running.fetch_sub(1, std::memory_order_acq_rel);
    });
  }

  // Follower drains concurrently; every record it sees must be intact and
  // attributed to a real worker.
  uint64_t consumed = 0;
  while (running.load(std::memory_order_acquire) > 0) {
    for (const TraceRecord& r : hub.Drain()) {
      ASSERT_TRUE(CheckRecord(r));
      ASSERT_LT(r.worker, kWorkers);
      ++consumed;
    }
    std::this_thread::yield();
  }
  for (std::thread& t : workers) {
    t.join();
  }
  for (const TraceRecord& r : hub.Drain()) {
    ASSERT_TRUE(CheckRecord(r));
    ++consumed;
  }
  EXPECT_EQ(hub.records(), kWorkers * kPerWorker);
  EXPECT_EQ(consumed + hub.drops(), kWorkers * kPerWorker);
}

}  // namespace
}  // namespace pf::trace
