// TraceRing unit tests: wraparound, overflow accounting (drops increment,
// oldest-record eviction), and the hub's enable/filter gating — the
// single-threaded half of the tracing contract. The concurrent half lives
// in trace_concurrent_test.cc (label: stress).
#include <gtest/gtest.h>

#include <vector>

#include "src/trace/hub.h"
#include "src/trace/record.h"
#include "src/trace/ring.h"

namespace pf::trace {
namespace {

TraceRecord Rec(uint64_t n) {
  TraceRecord r;
  r.ts_ns = n;
  r.subject_sid = static_cast<uint32_t>(n);
  r.event = static_cast<uint8_t>(Event::kDecision);
  return r;
}

TEST(TraceRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(TraceRing(1).capacity(), 16u);   // floor
  EXPECT_EQ(TraceRing(16).capacity(), 16u);
  EXPECT_EQ(TraceRing(17).capacity(), 32u);
  EXPECT_EQ(TraceRing(4096).capacity(), 4096u);
}

TEST(TraceRingTest, FifoWithinCapacity) {
  TraceRing ring(16);
  for (uint64_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(ring.Push(Rec(i)));
  }
  EXPECT_EQ(ring.size(), 10u);
  TraceRecord out;
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(ring.Pop(&out));
    EXPECT_EQ(out.ts_ns, i);
    EXPECT_EQ(out.subject_sid, i);
  }
  EXPECT_FALSE(ring.Pop(&out));
  EXPECT_EQ(ring.drops(), 0u);
  EXPECT_EQ(ring.pushed(), 10u);
}

TEST(TraceRingTest, WraparoundPreservesOrderAcrossManyLaps) {
  TraceRing ring(16);
  TraceRecord out;
  uint64_t next_expected = 0;
  for (uint64_t i = 0; i < 1000; ++i) {
    ring.Push(Rec(i));
    if (i % 3 == 0) {
      ASSERT_TRUE(ring.Pop(&out));
      EXPECT_GE(out.ts_ns, next_expected);
      next_expected = out.ts_ns + 1;
    }
  }
  // Drain the rest; order must stay monotone.
  while (ring.Pop(&out)) {
    EXPECT_GE(out.ts_ns, next_expected);
    next_expected = out.ts_ns + 1;
  }
  EXPECT_EQ(ring.pushed(), 1000u);
}

TEST(TraceRingTest, OverflowEvictsOldestAndCountsDrops) {
  TraceRing ring(16);  // capacity exactly 16
  for (uint64_t i = 0; i < 16; ++i) {
    EXPECT_TRUE(ring.Push(Rec(i)));
  }
  // The next 4 pushes displace records 0..3.
  for (uint64_t i = 16; i < 20; ++i) {
    EXPECT_FALSE(ring.Push(Rec(i)));  // reports the displacement
  }
  EXPECT_EQ(ring.drops(), 4u);
  EXPECT_EQ(ring.size(), 16u);

  // What remains is the most recent window [4, 20), oldest first.
  TraceRecord out;
  for (uint64_t i = 4; i < 20; ++i) {
    ASSERT_TRUE(ring.Pop(&out));
    EXPECT_EQ(out.ts_ns, i);
  }
  EXPECT_FALSE(ring.Pop(&out));
  EXPECT_EQ(ring.drops(), 4u);  // popping does not drop
}

TEST(TraceRingTest, PayloadSurvivesEvictionIntact) {
  TraceRing ring(16);
  for (uint64_t i = 0; i < 64; ++i) {
    TraceRecord r = Rec(i);
    r.ept_ino = ~i;
    r.ept_offset = i * 3;
    r.chain_id = static_cast<int32_t>(i % 7);
    ring.Push(r);
  }
  TraceRecord out;
  size_t n = 0;
  while (ring.Pop(&out)) {
    EXPECT_EQ(out.ept_ino, ~out.ts_ns);
    EXPECT_EQ(out.ept_offset, out.ts_ns * 3);
    EXPECT_EQ(out.chain_id, static_cast<int32_t>(out.ts_ns % 7));
    ++n;
  }
  EXPECT_EQ(n, 16u);
  EXPECT_EQ(ring.drops(), 48u);
}

TEST(TraceHubTest, DisabledByDefaultAndGatesOnEventAndOp) {
  TraceHub hub;
  EXPECT_FALSE(hub.enabled());
  EXPECT_FALSE(hub.ShouldTrace(Event::kDecision, 0));

  hub.Enable(EventBit(Event::kDecision));
  if (!kTraceCompiledIn) {
    // Compiled out, the gate is constant false whatever the control plane
    // says.
    EXPECT_FALSE(hub.ShouldTrace(Event::kDecision, 0));
    return;
  }
  EXPECT_TRUE(hub.ShouldTrace(Event::kDecision, 0));
  EXPECT_FALSE(hub.ShouldTrace(Event::kRule, 0));

  hub.SetOpFilter(1ull << 5);
  EXPECT_FALSE(hub.ShouldTrace(Event::kDecision, 0));
  EXPECT_TRUE(hub.ShouldTrace(Event::kDecision, 5));

  hub.Disable();
  EXPECT_FALSE(hub.ShouldTrace(Event::kDecision, 5));
}

TEST(TraceHubTest, EmitRoutesByWorkerAndDrainMergesByTimestamp) {
  if (!kTraceCompiledIn) {
    GTEST_SKIP() << "tracing compiled out (PF_NO_TRACE)";
  }
  TraceHub hub;
  hub.set_ring_capacity(16);
  hub.Enable();
  TraceRecord a = Rec(100);
  a.worker = 0;
  TraceRecord b = Rec(50);
  b.worker = 3;
  TraceRecord c = Rec(75);
  c.worker = 3;
  hub.Emit(a);
  hub.Emit(b);
  hub.Emit(c);

  EXPECT_NE(hub.ring(0), nullptr);
  EXPECT_NE(hub.ring(3), nullptr);
  EXPECT_EQ(hub.ring(1), nullptr);  // never emitted -> never allocated
  EXPECT_EQ(hub.records(), 3u);

  std::vector<TraceRecord> all = hub.Drain();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].ts_ns, 50u);
  EXPECT_EQ(all[1].ts_ns, 75u);
  EXPECT_EQ(all[2].ts_ns, 100u);
  EXPECT_TRUE(hub.Drain().empty());
}

TEST(TraceHubTest, DropsAggregateAcrossRings) {
  if (!kTraceCompiledIn) {
    GTEST_SKIP() << "tracing compiled out (PF_NO_TRACE)";
  }
  TraceHub hub;
  hub.set_ring_capacity(16);
  hub.Enable();
  for (uint64_t i = 0; i < 20; ++i) {
    TraceRecord r = Rec(i);
    r.worker = 1;
    hub.Emit(r);
  }
  for (uint64_t i = 0; i < 18; ++i) {
    TraceRecord r = Rec(i);
    r.worker = 2;
    hub.Emit(r);
  }
  EXPECT_EQ(hub.drops(), 4u + 2u);
  EXPECT_EQ(hub.records(), 38u);
}

TEST(LatencyHistogramTest, PowerOfTwoBuckets) {
  EXPECT_EQ(LatencyHistogram::BucketOf(0), 0u);
  EXPECT_EQ(LatencyHistogram::BucketOf(1), 1u);
  EXPECT_EQ(LatencyHistogram::BucketOf(2), 2u);
  EXPECT_EQ(LatencyHistogram::BucketOf(3), 2u);
  EXPECT_EQ(LatencyHistogram::BucketOf(4), 3u);
  EXPECT_EQ(LatencyHistogram::BucketOf(~0ull), LatencyHistogram::kBuckets - 1);

  LatencyHistogram h;
  h.Record(0);
  h.Record(3);
  h.Record(3);
  h.Record(1024);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 0u + 3 + 3 + 1024);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.bucket(11), 1u);  // bit_width(1024) == 11

  // Bucket bounds are 2^i - 1 and cumulative-compatible (monotone).
  for (size_t i = 0; i + 2 < LatencyHistogram::kBuckets; ++i) {
    EXPECT_LT(LatencyHistogram::BucketBound(i), LatencyHistogram::BucketBound(i + 1));
  }
  EXPECT_EQ(LatencyHistogram::BucketBound(LatencyHistogram::kBuckets - 1), ~0ull);

  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
}

}  // namespace
}  // namespace pf::trace
