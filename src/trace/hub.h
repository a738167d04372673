// TraceHub: the per-engine tracing control plane (DESIGN.md §5e).
//
// One hub owns everything observability-related that hangs off an Engine:
// the atomic enable state (an event bitmask plus a per-op filter), the
// lazily-allocated per-worker rings, and the always-on latency histograms.
// The hot-path contract is:
//
//   * tracing compiled out (PF_NO_TRACE)  -> ShouldTrace() is constexpr
//     false and every emission site is dead-code-eliminated;
//   * compiled in, disabled (the default) -> one relaxed load of the event
//     mask per tracepoint, nothing else;
//   * enabled                             -> gate, fill a 64-byte record on
//     the stack, eight relaxed stores into the worker's private ring.
//
// Rings are heap-allocated on first emission from a worker (engines are
// created by the dozen in tests; reserving 64 x 256 KiB up front would
// dwarf the engine itself). Allocation takes a mutex once per worker per
// hub; after that the pointer is a relaxed load from an atomic slot.
#ifndef SRC_TRACE_HUB_H_
#define SRC_TRACE_HUB_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/trace/record.h"
#include "src/trace/ring.h"

namespace pf::trace {

// Power-of-two latency histogram: bucket i counts samples whose ns value
// has bit width i (bucket 0: 0 ns, bucket 1: 1 ns, bucket 2: 2-3 ns, ...,
// bucket 31: >= 2^30 ns), plus an exact sum/count for mean computation.
// All relaxed atomics — a histogram is a statistic, not a synchronization
// structure.
class LatencyHistogram {
 public:
  static constexpr size_t kBuckets = 32;

  void Record(uint64_t ns) {
    const size_t b = BucketOf(ns);
    buckets_[b].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(ns, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }

  static size_t BucketOf(uint64_t ns) {
    const size_t w = static_cast<size_t>(std::bit_width(ns));
    return w >= kBuckets ? kBuckets - 1 : w;
  }
  // Inclusive upper bound of bucket i in ns (2^i - 1); the last bucket is
  // unbounded and reports ~0.
  static uint64_t BucketBound(size_t i) {
    return i + 1 >= kBuckets ? ~0ull : (1ull << i) - 1;
  }

  uint64_t bucket(size_t i) const { return buckets_[i].load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

  void Reset() {
    for (auto& b : buckets_) {
      b.store(0, std::memory_order_relaxed);
    }
    sum_.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> count_{0};
};

class TraceHub {
 public:
  // One ring per worker lane (core::kWorkerLanes), plus one shared ring for
  // the overflow lane (worker index kMaxWorkers) whose producers serialize
  // on a mutex.
  static constexpr size_t kMaxWorkers = 64;
  static constexpr size_t kMaxOps = 64;      // op filter is one uint64

  TraceHub() = default;
  explicit TraceHub(size_t ring_capacity) : ring_capacity_(ring_capacity) {}
  ~TraceHub();
  TraceHub(const TraceHub&) = delete;
  TraceHub& operator=(const TraceHub&) = delete;

  // --- control plane ---

  // Enables record emission for the events in `mask` (EventBit ORs;
  // kAllEvents for everything). Does not touch the op filter.
  void Enable(uint32_t event_mask = kAllEvents) {
    events_.store(event_mask & kAllEvents, std::memory_order_relaxed);
  }
  void Disable() { events_.store(0, std::memory_order_relaxed); }
  uint32_t events() const { return events_.load(std::memory_order_relaxed); }
  bool enabled() const { return events() != 0; }

  // Per-op filter: bit i admits op i. Defaults to all ops.
  void SetOpFilter(uint64_t mask) { op_filter_.store(mask, std::memory_order_relaxed); }
  uint64_t op_filter() const { return op_filter_.load(std::memory_order_relaxed); }

  // --- hot path ---

  // The tracepoint gate. Folds to constant false when compiled out; one or
  // two relaxed loads otherwise.
  bool ShouldTrace(Event e, uint32_t op) const {
    if constexpr (!kTraceCompiledIn) {
      return false;
    }
    const uint32_t ev = events_.load(std::memory_order_relaxed);
    if ((ev & EventBit(e)) == 0) {
      return false;
    }
    return ((op_filter_.load(std::memory_order_relaxed) >> (op & (kMaxOps - 1))) & 1) != 0;
  }

  // Publishes a record into the producing worker's ring (rec.worker picks
  // the ring; the caller must own that worker lane — rings are SPSC). A
  // worker index of kMaxWorkers or above goes to the shared overflow ring.
  // Never blocks on the lane path; a full ring evicts its oldest record and
  // counts a drop.
  void Emit(const TraceRecord& rec) {
    if constexpr (!kTraceCompiledIn) {
      return;
    }
    const size_t w = rec.worker;
    if (w >= kMaxWorkers) {
      EmitOverflow(rec);
      return;
    }
    TraceRing* ring = rings_[w].load(std::memory_order_acquire);
    if (ring == nullptr) {
      ring = AllocateRing(w);
    }
    ring->Push(rec);
  }

  // Always-on latency attribution (cheap enough to run whenever tracing is
  // enabled at all): one histogram per (op, decision path).
  void RecordLatency(uint32_t op, Path path, uint64_t ns) {
    if constexpr (!kTraceCompiledIn) {
      return;
    }
    histograms_[op & (kMaxOps - 1)][static_cast<size_t>(path)].Record(ns);
  }

  // --- consumer / exposition side ---

  // The ring of worker `w` (kMaxWorkers: the overflow ring), or null if
  // that worker never emitted.
  TraceRing* ring(size_t w) const {
    return w < kRings ? rings_[w].load(std::memory_order_acquire) : nullptr;
  }

  const LatencyHistogram& histogram(uint32_t op, Path path) const {
    return histograms_[op & (kMaxOps - 1)][static_cast<size_t>(path)];
  }

  // Records lost across all rings (the ISSUE's `trace_drops`).
  uint64_t drops() const;
  // Records ever emitted across all rings.
  uint64_t records() const;

  // Pops every pending record from every ring, merged in timestamp order.
  // The caller is the (single) consumer of each ring.
  std::vector<TraceRecord> Drain();

  void ResetHistograms();

 private:
  static constexpr size_t kRings = kMaxWorkers + 1;

  TraceRing* AllocateRing(size_t w);
  void EmitOverflow(const TraceRecord& rec);

  std::atomic<uint32_t> events_{0};
  std::atomic<uint64_t> op_filter_{~0ull};
  size_t ring_capacity_ = kDefaultRingCapacity;

  std::array<std::atomic<TraceRing*>, kRings> rings_{};
  std::mutex alloc_mu_;     // serializes first-emission ring allocation
  std::mutex overflow_mu_;  // the overflow ring's producers take turns

  std::array<std::array<LatencyHistogram, kPathCount>, kMaxOps> histograms_{};
};

}  // namespace pf::trace

#endif  // SRC_TRACE_HUB_H_
