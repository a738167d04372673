// Lock-free per-worker flight-recorder ring (DESIGN.md §5e, §5j).
//
// An ftrace-style flight recorder: one producer (the worker thread emitting
// records) and at most one consumer (a pftrace follower or a post-run dump).
// The producer NEVER blocks and never fails: when the ring is full it evicts
// the oldest unread record (advancing the read cursor with a CAS against the
// consumer) and counts the loss in `drops`. A dump therefore always holds
// the most recent `capacity` records — the useful end of the stream — and
// the drop counter says exactly how much history was lost, which is the
// tracing contract the ISSUE specifies (a counter instead of blocking).
//
// Memory safety under concurrent eviction uses a per-slot sequence number
// (seqlock-style, in the Vyukov bounded-queue tradition): slot i holding
// record position `pos` carries seq = 2*pos + 2; the producer marks the slot
// 2*pos + 1 (odd) while rewriting it. A consumer copies the payload, then
// revalidates the sequence — if the producer lapped it mid-copy, the copy is
// discarded and the cursor reloaded. Payload words are relaxed atomics, so
// the validated-discard pattern is race-free by the letter of the memory
// model (TSan-clean), not just in practice; on x86 the stores compile to
// plain moves.
//
// The ring is a template over the record type: TraceRecord (64 bytes) for
// the tracing flight recorder, audit::AuditRecord (128 bytes) for the
// security-event pipeline. Any trivially-copyable record whose size is a
// multiple of 8 works.
//
// LaneRings below is the per-worker ring set both hubs are built on: one
// ring per worker lane, allocated on the lane's first push, plus a shared
// overflow ring. Each hub owns its own instance, so a verbose trace stream
// can never evict audit records (the audit conservation contract).
#ifndef SRC_TRACE_RING_H_
#define SRC_TRACE_RING_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <type_traits>
#include <vector>

#include "src/trace/record.h"

namespace pf::trace {

inline constexpr size_t kDefaultRingCapacity = 4096;  // records per worker

template <typename Record>
class RecordRing {
  static_assert(std::is_trivially_copyable_v<Record>,
                "ring records are copied word-by-word through atomics");
  static_assert(sizeof(Record) % sizeof(uint64_t) == 0,
                "ring records must be a whole number of 64-bit words");
  static constexpr size_t kWords = sizeof(Record) / sizeof(uint64_t);

 public:
  // Capacity is rounded up to a power of two (index masking).
  explicit RecordRing(size_t capacity = kDefaultRingCapacity) {
    size_t cap = 16;
    while (cap < capacity) {
      cap <<= 1;
    }
    capacity_ = cap;
    mask_ = cap - 1;
    slots_ = std::make_unique<Slot[]>(cap);
  }

  // Producer side. Single producer; returns false when the record displaced
  // an unread one (which is also counted in drops()).
  bool Push(const Record& rec) {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    uint64_t tail = tail_.load(std::memory_order_acquire);
    bool evicted = false;
    if (head - tail >= capacity_) {
      // Full: retire the oldest unread record. The CAS races only with the
      // consumer's own cursor advance — whichever side wins, there is room.
      if (tail_.compare_exchange_strong(tail, tail + 1, std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
        drops_.fetch_add(1, std::memory_order_relaxed);
        evicted = true;
      }
    }
    Slot& slot = slots_[head & mask_];
    slot.seq.store(2 * head + 1, std::memory_order_release);  // writing marker
    uint64_t words[kWords];
    std::memcpy(words, &rec, sizeof(rec));
    for (size_t i = 0; i < kWords; ++i) {
      slot.words[i].store(words[i], std::memory_order_relaxed);
    }
    slot.seq.store(2 * head + 2, std::memory_order_release);  // complete
    head_.store(head + 1, std::memory_order_release);
    pushed_.fetch_add(1, std::memory_order_relaxed);
    return !evicted;
  }

  // Consumer side. Single consumer; returns false when the ring is empty.
  bool Pop(Record* out) {
    for (;;) {
      uint64_t tail = tail_.load(std::memory_order_acquire);
      const uint64_t head = head_.load(std::memory_order_acquire);
      if (tail == head) {
        return false;
      }
      Slot& slot = slots_[tail & mask_];
      const uint64_t seq = slot.seq.load(std::memory_order_acquire);
      if (seq != 2 * tail + 2) {
        // The producer lapped this slot (and already advanced the cursor
        // past it); reload the cursor and try the new oldest record.
        continue;
      }
      uint64_t words[kWords];
      for (size_t i = 0; i < kWords; ++i) {
        words[i] = slot.words[i].load(std::memory_order_relaxed);
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.seq.load(std::memory_order_relaxed) != seq) {
        continue;  // overwritten mid-copy: the copy is garbage, discard it
      }
      if (tail_.compare_exchange_strong(tail, tail + 1, std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
        std::memcpy(out, words, sizeof(*out));
        return true;
      }
      // The producer evicted the record we just copied; it counts as a drop
      // (the producer bumped the counter), so fall through and retry.
    }
  }

  // Records lost to eviction (never consumed).
  uint64_t drops() const { return drops_.load(std::memory_order_relaxed); }
  // Records ever pushed (consumed + pending + dropped).
  uint64_t pushed() const { return pushed_.load(std::memory_order_relaxed); }
  size_t capacity() const { return capacity_; }
  // Unread records (approximate under concurrency).
  size_t size() const {
    const uint64_t head = head_.load(std::memory_order_acquire);
    const uint64_t tail = tail_.load(std::memory_order_acquire);
    return head >= tail ? static_cast<size_t>(head - tail) : 0;
  }

 private:
  struct Slot {
    std::atomic<uint64_t> seq{0};
    std::array<std::atomic<uint64_t>, kWords> words{};
  };

  std::unique_ptr<Slot[]> slots_;
  size_t capacity_ = 0;
  size_t mask_ = 0;

  // Producer-written cursor on its own line; the shared read cursor and the
  // loss counters on another, so a follower never bounces the producer line.
  alignas(64) std::atomic<uint64_t> head_{0};
  alignas(64) std::atomic<uint64_t> tail_{0};
  std::atomic<uint64_t> drops_{0};
  std::atomic<uint64_t> pushed_{0};
};

using TraceRing = RecordRing<TraceRecord>;

// One RecordRing per worker lane (core::kWorkerLanes) plus one shared ring
// for the overflow lane (index kLanes), whose producers serialize on a
// mutex. Rings are heap-allocated on a lane's first push (engines are
// created by the dozen in tests; reserving 65 rings up front would dwarf the
// engine itself): allocation takes a mutex once per lane, after that the
// pointer is an acquire load from an atomic slot.
template <typename Record>
class LaneRings {
 public:
  using Ring = RecordRing<Record>;
  static constexpr size_t kLanes = 64;

  explicit LaneRings(size_t capacity = kDefaultRingCapacity) : capacity_(capacity) {}
  ~LaneRings() {
    for (auto& slot : rings_) {
      delete slot.load(std::memory_order_acquire);
    }
  }
  LaneRings(const LaneRings&) = delete;
  LaneRings& operator=(const LaneRings&) = delete;

  // Capacity of the rings allocated from now on; existing rings keep theirs.
  void set_capacity(size_t capacity) {
    std::lock_guard<std::mutex> lock(alloc_mu_);
    capacity_ = capacity;
  }

  // Publishes into `lane`'s ring. The caller must own that lane (rings are
  // SPSC); lanes of kLanes or above share the overflow ring. Never fails: a
  // full ring evicts its oldest record and counts a drop.
  void Push(size_t lane, const Record& rec) {
    if (lane >= kLanes) {
      std::lock_guard<std::mutex> lock(overflow_mu_);
      RingFor(kLanes)->Push(rec);
      return;
    }
    RingFor(lane)->Push(rec);
  }

  // The ring of `lane` (kLanes: the overflow ring), or null if that lane
  // never pushed.
  Ring* ring(size_t lane) const {
    return lane < kRings ? rings_[lane].load(std::memory_order_acquire) : nullptr;
  }

  // Records ever pushed / evicted unread, summed over every ring.
  uint64_t pushed() const { return Sum(&Ring::pushed); }
  uint64_t drops() const { return Sum(&Ring::drops); }

  // Pops every pending record from every ring, merged in timestamp order.
  // The caller is the (single) consumer of each ring.
  std::vector<Record> Drain() {
    std::vector<Record> out;
    for (size_t lane = 0; lane < kRings; ++lane) {
      if (Ring* r = ring(lane)) {
        Record rec;
        while (r->Pop(&rec)) {
          out.push_back(rec);
        }
      }
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const Record& a, const Record& b) { return a.ts_ns < b.ts_ns; });
    return out;
  }

 private:
  static constexpr size_t kRings = kLanes + 1;

  Ring* RingFor(size_t lane) {
    Ring* r = rings_[lane].load(std::memory_order_acquire);
    if (r != nullptr) {
      return r;
    }
    std::lock_guard<std::mutex> lock(alloc_mu_);
    r = rings_[lane].load(std::memory_order_acquire);
    if (r == nullptr) {  // no other producer won the race
      r = new Ring(capacity_);
      rings_[lane].store(r, std::memory_order_release);
    }
    return r;
  }

  uint64_t Sum(uint64_t (Ring::*counter)() const) const {
    uint64_t total = 0;
    for (size_t lane = 0; lane < kRings; ++lane) {
      if (const Ring* r = ring(lane)) {
        total += (r->*counter)();
      }
    }
    return total;
  }

  std::array<std::atomic<Ring*>, kRings> rings_{};
  size_t capacity_;         // guarded by alloc_mu_
  std::mutex alloc_mu_;     // serializes first-push ring allocation
  std::mutex overflow_mu_;  // the overflow ring's producers take turns
};

}  // namespace pf::trace

#endif  // SRC_TRACE_RING_H_
