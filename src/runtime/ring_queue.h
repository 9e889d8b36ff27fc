// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// A bounded lock-free ring queue (Vyukov's bounded MPMC design: one
// sequence counter per slot) used as the per-shard event channel of the
// sharded runtime. The runtime uses it in SPSC form — the router thread is
// the only producer and the shard worker the only consumer — but the slot
// sequencing makes every operation safe under arbitrary producer/consumer
// counts, which is what the stress test exercises.
//
// Blocking semantics: Push spins (with yields) while the queue is full and
// fails only once the queue is closed; Pop spins while the queue is empty
// and fails once the queue is closed *and* drained, so a consumer always
// sees every element pushed before Close().
//
// A plain blocking Push can spin forever when the consumer thread dies
// without closing the queue. PushFor is the bounded variant: it gives up
// after a deadline (or immediately once the queue is closed) so the
// producer can check consumer liveness and recover instead of deadlocking
// (the sharded runtime turns persistent unavailability into
// Status::Unavailable).

#ifndef CEPSHED_RUNTIME_RING_QUEUE_H_
#define CEPSHED_RUNTIME_RING_QUEUE_H_

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

namespace cepshed {

/// \brief Outcome of a bounded-wait queue push.
enum class QueuePushResult : int {
  kOk = 0,       ///< element enqueued
  kClosed = 1,   ///< queue closed before the element could be enqueued
  kTimedOut = 2  ///< queue stayed full past the deadline (consumer stalled
                 ///< or dead); the element was not consumed
};

template <typename T>
class RingQueue {
 public:
  /// Constructs a queue holding at most `capacity` elements (rounded up to
  /// a power of two, minimum 2).
  explicit RingQueue(size_t capacity) {
    size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    slots_ = std::vector<Slot>(cap);
    mask_ = cap - 1;
    for (size_t i = 0; i < cap; ++i) {
      slots_[i].sequence.store(i, std::memory_order_relaxed);
    }
  }

  RingQueue(const RingQueue&) = delete;
  RingQueue& operator=(const RingQueue&) = delete;

  /// Non-blocking push; returns false when the queue is full or closed.
  bool TryPush(T value) { return TryPushRef(value); }

  /// Non-blocking pop; returns false when the queue is empty.
  bool TryPop(T* out) {
    size_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& slot = slots_[pos & mask_];
      const size_t seq = slot.sequence.load(std::memory_order_acquire);
      const intptr_t diff =
          static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos + 1);
      if (diff == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          *out = std::move(slot.value);
          slot.value = T();
          slot.sequence.store(pos + mask_ + 1, std::memory_order_release);
          return true;
        }
      } else if (diff < 0) {
        return false;  // empty: slot not yet published by a producer
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Non-blocking batch push: enqueues a prefix of values[0..n), claiming
  /// a contiguous run of free slots with a single CAS on the tail.
  /// Returns the count enqueued — short (possibly 0) when the queue fills
  /// or is closed. Moves only the elements actually enqueued; the caller
  /// still owns the rest.
  size_t TryPushBatch(T* values, size_t n) {
    if (n == 0) return 0;
    size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      if (closed_.load(std::memory_order_relaxed)) return 0;
      // Count consecutive free slots starting at pos. A slot is free for
      // this lap when its sequence equals its position; sequences only
      // grow, so slots observed free stay free until a producer claims
      // them — and claiming moves the tail, which fails our CAS.
      size_t k = 0;
      while (k < n) {
        const Slot& slot = slots_[(pos + k) & mask_];
        const size_t seq = slot.sequence.load(std::memory_order_acquire);
        if (static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos + k) != 0)
          break;
        ++k;
      }
      if (k == 0) {
        const size_t seq =
            slots_[pos & mask_].sequence.load(std::memory_order_acquire);
        if (static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos) < 0) {
          return 0;  // full: slot still holds an unconsumed element
        }
        pos = tail_.load(std::memory_order_relaxed);  // raced; reload
        continue;
      }
      if (tail_.compare_exchange_weak(pos, pos + k,
                                      std::memory_order_relaxed)) {
        for (size_t j = 0; j < k; ++j) {
          Slot& slot = slots_[(pos + j) & mask_];
          slot.value = std::move(values[j]);
          slot.sequence.store(pos + j + 1, std::memory_order_release);
        }
        return k;
      }
    }
  }

  /// Non-blocking batch pop: dequeues up to `max` elements into
  /// out[0..). Returns the count dequeued (0 when the queue is empty).
  size_t TryPopBatch(T* out, size_t max) {
    if (max == 0) return 0;
    size_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      // Count consecutive published slots starting at pos.
      size_t k = 0;
      while (k < max) {
        const Slot& slot = slots_[(pos + k) & mask_];
        const size_t seq = slot.sequence.load(std::memory_order_acquire);
        if (static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos + k + 1) !=
            0)
          break;
        ++k;
      }
      if (k == 0) {
        const size_t seq =
            slots_[pos & mask_].sequence.load(std::memory_order_acquire);
        if (static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos + 1) < 0) {
          return 0;  // empty: slot not yet published by a producer
        }
        pos = head_.load(std::memory_order_relaxed);  // raced; reload
        continue;
      }
      if (head_.compare_exchange_weak(pos, pos + k,
                                      std::memory_order_relaxed)) {
        for (size_t j = 0; j < k; ++j) {
          Slot& slot = slots_[(pos + j) & mask_];
          out[j] = std::move(slot.value);
          slot.value = T();
          slot.sequence.store(pos + j + mask_ + 1, std::memory_order_release);
        }
        return k;
      }
    }
  }

  /// Blocking batch pop: waits until at least one element is available,
  /// then dequeues up to `max`. Returns 0 iff the queue is closed and
  /// fully drained (mirrors Pop).
  size_t PopBatch(T* out, size_t max) {
    Backoff backoff;
    for (;;) {
      const size_t k = TryPopBatch(out, max);
      if (k != 0) return k;
      if (closed_.load(std::memory_order_acquire)) {
        // Drain anything published between the last TryPopBatch and the
        // close.
        return TryPopBatch(out, max);
      }
      backoff.Pause();
    }
  }

  /// Blocking push: spins/yields while full. Returns false iff the queue
  /// was closed before the element could be enqueued.
  bool Push(T value) {
    return PushFor(std::move(value), -1) == QueuePushResult::kOk;
  }

  /// Bounded-wait push (see PushForRef). Taking the element by value, a
  /// kTimedOut/kClosed result leaves the caller's move-only payload
  /// consumed; callers that must retry the *same* element use PushForRef.
  QueuePushResult PushFor(T value, int64_t timeout_us) {
    return PushForRef(value, timeout_us);
  }

  /// Bounded-wait push: spins/yields while full for at most `timeout_us`
  /// microseconds (negative = forever). Moves from `value` only on kOk; on
  /// kTimedOut the element was not enqueued and the caller still owns it —
  /// typically it checks whether the consumer is alive and either retries
  /// with the same element or abandons the queue.
  QueuePushResult PushForRef(T& value, int64_t timeout_us) {
    // TryPushRef moves from `value` only on success, so a full-queue retry
    // re-offers the original element rather than a moved-from husk.
    Backoff backoff;
    // The deadline is materialized lazily: the uncontended fast path never
    // reads the clock.
    std::chrono::steady_clock::time_point deadline{};
    bool have_deadline = false;
    int pauses = 0;
    while (!TryPushRef(value)) {
      if (closed_.load(std::memory_order_acquire)) return QueuePushResult::kClosed;
      if (timeout_us >= 0 && ++pauses >= kPausesPerClockCheck) {
        pauses = 0;
        const auto now = std::chrono::steady_clock::now();
        if (!have_deadline) {
          deadline = now + std::chrono::microseconds(timeout_us);
          have_deadline = true;
        } else if (now >= deadline) {
          return QueuePushResult::kTimedOut;
        }
      }
      backoff.Pause();
    }
    return QueuePushResult::kOk;
  }

  /// Blocking pop: spins/yields while empty. Returns false iff the queue
  /// is closed and fully drained.
  bool Pop(T* out) {
    Backoff backoff;
    while (!TryPop(out)) {
      if (closed_.load(std::memory_order_acquire)) {
        // Drain anything published between the last TryPop and the close.
        return TryPop(out);
      }
      backoff.Pause();
    }
    return true;
  }

  /// Marks the queue closed: pending Pops drain the remaining elements and
  /// then fail; Pushes fail immediately.
  void Close() { closed_.store(true, std::memory_order_release); }

  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Power-of-two slot count.
  size_t capacity() const { return mask_ + 1; }

  /// Approximate occupancy: an advisory signal, racy by nature. Exact when
  /// producer and consumer are quiescent; under concurrency it may lag
  /// either side. The sharded runtime's router flushes a staged batch when
  /// this reads 0, so a stale read can only delay that flush (to the batch
  /// cap, a resize barrier or stream end) or bring it forward — it never
  /// loses or reorders an element, which only the push/pop paths decide.
  size_t SizeApprox() const {
    const size_t tail = tail_.load(std::memory_order_relaxed);
    const size_t head = head_.load(std::memory_order_relaxed);
    return tail >= head ? tail - head : 0;
  }

 private:
  /// Push core; consumes `value` only when it actually lands in a slot.
  bool TryPushRef(T& value) {
    size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      if (closed_.load(std::memory_order_relaxed)) return false;
      Slot& slot = slots_[pos & mask_];
      const size_t seq = slot.sequence.load(std::memory_order_acquire);
      const intptr_t diff =
          static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos);
      if (diff == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          slot.value = std::move(value);
          slot.sequence.store(pos + 1, std::memory_order_release);
          return true;
        }
      } else if (diff < 0) {
        return false;  // full: slot still holds an unconsumed element
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  struct Slot {
    std::atomic<size_t> sequence{0};
    T value{};
  };

  /// Spin-then-yield backoff: short busy loops keep SPSC handoff latency
  /// low; yielding keeps an oversubscribed box (more shards than cores)
  /// from livelocking.
  class Backoff {
   public:
    void Pause() {
      if (++spins_ < 64) return;
      std::this_thread::yield();
    }

   private:
    int spins_ = 0;
  };

  static constexpr size_t kCacheLine = 64;
  /// Clock reads are amortized over this many backoff pauses; with the
  /// 64-spin-then-yield backoff a check happens at least once per yield
  /// cycle, keeping timeout precision within a few scheduler quanta.
  static constexpr int kPausesPerClockCheck = 64;

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  alignas(kCacheLine) std::atomic<size_t> head_{0};
  alignas(kCacheLine) std::atomic<size_t> tail_{0};
  alignas(kCacheLine) std::atomic<bool> closed_{false};
};

}  // namespace cepshed

#endif  // CEPSHED_RUNTIME_RING_QUEUE_H_
