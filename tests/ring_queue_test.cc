// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// Tests of the bounded ring queue behind the sharded runtime: FIFO
// semantics, capacity/fullness behaviour, close-and-drain, the batch
// push/pop operations, and producer/consumer stress in the SPSC shape the
// runtime uses plus the MPMC shape the Vyukov slot-sequencing supports.

#include "src/runtime/ring_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <random>
#include <thread>
#include <vector>

namespace cepshed {
namespace {

TEST(RingQueueTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(RingQueue<int>(1).capacity(), 2u);
  EXPECT_EQ(RingQueue<int>(2).capacity(), 2u);
  EXPECT_EQ(RingQueue<int>(3).capacity(), 4u);
  EXPECT_EQ(RingQueue<int>(1000).capacity(), 1024u);
}

TEST(RingQueueTest, FifoOrderSingleThread) {
  RingQueue<int> q(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(q.TryPush(i));
  int out = -1;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(q.TryPop(&out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(q.TryPop(&out));
}

TEST(RingQueueTest, TryPushFailsWhenFull) {
  RingQueue<int> q(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.TryPush(i));
  EXPECT_FALSE(q.TryPush(99));
  int out = -1;
  ASSERT_TRUE(q.TryPop(&out));
  EXPECT_EQ(out, 0);
  EXPECT_TRUE(q.TryPush(99));
}

TEST(RingQueueTest, WrapAroundKeepsFifo) {
  RingQueue<int> q(4);
  int out = -1;
  for (int round = 0; round < 100; ++round) {
    EXPECT_TRUE(q.TryPush(2 * round));
    EXPECT_TRUE(q.TryPush(2 * round + 1));
    ASSERT_TRUE(q.TryPop(&out));
    EXPECT_EQ(out, 2 * round);
    ASSERT_TRUE(q.TryPop(&out));
    EXPECT_EQ(out, 2 * round + 1);
  }
}

// Quiescent SizeApprox is exact: the router's starvation flush reads 0 as
// "the worker has popped everything", so it must return to 0 after every
// drain — including once the positions have wrapped past the slot count.
TEST(RingQueueTest, SizeApproxIsExactWhenQuiescent) {
  RingQueue<int> q(8);
  EXPECT_EQ(q.SizeApprox(), 0u);
  std::array<int, 8> in{};
  std::array<int, 8> out{};
  for (int round = 0; round < 5; ++round) {
    // Offset by the round so the single pushes and the batch straddle the
    // ring's end on later rounds.
    for (int i = 0; i <= round % 3; ++i) {
      ASSERT_TRUE(q.TryPush(i));
      EXPECT_EQ(q.SizeApprox(), static_cast<size_t>(i + 1));
    }
    const size_t singles = static_cast<size_t>(round % 3 + 1);
    ASSERT_EQ(q.TryPushBatch(in.data(), 5), 5u);
    EXPECT_EQ(q.SizeApprox(), singles + 5);
    ASSERT_EQ(q.TryPopBatch(out.data(), 3), 3u);
    EXPECT_EQ(q.SizeApprox(), singles + 2);
    ASSERT_EQ(q.TryPopBatch(out.data(), out.size()), singles + 2);
    EXPECT_EQ(q.SizeApprox(), 0u);
  }
  // Fill to capacity with one batch claim, then drain one element at a time.
  ASSERT_EQ(q.TryPushBatch(in.data(), in.size()), in.size());
  EXPECT_EQ(q.SizeApprox(), q.capacity());
  int v = -1;
  for (size_t left = q.capacity(); left > 0; --left) {
    ASSERT_TRUE(q.TryPop(&v));
    EXPECT_EQ(q.SizeApprox(), left - 1);
  }
  EXPECT_EQ(q.SizeApprox(), 0u);
}

TEST(RingQueueTest, CloseDrainsThenFails) {
  RingQueue<int> q(8);
  EXPECT_TRUE(q.Push(1));
  EXPECT_TRUE(q.Push(2));
  q.Close();
  EXPECT_FALSE(q.Push(3));
  int out = -1;
  EXPECT_TRUE(q.Pop(&out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(q.Pop(&out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(q.Pop(&out));
}

TEST(RingQueueTest, PopUnblocksOnClose) {
  RingQueue<int> q(8);
  std::atomic<bool> done{false};
  std::thread consumer([&] {
    int out = -1;
    EXPECT_FALSE(q.Pop(&out));
    done.store(true);
  });
  // Give the consumer a moment to block on the empty queue, then close.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.Close();
  consumer.join();
  EXPECT_TRUE(done.load());
}

TEST(RingQueueTest, MoveOnlyPayload) {
  RingQueue<std::unique_ptr<int>> q(4);
  EXPECT_TRUE(q.Push(std::make_unique<int>(7)));
  std::unique_ptr<int> out;
  ASSERT_TRUE(q.Pop(&out));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 7);
}

TEST(RingQueueTest, SpscStressPreservesOrder) {
  constexpr int kCount = 200000;
  RingQueue<int> q(64);  // small capacity forces constant wrap + blocking
  std::vector<int> received;
  received.reserve(kCount);
  std::thread consumer([&] {
    int v = -1;
    while (q.Pop(&v)) received.push_back(v);
  });
  for (int i = 0; i < kCount; ++i) ASSERT_TRUE(q.Push(i));
  q.Close();
  consumer.join();
  ASSERT_EQ(received.size(), static_cast<size_t>(kCount));
  for (int i = 0; i < kCount; ++i) ASSERT_EQ(received[static_cast<size_t>(i)], i);
}

TEST(RingQueueTest, BlockingPushRetriesPreserveMoveOnlyPayload) {
  // A tiny queue guarantees blocking Push has to retry constantly. With a
  // move-only payload, a Push that moves from its argument on a *failed*
  // attempt would deliver nulls (the bug class this pins down).
  constexpr int kCount = 50000;
  RingQueue<std::unique_ptr<int>> q(2);
  std::vector<int> received;
  received.reserve(kCount);
  std::thread consumer([&] {
    std::unique_ptr<int> v;
    while (q.Pop(&v)) {
      ASSERT_NE(v, nullptr) << "Push delivered a moved-from element";
      received.push_back(*v);
    }
  });
  for (int i = 0; i < kCount; ++i) ASSERT_TRUE(q.Push(std::make_unique<int>(i)));
  q.Close();
  consumer.join();
  ASSERT_EQ(received.size(), static_cast<size_t>(kCount));
  for (int i = 0; i < kCount; ++i) ASSERT_EQ(received[static_cast<size_t>(i)], i);
}

TEST(RingQueueTest, PushForTimesOutOnAFullQueueWithoutConsumingTheValue) {
  RingQueue<std::unique_ptr<int>> q(2);
  ASSERT_TRUE(q.Push(std::make_unique<int>(0)));
  ASSERT_TRUE(q.Push(std::make_unique<int>(1)));
  // Nobody pops: the bounded wait must expire instead of spinning forever
  // (the dead-consumer detection path of the sharded router)...
  auto value = std::make_unique<int>(2);
  EXPECT_EQ(q.PushForRef(value, 2000), QueuePushResult::kTimedOut);
  // ...and a failed push must not have moved from the argument, so the
  // caller can retry with the same element.
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(*value, 2);

  std::unique_ptr<int> out;
  ASSERT_TRUE(q.TryPop(&out));
  EXPECT_EQ(*out, 0);
  EXPECT_EQ(q.PushForRef(value, 2000), QueuePushResult::kOk);
  EXPECT_EQ(value, nullptr);  // consumed on success
}

TEST(RingQueueTest, PushForReportsClosedImmediately) {
  RingQueue<int> q(4);
  q.Close();
  EXPECT_EQ(q.PushFor(7, 2000), QueuePushResult::kClosed);
  // Also when the queue fills up and is closed mid-wait.
  RingQueue<int> full(2);
  ASSERT_TRUE(full.Push(1));
  ASSERT_TRUE(full.Push(2));
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    full.Close();
  });
  EXPECT_EQ(full.PushFor(3, -1), QueuePushResult::kClosed);  // unbounded wait
  closer.join();
}

TEST(RingQueueTest, PushForSucceedsOnceAConsumerFreesASlot) {
  RingQueue<int> q(2);
  ASSERT_TRUE(q.Push(1));
  ASSERT_TRUE(q.Push(2));
  std::thread consumer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    int out = -1;
    ASSERT_TRUE(q.Pop(&out));
  });
  // Generous deadline: the push lands as soon as the pop frees a slot.
  EXPECT_EQ(q.PushFor(3, 5'000'000), QueuePushResult::kOk);
  consumer.join();
}

TEST(RingQueueTest, MpmcStressLosesNothing) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 40000;
  RingQueue<int> q(128);
  std::vector<std::vector<int>> received(kConsumers);
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&, c] {
      int v = -1;
      while (q.Pop(&v)) received[static_cast<size_t>(c)].push_back(v);
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.Push(p * kPerProducer + i));
      }
    });
  }
  for (auto& t : producers) t.join();
  q.Close();
  for (auto& t : consumers) t.join();

  std::vector<int> all;
  for (const auto& r : received) all.insert(all.end(), r.begin(), r.end());
  ASSERT_EQ(all.size(), static_cast<size_t>(kProducers * kPerProducer));
  std::sort(all.begin(), all.end());
  for (int i = 0; i < kProducers * kPerProducer; ++i) {
    ASSERT_EQ(all[static_cast<size_t>(i)], i);  // every element exactly once
  }
  // Per-producer subsequences must stay FIFO within one consumer only under
  // SPSC; under MPMC only global multiset integrity is guaranteed.
}

TEST(RingQueueTest, SealDrainStressAtTheCapacityBoundary) {
  // The elastic-reshard migration protocol seals a donor (producers stop
  // offering), then drains the ring to empty before touching engine state.
  // This stresses exactly that handoff on a tiny ring, so the seal lands
  // while the queue is full, producers are parked mid-PushFor, and the
  // drain races slot reuse at the wrap boundary. Every element whose push
  // succeeded must be observed exactly once, in per-producer FIFO order —
  // a miss here would surface in the runtime as a lost or duplicated
  // event across a resize barrier.
  constexpr int kRounds = 8;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  for (int round = 0; round < kRounds; ++round) {
    RingQueue<uint64_t> queue(8);  // tiny: every push contends with wrap
    std::atomic<bool> seal{false};
    std::array<std::atomic<int>, kProducers> pushed{};
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        for (int i = 0; i < kPerProducer; ++i) {
          uint64_t value = static_cast<uint64_t>(p) << 32 |
                           static_cast<uint32_t>(i);
          QueuePushResult result;
          do {
            if (seal.load(std::memory_order_acquire)) return;
            result = queue.PushFor(value, 100);
          } while (result == QueuePushResult::kTimedOut);
          if (result != QueuePushResult::kOk) return;
          pushed[static_cast<size_t>(p)].fetch_add(1,
                                                   std::memory_order_release);
        }
      });
    }

    // Consume roughly half the stream concurrently (capacity 8 guarantees
    // producers cannot run ahead, so this loop always terminates), then
    // seal mid-flight.
    std::vector<uint64_t> consumed;
    const size_t half = kProducers * kPerProducer / 2;
    while (consumed.size() < half) {
      uint64_t v = 0;
      if (queue.TryPop(&v)) consumed.push_back(v);
    }
    seal.store(true, std::memory_order_release);
    for (auto& t : producers) t.join();

    // Drain to empty: the barrier guarantee is that after the join,
    // everything successfully pushed is poppable with no residue.
    uint64_t v = 0;
    while (queue.TryPop(&v)) consumed.push_back(v);
    EXPECT_FALSE(queue.TryPop(&v));

    std::array<int, kProducers> next{};
    for (uint64_t val : consumed) {
      const size_t p = static_cast<size_t>(val >> 32);
      const int i = static_cast<int>(val & 0xffffffffu);
      ASSERT_LT(p, static_cast<size_t>(kProducers));
      EXPECT_EQ(i, next[p]++) << "round " << round << " producer " << p;
    }
    size_t total = 0;
    for (int p = 0; p < kProducers; ++p) {
      EXPECT_EQ(next[static_cast<size_t>(p)],
                pushed[static_cast<size_t>(p)].load())
          << "round " << round << " producer " << p;
      total += static_cast<size_t>(next[static_cast<size_t>(p)]);
    }
    EXPECT_EQ(consumed.size(), total);
  }
}

// Batch claim/drain operations: one CAS claims a contiguous slot run.

TEST(RingQueueBatchTest, PushPopBasicFifo) {
  RingQueue<int> q(8);
  int in[5] = {1, 2, 3, 4, 5};
  EXPECT_EQ(q.TryPushBatch(in, 5), 5u);
  int out[8] = {};
  EXPECT_EQ(q.TryPopBatch(out, 3), 3u);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[1], 2);
  EXPECT_EQ(out[2], 3);
  EXPECT_EQ(q.TryPopBatch(out, 8), 2u);
  EXPECT_EQ(out[0], 4);
  EXPECT_EQ(out[1], 5);
  EXPECT_EQ(q.TryPopBatch(out, 8), 0u);
}

TEST(RingQueueBatchTest, ShortPushWhenFull) {
  RingQueue<int> q(4);
  ASSERT_EQ(q.capacity(), 4u);
  int in[6] = {0, 1, 2, 3, 4, 5};
  EXPECT_EQ(q.TryPushBatch(in, 6), 4u);  // prefix lands, caller keeps 4,5
  EXPECT_EQ(q.TryPushBatch(in + 4, 2), 0u);
  int out[4] = {};
  EXPECT_EQ(q.TryPopBatch(out, 2), 2u);
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(q.TryPushBatch(in + 4, 2), 2u);
  EXPECT_EQ(q.TryPopBatch(out, 4), 4u);
  EXPECT_EQ(out[0], 2);
  EXPECT_EQ(out[3], 5);
}

TEST(RingQueueBatchTest, WrapAroundKeepsFifo) {
  RingQueue<int> q(8);
  int next_in = 0;
  int next_out = 0;
  for (int round = 0; round < 1000; ++round) {
    int in[3] = {next_in, next_in + 1, next_in + 2};
    ASSERT_EQ(q.TryPushBatch(in, 3), 3u);
    next_in += 3;
    int out[3] = {};
    ASSERT_EQ(q.TryPopBatch(out, 3), 3u);
    for (int v : out) ASSERT_EQ(v, next_out++);
  }
}

TEST(RingQueueBatchTest, ClosedQueueRejectsPushAndDrainsPop) {
  RingQueue<int> q(8);
  int in[3] = {7, 8, 9};
  ASSERT_EQ(q.TryPushBatch(in, 3), 3u);
  q.Close();
  EXPECT_EQ(q.TryPushBatch(in, 3), 0u);
  int out[8] = {};
  EXPECT_EQ(q.PopBatch(out, 8), 3u);  // drains the pre-close backlog
  EXPECT_EQ(out[2], 9);
  EXPECT_EQ(q.PopBatch(out, 8), 0u);  // closed and drained
}

TEST(RingQueueBatchTest, MoveOnlyPayload) {
  RingQueue<std::unique_ptr<int>> q(4);
  std::unique_ptr<int> in[2];
  in[0] = std::make_unique<int>(1);
  in[1] = std::make_unique<int>(2);
  ASSERT_EQ(q.TryPushBatch(in, 2), 2u);
  EXPECT_EQ(in[0], nullptr);  // enqueued elements are moved from
  std::unique_ptr<int> out[2];
  ASSERT_EQ(q.TryPopBatch(out, 2), 2u);
  EXPECT_EQ(*out[0], 1);
  EXPECT_EQ(*out[1], 2);
}

TEST(RingQueueBatchTest, SpscStressStaysFifo) {
  constexpr int kTotal = 100000;
  RingQueue<int> q(64);
  std::thread producer([&] {
    std::mt19937 rng(1);
    int next = 0;
    int buf[17];
    while (next < kTotal) {
      const int want = std::min<int>(1 + static_cast<int>(rng() % 17),
                                     kTotal - next);
      for (int i = 0; i < want; ++i) buf[i] = next + i;
      size_t sent = 0;
      while (sent < static_cast<size_t>(want)) {
        sent += q.TryPushBatch(buf + sent, static_cast<size_t>(want) - sent);
      }
      next += want;
    }
    q.Close();
  });
  std::mt19937 rng(2);
  int expected = 0;
  int out[23];
  for (;;) {
    const size_t n = q.PopBatch(out, 1 + rng() % 23);
    if (n == 0) break;
    for (size_t i = 0; i < n; ++i) ASSERT_EQ(out[i], expected++);
  }
  producer.join();
  EXPECT_EQ(expected, kTotal);
}

TEST(RingQueueBatchTest, MpmcStressLosesNothing) {
  constexpr int kPerProducer = 50000;
  RingQueue<int> q(32);
  std::atomic<int> producers_left{2};
  auto produce = [&](int base) {
    int buf[11];
    int next = 0;
    while (next < kPerProducer) {
      const int want = std::min(11, kPerProducer - next);
      for (int i = 0; i < want; ++i) buf[i] = base + next + i;
      size_t sent = 0;
      while (sent < static_cast<size_t>(want)) {
        sent += q.TryPushBatch(buf + sent, static_cast<size_t>(want) - sent);
      }
      next += want;
    }
    if (producers_left.fetch_sub(1) == 1) q.Close();
  };
  std::vector<char> seen(2 * kPerProducer, 0);
  std::atomic<int> received{0};
  auto consume = [&] {
    int out[13];
    for (;;) {
      const size_t n = q.PopBatch(out, 13);
      if (n == 0) return;
      for (size_t i = 0; i < n; ++i) {
        const int v = out[i];
        ASSERT_GE(v, 0);
        ASSERT_LT(v, 2 * kPerProducer);
        // Each slot written exactly once: no duplicate deliveries.
        ASSERT_EQ(seen[static_cast<size_t>(v)]++, 0);
      }
      received.fetch_add(static_cast<int>(n));
    }
  };
  std::thread p1(produce, 0), p2(produce, kPerProducer);
  std::thread c1(consume), c2(consume);
  p1.join();
  p2.join();
  c1.join();
  c2.join();
  EXPECT_EQ(received.load(), 2 * kPerProducer);
}

}  // namespace
}  // namespace cepshed
