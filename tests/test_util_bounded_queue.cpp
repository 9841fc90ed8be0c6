// BoundedQueue: FIFO order, the three overflow policies with their
// counters, close()/drain semantics, multi-producer conservation, and
// batches (push_batch/pop_batch) against the same per-item pushes.
#include "causaliot/util/bounded_queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <span>
#include <thread>
#include <vector>

namespace causaliot::util {
namespace {

TEST(BoundedQueue, FifoWithinCapacity) {
  BoundedQueue<int> queue(4, OverflowPolicy::kBlock);
  EXPECT_EQ(queue.push(1), PushResult::kAccepted);
  EXPECT_EQ(queue.push(2), PushResult::kAccepted);
  EXPECT_EQ(queue.push(3), PushResult::kAccepted);
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.try_pop(), 1);
  EXPECT_EQ(queue.try_pop(), 2);
  EXPECT_EQ(queue.try_pop(), 3);
  EXPECT_EQ(queue.try_pop(), std::nullopt);
  EXPECT_EQ(queue.counters().accepted, 3u);
}

TEST(BoundedQueue, RejectPolicyRefusesWhenFull) {
  BoundedQueue<int> queue(2, OverflowPolicy::kReject);
  EXPECT_EQ(queue.push(1), PushResult::kAccepted);
  EXPECT_EQ(queue.push(2), PushResult::kAccepted);
  EXPECT_EQ(queue.push(3), PushResult::kRejected);
  EXPECT_EQ(queue.push(4), PushResult::kRejected);
  const auto counters = queue.counters();
  EXPECT_EQ(counters.accepted, 2u);
  EXPECT_EQ(counters.rejected, 2u);
  // The queued items are untouched.
  EXPECT_EQ(queue.try_pop(), 1);
  EXPECT_EQ(queue.try_pop(), 2);
}

TEST(BoundedQueue, DropOldestEvictsTheFront) {
  BoundedQueue<int> queue(3, OverflowPolicy::kDropOldest);
  queue.push(1);
  queue.push(2);
  queue.push(3);
  EXPECT_EQ(queue.push(4), PushResult::kDroppedOldest);
  EXPECT_EQ(queue.push(5), PushResult::kDroppedOldest);
  const auto counters = queue.counters();
  EXPECT_EQ(counters.accepted, 5u);
  EXPECT_EQ(counters.dropped_oldest, 2u);
  // 1 and 2 were the victims; order of the survivors is preserved.
  EXPECT_EQ(queue.try_pop(), 3);
  EXPECT_EQ(queue.try_pop(), 4);
  EXPECT_EQ(queue.try_pop(), 5);
}

TEST(BoundedQueue, BlockPolicyWaitsForSpace) {
  BoundedQueue<int> queue(1, OverflowPolicy::kBlock);
  ASSERT_EQ(queue.push(1), PushResult::kAccepted);

  std::atomic<bool> second_push_done{false};
  std::thread producer([&] {
    EXPECT_EQ(queue.push(2), PushResult::kAccepted);  // must wait
    second_push_done.store(true);
  });
  // The producer cannot finish until we pop; give it a moment to park.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_push_done.load());
  EXPECT_EQ(queue.pop(), 1);
  producer.join();
  EXPECT_TRUE(second_push_done.load());
  EXPECT_EQ(queue.pop(), 2);
  EXPECT_GE(queue.counters().block_waits, 1u);
}

TEST(BoundedQueue, CloseDrainsThenSignalsEndOfStream) {
  BoundedQueue<int> queue(4, OverflowPolicy::kBlock);
  queue.push(1);
  queue.push(2);
  queue.close();
  EXPECT_EQ(queue.push(3), PushResult::kClosed);
  EXPECT_EQ(queue.counters().closed_rejects, 1u);
  // Queued items survive the close (drain)...
  EXPECT_EQ(queue.pop(), 1);
  EXPECT_EQ(queue.pop(), 2);
  // ...then pop reports end-of-stream instead of blocking.
  EXPECT_EQ(queue.pop(), std::nullopt);
}

TEST(BoundedQueue, CloseWakesBlockedProducer) {
  BoundedQueue<int> queue(1, OverflowPolicy::kBlock);
  ASSERT_EQ(queue.push(1), PushResult::kAccepted);
  std::thread producer([&] {
    EXPECT_EQ(queue.push(2), PushResult::kClosed);  // woken by close()
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.close();
  producer.join();
}

TEST(BoundedQueue, MultiProducerConservation) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 500;
  BoundedQueue<int> queue(16, OverflowPolicy::kBlock);

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        EXPECT_EQ(queue.push(1), PushResult::kAccepted);
      }
    });
  }
  std::size_t consumed = 0;
  std::thread consumer([&] {
    while (queue.pop().has_value()) ++consumed;
  });
  for (auto& producer : producers) producer.join();
  queue.close();
  consumer.join();
  EXPECT_EQ(consumed, kProducers * kPerProducer);
  EXPECT_EQ(queue.counters().accepted, kProducers * kPerProducer);
}


TEST(BoundedQueue, CloseWhileProducersBlockedWakesAll) {
  // Several producers parked in the kBlock wait at close() time: every
  // one must wake with kClosed, nothing already queued may be lost, and
  // no blocked item may sneak in after the close.
  constexpr std::size_t kProducers = 4;
  BoundedQueue<int> queue(2, OverflowPolicy::kBlock);
  ASSERT_EQ(queue.push(1), PushResult::kAccepted);
  ASSERT_EQ(queue.push(2), PushResult::kAccepted);

  std::atomic<std::size_t> closed_results{0};
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, &closed_results] {
      if (queue.push(99) == PushResult::kClosed) ++closed_results;
    });
  }
  // Let every producer reach the wait (block_waits counts entries).
  while (queue.counters().block_waits < kProducers) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  queue.close();
  for (auto& producer : producers) producer.join();

  EXPECT_EQ(closed_results, kProducers);
  EXPECT_EQ(queue.counters().accepted, 2u);
  EXPECT_EQ(queue.counters().closed_rejects, kProducers);
  EXPECT_EQ(queue.counters().block_waits, kProducers);
  // The pre-close items drain intact; then end-of-stream.
  EXPECT_EQ(queue.pop(), 1);
  EXPECT_EQ(queue.pop(), 2);
  EXPECT_EQ(queue.pop(), std::nullopt);
}

TEST(BoundedQueue, PushUnboundedBypassesCapacityAndPolicy) {
  BoundedQueue<int> queue(1, OverflowPolicy::kReject);
  ASSERT_EQ(queue.push(1), PushResult::kAccepted);
  EXPECT_EQ(queue.push(2), PushResult::kRejected);
  // The side lane is never rejected and never blocks...
  EXPECT_EQ(queue.push_unbounded(3), PushResult::kAccepted);
  EXPECT_EQ(queue.size(), 2u);
  // ...but still respects close().
  queue.close();
  EXPECT_EQ(queue.push_unbounded(4), PushResult::kClosed);
  EXPECT_EQ(queue.pop(), 1);
  EXPECT_EQ(queue.pop(), 3);
}

TEST(BoundedQueue, EvictFilterShieldsControlItems) {
  // Negative items model control messages: kDropOldest must evict the
  // oldest *evictable* item and, when none is evictable, admit over
  // capacity rather than lose anything.
  BoundedQueue<int> queue(2, OverflowPolicy::kDropOldest,
                          [](const int& item) { return item >= 0; });
  ASSERT_EQ(queue.push_unbounded(-1), PushResult::kAccepted);
  ASSERT_EQ(queue.push(10), PushResult::kAccepted);
  // Full. The control (-1) is older but shielded: 10 is the victim.
  EXPECT_EQ(queue.push(11), PushResult::kDroppedOldest);
  EXPECT_EQ(queue.counters().dropped_oldest, 1u);

  // All-control queue: nothing evictable, the push is admitted anyway.
  BoundedQueue<int> controls(1, OverflowPolicy::kDropOldest,
                             [](const int& item) { return item >= 0; });
  ASSERT_EQ(controls.push_unbounded(-1), PushResult::kAccepted);
  EXPECT_EQ(controls.push(5), PushResult::kAccepted);
  EXPECT_EQ(controls.counters().dropped_oldest, 0u);
  EXPECT_EQ(controls.size(), 2u);
  EXPECT_EQ(controls.pop(), -1);
  EXPECT_EQ(controls.pop(), 5);
}

// --- batches ---

std::vector<int> iota_items(int first, int count) {
  std::vector<int> items;
  for (int i = 0; i < count; ++i) items.push_back(first + i);
  return items;
}

void expect_same_counters(const BoundedQueue<int>::Counters& got,
                          const BoundedQueue<int>::Counters& want) {
  EXPECT_EQ(got.accepted, want.accepted);
  EXPECT_EQ(got.dropped_oldest, want.dropped_oldest);
  EXPECT_EQ(got.rejected, want.rejected);
  EXPECT_EQ(got.closed_rejects, want.closed_rejects);
  EXPECT_EQ(got.block_waits, want.block_waits);
}

TEST(BoundedQueue, PushBatchLargerThanCapacityCompletesUnderBlock) {
  // The consumer parks on an empty queue before the batch starts. The
  // batch fills the queue without announcing its items, so it must wake
  // the consumer before it waits for space; otherwise both sleep forever.
  constexpr int kItems = 1000;
  BoundedQueue<int> queue(4, OverflowPolicy::kBlock);
  std::vector<int> consumed;
  std::thread consumer([&] {
    while (std::optional<int> item = queue.pop()) consumed.push_back(*item);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::vector<int> items = iota_items(0, kItems);
  EXPECT_EQ(queue.push_batch(std::span<int>(items)),
            static_cast<std::size_t>(kItems));
  queue.close();
  consumer.join();
  EXPECT_EQ(consumed, iota_items(0, kItems));  // FIFO across the waits
  const auto counters = queue.counters();
  EXPECT_EQ(counters.accepted, static_cast<std::uint64_t>(kItems));
  EXPECT_GE(counters.block_waits, 1u);
  EXPECT_EQ(counters.closed_rejects, 0u);
}

TEST(BoundedQueue, PushBatchDrainedByPopBatch) {
  constexpr int kItems = 5000;
  BoundedQueue<int> queue(64, OverflowPolicy::kBlock);
  std::vector<int> consumed;
  std::thread consumer([&] {
    std::vector<int> batch;
    while (queue.pop_batch(batch)) {
      consumed.insert(consumed.end(), batch.begin(), batch.end());
    }
  });
  std::vector<int> items = iota_items(0, kItems);
  EXPECT_EQ(queue.push_batch(std::span<int>(items)),
            static_cast<std::size_t>(kItems));
  queue.close();
  consumer.join();
  EXPECT_EQ(consumed, iota_items(0, kItems));
}

TEST(BoundedQueue, PopBatchTakesAtMostKPopBatch) {
  const int most = static_cast<int>(BoundedQueue<int>::kPopBatch);
  const int total = most + 44;
  BoundedQueue<int> queue(1024, OverflowPolicy::kBlock);
  std::vector<int> items = iota_items(0, total);
  ASSERT_EQ(queue.push_batch(std::span<int>(items)),
            static_cast<std::size_t>(total));
  queue.close();
  std::vector<int> batch = {-1};  // cleared by pop_batch
  ASSERT_TRUE(queue.pop_batch(batch));
  EXPECT_EQ(batch, iota_items(0, most));
  ASSERT_TRUE(queue.pop_batch(batch));
  EXPECT_EQ(batch, iota_items(most, 44));
  EXPECT_FALSE(queue.pop_batch(batch));  // closed and drained
  EXPECT_TRUE(batch.empty());
}

TEST(BoundedQueue, CloseMidBatchCountsClosedRejectsExactly) {
  // Capacity 2, batch of 5, no consumer: two items enter, the third
  // waits, close() refuses it and the two behind it.
  BoundedQueue<int> queue(2, OverflowPolicy::kBlock);
  std::vector<int> items = iota_items(1, 5);
  std::size_t pushed = 0;
  std::thread producer(
      [&] { pushed = queue.push_batch(std::span<int>(items)); });
  while (queue.counters().block_waits < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  queue.close();
  producer.join();
  EXPECT_EQ(pushed, 2u);
  const auto counters = queue.counters();
  EXPECT_EQ(counters.accepted, 2u);
  EXPECT_EQ(counters.closed_rejects, 3u);
  EXPECT_EQ(counters.block_waits, 1u);
  EXPECT_EQ(queue.pop(), 1);
  EXPECT_EQ(queue.pop(), 2);
  EXPECT_EQ(queue.pop(), std::nullopt);
}

TEST(BoundedQueue, PushBatchCountersEqualPerItemPushes) {
  // Each policy, overflowing with no consumer: the batch and the same
  // pushes one by one leave equal counters and equal contents.
  const auto evictable = [](const int& item) { return item >= 0; };
  for (const OverflowPolicy policy :
       {OverflowPolicy::kReject, OverflowPolicy::kDropOldest}) {
    BoundedQueue<int> batched(3, policy, evictable);
    BoundedQueue<int> single(3, policy, evictable);
    ASSERT_EQ(batched.push_unbounded(-1), PushResult::kAccepted);
    ASSERT_EQ(single.push_unbounded(-1), PushResult::kAccepted);
    std::vector<int> items = iota_items(0, 7);
    std::size_t enqueued = 0;
    for (const int item : items) {
      const PushResult result = single.push(item);
      if (result == PushResult::kAccepted ||
          result == PushResult::kDroppedOldest) {
        ++enqueued;
      }
    }
    EXPECT_EQ(batched.push_batch(std::span<int>(items)), enqueued);
    expect_same_counters(batched.counters(), single.counters());
    batched.close();
    single.close();
    while (std::optional<int> want = single.try_pop()) {
      EXPECT_EQ(batched.try_pop(), want);
    }
    EXPECT_EQ(batched.try_pop(), std::nullopt);
  }
  // kBlock within capacity, then after close().
  BoundedQueue<int> batched(8, OverflowPolicy::kBlock);
  BoundedQueue<int> single(8, OverflowPolicy::kBlock);
  std::vector<int> items = iota_items(0, 5);
  for (const int item : items) single.push(item);
  EXPECT_EQ(batched.push_batch(std::span<int>(items)), 5u);
  expect_same_counters(batched.counters(), single.counters());
  batched.close();
  single.close();
  std::vector<int> late = iota_items(5, 3);
  for (const int item : late) single.push(item);
  EXPECT_EQ(batched.push_batch(std::span<int>(late)), 0u);
  expect_same_counters(batched.counters(), single.counters());
}

}  // namespace
}  // namespace causaliot::util
