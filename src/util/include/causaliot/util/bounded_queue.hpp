// Bounded multi-producer queue with an explicit overflow policy.
//
// The serving layer's ingestion path (serve::DetectionService) pushes
// events from arbitrary producer threads into one queue per shard; the
// shard worker is the single consumer. The queue is safe for any number
// of producers and consumers — the MPSC restriction is the service's
// usage, not a queue invariant.
//
// Overflow policy decides what a full queue does to a producer:
//   * kBlock      — wait until the consumer makes room (lossless
//                   backpressure; the producer inherits consumer latency),
//   * kDropOldest — evict the oldest queued item to admit the new one
//                   (bounded staleness; favours fresh events),
//   * kReject     — refuse the new item (caller decides; favours queued
//                   work already accepted).
// Every outcome is counted, so operators can see which policy fired and
// how often (serve::Metrics folds these into its report).
//
// push_batch()/pop_batch() move many items per lock and per wake-up:
// the serving layer hands a whole TCP read chunk to a shard in one
// push_batch, and the shard worker drains up to kPopBatch items at a
// time. A batch meets the overflow policy item by item.
//
// close() ends the stream: producers are turned away (kClosed), while
// consumers drain the remaining items and then observe end-of-stream —
// the graceful shutdown path.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <iterator>
#include <mutex>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "causaliot/util/check.hpp"

namespace causaliot::util {

enum class OverflowPolicy : std::uint8_t {
  kBlock,
  kDropOldest,
  kReject,
};

enum class PushResult : std::uint8_t {
  kAccepted,       // enqueued; with kDropOldest possibly at a victim's cost
  kDroppedOldest,  // enqueued, evicting the oldest queued item
  kRejected,       // queue full under kReject; item not enqueued
  kClosed,         // queue closed; item not enqueued
};

template <typename T>
class BoundedQueue {
 public:
  struct Counters {
    std::uint64_t accepted = 0;        // items that entered the queue
    std::uint64_t dropped_oldest = 0;  // victims evicted by kDropOldest
    std::uint64_t rejected = 0;        // pushes refused by kReject
    std::uint64_t closed_rejects = 0;  // pushes refused after close()
    std::uint64_t block_waits = 0;     // pushes that had to sleep (kBlock)
  };

  /// Decides whether kDropOldest may evict a given queued item. Items
  /// the filter refuses (e.g. in-band control messages) are skipped when
  /// hunting for a victim; if nothing is evictable the new item is
  /// admitted anyway (transient overshoot bounded by the number of
  /// non-evictable items in flight).
  using EvictFilter = std::function<bool(const T&)>;

  BoundedQueue(std::size_t capacity, OverflowPolicy policy,
               EvictFilter evictable = {})
      : capacity_(capacity), policy_(policy),
        evictable_(std::move(evictable)) {
    CAUSALIOT_CHECK_MSG(capacity_ >= 1, "queue capacity must be >= 1");
  }

  std::size_t capacity() const { return capacity_; }
  OverflowPolicy policy() const { return policy_; }

  /// Enqueues `item` under the overflow policy. kBlock may sleep; the
  /// other policies never do. Returns what happened (see PushResult).
  PushResult push(T item) {
    std::unique_lock<std::mutex> lock(mutex_);
    const PushResult result = push_locked(lock, std::move(item));
    if (enqueued(result)) item_available_.notify_one();
    return result;
  }

  /// Enqueues every item of `items` (moved from, in order) under one
  /// lock and wakes the consumer once at the end. Each item meets the
  /// overflow policy exactly as push() would, so the counters equal
  /// those of the same pushes made one by one; under kBlock a full
  /// queue wakes the consumer before the producer waits, so a batch
  /// larger than the capacity still completes. Returns how many items
  /// were enqueued; under kBlock the rest were refused by close().
  std::size_t push_batch(std::span<T> items) {
    std::unique_lock<std::mutex> lock(mutex_);
    std::size_t pushed = 0;
    for (T& item : items) {
      if (enqueued(push_locked(lock, std::move(item)))) ++pushed;
    }
    if (pushed > 0) item_available_.notify_all();
    return pushed;
  }

  /// Enqueues `item` ignoring capacity and overflow policy: it never
  /// blocks, never evicts, and is refused only after close(). This is
  /// the lane for in-band control messages (tenant add/remove, model
  /// swap) that must not be lost to kReject or stalled by kBlock; data
  /// items must keep using push(). Overshoot past capacity is bounded
  /// by the number of outstanding control messages.
  PushResult push_unbounded(T item) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) {
      ++counters_.closed_rejects;
      return PushResult::kClosed;
    }
    items_.push_back(std::move(item));
    ++counters_.accepted;
    item_available_.notify_one();
    return PushResult::kAccepted;
  }

  /// Blocks until an item is available or the queue is closed and empty.
  /// Returns nullopt only at end-of-stream (close() + fully drained).
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    item_available_.wait(lock, [this] { return !items_.empty() || closed_; });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    space_available_.notify_one();
    return item;
  }

  /// Non-blocking pop; nullopt when nothing is queued right now.
  std::optional<T> try_pop() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    space_available_.notify_one();
    return item;
  }

  /// Most items one pop_batch() takes under a single lock.
  static constexpr std::size_t kPopBatch = 256;

  /// Blocks like pop(), then moves up to kPopBatch queued items into
  /// `out` (cleared first) under one lock and wakes blocked producers
  /// once. Returns false only at end-of-stream.
  bool pop_batch(std::vector<T>& out) {
    out.clear();
    std::unique_lock<std::mutex> lock(mutex_);
    item_available_.wait(lock, [this] { return !items_.empty() || closed_; });
    if (items_.empty()) return false;
    const auto end =
        items_.begin() +
        static_cast<std::ptrdiff_t>(std::min(items_.size(), kPopBatch));
    std::move(items_.begin(), end, std::back_inserter(out));
    items_.erase(items_.begin(), end);
    space_available_.notify_all();
    return true;
  }

  /// Stops accepting items. Queued items stay poppable (drain); blocked
  /// producers wake up with kClosed. Idempotent.
  void close() {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    item_available_.notify_all();
    space_available_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

  Counters counters() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_;
  }

 private:
  static bool enqueued(PushResult result) {
    return result == PushResult::kAccepted ||
           result == PushResult::kDroppedOldest;
  }

  /// One item through the overflow policy; the caller holds `lock` and
  /// notifies the consumer.
  PushResult push_locked(std::unique_lock<std::mutex>& lock, T&& item) {
    if (closed_) {
      ++counters_.closed_rejects;
      return PushResult::kClosed;
    }
    if (items_.size() >= capacity_) {
      switch (policy_) {
        case OverflowPolicy::kBlock: {
          ++counters_.block_waits;
          // Items a batch pushed before filling the queue are not yet
          // announced; wake the consumer before sleeping on it.
          item_available_.notify_all();
          space_available_.wait(lock, [this] {
            return items_.size() < capacity_ || closed_;
          });
          if (closed_) {
            ++counters_.closed_rejects;
            return PushResult::kClosed;
          }
          break;
        }
        case OverflowPolicy::kDropOldest: {
          auto victim = items_.begin();
          if (evictable_) {
            victim = std::find_if(items_.begin(), items_.end(),
                                  [this](const T& queued) {
                                    return evictable_(queued);
                                  });
          }
          if (victim == items_.end()) {
            // Only non-evictable items queued: admit over capacity
            // rather than lose a control message.
            items_.push_back(std::move(item));
            ++counters_.accepted;
            return PushResult::kAccepted;
          }
          items_.erase(victim);
          ++counters_.dropped_oldest;
          items_.push_back(std::move(item));
          ++counters_.accepted;
          return PushResult::kDroppedOldest;
        }
        case OverflowPolicy::kReject: {
          ++counters_.rejected;
          return PushResult::kRejected;
        }
      }
    }
    items_.push_back(std::move(item));
    ++counters_.accepted;
    return PushResult::kAccepted;
  }

  const std::size_t capacity_;
  const OverflowPolicy policy_;
  const EvictFilter evictable_;

  mutable std::mutex mutex_;
  std::condition_variable item_available_;
  std::condition_variable space_available_;
  std::deque<T> items_;
  Counters counters_;
  bool closed_ = false;
};

}  // namespace causaliot::util
