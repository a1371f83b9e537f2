/// \file spsc_queue.h
/// A bounded lock-free single-producer/single-consumer ring buffer.
///
/// The acquisition supervisor runs one reader thread per camera; each
/// reader hands completed frame reads back to the supervisor through one
/// of these queues. Exactly one thread pushes and exactly one pops, which
/// is what lets the implementation get away with two atomics and no lock:
/// the producer owns `head_`, the consumer owns `tail_`, and each only
/// needs an acquire-load of the other's counter to know how much room or
/// data exists.
///
/// The single-thread-per-endpoint contract is checked at runtime:
/// `TryPush`/`TryPop` each carry a ThreadOwner assertion, and a deliberate
/// producer handoff (a supervisor reader restart) must call
/// `ResetProducerOwner` at the externally synchronized handoff point.

#ifndef DIEVENT_COMMON_SPSC_QUEUE_H_
#define DIEVENT_COMMON_SPSC_QUEUE_H_

#include <atomic>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "common/thread_ownership.h"

namespace dievent {

/// Fixed-capacity SPSC queue. `TryPush`/`TryPop` never block and never
/// allocate after construction. Capacity is rounded up to a power of two
/// so the ring index is a mask, not a modulo.
template <typename T>
class SpscQueue {
 public:
  explicit SpscQueue(size_t capacity) {
    size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  size_t capacity() const { return slots_.size(); }

  /// Producer side. Returns false when the ring is full — the caller must
  /// decide whether to retry, drop, or block; ignoring it loses `value`.
  [[nodiscard]] bool TryPush(T value) {
    DCHECK_OWNED_BY(producer_owner_);
    const size_t head = head_.load(std::memory_order_relaxed);
    const size_t tail = tail_.load(std::memory_order_acquire);
    if (head - tail == slots_.size()) return false;
    slots_[head & mask_] = std::move(value);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. Returns nullopt when the ring is empty.
  [[nodiscard]] std::optional<T> TryPop() {
    DCHECK_OWNED_BY(consumer_owner_);
    const size_t tail = tail_.load(std::memory_order_relaxed);
    const size_t head = head_.load(std::memory_order_acquire);
    if (head == tail) return std::nullopt;
    T out = std::move(slots_[tail & mask_]);
    tail_.store(tail + 1, std::memory_order_release);
    return out;
  }

  /// Approximate occupancy; exact when called from either endpoint thread
  /// while the other is idle.
  size_t SizeApprox() const {
    return head_.load(std::memory_order_acquire) -
           tail_.load(std::memory_order_acquire);
  }

  bool EmptyApprox() const { return SizeApprox() == 0; }

  /// Producer handoff hook; the caller must have synchronized with the
  /// previous producer (thread join/spawn) before resetting.
  void ResetProducerOwner() { producer_owner_.Reset(); }

 private:
  std::vector<T> slots_;
  size_t mask_ = 0;
  std::atomic<size_t> head_{0};  ///< next slot to write (producer-owned)
  std::atomic<size_t> tail_{0};  ///< next slot to read (consumer-owned)
  ThreadOwner producer_owner_{"spsc-producer"};
  ThreadOwner consumer_owner_{"spsc-consumer"};
};

}  // namespace dievent

#endif  // DIEVENT_COMMON_SPSC_QUEUE_H_
