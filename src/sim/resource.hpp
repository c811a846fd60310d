// Simulated contended resources.
//
// CountingResource models a fixed number of slots (CPU cores on a host,
// gateway worker threads); acquirers queue FIFO and are resumed by callback
// when a slot frees.  MemoryPool models a byte budget with high-watermark
// queries — the pool's 80 % memory-pressure heuristic (Section IV-B) reads
// it the way the paper reads used_mem/used_swap.
#pragma once

#include <cstddef>
#include <deque>

#include "core/assert.hpp"
#include "core/units.hpp"
#include "sim/event_queue.hpp"

namespace hotc::sim {

class CountingResource {
 public:
  explicit CountingResource(std::size_t capacity) : capacity_(capacity) {
    HOTC_ASSERT(capacity > 0);
  }

  /// Request a slot.  The callback fires immediately (inline) if a slot is
  /// free, otherwise when one is released, in FIFO order.
  void acquire(EventFn on_granted);

  /// Return a slot; resumes the oldest waiter if any.
  void release();

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t in_use() const { return in_use_; }
  [[nodiscard]] std::size_t available() const { return capacity_ - in_use_; }
  [[nodiscard]] std::size_t waiting() const { return waiters_.size(); }

 private:
  std::size_t capacity_;
  std::size_t in_use_ = 0;
  std::deque<EventFn> waiters_;
};

class MemoryPool {
 public:
  explicit MemoryPool(Bytes total) : total_(total) { HOTC_ASSERT(total > 0); }

  /// Reserve bytes; returns false if it would exceed the physical total
  /// (the caller then swaps or refuses, as the host OS would).
  bool reserve(Bytes amount);
  void release(Bytes amount);

  [[nodiscard]] Bytes total() const { return total_; }
  [[nodiscard]] Bytes used() const { return used_; }
  [[nodiscard]] Bytes free() const { return total_ - used_; }
  [[nodiscard]] double utilization() const {
    return static_cast<double>(used_) / static_cast<double>(total_);
  }
  [[nodiscard]] Bytes high_watermark() const { return high_watermark_; }

 private:
  Bytes total_;
  Bytes used_ = 0;
  Bytes high_watermark_ = 0;
};

}  // namespace hotc::sim
