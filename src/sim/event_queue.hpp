// Priority queue of timestamped events with FIFO tie-breaking.
//
// Ties are broken by sequence number so that two events scheduled for the
// same instant fire in schedule order — this makes every simulation fully
// deterministic, which the experiment harness relies on.  Events fire in
// (time, seq) order; seqs are handed out in push order, or ahead of time
// in reserved blocks (see reserve()).
//
// Layout: a 4-ary min-heap of 16-byte {time, id} nodes over a slab of
// callables with a free list.  An EventId packs the event's seq above its
// slab slot, so ordering by (time, id) is ordering by (time, seq), and
// cancel() finds the slot without a lookup table: it frees the slot and
// leaves the heap node behind as stale, to be dropped when it surfaces.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/assert.hpp"
#include "core/time.hpp"

namespace hotc::sim {

/// Move-only `void()` callable.  Callables of up to kInlineBytes live in
/// an inline buffer; larger ones (or ones that may throw on move) are
/// boxed on the heap.  Moving an EventFn relocates the callable and
/// leaves the source empty.
class EventFn {
 public:
  static constexpr std::size_t kInlineBytes = 56;

  template <typename F>
  static constexpr bool fits_inline =
      sizeof(F) <= kInlineBytes &&
      alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;

  EventFn() noexcept = default;

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, EventFn> &&
             std::is_invocable_r_v<void, std::decay_t<F>&>)
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor): like std::function
    using D = std::decay_t<F>;
    if constexpr (fits_inline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kOps<D>;
    } else {
      ::new (static_cast<void*>(buf_))
          Boxed<D>{std::make_unique<D>(std::forward<F>(f))};
      ops_ = &kOps<Boxed<D>>;
    }
  }

  EventFn(EventFn&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      if (other.ops_ != nullptr) {
        other.ops_->relocate(buf_, other.buf_);
        ops_ = other.ops_;
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  void operator()() {
    HOTC_ASSERT_MSG(ops_ != nullptr, "calling an empty EventFn");
    ops_->invoke(buf_);
  }

 private:
  template <typename D>
  struct Boxed {
    std::unique_ptr<D> fn;
    void operator()() { (*fn)(); }
  };

  struct Ops {
    void (*invoke)(void* self);
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  template <typename S>
  static S* as(void* p) {
    return std::launder(static_cast<S*>(p));
  }

  template <typename S>
  static constexpr Ops kOps = {
      [](void* self) { (*as<S>(self))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) S(std::move(*as<S>(src)));
        as<S>(src)->~S();
      },
      [](void* self) noexcept { as<S>(self)->~S(); },
  };

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// Opaque handle for cancelling a scheduled event.  Ids grow with the
/// event's seq, so ordinary pushes get ids in insertion order.
using EventId = std::uint64_t;

/// An event's place among events at the same instant: lower fires first.
using EventSeq = std::uint64_t;

class EventQueue {
 public:
  /// Schedule fn at t under the next seq.
  EventId push(TimePoint t, EventFn fn) {
    return insert(t, next_seq_++, std::move(fn));
  }

  /// Set aside n consecutive seqs and return the first.  Seq first + i
  /// then orders exactly as a push made now would have: after everything
  /// pushed before this call, before everything pushed after it.  Feed
  /// them to push_reserved(), each at most once, in any order.
  EventSeq reserve(std::size_t n) {
    const EventSeq first = next_seq_;
    next_seq_ += n;
    return first;
  }

  /// Schedule fn at t under a seq taken from reserve().
  EventId push_reserved(TimePoint t, EventSeq seq, EventFn fn) {
    HOTC_ASSERT_MSG(seq > 0 && seq < next_seq_, "seq was never reserved");
    return insert(t, seq, std::move(fn));
  }

  /// Cancel a scheduled event and destroy its callable.  Returns false if
  /// it already fired or was already cancelled (both are benign — timer
  /// races on container reuse); the slot's stored id tells a stale id
  /// from the slot's current occupant.
  bool cancel(EventId id) {
    const auto slot = slot_of(id);
    if (id == 0 || slot >= ids_.size() || ids_[slot] != id) return false;
    // Destroy the callable only once the queue is consistent again: its
    // captures' destructors may schedule or cancel events themselves.
    const EventFn doomed = std::move(fns_[slot]);
    release(slot);
    drop_stale_top();
    return true;
  }

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Earliest pending event time.  Caller must check !empty().
  [[nodiscard]] TimePoint next_time() const {
    HOTC_ASSERT(!heap_.empty());
    return heap_.front().t;
  }

  /// Pop the earliest pending event.  Caller must check !empty().
  std::pair<TimePoint, EventFn> pop() {
    HOTC_ASSERT(!heap_.empty());
    const Node top = heap_.front();
    remove_top();
    const auto slot = slot_of(top.id);
    std::pair<TimePoint, EventFn> out{top.t, std::move(fns_[slot])};
    release(slot);
    drop_stale_top();
    return out;
  }

 private:
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;

  struct Node {
    TimePoint t;
    EventId id;  // seq << kSlotBits | slot
  };

  static bool earlier(const Node& a, const Node& b) {
    return a.t != b.t ? a.t < b.t : a.id < b.id;
  }

  static std::size_t slot_of(EventId id) {
    return static_cast<std::size_t>(id & kSlotMask);
  }

  EventId insert(TimePoint t, EventSeq seq, EventFn fn) {
    HOTC_ASSERT_MSG(seq < (1ull << (64 - kSlotBits)), "event seq overflow");
    std::size_t slot = 0;
    if (free_.empty()) {
      slot = fns_.size();
      HOTC_ASSERT_MSG(slot <= kSlotMask, "too many pending events");
      fns_.push_back(std::move(fn));
      ids_.push_back(0);
    } else {
      slot = free_.back();
      free_.pop_back();
      fns_[slot] = std::move(fn);
    }
    const EventId id = (seq << kSlotBits) | slot;
    ids_[slot] = id;
    ++live_;
    heap_.push_back(Node{t, id});
    sift_up(heap_.size() - 1);
    return id;
  }

  void release(std::size_t slot) {
    ids_[slot] = 0;
    free_.push_back(static_cast<std::uint32_t>(slot));
    --live_;
  }

  /// Keep the invariant that the heap's top, if any, is a live event, so
  /// next_time() needs no pruning.
  void drop_stale_top() {
    while (!heap_.empty() &&
           ids_[slot_of(heap_.front().id)] != heap_.front().id) {
      remove_top();
    }
  }

  void sift_up(std::size_t i) {
    const Node n = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!earlier(n, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = n;
  }

  void remove_top() {
    const Node last = heap_.back();
    heap_.pop_back();
    if (heap_.empty()) return;
    const std::size_t size = heap_.size();
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= size) break;
      std::size_t best = first;
      const std::size_t end = first + 4 < size ? first + 4 : size;
      for (std::size_t c = first + 1; c < end; ++c) {
        if (earlier(heap_[c], heap_[best])) best = c;
      }
      if (!earlier(heap_[best], last)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
  }

  std::vector<Node> heap_;
  std::vector<EventFn> fns_;            // slab: callable per slot
  std::vector<EventId> ids_;            // occupant's id per slot, 0 = free
  std::vector<std::uint32_t> free_;     // free slots, reused LIFO
  std::size_t live_ = 0;
  EventSeq next_seq_ = 1;
};

}  // namespace hotc::sim
