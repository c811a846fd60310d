#include "sim/resource.hpp"

#include <utility>

namespace hotc::sim {

void CountingResource::acquire(EventFn on_granted) {
  if (in_use_ < capacity_) {
    ++in_use_;
    on_granted();
    return;
  }
  waiters_.push_back(std::move(on_granted));
}

void CountingResource::release() {
  HOTC_ASSERT_MSG(in_use_ > 0, "release without matching acquire");
  if (!waiters_.empty()) {
    // Hand the slot directly to the oldest waiter; in_use_ is unchanged.
    auto next = std::move(waiters_.front());
    waiters_.pop_front();
    next();
    return;
  }
  --in_use_;
}

bool MemoryPool::reserve(Bytes amount) {
  HOTC_ASSERT(amount >= 0);
  if (used_ + amount > total_) return false;
  used_ += amount;
  if (used_ > high_watermark_) high_watermark_ = used_;
  return true;
}

void MemoryPool::release(Bytes amount) {
  HOTC_ASSERT(amount >= 0);
  HOTC_ASSERT_MSG(used_ >= amount, "releasing more memory than reserved");
  used_ -= amount;
}

}  // namespace hotc::sim
