#include "sim/simulator.hpp"

#include <utility>

#include "core/assert.hpp"

namespace hotc::sim {

EventId Simulator::at(TimePoint t, EventFn fn) {
  HOTC_ASSERT_MSG(t >= now(), "cannot schedule into the past");
  return queue_.push(t, std::move(fn));
}

EventId Simulator::after(Duration delay, EventFn fn) {
  HOTC_ASSERT(delay >= kZeroDuration);
  return queue_.push(now() + delay, std::move(fn));
}

EventId Simulator::at_reserved(TimePoint t, EventSeq seq, EventFn fn) {
  HOTC_ASSERT_MSG(t >= now(), "cannot schedule into the past");
  return queue_.push_reserved(t, seq, std::move(fn));
}

namespace {

/// One wake-up of an every() chain: it re-arms itself by moving into the
/// next event, so the chain's state is freed with the event that ends it.
struct Periodic {
  Simulator* sim;
  Duration period;
  std::function<bool()> keep_going;
  std::function<void()> fn;

  void operator()() {
    if (!keep_going()) return;
    fn();
    sim->after(period, std::move(*this));
  }
};

}  // namespace

void Simulator::every(Duration period, const std::function<bool()>& keep_going,
                      const std::function<void()>& fn) {
  HOTC_ASSERT(period > kZeroDuration);
  after(period, Periodic{this, period, keep_going, fn});
}

std::size_t Simulator::run() {
  std::size_t n = 0;
  while (step()) ++n;
  return n;
}

std::size_t Simulator::run_until(TimePoint deadline) {
  std::size_t n = 0;
  while (!queue_.empty() && queue_.next_time() <= deadline) {
    step();
    ++n;
  }
  // Advance the clock to the deadline even if nothing fires there, so that
  // subsequent `after` calls measure from the requested instant.
  if (clock_.now() < deadline) clock_.advance_to(deadline);
  return n;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  auto [t, fn] = queue_.pop();
  HOTC_ASSERT(t >= clock_.now());
  clock_.advance_to(t);
  fn();
  return true;
}

}  // namespace hotc::sim
