// Discrete-event simulator.
//
// The whole evaluation harness runs on virtual time: container startup
// phases, request round-trips and keep-alive expirations are events on this
// loop.  This replaces the paper's wall-clock testbed with a deterministic
// substrate (see DESIGN.md, substitution table).
#pragma once

#include <functional>

#include "core/clock.hpp"
#include "core/time.hpp"
#include "sim/event_queue.hpp"

namespace hotc::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] TimePoint now() const { return clock_.now(); }
  [[nodiscard]] const Clock& clock() const { return clock_; }
  [[nodiscard]] VirtualClock& virtual_clock() { return clock_; }

  /// Schedule fn at absolute time t (must be >= now()).
  EventId at(TimePoint t, EventFn fn);

  /// Schedule fn after a delay from now.
  EventId after(Duration delay, EventFn fn);

  /// Set aside n consecutive event seqs (EventQueue::reserve) and return
  /// the first, so a long series of events can be scheduled one at a time
  /// yet fire exactly as if all had been scheduled now.
  EventSeq reserve(std::size_t n) { return queue_.reserve(n); }

  /// Schedule fn at absolute time t (must be >= now()) under a seq from
  /// reserve().
  EventId at_reserved(TimePoint t, EventSeq seq, EventFn fn);

  /// Schedule fn every `period`, starting at now() + period, until the
  /// predicate returns false (checked before each firing).
  void every(Duration period, const std::function<bool()>& keep_going,
             const std::function<void()>& fn);

  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Run until the queue drains.  Returns the number of events processed.
  std::size_t run();

  /// Run until the queue drains or virtual time would exceed `deadline`.
  /// Events at exactly `deadline` still fire.
  std::size_t run_until(TimePoint deadline);

  /// Process a single event; returns false when the queue is empty.
  bool step();

  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }

 private:
  VirtualClock clock_;
  EventQueue queue_;
};

}  // namespace hotc::sim
