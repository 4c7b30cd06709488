// The discrete-event simulator core.
//
// One Simulator instance is a self-contained simulated world and is
// single-threaded: experiment parallelism comes from running many
// independent Simulator instances on a thread pool (one per experiment
// cell or repetition), never from sharing one instance across threads.
#pragma once

#include <cstdint>
#include <functional>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"

namespace rasc::sim {

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1) : rng_(seed) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  /// Root RNG for this world; subsystems should take `rng().split(tag)`.
  util::Xoshiro256& rng() { return rng_; }

  /// Schedules `fn` to run `delay` after now. Negative delays clamp to now
  /// (events never fire in the past).
  EventId call_after(SimDuration delay, std::function<void()> fn);

  /// Schedules `fn` at absolute time `t` (clamped to now).
  EventId call_at(SimTime t, std::function<void()> fn);

  /// Runs `fn` immediately. Kept only because perfbench/drive.cpp still
  /// calls it; nothing under src/ does.
  void exclusive(const std::function<void()>& fn) { fn(); }

  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Runs events until the queue is empty or simulated time would exceed
  /// `end`. The clock is left at max(end, now()).
  void run_until(SimTime end);

  /// Runs until the queue drains (or `max_events` fire — a runaway guard).
  /// Returns the number of events processed.
  std::size_t run_all(std::size_t max_events = SIZE_MAX);

  /// Fires exactly one event if any is pending; returns whether one fired.
  bool step();

  std::size_t pending_events() const { return queue_.size(); }
  std::size_t processed_events() const { return processed_; }

 private:
  EventQueue queue_;
  SimTime now_ = 0;
  std::size_t processed_ = 0;
  util::Xoshiro256 rng_;
};

}  // namespace rasc::sim
