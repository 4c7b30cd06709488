#include "sim/simulator.hpp"

#include <algorithm>

namespace rasc::sim {

EventId Simulator::call_after(SimDuration delay, std::function<void()> fn) {
  return call_at(now_ + std::max<SimDuration>(delay, 0), std::move(fn));
}

EventId Simulator::call_at(SimTime t, std::function<void()> fn) {
  return queue_.schedule(std::max(t, now_), std::move(fn));
}

void Simulator::run_until(SimTime end) {
  EventQueue::Fired fired;
  while (queue_.pop_until(end, fired)) {
    now_ = fired.time;
    ++processed_;
    fired.fn();
    fired.fn = nullptr;  // release the handler's captures as it returns
  }
  now_ = std::max(now_, end);
}

std::size_t Simulator::run_all(std::size_t max_events) {
  std::size_t n = 0;
  while (!queue_.empty() && n < max_events) {
    auto fired = queue_.pop();
    now_ = fired.time;
    ++processed_;
    ++n;
    fired.fn();
  }
  return n;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  auto fired = queue_.pop();
  now_ = fired.time;
  ++processed_;
  fired.fn();
  return true;
}

}  // namespace rasc::sim
