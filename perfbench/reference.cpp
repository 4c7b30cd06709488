// Fixed reference work for gauging host speed. It touches no code of the
// program under test, so a change to the program leaves its time alone,
// while a host slowdown stretches both.
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "bench.hpp"

namespace perfbench {

double reference_work_s() {
  // A small discrete-event loop, shaped like the simulator's hot path: a
  // binary-heap event queue, per-node queues found through a hash map,
  // and short-lived heap allocations.
  constexpr std::uint32_t kNodes = 4096;
  constexpr int kEvents = 150000;
  struct Event {
    double at;
    std::uint32_t node;
    bool operator>(const Event& o) const { return at > o.at; }
  };
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  const double start = host_now();
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events;
  std::unordered_map<std::uint64_t, std::deque<std::uint64_t>> queues;
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    events.push({double(next() % 1000000), std::uint32_t(next() % kNodes)});
  }
  std::uint64_t sum = 0;
  for (int i = 0; i < kEvents; ++i) {
    const Event e = events.top();
    events.pop();
    auto& q = queues[std::uint64_t(e.node) * 2654435761ULL];
    if (q.size() > 8 || (next() & 1)) {
      if (!q.empty()) {
        sum += q.front();
        q.pop_front();
      }
    } else {
      q.push_back(next());
    }
    if (i % 8 == 0) {
      auto* block = static_cast<unsigned char*>(std::malloc(64 + (x & 255)));
      block[0] = static_cast<unsigned char>(x);
      sum += block[0];
      std::free(block);
    }
    events.push({e.at + double(next() % 10000), std::uint32_t(next() % kNodes)});
  }
  static volatile std::uint64_t sink;
  sink = sum;
  return host_now() - start;
}

}  // namespace perfbench
