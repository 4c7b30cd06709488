// Telemetry primitives: the typed metric cells a MetricRegistry owns.
//
// Cells are plain value types so a layer can also hold them standalone
// (e.g. a StreamSink constructed without a registry in unit tests). When a
// registry owns a cell, the layer keeps a pointer to it: emitting through
// the registry costs exactly one pointer-indirect increment, which is what
// keeps the consolidated telemetry off the simulator's hot-path profile.
#pragma once

#include <atomic>
#include <compare>
#include <cstdint>
#include <string>

#include "util/summary_stats.hpp"

namespace rasc::obs {

/// Metric identity beyond the name. `node` is the simulated node index
/// (-1 = deployment-global), `app` the application id (-1 = n/a), and
/// `component` a free-form sub-label (message kind, service name,
/// substream, ... — empty = n/a).
struct Labels {
  std::int32_t node = -1;
  std::int64_t app = -1;
  std::string component;

  friend auto operator<=>(const Labels&, const Labels&) = default;
};

/// Monotonic event count. Increments are relaxed atomics, so a cell stays
/// safe to bump or read from more than one thread; integer sums are
/// order-independent, so relaxed is all determinism needs. A
/// single-threaded world pays one uncontended atomic add.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter& other)
      : value_(other.value_.load(std::memory_order_relaxed)) {}
  Counter& operator=(const Counter& other) {
    value_.store(other.value_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    return *this;
  }

  void add(std::int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Last-written instantaneous value (queue length, window mean, ...).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0;
};

/// Windowed distribution: Welford summary for mean/stddev plus a bounded
/// reservoir for percentile tails. Deterministic given insertion order.
class Histogram {
 public:
  explicit Histogram(std::size_t reservoir_capacity = 4096)
      : reservoir_(reservoir_capacity) {}

  void observe(double x) {
    summary_.add(x);
    reservoir_.add(x);
  }

  void merge(const Histogram& other);

  const util::SummaryStats& summary() const { return summary_; }
  double percentile(double q) const { return reservoir_.percentile(q); }
  std::size_t count() const { return summary_.count(); }

 private:
  util::SummaryStats summary_;
  util::Reservoir reservoir_;
};

}  // namespace rasc::obs
