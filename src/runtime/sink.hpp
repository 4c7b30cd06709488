// Destination-side accounting: delivery, timeliness, ordering, jitter.
//
// Implements the paper's §4.2 metrics verbatim:
//  - delivered: units that reached the destination at all (Figure 8);
//  - end-to-end delay: arrival - source emission (Figure 7);
//  - out of order: a unit overtaken by a later-seq unit by more than the
//    playout reorder tolerance — a slightly-late unit still inside the
//    playout buffer remains usable (Figure 10);
//  - jitter: how far past the deadline set by the previous unit's arrival
//    plus the required period a unit arrives (Figure 11);
//  - timely / "flawless": in order AND within a tolerance of that deadline
//    (Figure 9).
//
// The tallies live in obs metric cells. When the sink is attached to a
// MetricRegistry (the deployed case) the cells are registry-owned and
// appear in snapshots under sink.* with {node, app, substream} labels;
// a sink constructed without a registry (unit tests) owns private cells.
// Either way there is exactly one accumulation path, and stats()
// materializes the paper-facing SinkStats view from the cells.
#pragma once

#include <cstdint>
#include <memory>

#include "obs/metric_registry.hpp"
#include "runtime/data_unit.hpp"
#include "sim/time.hpp"
#include "util/summary_stats.hpp"

namespace rasc::runtime {

struct SinkStats {
  std::int64_t delivered = 0;
  std::int64_t timely = 0;
  std::int64_t out_of_order = 0;
  util::SummaryStats delay_ms;
  util::SummaryStats jitter_ms;

  void merge(const SinkStats& other) {
    delivered += other.delivered;
    timely += other.timely;
    out_of_order += other.out_of_order;
    delay_ms.merge(other.delay_ms);
    jitter_ms.merge(other.jitter_ms);
  }
};

class StreamSink {
 public:
  /// How many periods past its deadline a unit may arrive and still count
  /// as flawless (timely).
  static constexpr double kTimelyTolerancePeriods = 1.0;

  /// `expected_rate_ups` is the substream's r_req (defines the period);
  /// `reorder_tolerance_periods` is the playout-buffer depth: a unit
  /// overtaken by no more than this is still rendered in order.
  /// When `registry` is non-null the sink's cells are created there under
  /// `labels`; otherwise the sink owns private cells.
  StreamSink(double expected_rate_ups, double reorder_tolerance_periods = 1.0,
             obs::MetricRegistry* registry = nullptr,
             obs::Labels labels = {});

  void on_unit(const DataUnit& unit, sim::SimTime now);

  /// Paper-facing view assembled from the metric cells.
  SinkStats stats() const;
  std::int64_t delivered() const { return delivered_->value(); }
  sim::SimDuration period() const { return period_; }

 private:
  /// Private cell storage for registry-less sinks (heap-allocated so the
  /// cell pointers survive moves).
  struct OwnedCells {
    obs::Counter delivered, timely, out_of_order;
    obs::Histogram delay_ms, jitter_ms;
  };

  sim::SimDuration period_;
  sim::SimDuration tolerance_;
  sim::SimDuration reorder_tolerance_;

  std::unique_ptr<OwnedCells> owned_;
  obs::Counter* delivered_;
  obs::Counter* timely_;
  obs::Counter* out_of_order_;
  obs::Histogram* delay_ms_;
  obs::Histogram* jitter_ms_;

  sim::SimTime last_arrival_ = -1;
  std::int64_t max_seq_seen_ = -1;
  sim::SimTime max_seq_time_ = -1;
};

}  // namespace rasc::runtime
