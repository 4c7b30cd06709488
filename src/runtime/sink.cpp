#include "runtime/sink.hpp"

#include <algorithm>
#include <cassert>

namespace rasc::runtime {

StreamSink::StreamSink(double expected_rate_ups,
                       double reorder_tolerance_periods,
                       obs::MetricRegistry* registry, obs::Labels labels) {
  assert(expected_rate_ups > 0);
  period_ = sim::SimDuration(1e6 / expected_rate_ups);
  tolerance_ = sim::SimDuration(double(period_) * kTimelyTolerancePeriods);
  reorder_tolerance_ =
      sim::SimDuration(double(period_) * reorder_tolerance_periods);
  if (registry) {
    delivered_ = &registry->counter("sink.delivered", labels);
    timely_ = &registry->counter("sink.timely", labels);
    out_of_order_ = &registry->counter("sink.out_of_order", labels);
    delay_ms_ = &registry->histogram("sink.delay_ms", labels);
    jitter_ms_ = &registry->histogram("sink.jitter_ms", labels);
  } else {
    owned_ = std::make_unique<OwnedCells>();
    delivered_ = &owned_->delivered;
    timely_ = &owned_->timely;
    out_of_order_ = &owned_->out_of_order;
    delay_ms_ = &owned_->delay_ms;
    jitter_ms_ = &owned_->jitter_ms;
  }
}

void StreamSink::on_unit(const DataUnit& unit, sim::SimTime now) {
  delivered_->add();
  delay_ms_->observe(sim::to_ms(now - unit.created_at));

  // A unit counts as out of order only when it arrives more than the
  // playout tolerance after being overtaken (approximated by the time the
  // current max seq arrived).
  bool in_order = unit.seq > max_seq_seen_;
  if (!in_order && now - max_seq_time_ > reorder_tolerance_) {
    out_of_order_->add();
  } else if (!in_order) {
    in_order = true;  // inside the playout buffer: still usable
  }
  if (unit.seq > max_seq_seen_) {
    max_seq_seen_ = unit.seq;
    max_seq_time_ = now;
  }

  // Jitter relative to the deadline implied by the previous delivery and
  // the required period (paper §4.2, "Average Jitter"). The first unit
  // has no predecessor and defines the baseline.
  sim::SimDuration lateness = 0;
  if (last_arrival_ >= 0) {
    lateness = std::max<sim::SimDuration>(0, now - (last_arrival_ + period_));
  }
  jitter_ms_->observe(sim::to_ms(lateness));
  if (in_order && lateness <= tolerance_) timely_->add();
  last_arrival_ = now;
}

SinkStats StreamSink::stats() const {
  SinkStats s;
  s.delivered = delivered_->value();
  s.timely = timely_->value();
  s.out_of_order = out_of_order_->value();
  s.delay_ms = delay_ms_->summary();
  s.jitter_ms = jitter_ms_->summary();
  return s;
}

}  // namespace rasc::runtime
