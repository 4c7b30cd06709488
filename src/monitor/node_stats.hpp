// The per-node statistics snapshot exchanged during composition.
//
// This is the paper's availability vector A_n = [b_in, b_out] (§3.2/§3.5)
// plus the congestion feedback (drop ratio) that becomes the edge cost in
// the min-cost composition graph.
#pragma once

#include <cstdint>

#include "sim/message.hpp"
#include "sim/time.hpp"

namespace rasc::monitor {

struct NodeStats {
  sim::NodeIndex node = sim::kInvalidNode;

  // Capacity of the access link (static).
  double capacity_in_kbps = 0;
  double capacity_out_kbps = 0;

  // Windowed utilization measured from delivered traffic.
  double used_in_kbps = 0;
  double used_out_kbps = 0;

  // Bandwidth committed to already-admitted streams (the runtime registers
  // a reservation when a component or sink is deployed). Measurement lags
  // admission, so availability accounting takes max(measured, reserved).
  double reserved_in_kbps = 0;
  double reserved_out_kbps = 0;

  // CPU: one processor per node; used/reserved are fractions of it.
  // The paper's general model allows any number of rate-based resources
  // (§2.1); CPU is the second one this implementation tracks.
  double cpu_used_fraction = 0;
  double cpu_reserved_fraction = 0;

  // Fraction of data units dropped at this node over the monitoring
  // window (deadline misses + queue overflow). The min-cost edge cost.
  double drop_ratio = 0;

  // How many outcomes the drop window held when the snapshot was taken.
  // Zero means drop_ratio carries no information: the node has processed
  // nothing yet, not that it is drop-free. Cost-assignment sites must
  // check this before trusting drop_ratio (see
  // ResidualTracker::priced_drop_ratio).
  std::int64_t drop_samples = 0;

  // Scheduler snapshot (informational; used by tests and examples).
  std::int64_t ready_queue_length = 0;

  // When the snapshot was taken (staleness accounting).
  sim::SimTime taken_at = 0;

  double available_in_kbps() const {
    const double used =
        used_in_kbps > reserved_in_kbps ? used_in_kbps : reserved_in_kbps;
    const double a = capacity_in_kbps - used;
    return a > 0 ? a : 0;
  }
  double available_out_kbps() const {
    const double used =
        used_out_kbps > reserved_out_kbps ? used_out_kbps : reserved_out_kbps;
    const double a = capacity_out_kbps - used;
    return a > 0 ? a : 0;
  }
  double available_cpu_fraction() const {
    const double used = cpu_used_fraction > cpu_reserved_fraction
                            ? cpu_used_fraction
                            : cpu_reserved_fraction;
    const double a = 1.0 - used;
    return a > 0 ? a : 0;
  }
};

}  // namespace rasc::monitor
