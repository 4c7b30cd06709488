// Composer interface shared by RASC's min-cost composition and the two
// baselines the paper evaluates against (random and greedy, §4.1).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/request.hpp"
#include "monitor/node_stats.hpp"
#include "runtime/plan.hpp"
#include "runtime/service.hpp"

namespace rasc::core {

class LatencyModel;

/// Everything a composer sees: the request, the discovered providers per
/// service with their latest stats snapshots, the endpoints' stats, and
/// the service catalog (for rate ratios / unit-size factors).
struct ComposeInput {
  ServiceRequest request;
  /// service name -> stats of each provider node (discovery + monitoring
  /// output; paper §3.1 steps 1-2).
  std::map<std::string, std::vector<monitor::NodeStats>> providers;
  monitor::NodeStats source_stats;
  monitor::NodeStats destination_stats;
  const runtime::ServiceCatalog* catalog = nullptr;
};

struct ComposeResult {
  bool admitted = false;
  runtime::AppPlan plan;
  std::string error;  // why the request was rejected
  /// Objective value (scaled expected drops) for admitted min-cost plans;
  /// 0 for the baselines.
  std::int64_t objective = 0;
  /// Predicted end-to-end latency of the plan (ms) when the composer ran
  /// with a LatencyModel and the request carried a deadline; -1 when no
  /// prediction was made.
  double predicted_latency_ms = -1;
};

class Composer {
 public:
  virtual ~Composer() = default;
  virtual const char* name() const = 0;
  virtual ComposeResult compose(const ComposeInput& input) = 0;
};

/// Residual bandwidth ledger used by every composer to account for the
/// capacity its own earlier decisions (previous substreams of the same
/// request) already consumed — Algorithm 1's "Update the node capacities".
class ResidualTracker {
 public:
  /// `headroom` scales every node's reported availability: admitting up
  /// to only ~90% of capacity leaves room for control traffic and for
  /// the admission races between concurrent coordinators working from
  /// slightly stale statistics.
  static constexpr double kDefaultHeadroom = 0.90;

  explicit ResidualTracker(const ComposeInput& input,
                           double headroom = kDefaultHeadroom);

  double avail_in_kbps(sim::NodeIndex node) const;
  double avail_out_kbps(sim::NodeIndex node) const;
  double avail_cpu_fraction(sim::NodeIndex node) const;
  double drop_ratio(sim::NodeIndex node) const;
  /// False when the node's snapshot held no drop outcomes — its
  /// drop_ratio is a placeholder zero, not a measurement. Cost models
  /// should substitute a prior rather than treat the node as drop-free.
  bool drop_known(sim::NodeIndex node) const;
  /// Drop ratio the min-cost pricing charges for `node`: the measured
  /// ratio, or 0 when drop_known() is false — a never-sampled node is
  /// priced as drop-free, whatever placeholder its snapshot carried.
  double priced_drop_ratio(sim::NodeIndex node) const {
    return drop_known(node) ? drop_ratio(node) : 0.0;
  }

  void consume(sim::NodeIndex node, double in_kbps, double out_kbps,
               double cpu_fraction = 0.0);

 private:
  struct Entry {
    double avail_in = 0;
    double avail_out = 0;
    double avail_cpu = 0;
    double drop_ratio = 0;
    bool drop_known = false;
  };
  std::map<sim::NodeIndex, Entry> entries_;
};

/// Latency SLO admission: with a deadline and a `model`, predicts
/// `result->plan`'s end-to-end latency from the input's snapshots (the
/// plan is not in them yet) and, when it misses the deadline, turns
/// `result` into a rejection and returns false.
bool admit_predicted_latency(const ComposeInput& input,
                             const LatencyModel* model,
                             ComposeResult* result);

}  // namespace rasc::core
