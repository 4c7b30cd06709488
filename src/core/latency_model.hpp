// Queueing-theoretic end-to-end latency prediction (DRS-style).
//
// Models every component instance as an M/G/1 queue: units arrive at the
// planned input rate, service times come from ServiceSpec
// (cpu_time_per_unit with uniform +-jitter), and the server is the hosting
// node's single CPU — so the utilization that drives queueing delay is the
// node's *aggregate* utilization across all co-located components, not
// just this component's own load. An app's predicted end-to-end latency is
// then, per substream, the sum along the component chain of link latency
// plus per-stage queueing wait plus mean service time; the app's latency
// is the max over its substreams (they ship in parallel).
//
// With uniform service jitter j the second moment is
//   E[S^2] = m^2 (1 + j^2/3),
// so the Pollaczek-Khinchine mean wait
//   W = lambda E[S^2] / (2 (1 - rho)) = rho m (1 + j^2/3) / (2 (1 - rho)),
// which reduces exactly to the M/D/1 closed form W = rho m / (2 (1 - rho))
// when j = 0 — the anchor for the property test. Utilization at or above
// `kUtilizationCap` predicts infinity: the queue has no steady state, so
// admission must price the node as unusable.
//
// Hops are modeled too, when the endpoint's stats carry link capacities:
// each hop pays the sender's egress port and the receiver's ingress port —
// deterministic serialization (unit bits / effective capacity) plus an
// M/D/1 port wait at the link's utilization, with the plan's own planned
// wire rates layered on the measured base exactly like the CPU pass. A
// bandwidth fault that sags an access link therefore shows up as a
// predicted latency spike *before* the port backlog starts dropping
// units. Stats with zero capacities (synthetic fixtures) contribute no
// wire terms — the prediction degenerates to the pure CPU chain.
#pragma once

#include <functional>
#include <limits>
#include <vector>

#include "monitor/node_stats.hpp"
#include "runtime/plan.hpp"
#include "runtime/service.hpp"
#include "sim/message.hpp"

namespace rasc::core {

class LatencyModel {
 public:
  /// Utilization at or above this predicts an unbounded queue.
  static constexpr double kUtilizationCap = 0.98;

  struct Options {
    /// Mean one-way latency of the overlay link a -> b in milliseconds
    /// (0 for a == b). Required.
    std::function<double(sim::NodeIndex, sim::NodeIndex)> link_latency_ms;
  };

  /// Looks up the freshest known stats for a node; nullptr when the node
  /// is unknown (treated as idle).
  using StatsFn = std::function<const monitor::NodeStats*(sim::NodeIndex)>;

  LatencyModel(const runtime::ServiceCatalog& catalog, Options options);

  /// Pollaczek-Khinchine mean queueing wait (ms) for a service with mean
  /// service time `mean_service_ms` and uniform jitter fraction `jitter`,
  /// on a server running at aggregate utilization `rho`. Returns +inf at
  /// rho >= cap.
  static double mg1_wait_ms(double mean_service_ms, double jitter,
                            double rho, double cap);

  /// Predicted end-to-end latency (ms) of `plan`, taking the base
  /// utilization of each node from `stats_of` and layering the plan's own
  /// planned rates on top. The caller chooses the base: for admission the
  /// candidate plan is not yet reflected in stats; for adaptation the
  /// deployed plan's contribution must first be credited back (see
  /// RateAdapter). Returns +inf when any node the plan touches would run
  /// at or past the utilization cap. `per_substream`, when non-null,
  /// receives one prediction per substream in plan order.
  double predict_ms(const runtime::AppPlan& plan, const StatsFn& stats_of,
                    std::vector<double>* per_substream = nullptr) const;

  /// Aggregate CPU utilization of `node` after adding `added_rho` to its
  /// measured/reserved base. Saturation test for candidate pruning.
  bool saturated(const monitor::NodeStats* stats, double added_rho) const;

  static constexpr double kInfinity =
      std::numeric_limits<double>::infinity();

 private:
  const runtime::ServiceCatalog& catalog_;
  Options options_;
};

}  // namespace rasc::core
