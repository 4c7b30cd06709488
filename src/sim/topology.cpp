#include "sim/topology.hpp"

#include <algorithm>
#include <cassert>

namespace rasc::sim {
namespace {

/// Pareto shape for latency skew (smaller = heavier tail). Latencies are
/// sampled from a clipped Pareto so most pairs are near, some are far —
/// the shape seen in PlanetLab all-pairs ping datasets.
constexpr double kLatencyParetoShape = 1.6;

}  // namespace

Topology make_uniform_topology(std::size_t n, double bw_kbps,
                               SimDuration latency) {
  Topology t;
  t.nodes.assign(n, NodeCapacity{bw_kbps, bw_kbps});
  t.latency_us.assign(n, std::vector<SimDuration>(n, latency));
  for (std::size_t i = 0; i < n; ++i) t.latency_us[i][i] = 0;
  return t;
}

Topology make_planetlab_like(std::size_t n, util::Xoshiro256& rng,
                             const PlanetLabParams& params) {
  assert(params.bw_min_kbps > 0 && params.bw_max_kbps >= params.bw_min_kbps);
  Topology t;
  t.nodes.resize(n);
  for (auto& node : t.nodes) {
    // Download and upload capacities drawn independently: PlanetLab site
    // caps are asymmetric.
    node.bw_in_kbps = rng.uniform_double(params.bw_min_kbps,
                                         params.bw_max_kbps);
    node.bw_out_kbps = rng.uniform_double(params.bw_min_kbps,
                                          params.bw_max_kbps);
  }
  t.latency_jitter = params.latency_jitter;
  t.latency_us.assign(n, std::vector<SimDuration>(n, 0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      // Clipped Pareto: xm = latency_min, clipped at latency_max.
      const double raw =
          rng.pareto(double(params.latency_min), kLatencyParetoShape);
      const auto lat = SimDuration(
          std::clamp(raw, double(params.latency_min),
                     double(params.latency_max)));
      t.latency_us[i][j] = lat;
      t.latency_us[j][i] = lat;
    }
  }
  return t;
}

std::vector<std::size_t> nodes_by_ascending_bandwidth(const Topology& t) {
  std::vector<std::size_t> order(t.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&t](std::size_t a, std::size_t b) {
                     const double ba = std::min(t.nodes[a].bw_in_kbps,
                                                t.nodes[a].bw_out_kbps);
                     const double bb = std::min(t.nodes[b].bw_in_kbps,
                                                t.nodes[b].bw_out_kbps);
                     return ba < bb;
                   });
  return order;
}

}  // namespace rasc::sim
