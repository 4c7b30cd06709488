// Network topologies: per-node access bandwidth plus all-pairs propagation
// latency.
//
// This is the PlanetLab substitute. RASC's constraining resources are each
// node's input and output access bandwidth (paper §3.2: A_n = [b_in,
// b_out]); the wide-area core is modelled as latency-only, which matches
// how PlanetLab slices are usually bottlenecked at the site access link.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"
#include "util/rng.hpp"

namespace rasc::sim {

struct NodeCapacity {
  double bw_in_kbps = 0;   // access-link download capacity
  double bw_out_kbps = 0;  // access-link upload capacity
};

struct Topology {
  std::vector<NodeCapacity> nodes;
  /// latency_us[i][j]: one-way propagation delay i -> j. Symmetric in the
  /// provided generators, but the model does not require it.
  std::vector<std::vector<SimDuration>> latency_us;
  /// Independent per-packet loss probability (0 by default; drops in RASC
  /// come from deadline misses, not the wire).
  double loss_rate = 0.0;
  /// Maximum time a packet may wait in an access-link port queue before
  /// tail drop. Bounded queues are what turn persistent overload into
  /// packet loss (and hence into the drop-ratio feedback RASC relies on)
  /// instead of unbounded silent delay.
  SimDuration max_port_backlog = msec(400);
  /// Per-packet propagation jitter: each packet's latency is scaled by a
  /// uniform factor in [1-j, 1+j]. WAN paths reorder packets when queueing
  /// compresses inter-packet gaps below the jitter magnitude — the
  /// mechanism behind the paper's out-of-order deliveries (§4.2).
  double latency_jitter = 0.0;

  std::size_t size() const { return nodes.size(); }
};

/// Homogeneous topology: every node has the same capacity, every pair the
/// same latency. Useful for unit tests with hand-computable numbers.
Topology make_uniform_topology(std::size_t n, double bw_kbps,
                               SimDuration latency);

/// Parameters for the PlanetLab-like generator.
struct PlanetLabParams {
  double bw_min_kbps = 1000;   // slices are bandwidth-capped
  double bw_max_kbps = 4000;
  SimDuration latency_min = msec(10);
  SimDuration latency_max = msec(200);
  /// Per-packet latency jitter fraction (see Topology::latency_jitter).
  double latency_jitter = 0.25;
};

/// Heterogeneous WAN topology with skewed latencies and per-node asymmetric
/// bandwidth, deterministically derived from `rng`.
Topology make_planetlab_like(std::size_t n, util::Xoshiro256& rng,
                             const PlanetLabParams& params = {});

/// Node indices ordered by ascending min(bw_in, bw_out), ties broken by
/// index. Chaos scenarios use this to aim at the bottleneck access links
/// deterministically ("flap the weakest link", "overload the k weakest").
std::vector<std::size_t> nodes_by_ascending_bandwidth(const Topology& t);

}  // namespace rasc::sim
