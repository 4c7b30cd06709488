#include "core/latency_model.hpp"

#include <map>
#include <stdexcept>

#include "sim/time.hpp"

namespace rasc::core {
namespace {

double base_cpu(const monitor::NodeStats* stats) {
  if (stats == nullptr) return 0;
  return stats->cpu_used_fraction > stats->cpu_reserved_fraction
             ? stats->cpu_used_fraction
             : stats->cpu_reserved_fraction;
}

/// Wire load one plan adds to a node's access ports, in kbps.
struct WireLoad {
  double in_kbps = 0;
  double out_kbps = 0;
};

double to_kbps(double units_per_sec, double unit_bytes) {
  return units_per_sec * unit_bytes * 8.0 / 1000.0;
}

/// One side of a hop: deterministic serialization at the port's effective
/// capacity plus the M/D/1 port wait at its utilization (base usage plus
/// the plan's own planned rate). Zero when stats are missing or carry no
/// capacity — synthetic fixtures degenerate to the pure CPU chain.
double port_ms(const monitor::NodeStats* stats, bool egress,
               double unit_bytes, double added_kbps) {
  if (stats == nullptr) return 0;
  const double capacity =
      egress ? stats->capacity_out_kbps : stats->capacity_in_kbps;
  if (capacity <= 0) return 0;
  const double used =
      egress ? (stats->used_out_kbps > stats->reserved_out_kbps
                    ? stats->used_out_kbps
                    : stats->reserved_out_kbps)
             : (stats->used_in_kbps > stats->reserved_in_kbps
                    ? stats->used_in_kbps
                    : stats->reserved_in_kbps);
  const double rho = (used + added_kbps) / capacity;
  // bits / (kbit/s) = ms.
  const double tx_ms = unit_bytes * 8.0 / capacity;
  return tx_ms + LatencyModel::mg1_wait_ms(tx_ms, 0.0, rho,
                                           LatencyModel::kUtilizationCap);
}

}  // namespace

LatencyModel::LatencyModel(const runtime::ServiceCatalog& catalog,
                           Options options)
    : catalog_(catalog), options_(std::move(options)) {
  if (!options_.link_latency_ms) {
    throw std::invalid_argument("LatencyModel requires link_latency_ms");
  }
}

double LatencyModel::mg1_wait_ms(double mean_service_ms, double jitter,
                                 double rho, double cap) {
  if (rho <= 0) return 0;
  if (rho >= cap) return kInfinity;
  // E[S^2]/E[S] = m (1 + j^2/3) for uniform service in m * [1-j, 1+j].
  return rho * mean_service_ms * (1.0 + jitter * jitter / 3.0) /
         (2.0 * (1.0 - rho));
}

bool LatencyModel::saturated(const monitor::NodeStats* stats,
                             double added_rho) const {
  return base_cpu(stats) + added_rho >= kUtilizationCap;
}

double LatencyModel::predict_ms(const runtime::AppPlan& plan,
                                const StatsFn& stats_of,
                                std::vector<double>* per_substream) const {
  if (per_substream != nullptr) per_substream->clear();

  // Pass 1: CPU utilization and access-port wire load the plan itself
  // adds to each node. Placement rates are per-instance *input* units/sec,
  // so rho_added = lambda * E[S]; wire rates follow the chain's per-stage
  // unit sizes (output_size_factor) and rate ratios.
  std::map<sim::NodeIndex, double> added;
  std::map<sim::NodeIndex, WireLoad> wire;
  for (const auto& ss : plan.substreams) {
    double bytes = double(ss.unit_bytes);
    if (!ss.stages.empty()) {
      wire[plan.source].out_kbps +=
          to_kbps(ss.stages.front().total_rate(), bytes);
    }
    for (const auto& st : ss.stages) {
      const auto& spec = catalog_.get(st.service);
      const double secs_per_unit = sim::to_seconds(spec.cpu_time_per_unit);
      const double out_bytes = bytes * spec.output_size_factor;
      for (const auto& p : st.placements) {
        added[p.node] += p.rate_units_per_sec * secs_per_unit;
        WireLoad& w = wire[p.node];
        w.in_kbps += to_kbps(p.rate_units_per_sec, bytes);
        w.out_kbps +=
            to_kbps(p.rate_units_per_sec * spec.rate_ratio, out_bytes);
      }
      bytes = out_bytes;
    }
    wire[plan.destination].in_kbps += to_kbps(ss.rate_units_per_sec, bytes);
  }
  const auto wire_of = [&wire](sim::NodeIndex n) -> const WireLoad& {
    static const WireLoad kNone;
    const auto it = wire.find(n);
    return it == wire.end() ? kNone : it->second;
  };

  // Pass 2: walk each substream chain. Across a split stage the expected
  // hop latency is the rate-weighted mean over placement pairs (units are
  // routed to instances in proportion to their rate shares, independently
  // per hop).
  double worst = 0;
  for (const auto& ss : plan.substreams) {
    double total_ms = 0;
    double bytes = double(ss.unit_bytes);  // unit size entering each stage
    // (node, rate weight) of the previous hop; starts at the source.
    std::vector<std::pair<sim::NodeIndex, double>> prev{{plan.source, 1.0}};
    for (const auto& st : ss.stages) {
      const auto& spec = catalog_.get(st.service);
      const double mean_ms = sim::to_ms(spec.cpu_time_per_unit);
      const double total_rate = st.total_rate();
      double hop_ms = 0;    // expected link + port latency into this stage
      double stage_ms = 0;  // expected wait + service at this stage
      std::vector<std::pair<sim::NodeIndex, double>> cur;
      cur.reserve(st.placements.size());
      for (const auto& p : st.placements) {
        const double w =
            total_rate > 0
                ? p.rate_units_per_sec / total_rate
                : 1.0 / double(st.placements.size() ? st.placements.size()
                                                    : 1);
        cur.emplace_back(p.node, w);
        const double rx_ms =
            port_ms(stats_of(p.node), /*egress=*/false, bytes,
                    wire_of(p.node).in_kbps);
        for (const auto& [from, fw] : prev) {
          const double tx_ms =
              from == p.node
                  ? 0.0
                  : port_ms(stats_of(from), /*egress=*/true, bytes,
                            wire_of(from).out_kbps);
          hop_ms += fw * w *
                    (options_.link_latency_ms(from, p.node) +
                     (from == p.node ? 0.0 : tx_ms + rx_ms));
        }
        const auto it = added.find(p.node);
        const double rho =
            base_cpu(stats_of(p.node)) + (it != added.end() ? it->second : 0);
        const double wait = mg1_wait_ms(mean_ms, spec.cpu_time_jitter, rho,
                                        kUtilizationCap);
        stage_ms += w * (wait + mean_ms);
      }
      total_ms += hop_ms + stage_ms;
      prev = std::move(cur);
      bytes *= spec.output_size_factor;
    }
    // Final hop into the destination sink.
    for (const auto& [from, fw] : prev) {
      const double wire_ms =
          from == plan.destination
              ? 0.0
              : port_ms(stats_of(from), /*egress=*/true, bytes,
                        wire_of(from).out_kbps) +
                    port_ms(stats_of(plan.destination), /*egress=*/false,
                            bytes, wire_of(plan.destination).in_kbps);
      total_ms +=
          fw * (options_.link_latency_ms(from, plan.destination) + wire_ms);
    }
    if (per_substream != nullptr) per_substream->push_back(total_ms);
    if (total_ms > worst) worst = total_ms;
  }
  return worst;
}

}  // namespace rasc::core
