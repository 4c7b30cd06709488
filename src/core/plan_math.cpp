#include "core/plan_math.hpp"

#include <algorithm>
#include <cassert>

namespace rasc::core {

double wire_kbps(double ups, double unit_bytes) {
  return ups * (unit_bytes + double(sim::Network::kFrameOverheadBytes)) *
         8.0 / 1000.0;
}

double payload_kbps(double ups, double unit_bytes) {
  return ups * unit_bytes * 8.0 / 1000.0;
}

SubstreamMath::SubstreamMath(const Substream& substream,
                             const runtime::ServiceCatalog& catalog,
                             std::int64_t source_unit_bytes) {
  const int k = int(substream.services.size());
  ratio_.reserve(std::size_t(k));
  in_bytes_.resize(std::size_t(k) + 1);
  in_per_delivered_.resize(std::size_t(k) + 1);

  in_bytes_[0] = double(source_unit_bytes);
  for (int i = 0; i < k; ++i) {
    const auto& spec = catalog.get(substream.services[std::size_t(i)]);
    assert(spec.rate_ratio > 0);
    ratio_.push_back(spec.rate_ratio);
    cpu_secs_.push_back(sim::to_seconds(spec.cpu_time_per_unit));
    in_bytes_[std::size_t(i) + 1] =
        in_bytes_[std::size_t(i)] * spec.output_size_factor;
  }
  // Walk backwards: one delivered unit requires 1/prod_{j>=i} R_j units
  // entering stage i.
  in_per_delivered_[std::size_t(k)] = 1.0;
  for (int i = k - 1; i >= 0; --i) {
    in_per_delivered_[std::size_t(i)] =
        in_per_delivered_[std::size_t(i) + 1] / ratio_[std::size_t(i)];
  }
}

double SubstreamMath::delivered_ups(double rate_kbps) const {
  const double dest_bytes = in_bytes_.back();
  assert(dest_bytes > 0);
  return rate_kbps * 1000.0 / (8.0 * dest_bytes);
}

double SubstreamMath::wire_in_kbps(int stage, double delivered) const {
  return wire_kbps(in_ups(stage, delivered), in_unit_bytes(stage));
}

double SubstreamMath::wire_out_kbps(int stage, double delivered) const {
  // Output of stage i is the input of stage i+1.
  return wire_kbps(in_ups(stage + 1, delivered), in_unit_bytes(stage + 1));
}

double SubstreamMath::max_delivered_ups(int stage, double avail_in_kbps,
                                        double avail_out_kbps,
                                        double avail_cpu_fraction) const {
  // Solve wire_in_kbps(stage, d) <= avail_in, wire_out <= avail_out and
  // (optionally) cpu_secs * in_ups <= avail_cpu.
  const double per_in =
      wire_in_kbps(stage, 1.0);  // wire Kbps per delivered ups (linear)
  const double per_out = wire_out_kbps(stage, 1.0);
  double d = 1e18;
  if (per_in > 0) d = std::min(d, avail_in_kbps / per_in);
  if (per_out > 0) d = std::min(d, avail_out_kbps / per_out);
  if (avail_cpu_fraction >= 0) {
    const double per_cpu =
        cpu_secs_per_in_unit(stage) * in_units_per_delivered(stage);
    if (per_cpu > 0) d = std::min(d, avail_cpu_fraction / per_cpu);
  }
  return std::max(d, 0.0);
}

runtime::AppPlan build_app_plan(
    const ServiceRequest& request, const runtime::ServiceCatalog& catalog,
    const std::vector<std::vector<std::vector<runtime::Placement>>>&
        delivered_shares) {
  assert(delivered_shares.size() == request.substreams.size());
  runtime::AppPlan plan;
  plan.app = request.app;
  plan.source = request.source;
  plan.destination = request.destination;

  for (std::size_t ss = 0; ss < request.substreams.size(); ++ss) {
    const auto& sub = request.substreams[ss];
    const SubstreamMath math(sub, catalog, request.unit_bytes);

    runtime::SubstreamPlan sp;
    sp.unit_bytes = request.unit_bytes;
    sp.rate_units_per_sec = math.delivered_ups(sub.rate_kbps);

    const auto& stage_shares = delivered_shares[ss];
    assert(stage_shares.size() == sub.services.size());
    for (std::size_t st = 0; st < stage_shares.size(); ++st) {
      runtime::StagePlan stage;
      stage.service = sub.services[st];
      for (const auto& share : stage_shares[st]) {
        runtime::Placement p;
        p.node = share.node;
        // Convert the delivered-ups share to this instance's input rate.
        p.rate_units_per_sec =
            math.in_ups(int(st), share.rate_units_per_sec);
        stage.placements.push_back(p);
      }
      sp.stages.push_back(std::move(stage));
    }
    plan.substreams.push_back(std::move(sp));
  }
  return plan;
}

std::map<sim::NodeIndex, LeaseDebit> leased_plan_bandwidth(
    const runtime::AppPlan& plan, const runtime::ServiceCatalog& catalog) {
  std::map<sim::NodeIndex, LeaseDebit> debits;
  for (const auto& sub : plan.substreams) {
    double in_bytes = double(sub.unit_bytes);
    for (const auto& stage : sub.stages) {
      const auto& spec = catalog.get(stage.service);
      // The exact unit sizes the deploy messages will carry.
      const std::int64_t in_unit = std::int64_t(in_bytes + 0.5);
      const std::int64_t out_unit =
          std::int64_t(double(in_unit) * spec.output_size_factor + 0.5);
      for (const auto& p : stage.placements) {
        LeaseDebit& d = debits[p.node];
        d.in_kbps += wire_kbps(p.rate_units_per_sec, double(in_unit));
        d.out_kbps += wire_kbps(p.rate_units_per_sec * spec.rate_ratio,
                                double(out_unit));
      }
      in_bytes *= spec.output_size_factor;
    }
    const std::int64_t sink_unit = std::int64_t(in_bytes + 0.5);
    debits[plan.destination].in_kbps +=
        wire_kbps(sub.rate_units_per_sec, double(sink_unit));
  }
  return debits;
}

}  // namespace rasc::core
