#include "core/composer.hpp"

#include <algorithm>
#include <sstream>

#include "core/latency_model.hpp"

namespace rasc::core {

ResidualTracker::ResidualTracker(const ComposeInput& input,
                                 double headroom) {
  auto note = [this, headroom](const monitor::NodeStats& s) {
    if (s.node < 0) return;
    auto& e = entries_[s.node];  // last writer wins; snapshots agree
    e.avail_in = s.available_in_kbps() * headroom;
    e.avail_out = s.available_out_kbps() * headroom;
    e.avail_cpu = s.available_cpu_fraction() * headroom;
    e.drop_ratio = s.drop_ratio;
    e.drop_known = s.drop_samples > 0;
  };
  for (const auto& [service, stats] : input.providers) {
    (void)service;
    for (const auto& s : stats) note(s);
  }
  note(input.source_stats);
  note(input.destination_stats);
}

double ResidualTracker::avail_in_kbps(sim::NodeIndex node) const {
  const auto it = entries_.find(node);
  return it == entries_.end() ? 0.0 : it->second.avail_in;
}

double ResidualTracker::avail_out_kbps(sim::NodeIndex node) const {
  const auto it = entries_.find(node);
  return it == entries_.end() ? 0.0 : it->second.avail_out;
}

double ResidualTracker::drop_ratio(sim::NodeIndex node) const {
  const auto it = entries_.find(node);
  return it == entries_.end() ? 1.0 : it->second.drop_ratio;
}

bool ResidualTracker::drop_known(sim::NodeIndex node) const {
  const auto it = entries_.find(node);
  return it != entries_.end() && it->second.drop_known;
}

double ResidualTracker::avail_cpu_fraction(sim::NodeIndex node) const {
  const auto it = entries_.find(node);
  return it == entries_.end() ? 0.0 : it->second.avail_cpu;
}

void ResidualTracker::consume(sim::NodeIndex node, double in_kbps,
                              double out_kbps, double cpu_fraction) {
  auto& e = entries_[node];
  e.avail_in = std::max(0.0, e.avail_in - in_kbps);
  e.avail_out = std::max(0.0, e.avail_out - out_kbps);
  e.avail_cpu = std::max(0.0, e.avail_cpu - cpu_fraction);
}

bool admit_predicted_latency(const ComposeInput& input,
                             const LatencyModel* model,
                             ComposeResult* result) {
  const auto& req = input.request;
  if (req.deadline_ms <= 0 || model == nullptr) return true;
  // Freshest-known stats per node across the whole compose input (first
  // snapshot seen per node wins).
  std::map<sim::NodeIndex, const monitor::NodeStats*> by_node;
  for (const auto& [service, stats] : input.providers) {
    for (const auto& s : stats) by_node.emplace(s.node, &s);
  }
  by_node.emplace(input.source_stats.node, &input.source_stats);
  by_node.emplace(input.destination_stats.node, &input.destination_stats);
  const double predicted = model->predict_ms(
      result->plan,
      [&by_node](sim::NodeIndex n) -> const monitor::NodeStats* {
        const auto it = by_node.find(n);
        return it == by_node.end() ? nullptr : it->second;
      });
  result->predicted_latency_ms = predicted;
  if (predicted <= req.deadline_ms) return true;
  std::ostringstream os;
  os << "predicted latency " << predicted << " ms exceeds deadline "
     << req.deadline_ms << " ms";
  result->error = os.str();
  result->plan = {};
  result->objective = 0;
  return false;
}

}  // namespace rasc::core
