#include "core/composition_graph.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace rasc::core {

namespace {

flow::FlowUnit to_flow_units(double delivered_ups) {
  if (delivered_ups <= 0) return 0;
  const double scaled = delivered_ups * CompositionGraph::kScale;
  if (scaled >= double(flow::kInfiniteCap)) return flow::kInfiniteCap;
  return flow::FlowUnit(std::floor(scaled));
}

flow::Cost to_cost(double drop_ratio, double utilization) {
  const double drop = std::clamp(drop_ratio, 0.0, 1.0);
  const double util = std::clamp(utilization, 0.0, 1.0);
  return flow::Cost(
      std::llround(drop * CompositionGraph::kCostScale +
                   util * CompositionGraph::kUtilizationCostScale));
}

}  // namespace

CompositionGraph::CompositionGraph(
    const std::vector<std::vector<CandidateCap>>& stages,
    double source_cap_delivered_ups, double dest_cap_delivered_ups,
    double demand_delivered_ups) {
  assert(!stages.empty());
  demand_ = to_flow_units(demand_delivered_ups);

  source_ = graph_.add_node();
  sink_ = graph_.add_node();
  const flow::NodeId source_gate = graph_.add_node();
  const flow::NodeId dest_gate = graph_.add_node();

  source_gate_arc_ = graph_.add_arc(
      source_, source_gate, to_flow_units(source_cap_delivered_ups), 0);
  dest_gate_arc_ = graph_.add_arc(dest_gate, sink_,
                                  to_flow_units(dest_cap_delivered_ups), 0);

  // Create candidate vertex pairs per stage.
  std::vector<std::vector<std::pair<flow::NodeId, flow::NodeId>>> vertices;
  stage_arcs_.resize(stages.size());
  vertices.resize(stages.size());
  for (std::size_t st = 0; st < stages.size(); ++st) {
    for (const CandidateCap& cand : stages[st]) {
      const flow::NodeId cin = graph_.add_node();
      const flow::NodeId cout = graph_.add_node();
      const flow::ArcId through = graph_.add_arc(
          cin, cout, to_flow_units(cand.max_delivered_ups),
          to_cost(cand.drop_ratio, cand.utilization));
      vertices[st].emplace_back(cin, cout);
      stage_arcs_[st].push_back(CandidateArcs{cand.node, through});
    }
  }

  // Wire the layers through one hub per stage boundary (see the header):
  // every out-vertex of stage st-1 feeds the hub, the hub feeds every
  // in-vertex of stage st. Stage 0's hub is the source gate.
  flow::NodeId hub = source_gate;
  for (std::size_t st = 0; st < stages.size(); ++st) {
    if (st > 0) {
      hub = graph_.add_node();
      for (const auto& prev : vertices[st - 1]) {
        graph_.add_arc(prev.second, hub, flow::kInfiniteCap, 0);
      }
    }
    for (const auto& [cin, cout] : vertices[st]) {
      graph_.add_arc(hub, cin, flow::kInfiniteCap, 0);
      if (st + 1 == stages.size()) {
        graph_.add_arc(cout, dest_gate, flow::kInfiniteCap, 0);
      }
    }
  }
}

void CompositionGraph::set_candidate_cap(int stage, int index,
                                         double delivered_ups) {
  const auto& arcs = stage_arcs_[std::size_t(stage)];
  graph_.set_capacity(arcs[std::size_t(index)].through_arc,
                      to_flow_units(delivered_ups));
}

void CompositionGraph::set_candidate_cost(int stage, int index,
                                          double drop_ratio,
                                          double utilization) {
  const auto& arcs = stage_arcs_[std::size_t(stage)];
  graph_.set_cost(arcs[std::size_t(index)].through_arc,
                  to_cost(drop_ratio, utilization));
}

flow::Cost CompositionGraph::unit_cost(double drop_ratio,
                                       double utilization) {
  return to_cost(drop_ratio, utilization);
}

flow::FlowUnit CompositionGraph::flow_units(double delivered_ups) {
  return to_flow_units(delivered_ups);
}

void CompositionGraph::set_source_cap(double delivered_ups) {
  graph_.set_capacity(source_gate_arc_, to_flow_units(delivered_ups));
}

void CompositionGraph::set_dest_cap(double delivered_ups) {
  graph_.set_capacity(dest_gate_arc_, to_flow_units(delivered_ups));
}

double CompositionGraph::candidate_flow_ups(int stage, int index) const {
  const auto& arcs = stage_arcs_[std::size_t(stage)];
  return double(graph_.flow(arcs[std::size_t(index)].through_arc)) / kScale;
}

std::vector<std::vector<runtime::Placement>> CompositionGraph::extract_shares(
    double min_share_fraction) const {
  std::vector<std::vector<runtime::Placement>> out(stage_arcs_.size());
  const double min_share =
      min_share_fraction * double(demand_) / kScale;
  for (std::size_t st = 0; st < stage_arcs_.size(); ++st) {
    auto& placements = out[st];
    for (const auto& cand : stage_arcs_[st]) {
      const double ups = double(graph_.flow(cand.through_arc)) / kScale;
      if (ups <= 0) continue;
      placements.push_back(runtime::Placement{cand.node, ups});
    }
    if (placements.empty()) continue;
    // Fold micro-slivers into the largest share.
    auto largest = std::max_element(
        placements.begin(), placements.end(),
        [](const runtime::Placement& a, const runtime::Placement& b) {
          return a.rate_units_per_sec < b.rate_units_per_sec;
        });
    const std::size_t largest_idx =
        std::size_t(largest - placements.begin());
    std::vector<runtime::Placement> kept;
    double folded = 0;
    for (std::size_t j = 0; j < placements.size(); ++j) {
      if (j != largest_idx &&
          placements[j].rate_units_per_sec < min_share) {
        folded += placements[j].rate_units_per_sec;
      } else {
        kept.push_back(placements[j]);
      }
    }
    for (auto& p : kept) {
      if (p.node == placements[largest_idx].node) {
        p.rate_units_per_sec += folded;
        break;
      }
    }
    out[st] = std::move(kept);
  }
  return out;
}

}  // namespace rasc::core
