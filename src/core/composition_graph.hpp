// Construction of the per-substream min-cost flow network (paper §3.5).
//
// Layered graph, all quantities normalized to destination-delivered units
// per second (see plan_math.hpp) and scaled to integral milli-ups:
//
//   S --cap: source out-bw--> SO --∞--> [stage 0 candidates] --∞--> H1
//     H1 --∞--> [stage 1 candidates] --∞--> H2 --∞--> ...
//     ... --∞--> [stage k-1 candidates] --∞--> TI --cap: dest in-bw--> T
//
// where one stage's candidates look like
//
//            ┌--∞--> in_0 --cap_0, cost_0--> out_0 --∞--┐
//   H_i -----┼--∞--> in_1 --cap_1, cost_1--> out_1 --∞--┼----> H_{i+1}
//            └--∞--> ...                      ...  --∞--┘
//
// Each candidate (service instance on a provider node) is split into an
// in/out vertex pair; the splitting arc carries the node's capacity
// min(avail_in, avail_out) translated to delivered ups (the paper's
// r_max(c_i, n)) and costs the node's observed drop ratio scaled by 1e6
// (the paper's cost_e). Inter-layer arcs are free and uncapacitated: node
// budgets live on the splitting arcs. So the layers meet at one hub vertex
// per stage boundary (SO is stage 0's hub) instead of a complete bipartite
// mesh: the same flows at the same cost, with 2P arcs per boundary rather
// than P² for P candidates. The flow solution simultaneously selects
// components and assigns their rates — the paper's key reduction.
#pragma once

#include <vector>

#include "flow/graph.hpp"
#include "runtime/plan.hpp"
#include "sim/message.hpp"

namespace rasc::core {

/// One provider option for one stage.
struct CandidateCap {
  sim::NodeIndex node = sim::kInvalidNode;
  /// Max delivered ups this instance could carry given the node's
  /// residual bandwidth (0 => effectively unusable but still modelled).
  double max_delivered_ups = 0;
  double drop_ratio = 0;
  /// Node utilization in [0,1]; used only as an epsilon tie-break (three
  /// orders of magnitude below the drop-ratio cost) so that among
  /// equally drop-free candidates the solver prefers less-loaded nodes
  /// instead of an arbitrary deterministic pile-up.
  double utilization = 0;
};

class CompositionGraph {
 public:
  /// Flow units are milli-delivered-ups: 1 flow unit = 0.001 units/sec
  /// delivered, giving 0.1% splitting granularity at paper-scale rates.
  static constexpr double kScale = 1000.0;
  /// Drop ratios in [0,1] are scaled to integer costs.
  static constexpr double kCostScale = 1e6;
  /// Utilization tie-break scale (kCostScale / 1000).
  static constexpr double kUtilizationCostScale = 1e3;

  CompositionGraph(const std::vector<std::vector<CandidateCap>>& stages,
                   double source_cap_delivered_ups,
                   double dest_cap_delivered_ups,
                   double demand_delivered_ups);

  flow::Graph& graph() { return graph_; }
  const flow::Graph& graph() const { return graph_; }
  flow::NodeId source() const { return source_; }
  flow::NodeId sink() const { return sink_; }
  flow::FlowUnit demand() const { return demand_; }

  /// Removes any flow left by a previous solve so the graph can be
  /// re-solved. Cheap (one pass over the arcs); the graph topology — and
  /// therefore a solver's adjacency snapshot — is untouched.
  void reset_flow() { graph_.clear_flow(); }

  /// Rewrites the capacity of the splitting arc of candidate (stage,
  /// index) to `delivered_ups`. Used by the composer's repair loop to
  /// tighten one persistent graph in place instead of rebuilding it.
  /// Call reset_flow() before a batch of edits: any flow on the arc is
  /// discarded.
  void set_candidate_cap(int stage, int index, double delivered_ups);

  /// Rewrites the cost of candidate (stage, index)'s splitting arc from
  /// fresh drop/utilization measurements. Used by the rate adapter when
  /// re-solving a persistent graph against drifted statistics. Cost edits
  /// invalidate solver snapshots (see flow::Graph::set_cost).
  void set_candidate_cost(int stage, int index, double drop_ratio,
                          double utilization);

  /// Rewrites the endpoint gate capacities (delivered ups).
  void set_source_cap(double delivered_ups);
  void set_dest_cap(double delivered_ups);

  /// Integer cost per flow unit for the given measurements — the exact
  /// pricing the splitting arcs use. Exposed so the rate adapter can cost
  /// the currently-deployed plan with the same model when applying its
  /// hysteresis threshold.
  static flow::Cost unit_cost(double drop_ratio, double utilization);
  /// Delivered ups -> integer flow units (same floor the graph applies).
  static flow::FlowUnit flow_units(double delivered_ups);

  /// After solving: per-stage (node, delivered ups) shares. Shares smaller
  /// than `min_share_fraction` of the demand are folded into the stage's
  /// largest share — micro-slivers would cost a component deployment for
  /// no benefit.
  std::vector<std::vector<runtime::Placement>> extract_shares(
      double min_share_fraction = 0.01) const;

  /// Delivered ups actually carried by candidate (stage, index) in the
  /// current flow (tests).
  double candidate_flow_ups(int stage, int index) const;

 private:
  struct CandidateArcs {
    sim::NodeIndex node;
    flow::ArcId through_arc;
  };

  flow::Graph graph_;
  flow::NodeId source_ = 0;
  flow::NodeId sink_ = 0;
  flow::FlowUnit demand_ = 0;
  flow::ArcId source_gate_arc_ = 0;
  flow::ArcId dest_gate_arc_ = 0;
  std::vector<std::vector<CandidateArcs>> stage_arcs_;
};

}  // namespace rasc::core
