// Successive-shortest-path min-cost flow with Johnson potentials.
//
// This is the production solver RASC's composer calls (paper §3.5 reduces
// rate-splitting composition to min-cost flow and cites Edmonds–Karp and
// Goldberg). Composition graphs have nonnegative costs (drop ratios), so
// each augmentation is a pure Dijkstra; a Bellman–Ford bootstrap handles
// negative costs for generality (and for the random property tests).
//
// The solver is a reusable object: its Dijkstra/DFS workspaces, heap
// storage, and flattened adjacency snapshot persist across calls, and the
// node potentials are warm-started between the composer's repair
// iterations (see DESIGN.md "Solver internals & performance").
#pragma once

#include <cstdint>
#include <vector>

#include "flow/graph.hpp"

namespace rasc::flow {

struct SolveResult {
  FlowUnit flow = 0;  // amount actually routed (<= demand)
  Cost cost = 0;      // total cost of that flow
  /// True iff the full demand was routed.
  bool feasible = false;
};

/// Reusable min-cost-flow solver.
///
/// One instance holds all per-solve scratch state:
///  - dist / parent_arc / potential vectors, sized once per node count,
///  - the Dijkstra binary-heap storage,
///  - a flattened (CSR) adjacency snapshot keyed by Graph::structure_key(),
///    rebuilt only when the topology actually changes,
///  - DFS cursors for phase-batched augmentation: after each Dijkstra the
///    solver saturates *all* zero-reduced-cost augmenting paths it can find
///    (a partial blocking flow) before re-running Dijkstra, instead of one
///    shortest path per Dijkstra.
///
/// Every solve on a graph with the same structure_key() as the previous
/// one reuses that solve's potentials. They are validated in one O(arcs)
/// pass (capacity edits can invalidate them) and discarded when stale, so
/// this is always safe — just faster when the caller re-solves after
/// small capacity changes, as the composer's repair loop does. A cold
/// solve scans for negative-cost arcs and bootstraps the potentials with
/// Bellman–Ford only when it finds one; composition graphs never have
/// any (costs are drop ratios).
///
/// Not thread-safe; use one instance per thread.
class SspSolver {
 public:
  /// Routes up to `demand` units from `source` to `sink` at minimum cost.
  /// The flow is left on `graph` (query via Graph::flow). When the network
  /// cannot carry the full demand, the result carries the max routable
  /// amount (still at min cost for that amount) and feasible == false.
  SolveResult solve(Graph& graph, NodeId source, NodeId sink,
                    FlowUnit demand);

 private:
  void sync_topology(const Graph& graph);
  bool has_negative_arc(const Graph& graph) const;
  bool potentials_valid(const Graph& graph) const;
  bool bellman_ford(const Graph& graph, NodeId source);
  /// Returns false when `sink` is unreachable in the residual graph.
  bool dijkstra(const Graph& graph, NodeId source, NodeId sink);
  /// DFS for one augmenting path of zero reduced cost; fills path_.
  bool find_admissible_path(const Graph& graph, NodeId source, NodeId sink);

  void pull_caps(const Graph& graph);
  void write_back_flow(Graph& graph) const;

  // Flattened adjacency snapshot (all residual arcs, tail-major), plus
  // head/cost copies for cache-friendly scans. Residual capacities are
  // pulled into cap_ (indexed by CSR position, so the Dijkstra and DFS
  // scans stay sequential) at solve start and written back at the end.
  std::uint64_t csr_key_ = 0;
  std::vector<std::int32_t> first_out_;  // size n+1
  std::vector<ArcId> csr_arc_;
  std::vector<NodeId> csr_head_;
  std::vector<Cost> csr_cost_;
  std::vector<std::int32_t> twin_pos_;   // CSR position of the twin arc
  std::vector<std::int32_t> arc_pos_;    // ArcId -> CSR position
  std::vector<FlowUnit> cap_;            // residual capacity, by position

  // Per-solve workspace. The Dijkstra queue is a radix heap: labels are
  // monotone (never below the last popped key), so buckets keyed by the
  // highest bit differing from the last popped key give amortized O(1)
  // pushes and cheap pops — measurably faster than a binary heap here.
  std::vector<Cost> dist_;
  std::vector<Cost> pi_;
  static constexpr int kRadixBuckets = 64;
  std::vector<std::pair<Cost, NodeId>> radix_[kRadixBuckets];
  std::uint64_t radix_mask_ = 0;  // bit i set iff radix_[i] is nonempty
  std::vector<std::int32_t> cursor_;   // DFS current-arc, per node
  std::vector<std::int32_t> path_;     // CSR positions of the DFS path
  std::vector<NodeId> on_path_;
  std::vector<char> on_path_flag_;
};

/// One-shot convenience wrapper around SspSolver. Uses a thread-local
/// solver instance, so repeated calls from the same thread still reuse
/// buffers and the adjacency snapshot.
SolveResult min_cost_flow_ssp(Graph& graph, NodeId source, NodeId sink,
                              FlowUnit demand);

}  // namespace rasc::flow
