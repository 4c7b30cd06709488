#include "flow/ssp.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <utility>

namespace rasc::flow {

namespace {

constexpr Cost kInfCost = std::numeric_limits<Cost>::max() / 4;

/// Radix-heap bucket for `key`, given the last popped key. Keys equal to
/// `last` go to bucket 0; otherwise the bucket is indexed by the highest
/// differing bit (+1).
inline int radix_bucket(std::uint64_t key, std::uint64_t last) {
  return key == last ? 0 : 64 - std::countl_zero(key ^ last);
}

}  // namespace

void SspSolver::sync_topology(const Graph& graph) {
  if (csr_key_ == graph.structure_key() &&
      first_out_.size() == std::size_t(graph.num_nodes()) + 1) {
    return;
  }
  const auto n = std::size_t(graph.num_nodes());
  const auto m = std::size_t(graph.num_arcs()) * 2;
  first_out_.assign(n + 1, 0);
  csr_arc_.clear();
  csr_head_.clear();
  csr_cost_.clear();
  csr_arc_.reserve(m);
  csr_head_.reserve(m);
  csr_cost_.reserve(m);
  arc_pos_.resize(m);
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    first_out_[std::size_t(u)] = std::int32_t(csr_arc_.size());
    for (ArcId a : graph.out_arcs(u)) {
      arc_pos_[std::size_t(a)] = std::int32_t(csr_arc_.size());
      const auto& arc = graph.raw(a);
      csr_arc_.push_back(a);
      csr_head_.push_back(arc.head);
      csr_cost_.push_back(arc.cost);
    }
  }
  first_out_[n] = std::int32_t(csr_arc_.size());
  twin_pos_.resize(m);
  for (std::size_t pos = 0; pos < m; ++pos) {
    twin_pos_[pos] = arc_pos_[std::size_t(csr_arc_[pos] ^ 1)];
  }
  csr_key_ = graph.structure_key();
}

void SspSolver::pull_caps(const Graph& graph) {
  // Arc-major: sequential reads of the graph's arc array, scattered writes
  // into cap_ (stores are cheaper to scatter than loads).
  const auto m = csr_arc_.size();
  cap_.resize(m);
  for (std::size_t a = 0; a < m; ++a) {
    cap_[std::size_t(arc_pos_[a])] = graph.raw(ArcId(a)).cap;
  }
}

void SspSolver::write_back_flow(Graph& graph) const {
  for (std::size_t a = 0; a < csr_arc_.size(); a += 2) {
    const FlowUnit delta =
        graph.raw(ArcId(a)).cap - cap_[std::size_t(arc_pos_[a])];
    if (delta > 0) {
      graph.push(ArcId(a), delta);
    } else if (delta < 0) {
      graph.push(ArcId(a) ^ 1, -delta);
    }
  }
}

bool SspSolver::has_negative_arc(const Graph&) const {
  for (std::size_t pos = 0; pos < csr_arc_.size(); ++pos) {
    if (csr_cost_[pos] < 0 && cap_[pos] > 0) return true;
  }
  return false;
}

bool SspSolver::potentials_valid(const Graph&) const {
  const auto n = std::size_t(first_out_.size()) - 1;
  if (pi_.size() != n) return false;
  for (std::size_t u = 0; u < n; ++u) {
    for (std::int32_t pos = first_out_[u]; pos < first_out_[u + 1]; ++pos) {
      if (cap_[std::size_t(pos)] <= 0) continue;
      const Cost reduced = csr_cost_[std::size_t(pos)] + pi_[u] -
                           pi_[std::size_t(csr_head_[std::size_t(pos)])];
      if (reduced < 0) return false;
    }
  }
  return true;
}

/// Bellman–Ford from `source` to initialize potentials when negative-cost
/// arcs exist. Returns false if a negative cycle is reachable (caller
/// treats this as a precondition violation).
bool SspSolver::bellman_ford(const Graph&, NodeId source) {
  const auto n = std::size_t(first_out_.size()) - 1;
  pi_.assign(n, kInfCost);
  pi_[std::size_t(source)] = 0;
  for (std::size_t round = 0; round < n; ++round) {
    bool changed = false;
    for (std::size_t u = 0; u < n; ++u) {
      if (pi_[u] >= kInfCost) continue;
      for (std::int32_t pos = first_out_[u]; pos < first_out_[u + 1];
           ++pos) {
        if (cap_[std::size_t(pos)] <= 0) continue;
        const Cost nd = pi_[u] + csr_cost_[std::size_t(pos)];
        const auto v = std::size_t(csr_head_[std::size_t(pos)]);
        if (nd < pi_[v]) {
          pi_[v] = nd;
          changed = true;
        }
      }
    }
    if (!changed) return true;
    if (round + 1 == n && changed) return false;
  }
  return true;
}

bool SspSolver::dijkstra(const Graph&, NodeId source, NodeId sink) {
  const auto n = std::size_t(first_out_.size()) - 1;
  dist_.assign(n, kInfCost);
  while (radix_mask_ != 0) {  // leftovers from an early-exited prior phase
    const int b = std::countr_zero(radix_mask_);
    radix_[b].clear();
    radix_mask_ &= radix_mask_ - 1;
  }
  dist_[std::size_t(source)] = 0;
  std::uint64_t last = 0;  // last popped key; labels are monotone
  radix_[0].emplace_back(0, source);
  radix_mask_ = 1;
  while (radix_mask_ != 0) {
    int b = std::countr_zero(radix_mask_);
    if (b > 0) {
      // Move `last` to the bucket's minimum and redistribute: every entry
      // now differs from `last` below bit b-1, so it lands in a lower
      // bucket (each entry moves O(64) times total).
      auto& bucket = radix_[b];
      std::uint64_t mn = std::uint64_t(bucket.front().first);
      for (const auto& e : bucket) {
        mn = std::min(mn, std::uint64_t(e.first));
      }
      last = mn;
      for (const auto& e : bucket) {
        const int nb = radix_bucket(std::uint64_t(e.first), last);
        assert(nb < b);
        radix_[nb].push_back(e);
        radix_mask_ |= std::uint64_t(1) << nb;
      }
      bucket.clear();
      radix_mask_ &= ~(std::uint64_t(1) << b);
      // The bucket minimum always lands in bucket 0, popped next.
    }
    const auto [d, u] = radix_[0].back();
    radix_[0].pop_back();
    if (radix_[0].empty()) radix_mask_ &= ~std::uint64_t(1);
    if (d > dist_[std::size_t(u)]) continue;
    if (u == sink) break;  // all other labels are >= dist[sink] already
    for (std::int32_t pos = first_out_[std::size_t(u)];
         pos < first_out_[std::size_t(u) + 1]; ++pos) {
      if (cap_[std::size_t(pos)] <= 0) continue;
      const NodeId v = csr_head_[std::size_t(pos)];
      const Cost reduced = csr_cost_[std::size_t(pos)] +
                           pi_[std::size_t(u)] - pi_[std::size_t(v)];
      assert(reduced >= 0 && "reduced cost must be nonnegative");
      const Cost nd = d + reduced;
      if (nd < dist_[std::size_t(v)]) {
        dist_[std::size_t(v)] = nd;
        const int nb = radix_bucket(std::uint64_t(nd), last);
        assert(nb < kRadixBuckets);
        radix_[nb].emplace_back(nd, v);
        radix_mask_ |= std::uint64_t(1) << nb;
      }
    }
  }
  if (dist_[std::size_t(sink)] >= kInfCost) return false;

  // Update potentials; cap unreached/unsettled nodes at dist[sink] to keep
  // all residual reduced costs nonnegative after augmentation.
  const Cost dt = dist_[std::size_t(sink)];
  for (std::size_t v = 0; v < n; ++v) {
    pi_[v] += std::min(dist_[v], dt);
  }
  return true;
}

bool SspSolver::find_admissible_path(const Graph&, NodeId source,
                                     NodeId sink) {
  path_.clear();
  on_path_.clear();
  on_path_flag_[std::size_t(source)] = 1;
  on_path_.push_back(source);
  NodeId u = source;
  bool found = false;
  for (;;) {
    if (u == sink) {
      found = true;
      break;
    }
    bool descended = false;
    for (std::int32_t& pos = cursor_[std::size_t(u)];
         pos < first_out_[std::size_t(u) + 1]; ++pos) {
      if (cap_[std::size_t(pos)] <= 0) continue;
      const NodeId v = csr_head_[std::size_t(pos)];
      if (on_path_flag_[std::size_t(v)]) continue;
      if (csr_cost_[std::size_t(pos)] + pi_[std::size_t(u)] -
              pi_[std::size_t(v)] !=
          0) {
        continue;
      }
      path_.push_back(pos);
      on_path_flag_[std::size_t(v)] = 1;
      on_path_.push_back(v);
      u = v;
      descended = true;
      break;
    }
    if (descended) continue;
    if (u == source) break;  // exhausted: no admissible s-t path remains
    // Retreat: drop the last path arc and skip past it at its tail.
    const std::int32_t pos = path_.back();
    (void)pos;
    path_.pop_back();
    on_path_flag_[std::size_t(u)] = 0;
    on_path_.pop_back();
    u = on_path_.back();
    assert(cursor_[std::size_t(u)] == pos);
    ++cursor_[std::size_t(u)];
  }
  for (NodeId v : on_path_) on_path_flag_[std::size_t(v)] = 0;
  return found;
}

SolveResult SspSolver::solve(Graph& graph, NodeId source, NodeId sink,
                             FlowUnit demand) {
  assert(source != sink);
  assert(demand >= 0);
  const auto n = std::size_t(graph.num_nodes());

  const bool same_topology =
      csr_key_ == graph.structure_key() && pi_.size() == n;
  sync_topology(graph);
  pull_caps(graph);

  if (!same_topology || !potentials_valid(graph)) {
    if (has_negative_arc(graph)) {
      const bool ok = bellman_ford(graph, source);
      assert(ok && "negative cycle in composition graph");
      (void)ok;
      // Unreachable nodes keep a large-but-finite potential so reduced
      // costs stay well-defined; they can never lie on an s-t path anyway.
      for (auto& p : pi_) {
        if (p >= kInfCost) p = kInfCost;
      }
    } else {
      pi_.assign(n, 0);
    }
  }

  on_path_flag_.assign(n, 0);
  cursor_.resize(n);

  SolveResult result;
  while (result.flow < demand && dijkstra(graph, source, sink)) {
    // Phase augmentation: saturate zero-reduced-cost paths until the DFS
    // finds none (or demand is met), then re-price with another Dijkstra.
    // Augmenting only along reduced-cost-0 paths preserves the SSP
    // optimality invariant, and batching paths per Dijkstra is what makes
    // large demands cheap on wide composition graphs.
    std::copy(first_out_.begin(), first_out_.end() - 1, cursor_.begin());
    while (result.flow < demand &&
           find_admissible_path(graph, source, sink)) {
      FlowUnit push_amount = demand - result.flow;
      for (const std::int32_t pos : path_) {
        push_amount = std::min(push_amount, cap_[std::size_t(pos)]);
      }
      for (const std::int32_t pos : path_) {
        cap_[std::size_t(pos)] -= push_amount;
        cap_[std::size_t(twin_pos_[std::size_t(pos)])] += push_amount;
      }
      result.flow += push_amount;
    }
  }

  write_back_flow(graph);
  result.cost = graph.total_cost();
  result.feasible = (result.flow == demand);
  return result;
}

SolveResult min_cost_flow_ssp(Graph& graph, NodeId source, NodeId sink,
                              FlowUnit demand) {
  thread_local SspSolver solver;
  return solver.solve(graph, source, sink, demand);
}

}  // namespace rasc::flow
