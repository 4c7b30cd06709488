// Cross-cutting property sweeps (parameterized over seeds): conservation
// laws and invariants that must hold for ANY configuration, not just the
// hand-picked ones in the per-module tests.
#include <gtest/gtest.h>

#include "core/composition_graph.hpp"
#include "exp/runner.hpp"
#include "flow/cycle_cancel.hpp"
#include "flow/ssp.hpp"
#include "flow/validate.hpp"
#include "sim/network.hpp"
#include "util/rng.hpp"

namespace rasc {
namespace {

// ---------- Network: packet conservation under random traffic ----------

struct Noise final : sim::Message {
  const char* kind() const override { return "test.noise"; }
};

class NetworkConservation : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(NetworkConservation, SentEqualsDeliveredPlusDropped) {
  util::Xoshiro256 rng(GetParam());
  sim::Simulator simulator(GetParam());
  auto topo = sim::make_planetlab_like(8, rng);
  topo.max_port_backlog = sim::msec(30);  // tight: force tail drops
  sim::Network net(simulator, topo);

  std::int64_t delivered = 0;
  for (sim::NodeIndex i = 0; i < 8; ++i) {
    net.set_handler(i, [&delivered](const sim::Packet&) { ++delivered; });
  }

  const int n = 500;
  for (int i = 0; i < n; ++i) {
    const auto when = sim::msec(rng.uniform_int(0, 2000));
    const auto src = sim::NodeIndex(rng.uniform_int(0, 7));
    const auto dst = sim::NodeIndex(rng.uniform_int(0, 7));
    const auto bytes = rng.uniform_int(100, 4000);
    simulator.call_at(when, [&net, src, dst, bytes] {
      net.send(src, dst, bytes, std::make_shared<Noise>());
    });
  }
  simulator.run_all();
  EXPECT_EQ(net.packets_sent(), n);
  EXPECT_EQ(delivered + net.packets_dropped(), n)
      << "every packet must be delivered or accounted as dropped";
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetworkConservation,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------- Composition graph: feasible solves satisfy all caps ----------

class CompositionProperties : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(CompositionProperties, SharesRespectCapsAndSumToDemand) {
  util::Xoshiro256 rng(GetParam());
  const int stages = int(rng.uniform_int(1, 5));
  const int providers = int(rng.uniform_int(2, 12));

  auto caps =
      std::vector<std::vector<core::CandidateCap>>(std::size_t(stages));
  for (auto& stage : caps) {
    for (int p = 0; p < providers; ++p) {
      stage.push_back(core::CandidateCap{
          sim::NodeIndex(p), rng.uniform_double(0.0, 15.0),
          rng.uniform_double(0.0, 0.5), rng.uniform_double(0.0, 1.0)});
    }
  }
  const double demand = rng.uniform_double(1.0, 30.0);
  const double src_cap = rng.uniform_double(0.0, 40.0);
  const double dest_cap = rng.uniform_double(0.0, 40.0);

  core::CompositionGraph cg(caps, src_cap, dest_cap, demand);
  const auto solved = flow::min_cost_flow_ssp(cg.graph(), cg.source(),
                                              cg.sink(), cg.demand());

  // Structural validity regardless of feasibility.
  EXPECT_EQ(flow::validate_flow(cg.graph(), cg.source(), cg.sink(),
                                solved.flow),
            std::nullopt);
  EXPECT_FALSE(flow::has_negative_residual_cycle(cg.graph()))
      << "solution must be min-cost for its value";

  const auto shares = cg.extract_shares(0.0);
  for (int st = 0; st < stages; ++st) {
    double stage_total = 0;
    for (std::size_t j = 0; j < shares[std::size_t(st)].size(); ++j) {
      stage_total += shares[std::size_t(st)][j].rate_units_per_sec;
    }
    // Every stage carries exactly the routed amount.
    EXPECT_NEAR(stage_total,
                double(solved.flow) / core::CompositionGraph::kScale,
                0.01);
    // No candidate exceeds its capacity.
    for (std::size_t j = 0; j < caps[std::size_t(st)].size(); ++j) {
      EXPECT_LE(cg.candidate_flow_ups(st, int(j)),
                caps[std::size_t(st)][j].max_delivered_ups + 0.002);
    }
  }
  if (solved.feasible) {
    EXPECT_NEAR(double(solved.flow) / core::CompositionGraph::kScale,
                demand, 0.01);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompositionProperties,
                         ::testing::Range<std::uint64_t>(1, 31));

// ---------- Composition graph: hub wiring equals the full mesh ----------

// Reference network: the same gates and splitting arcs as
// CompositionGraph, but every out-vertex of stage st-1 wired straight to
// every in-vertex of stage st (the complete bipartite layering).
struct MeshNetwork {
  flow::Graph graph;
  flow::NodeId source = 0;
  flow::NodeId sink = 0;
};

MeshNetwork build_mesh(const std::vector<std::vector<core::CandidateCap>>& caps,
                       double src_cap, double dest_cap) {
  using core::CompositionGraph;
  MeshNetwork m;
  auto& g = m.graph;
  m.source = g.add_node();
  m.sink = g.add_node();
  const flow::NodeId source_gate = g.add_node();
  const flow::NodeId dest_gate = g.add_node();
  g.add_arc(m.source, source_gate, CompositionGraph::flow_units(src_cap), 0);
  g.add_arc(dest_gate, m.sink, CompositionGraph::flow_units(dest_cap), 0);
  std::vector<flow::NodeId> prev_outs = {source_gate};
  for (const auto& stage : caps) {
    std::vector<flow::NodeId> outs;
    for (const auto& cand : stage) {
      const flow::NodeId cin = g.add_node();
      const flow::NodeId cout = g.add_node();
      g.add_arc(cin, cout, CompositionGraph::flow_units(cand.max_delivered_ups),
                CompositionGraph::unit_cost(cand.drop_ratio, cand.utilization));
      for (const flow::NodeId prev : prev_outs) {
        g.add_arc(prev, cin, flow::kInfiniteCap, 0);
      }
      outs.push_back(cout);
    }
    prev_outs = std::move(outs);
  }
  for (const flow::NodeId prev : prev_outs) {
    g.add_arc(prev, dest_gate, flow::kInfiniteCap, 0);
  }
  return m;
}

class HubMeshEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HubMeshEquivalence, SameFlowAndCostAsMesh) {
  util::Xoshiro256 rng(GetParam());
  const int stages = int(rng.uniform_int(1, 5));
  auto caps =
      std::vector<std::vector<core::CandidateCap>>(std::size_t(stages));
  for (auto& stage : caps) {
    // Stages differ in width; drop ratios come from a few levels so that
    // equal-cost alternatives (ties) are common.
    const int providers = int(rng.uniform_int(1, 10));
    for (int p = 0; p < providers; ++p) {
      stage.push_back(core::CandidateCap{
          sim::NodeIndex(p),
          rng.bernoulli(0.1) ? 0.0 : rng.uniform_double(0.0, 12.0),
          0.1 * double(rng.uniform_int(0, 3)),
          rng.bernoulli(0.5) ? 0.0 : rng.uniform_double(0.0, 1.0)});
    }
  }
  const double demand = rng.uniform_double(1.0, 30.0);
  const double src_cap = rng.uniform_double(0.0, 40.0);
  const double dest_cap = rng.uniform_double(0.0, 40.0);

  core::CompositionGraph hub(caps, src_cap, dest_cap, demand);
  flow::SspSolver hub_solver;
  const auto hub_result = hub_solver.solve(hub.graph(), hub.source(),
                                           hub.sink(), hub.demand());

  auto mesh = build_mesh(caps, src_cap, dest_cap);
  auto oracle_graph = mesh.graph;
  flow::SspSolver mesh_solver;
  const auto mesh_result = mesh_solver.solve(mesh.graph, mesh.source,
                                             mesh.sink, hub.demand());
  const auto oracle = flow::min_cost_flow_cycle_cancel(
      oracle_graph, mesh.source, mesh.sink, hub.demand());

  EXPECT_EQ(hub_result.flow, mesh_result.flow);
  EXPECT_EQ(hub_result.cost, mesh_result.cost);
  EXPECT_EQ(hub_result.feasible, mesh_result.feasible);
  EXPECT_EQ(mesh_result.flow, oracle.flow);
  EXPECT_EQ(mesh_result.cost, oracle.cost);
  EXPECT_EQ(hub.graph().total_cost(), hub_result.cost);
  EXPECT_EQ(flow::validate_flow(hub.graph(), hub.source(), hub.sink(),
                                hub_result.flow),
            std::nullopt);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HubMeshEquivalence,
                         ::testing::Range<std::uint64_t>(1, 41));

// ---------- End-to-end runner invariants across random scenarios ----------

class RunnerInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RunnerInvariants, MetricsAreInternallyConsistent) {
  exp::RunConfig cfg;
  util::Xoshiro256 rng(GetParam());
  cfg.world.nodes = std::size_t(rng.uniform_int(8, 16));
  cfg.world.num_services = 6;
  cfg.world.services_per_node = 3;
  cfg.world.seed = GetParam();
  cfg.world.net.bw_min_kbps = 400;
  cfg.world.net.bw_max_kbps = 3000;
  cfg.workload.num_requests = int(rng.uniform_int(4, 10));
  cfg.workload.avg_rate_kbps = rng.uniform_double(40, 250);
  cfg.algorithm = (GetParam() % 3 == 0)   ? "mincost"
                  : (GetParam() % 3 == 1) ? "greedy"
                                          : "random";
  cfg.submit_gap = sim::msec(400);
  cfg.steady_duration = sim::sec(6);

  const auto m = exp::run_experiment(cfg);
  EXPECT_LE(m.composed, m.requests);
  EXPECT_GE(m.composed, 0);
  EXPECT_LE(m.delivered, m.emitted);
  EXPECT_LE(m.timely, m.delivered);
  EXPECT_LE(m.out_of_order, m.delivered);
  EXPECT_GE(m.splitting_degree(),
            m.composed > 0 ? 1.0 : 0.0);  // >= one instance per stage
  if (m.delivered > 0) {
    EXPECT_GT(m.mean_delay_ms(), 0.0);
    EXPECT_GE(m.jitter_ms.min(), 0.0);
  }
  // Unit accounting: everything emitted is delivered, dropped, or in
  // flight at the drain deadline (in-flight residue is bounded).
  const auto accounted = m.delivered + m.drops_queue_full +
                         m.drops_deadline + m.unroutable;
  EXPECT_GE(double(accounted) + double(m.drops_network),
            double(m.emitted) * 0.85);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RunnerInvariants,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace rasc
