// Min-cost flow: hand-built instances with known optima, structural
// validation, and a property sweep asserting the two independent solvers
// (SSP with potentials vs cycle cancelling) reach the same objective on
// random graphs.
#include "flow/cycle_cancel.hpp"
#include "flow/graph.hpp"
#include "flow/ssp.hpp"
#include "flow/validate.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace rasc::flow {
namespace {

TEST(Graph, ArcBookkeeping) {
  Graph g;
  const auto a = g.add_node();
  const auto b = g.add_node();
  const auto arc = g.add_arc(a, b, 10, 3);
  EXPECT_EQ(g.num_nodes(), 2);
  EXPECT_EQ(g.num_arcs(), 1);
  EXPECT_EQ(g.capacity(arc), 10);
  EXPECT_EQ(g.flow(arc), 0);
  EXPECT_EQ(g.cost(arc), 3);
  EXPECT_EQ(g.tail(arc), a);
  EXPECT_EQ(g.head(arc), b);
  g.push(arc, 4);
  EXPECT_EQ(g.flow(arc), 4);
  EXPECT_EQ(g.capacity(arc), 10);
  g.clear_flow();
  EXPECT_EQ(g.flow(arc), 0);
}

TEST(Ssp, SingleArcSimple) {
  Graph g;
  const auto s = g.add_node();
  const auto t = g.add_node();
  g.add_arc(s, t, 5, 2);
  const auto r = min_cost_flow_ssp(g, s, t, 5);
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.flow, 5);
  EXPECT_EQ(r.cost, 10);
  EXPECT_EQ(validate_flow(g, s, t, 5), std::nullopt);
}

TEST(Ssp, PrefersCheaperPath) {
  Graph g;
  const auto s = g.add_node();
  const auto t = g.add_node();
  const auto cheap = g.add_arc(s, t, 3, 1);
  const auto pricey = g.add_arc(s, t, 10, 5);
  const auto r = min_cost_flow_ssp(g, s, t, 5);
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(g.flow(cheap), 3);
  EXPECT_EQ(g.flow(pricey), 2);
  EXPECT_EQ(r.cost, 3 * 1 + 2 * 5);
}

TEST(Ssp, ClassicDiamond) {
  // s -> a -> t and s -> b -> t with a cross arc a -> b.
  Graph g;
  const auto s = g.add_node();
  const auto a = g.add_node();
  const auto b = g.add_node();
  const auto t = g.add_node();
  g.add_arc(s, a, 4, 1);
  g.add_arc(s, b, 2, 4);
  g.add_arc(a, b, 2, 1);
  g.add_arc(a, t, 2, 6);
  g.add_arc(b, t, 4, 1);
  const auto r = min_cost_flow_ssp(g, s, t, 4);
  EXPECT_TRUE(r.feasible);
  // Optimal: 2 via s-a-b-t (cost 3 each), 2 via s-a-t? cost 7 each vs
  // s-b-t cost 5 each. Take s-a-b-t ×2 = 6, then s-b-t ×2 = 10 → 16.
  EXPECT_EQ(r.cost, 16);
  EXPECT_EQ(validate_flow(g, s, t, 4), std::nullopt);
  EXPECT_FALSE(has_negative_residual_cycle(g));
}

TEST(Ssp, InfeasibleReturnsMaxFlow) {
  Graph g;
  const auto s = g.add_node();
  const auto m = g.add_node();
  const auto t = g.add_node();
  g.add_arc(s, m, 3, 1);
  g.add_arc(m, t, 2, 1);
  const auto r = min_cost_flow_ssp(g, s, t, 10);
  EXPECT_FALSE(r.feasible);
  EXPECT_EQ(r.flow, 2);
  EXPECT_EQ(validate_flow(g, s, t, 2), std::nullopt);
}

TEST(Ssp, ZeroDemandIsTrivial) {
  Graph g;
  const auto s = g.add_node();
  const auto t = g.add_node();
  g.add_arc(s, t, 5, 1);
  const auto r = min_cost_flow_ssp(g, s, t, 0);
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.flow, 0);
  EXPECT_EQ(r.cost, 0);
}

TEST(Ssp, DisconnectedSinkInfeasible) {
  Graph g;
  const auto s = g.add_node();
  const auto t = g.add_node();
  g.add_node();  // isolated
  const auto r = min_cost_flow_ssp(g, s, t, 1);
  EXPECT_FALSE(r.feasible);
  EXPECT_EQ(r.flow, 0);
}

TEST(Ssp, HandlesNegativeArcCosts) {
  Graph g;
  const auto s = g.add_node();
  const auto a = g.add_node();
  const auto t = g.add_node();
  g.add_arc(s, a, 5, -2);
  g.add_arc(a, t, 5, 3);
  g.add_arc(s, t, 5, 2);
  const auto r = min_cost_flow_ssp(g, s, t, 5);
  EXPECT_TRUE(r.feasible);
  // Path s-a-t costs 1 < 2, so all 5 go through a.
  EXPECT_EQ(r.cost, 5);
}

TEST(CycleCancel, MatchesKnownOptimum) {
  Graph g;
  const auto s = g.add_node();
  const auto a = g.add_node();
  const auto b = g.add_node();
  const auto t = g.add_node();
  g.add_arc(s, a, 4, 1);
  g.add_arc(s, b, 2, 4);
  g.add_arc(a, b, 2, 1);
  g.add_arc(a, t, 2, 6);
  g.add_arc(b, t, 4, 1);
  const auto r = min_cost_flow_cycle_cancel(g, s, t, 4);
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.cost, 16);
  EXPECT_EQ(validate_flow(g, s, t, 4), std::nullopt);
  EXPECT_FALSE(has_negative_residual_cycle(g));
}

TEST(Validate, DetectsBrokenConservation) {
  Graph g;
  const auto s = g.add_node();
  const auto m = g.add_node();
  const auto t = g.add_node();
  const auto a1 = g.add_arc(s, m, 5, 0);
  g.add_arc(m, t, 5, 0);
  g.push(a1, 3);  // flow enters m but never leaves
  const auto err = validate_flow(g, s, t, 3);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("conservation"), std::string::npos);
}

TEST(Validate, DetectsWrongValue) {
  Graph g;
  const auto s = g.add_node();
  const auto t = g.add_node();
  const auto a = g.add_arc(s, t, 5, 0);
  g.push(a, 2);
  EXPECT_TRUE(validate_flow(g, s, t, 3).has_value());
  EXPECT_EQ(validate_flow(g, s, t, 2), std::nullopt);
}

// --- Property sweep: both solvers agree on random layered graphs ---

struct RandomInstance {
  Graph graph;
  NodeId source, sink;
  FlowUnit demand;
};

RandomInstance make_random_instance(std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  RandomInstance inst;
  Graph& g = inst.graph;
  inst.source = g.add_node();
  inst.sink = g.add_node();
  const int layers = int(rng.uniform_int(1, 4));
  const int width = int(rng.uniform_int(1, 5));
  auto layer_nodes =
      std::vector<std::vector<NodeId>>(std::size_t(layers));
  for (auto& layer : layer_nodes) {
    for (int j = 0; j < width; ++j) layer.push_back(g.add_node());
  }
  for (int j = 0; j < width; ++j) {
    g.add_arc(inst.source, layer_nodes[0][std::size_t(j)],
              rng.uniform_int(0, 30), rng.uniform_int(0, 20));
  }
  for (int l = 0; l + 1 < layers; ++l) {
    for (int a = 0; a < width; ++a) {
      for (int b = 0; b < width; ++b) {
        if (rng.bernoulli(0.7)) {
          g.add_arc(layer_nodes[std::size_t(l)][std::size_t(a)],
                    layer_nodes[std::size_t(l) + 1][std::size_t(b)],
                    rng.uniform_int(0, 30), rng.uniform_int(0, 20));
        }
      }
    }
  }
  for (int j = 0; j < width; ++j) {
    g.add_arc(layer_nodes[std::size_t(layers) - 1][std::size_t(j)],
              inst.sink, rng.uniform_int(0, 30), rng.uniform_int(0, 20));
  }
  inst.demand = rng.uniform_int(1, 40);
  return inst;
}

class SolverAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SolverAgreement, SspAndCycleCancelReachSameObjective) {
  auto a = make_random_instance(GetParam());
  auto b = make_random_instance(GetParam());  // identical copy

  const auto ra = min_cost_flow_ssp(a.graph, a.source, a.sink, a.demand);
  const auto rb =
      min_cost_flow_cycle_cancel(b.graph, b.source, b.sink, b.demand);

  EXPECT_EQ(ra.flow, rb.flow) << "max routable amount differs";
  EXPECT_EQ(ra.feasible, rb.feasible);
  EXPECT_EQ(ra.cost, rb.cost) << "objectives differ";

  EXPECT_EQ(validate_flow(a.graph, a.source, a.sink, ra.flow),
            std::nullopt);
  EXPECT_EQ(validate_flow(b.graph, b.source, b.sink, rb.flow),
            std::nullopt);
  EXPECT_FALSE(has_negative_residual_cycle(a.graph));
  EXPECT_FALSE(has_negative_residual_cycle(b.graph));
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, SolverAgreement,
                         ::testing::Range<std::uint64_t>(1, 41));

// One SspSolver instance reused across instances with different
// topologies: the workspace carry-over (CSR snapshot, potentials, caps)
// must never leak state from one solve into the next.
TEST(SspSolver, ReusedInstanceMatchesCycleCancel) {
  SspSolver solver;
  for (std::uint64_t seed = 100; seed < 140; ++seed) {
    auto a = make_random_instance(seed);
    auto b = make_random_instance(seed);  // identical copy

    const auto ra = solver.solve(a.graph, a.source, a.sink, a.demand);
    const auto rb =
        min_cost_flow_cycle_cancel(b.graph, b.source, b.sink, b.demand);

    EXPECT_EQ(ra.flow, rb.flow) << "seed " << seed;
    EXPECT_EQ(ra.cost, rb.cost) << "seed " << seed;
    EXPECT_EQ(validate_flow(a.graph, a.source, a.sink, ra.flow),
              std::nullopt)
        << "seed " << seed;
  }
}

// The composer's repair pattern: solve, tighten a few capacities in
// place, clear the flow, and re-solve warm on the same graph. The warm
// re-solve must still match a cold reference solve of the tightened
// instance.
TEST(SspSolver, WarmStartResolveAfterCapacityTightening) {
  SspSolver solver;
  for (std::uint64_t seed = 200; seed < 230; ++seed) {
    auto inst = make_random_instance(seed);
    Graph& g = inst.graph;
    const auto first =
        solver.solve(g, inst.source, inst.sink, inst.demand);
    EXPECT_EQ(validate_flow(g, inst.source, inst.sink, first.flow),
              std::nullopt)
        << "seed " << seed;

    // Tighten ~1/3 of the arcs to half capacity, as a repair pass would.
    util::Xoshiro256 rng(seed ^ 0xfeedu);
    std::vector<FlowUnit> new_caps(std::size_t(g.num_arcs()));
    for (ArcId a = 0; a < g.num_arcs(); ++a) {
      new_caps[std::size_t(a)] = g.capacity(ArcId(a * 2));
      if (rng.bernoulli(0.33)) new_caps[std::size_t(a)] /= 2;
    }
    g.clear_flow();
    for (ArcId a = 0; a < g.num_arcs(); ++a) {
      g.set_capacity(ArcId(a * 2), new_caps[std::size_t(a)]);
    }
    const auto warm =
        solver.solve(g, inst.source, inst.sink, inst.demand);

    // Cold reference on an identically tightened copy.
    auto ref = make_random_instance(seed);
    for (ArcId a = 0; a < ref.graph.num_arcs(); ++a) {
      ref.graph.set_capacity(ArcId(a * 2), new_caps[std::size_t(a)]);
    }
    const auto cold = min_cost_flow_cycle_cancel(ref.graph, ref.source,
                                                 ref.sink, ref.demand);

    EXPECT_EQ(warm.flow, cold.flow) << "seed " << seed;
    EXPECT_EQ(warm.cost, cold.cost) << "seed " << seed;
    EXPECT_EQ(validate_flow(g, inst.source, inst.sink, warm.flow),
              std::nullopt)
        << "seed " << seed;
    EXPECT_FALSE(has_negative_residual_cycle(g)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace rasc::flow
