// The layered min-cost flow network of §3.5: structure, capacity
// translation, cost scaling, share extraction and sliver folding.
#include "core/composition_graph.hpp"

#include <gtest/gtest.h>

#include "flow/ssp.hpp"
#include "flow/validate.hpp"

namespace rasc::core {
namespace {

TEST(CompositionGraph, SingleStageSingleCandidate) {
  std::vector<std::vector<CandidateCap>> stages = {
      {{1, 20.0, 0.0}},
  };
  CompositionGraph cg(stages, 100.0, 100.0, 10.0);
  const auto r = flow::min_cost_flow_ssp(cg.graph(), cg.source(), cg.sink(),
                                         cg.demand());
  EXPECT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(cg.candidate_flow_ups(0, 0), 10.0);
  const auto shares = cg.extract_shares();
  ASSERT_EQ(shares.size(), 1u);
  ASSERT_EQ(shares[0].size(), 1u);
  EXPECT_EQ(shares[0][0].node, 1);
  EXPECT_DOUBLE_EQ(shares[0][0].rate_units_per_sec, 10.0);
}

TEST(CompositionGraph, SplitsWhenOneCandidateLacksCapacity) {
  // Demand 10; candidate A caps at 6, B at 6: must split.
  std::vector<std::vector<CandidateCap>> stages = {
      {{1, 6.0, 0.0}, {2, 6.0, 0.0}},
  };
  CompositionGraph cg(stages, 100.0, 100.0, 10.0);
  const auto r = flow::min_cost_flow_ssp(cg.graph(), cg.source(), cg.sink(),
                                         cg.demand());
  EXPECT_TRUE(r.feasible);
  const auto shares = cg.extract_shares();
  ASSERT_EQ(shares[0].size(), 2u);
  double total = 0;
  for (const auto& p : shares[0]) total += p.rate_units_per_sec;
  EXPECT_NEAR(total, 10.0, 0.01);
}

TEST(CompositionGraph, PrefersLowDropCandidates) {
  std::vector<std::vector<CandidateCap>> stages = {
      {{1, 20.0, 0.4}, {2, 20.0, 0.01}},
  };
  CompositionGraph cg(stages, 100.0, 100.0, 10.0);
  flow::min_cost_flow_ssp(cg.graph(), cg.source(), cg.sink(), cg.demand());
  EXPECT_DOUBLE_EQ(cg.candidate_flow_ups(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(cg.candidate_flow_ups(0, 1), 10.0);
}

TEST(CompositionGraph, SpillsToWorseNodeOnlyWhenNeeded) {
  std::vector<std::vector<CandidateCap>> stages = {
      {{1, 7.0, 0.01}, {2, 20.0, 0.5}},
  };
  CompositionGraph cg(stages, 100.0, 100.0, 10.0);
  flow::min_cost_flow_ssp(cg.graph(), cg.source(), cg.sink(), cg.demand());
  EXPECT_NEAR(cg.candidate_flow_ups(0, 0), 7.0, 0.01);
  EXPECT_NEAR(cg.candidate_flow_ups(0, 1), 3.0, 0.01);
}

TEST(CompositionGraph, SourceGateLimitsTotal) {
  std::vector<std::vector<CandidateCap>> stages = {
      {{1, 100.0, 0.0}},
  };
  CompositionGraph cg(stages, /*source cap*/ 4.0, 100.0, 10.0);
  const auto r = flow::min_cost_flow_ssp(cg.graph(), cg.source(), cg.sink(),
                                         cg.demand());
  EXPECT_FALSE(r.feasible);
  EXPECT_LE(r.flow, CompositionGraph::kScale * 4.0 + 1);
}

TEST(CompositionGraph, DestGateLimitsTotal) {
  std::vector<std::vector<CandidateCap>> stages = {
      {{1, 100.0, 0.0}},
  };
  CompositionGraph cg(stages, 100.0, /*dest cap*/ 3.0, 10.0);
  const auto r = flow::min_cost_flow_ssp(cg.graph(), cg.source(), cg.sink(),
                                         cg.demand());
  EXPECT_FALSE(r.feasible);
}

TEST(CompositionGraph, MultiStageChains) {
  std::vector<std::vector<CandidateCap>> stages = {
      {{1, 15.0, 0.0}, {2, 15.0, 0.0}},
      {{3, 6.0, 0.0}, {4, 6.0, 0.0}},
  };
  CompositionGraph cg(stages, 100.0, 100.0, 10.0);
  const auto r = flow::min_cost_flow_ssp(cg.graph(), cg.source(), cg.sink(),
                                         cg.demand());
  EXPECT_TRUE(r.feasible);
  const auto shares = cg.extract_shares();
  // Stage 1 must split (each candidate caps at 6); stage 0 may not.
  EXPECT_EQ(shares[1].size(), 2u);
  double stage1_total = 0;
  for (const auto& p : shares[1]) stage1_total += p.rate_units_per_sec;
  EXPECT_NEAR(stage1_total, 10.0, 0.01);
}

TEST(CompositionGraph, InfeasibleWhenAggregateCapacityShort) {
  std::vector<std::vector<CandidateCap>> stages = {
      {{1, 4.0, 0.0}, {2, 4.0, 0.0}},
  };
  CompositionGraph cg(stages, 100.0, 100.0, 10.0);
  const auto r = flow::min_cost_flow_ssp(cg.graph(), cg.source(), cg.sink(),
                                         cg.demand());
  EXPECT_FALSE(r.feasible);
}

TEST(CompositionGraph, SliverFoldingMergesTinyShares) {
  // Cheap candidate covers 9.95, expensive one the 0.05 sliver.
  std::vector<std::vector<CandidateCap>> stages = {
      {{1, 9.95, 0.0}, {2, 20.0, 0.3}},
  };
  CompositionGraph cg(stages, 100.0, 100.0, 10.0);
  flow::min_cost_flow_ssp(cg.graph(), cg.source(), cg.sink(), cg.demand());
  const auto folded = cg.extract_shares(/*min_share_fraction=*/0.02);
  ASSERT_EQ(folded[0].size(), 1u);
  EXPECT_EQ(folded[0][0].node, 1);
  EXPECT_NEAR(folded[0][0].rate_units_per_sec, 10.0, 0.01);

  // With folding disabled both shares survive.
  const auto raw = cg.extract_shares(0.0);
  EXPECT_EQ(raw[0].size(), 2u);
}

TEST(CompositionGraph, CostScalingIsProportional) {
  std::vector<std::vector<CandidateCap>> stages = {
      {{1, 20.0, 0.25}},
  };
  CompositionGraph cg(stages, 100.0, 100.0, 10.0);
  const auto r = flow::min_cost_flow_ssp(cg.graph(), cg.source(), cg.sink(),
                                         cg.demand());
  // 10 ups * kScale flow units * 0.25 * kCostScale per unit.
  EXPECT_EQ(r.cost, flow::Cost(10 * CompositionGraph::kScale * 0.25 *
                               CompositionGraph::kCostScale));
}

TEST(CompositionGraph, ArcCountIsLinearInCandidates) {
  // Stages meet at one hub vertex per boundary, so P candidates per stage
  // cost 2P inter-stage arcs per boundary, not the P² of a complete
  // bipartite mesh (4,096 per boundary at P = 64).
  const auto arcs_for = [](int stages, int providers) {
    std::vector<std::vector<CandidateCap>> caps(
        std::size_t(stages),
        std::vector<CandidateCap>(std::size_t(providers),
                                  CandidateCap{1, 10.0, 0.0}));
    return CompositionGraph(caps, 100.0, 100.0, 10.0).graph().num_arcs();
  };
  // 2 gates + 3P splitting arcs + P from the source gate + 2 × 2P through
  // the two hubs + P into the destination gate.
  EXPECT_EQ(arcs_for(3, 64), 2 + 3 * 64 + 64 + 2 * 2 * 64 + 64);
  EXPECT_EQ(arcs_for(3, 64) - arcs_for(3, 32), arcs_for(3, 32) - 2);
}

TEST(CompositionGraph, ZeroCapacityCandidateUnusable) {
  std::vector<std::vector<CandidateCap>> stages = {
      {{1, 0.0, 0.0}, {2, 20.0, 0.9}},
  };
  CompositionGraph cg(stages, 100.0, 100.0, 10.0);
  const auto r = flow::min_cost_flow_ssp(cg.graph(), cg.source(), cg.sink(),
                                         cg.demand());
  EXPECT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(cg.candidate_flow_ups(0, 0), 0.0);
}

}  // namespace
}  // namespace rasc::core
