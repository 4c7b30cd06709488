// The three composition algorithms against hand-built provider/stats
// scenarios: splitting, admission, capacity updates across substreams,
// drop-ratio preferences, and baseline behaviours (§3.5, §4.1).
#include "core/greedy_composer.hpp"
#include "core/mincost_composer.hpp"
#include "core/plan_math.hpp"
#include "core/random_composer.hpp"
#include "core/rate_adapter.hpp"

#include <gtest/gtest.h>

#include <set>

namespace rasc::core {
namespace {

// 1250-byte payload units: requirement rates are payload Kbps, so 100
// kbps = exactly 10 delivered units/sec. On the wire each unit is 1250+48
// framed bytes = 10.384 kbps per ups.
constexpr std::int64_t kUnitBytes = 1250;
constexpr double kWireKbpsPerUps = (1250 + 48) * 8.0 / 1000.0;

runtime::ServiceCatalog catalog() {
  runtime::ServiceCatalog c;
  c.add({"a", sim::msec(1), 1.0, 1.0});
  c.add({"b", sim::msec(1), 1.0, 1.0});
  return c;
}

monitor::NodeStats node(sim::NodeIndex idx, double cap_kbps,
                        double drop = 0.0) {
  monitor::NodeStats s;
  s.node = idx;
  s.capacity_in_kbps = cap_kbps;
  s.capacity_out_kbps = cap_kbps;
  s.drop_ratio = drop;
  // Hand-built stats model a *measured* node: without samples the
  // composers would rightly ignore drop_ratio as uninformative.
  s.drop_samples = 1;
  return s;
}

ComposeInput base_input(const runtime::ServiceCatalog& cat) {
  ComposeInput input;
  input.catalog = &cat;
  input.request.app = 1;
  input.request.source = 100;
  input.request.destination = 101;
  input.request.unit_bytes = kUnitBytes;
  input.source_stats = node(100, 100000.0);
  input.destination_stats = node(101, 100000.0);
  return input;
}

double stage_total_ups(const runtime::StagePlan& stage) {
  double total = 0;
  for (const auto& p : stage.placements) total += p.rate_units_per_sec;
  return total;
}

TEST(MinCostComposer, SingleProviderFullRate) {
  const auto cat = catalog();
  auto input = base_input(cat);
  input.request.substreams = {{{"a"}, 100.0}};  // 10 delivered ups
  input.providers["a"] = {node(1, 1000.0)};
  MinCostComposer composer;
  const auto r = composer.compose(input);
  ASSERT_TRUE(r.admitted) << r.error;
  const auto& stage = r.plan.substreams[0].stages[0];
  ASSERT_EQ(stage.placements.size(), 1u);
  EXPECT_EQ(stage.placements[0].node, 1);
  EXPECT_NEAR(stage_total_ups(stage), 10.0, 0.05);
}

TEST(MinCostComposer, SplitsAcrossProvidersWhenNoneSuffices) {
  const auto cat = catalog();
  auto input = base_input(cat);
  input.request.substreams = {{{"a"}, 100.0}};  // 10 ups = ~104 wire kbps
  input.providers["a"] = {node(1, 60.0), node(2, 60.0)};
  MinCostComposer composer;
  const auto r = composer.compose(input);
  ASSERT_TRUE(r.admitted) << r.error;
  const auto& stage = r.plan.substreams[0].stages[0];
  ASSERT_EQ(stage.placements.size(), 2u) << "rate splitting expected";
  EXPECT_NEAR(stage_total_ups(stage), 10.0, 0.05);
  // Neither instance exceeds its node's 60 kbps (~5.78 ups).
  for (const auto& p : stage.placements) {
    EXPECT_LE(p.rate_units_per_sec, 60.0 / kWireKbpsPerUps + 0.01);
  }
}

TEST(MinCostComposer, GreedyWouldRejectWhatSplittingAdmits) {
  const auto cat = catalog();
  auto input = base_input(cat);
  input.request.substreams = {{{"a"}, 100.0}};
  input.providers["a"] = {node(1, 60.0), node(2, 60.0)};
  GreedyComposer greedy;
  EXPECT_FALSE(greedy.compose(input).admitted);
  MinCostComposer mincost;
  EXPECT_TRUE(mincost.compose(input).admitted);
}

TEST(MinCostComposer, PrefersLowDropProviders) {
  const auto cat = catalog();
  auto input = base_input(cat);
  input.request.substreams = {{{"a"}, 50.0}};
  input.providers["a"] = {node(1, 1000.0, 0.3), node(2, 1000.0, 0.0)};
  MinCostComposer composer;
  const auto r = composer.compose(input);
  ASSERT_TRUE(r.admitted);
  const auto& stage = r.plan.substreams[0].stages[0];
  ASSERT_EQ(stage.placements.size(), 1u);
  EXPECT_EQ(stage.placements[0].node, 2);
}

TEST(MinCostComposer, UnknownDropPriorPricesUnmeasuredNodes) {
  // Empty-window bias: a node with no recorded outcomes must not be priced
  // by its (meaningless) drop_ratio. The prior is 0.0 — unproven nodes
  // look drop-free — so the unmeasured node wins over a measured 5%.
  const auto cat = catalog();
  auto input = base_input(cat);
  input.request.substreams = {{{"a"}, 100.0}};
  auto unmeasured = node(1, 1000.0, 0.9);  // stale/garbage ratio...
  unmeasured.drop_samples = 0;             // ...and zero observations
  input.providers["a"] = {unmeasured, node(2, 1000.0, 0.05)};

  MinCostComposer composer;
  const auto r0 = composer.compose(input);
  ASSERT_TRUE(r0.admitted) << r0.error;
  const auto& p0 = r0.plan.substreams[0].stages[0].placements;
  ASSERT_EQ(p0.size(), 1u);
  EXPECT_EQ(p0[0].node, 1) << "prior 0: no data reads as drop-free, and "
                              "the garbage ratio is ignored";
}

TEST(MinCostComposer, RejectsWhenAggregateCapacityShort) {
  const auto cat = catalog();
  auto input = base_input(cat);
  input.request.substreams = {{{"a"}, 200.0}};
  input.providers["a"] = {node(1, 60.0), node(2, 60.0)};
  MinCostComposer composer;
  const auto r = composer.compose(input);
  EXPECT_FALSE(r.admitted);
  EXPECT_FALSE(r.error.empty());
}

TEST(MinCostComposer, RejectsWhenSourceIsBottleneck) {
  const auto cat = catalog();
  auto input = base_input(cat);
  input.request.substreams = {{{"a"}, 100.0}};
  input.providers["a"] = {node(1, 1000.0)};
  input.source_stats = node(100, 40.0);  // cannot emit 100 kbps
  MinCostComposer composer;
  EXPECT_FALSE(composer.compose(input).admitted);
}

TEST(MinCostComposer, SecondSubstreamSeesReducedCapacity) {
  const auto cat = catalog();
  auto input = base_input(cat);
  // Two substreams through the same single provider of 150 kbps: first
  // takes 100, second needs 100 -> must fail (Algorithm 1 capacity
  // update between substreams).
  input.request.substreams = {{{"a"}, 100.0}, {{"a"}, 100.0}};
  input.providers["a"] = {node(1, 150.0)};
  MinCostComposer composer;
  const auto r = composer.compose(input);
  EXPECT_FALSE(r.admitted);
  EXPECT_NE(r.error.find("substream 1"), std::string::npos) << r.error;
}

TEST(MinCostComposer, MultiSubstreamAcrossDistinctProviders) {
  const auto cat = catalog();
  auto input = base_input(cat);
  input.request.substreams = {{{"a"}, 100.0}, {{"b"}, 100.0}};
  input.providers["a"] = {node(1, 150.0)};
  input.providers["b"] = {node(2, 150.0)};
  MinCostComposer composer;
  const auto r = composer.compose(input);
  ASSERT_TRUE(r.admitted) << r.error;
  EXPECT_EQ(r.plan.substreams.size(), 2u);
}

TEST(MinCostComposer, MissingProviderRejects) {
  const auto cat = catalog();
  auto input = base_input(cat);
  input.request.substreams = {{{"a", "b"}, 50.0}};
  input.providers["a"] = {node(1, 1000.0)};
  // no providers for b
  MinCostComposer composer;
  const auto r = composer.compose(input);
  EXPECT_FALSE(r.admitted);
  EXPECT_NE(r.error.find("b"), std::string::npos);
}

TEST(MinCostComposer, RepairLoopHandlesSharedNodeAcrossStages) {
  const auto cat = catalog();
  auto input = base_input(cat);
  // Node 1 offers both services with 100 kbps each way; the request
  // chains a -> b at 50 kbps (5 ups -> ~52 kbps in + ~52 out per stage).
  // Hosting both stages would need ~104 in + ~104 out on node 1, so the
  // repair pass must move rate to node 2.
  input.request.substreams = {{{"a", "b"}, 50.0}};
  input.providers["a"] = {node(1, 100.0), node(2, 100.0)};
  input.providers["b"] = {node(1, 100.0), node(2, 100.0)};
  MinCostComposer composer;
  const auto r = composer.compose(input);
  ASSERT_TRUE(r.admitted) << r.error;
  // Verify per-node wire usage stays within capacity.
  std::map<sim::NodeIndex, double> in_kbps, out_kbps;
  const auto& sub = r.plan.substreams[0];
  for (const auto& stage : sub.stages) {
    for (const auto& p : stage.placements) {
      in_kbps[p.node] += p.rate_units_per_sec * kWireKbpsPerUps;
      out_kbps[p.node] += p.rate_units_per_sec * kWireKbpsPerUps;
    }
  }
  for (const auto& [n, kbps] : in_kbps) {
    EXPECT_LE(kbps, 100.0 * 1.05) << "node " << n << " overcommitted";
  }
}

TEST(MinCostComposer, RepairLoopHandlesSharedNodeCpuBudget) {
  const auto cat = catalog();
  auto input = base_input(cat);
  // Bandwidth is ample everywhere this time: node 1 offers both services
  // drop-free, node 2 both at a 10% drop ratio. The chain a -> b at 100
  // kbps needs 10 ups = 0.01 CPU per stage. Node 1 already runs at 0.69
  // CPU, so under the adapter's rho target it has room for one stage's
  // CPU, and stacking both stages there passes its budget.
  input.request.substreams = {{{"a", "b"}, 100.0}};
  auto loaded = node(1, 100000.0);
  loaded.cpu_used_fraction = 0.69;
  const auto lossy = node(2, 100000.0, 0.1);
  input.providers["a"] = {loaded, lossy};
  input.providers["b"] = {loaded, lossy};
  const double allowed =
      RateAdapter::kPredictiveRhoTarget - loaded.cpu_used_fraction;

  const SubstreamMath math(input.request.substreams[0], cat, kUnitBytes);
  const double demand = math.delivered_ups(100.0);
  const auto solve = [&](const SubstreamSolver::CpuBudget& budget) {
    ResidualTracker tracker(input);
    auto stages = std::vector<std::vector<CandidateCap>>(2);
    for (int st = 0; st < 2; ++st) {
      for (const auto& s : input.providers[st == 0 ? "a" : "b"]) {
        stages[std::size_t(st)].push_back(CandidateCap{
            s.node,
            math.max_delivered_ups(st, tracker.avail_in_kbps(s.node),
                                   tracker.avail_out_kbps(s.node),
                                   tracker.avail_cpu_fraction(s.node)),
            s.drop_ratio, 0.0});
      }
    }
    CompositionGraph cg(stages, 1000.0, 1000.0, demand);
    SubstreamSolver solver;
    return solver.solve(cg, stages, math, input.request, demand, tracker,
                        budget);
  };
  const auto node1_cpu = [&](const SubstreamSolver::Result& r) {
    double cpu = 0;
    for (std::size_t st = 0; st < r.shares.size(); ++st) {
      for (const auto& p : r.shares[st]) {
        if (p.node != 1) continue;
        cpu += math.in_ups(int(st), p.rate_units_per_sec) *
               math.cpu_secs_per_in_unit(int(st));
      }
    }
    return cpu;
  };

  // Without a budget the cheaper node takes both stages.
  const auto stacked = solve({});
  ASSERT_EQ(stacked.status, SubstreamSolver::Status::kSolved);
  for (const auto& stage : stacked.shares) {
    ASSERT_EQ(stage.size(), 1u);
    EXPECT_EQ(stage[0].node, 1);
  }
  EXPECT_GT(node1_cpu(stacked), allowed * SubstreamSolver::kRepairTolerance);

  // With it, the repair loop moves rate off node 1 in both stages.
  const auto split = solve([&](sim::NodeIndex n) {
    return n == 1 ? allowed : RateAdapter::kPredictiveRhoTarget;
  });
  ASSERT_EQ(split.status, SubstreamSolver::Status::kSolved);
  for (const auto& stage : split.shares) EXPECT_EQ(stage.size(), 2u);
  EXPECT_GT(node1_cpu(split), 0.0);
  EXPECT_LE(node1_cpu(split), allowed * SubstreamSolver::kRepairTolerance);
}

TEST(GreedyComposer, PicksLowestDropWithCapacity) {
  const auto cat = catalog();
  auto input = base_input(cat);
  input.request.substreams = {{{"a"}, 100.0}};
  input.providers["a"] = {node(1, 1000.0, 0.2), node(2, 50.0, 0.0),
                          node(3, 1000.0, 0.05)};
  GreedyComposer composer;
  const auto r = composer.compose(input);
  ASSERT_TRUE(r.admitted);
  // Node 2 has the best drop ratio but lacks capacity; node 3 is next.
  EXPECT_EQ(r.plan.substreams[0].stages[0].placements[0].node, 3);
}

TEST(GreedyComposer, SingleInstancePerService) {
  const auto cat = catalog();
  auto input = base_input(cat);
  input.request.substreams = {{{"a", "b"}, 80.0}};
  input.providers["a"] = {node(1, 1000.0)};
  input.providers["b"] = {node(2, 1000.0)};
  GreedyComposer composer;
  const auto r = composer.compose(input);
  ASSERT_TRUE(r.admitted);
  EXPECT_EQ(r.plan.component_count(), 2u);
  for (const auto& stage : r.plan.substreams[0].stages) {
    EXPECT_EQ(stage.placements.size(), 1u);
  }
}

TEST(GreedyComposer, ConsumesCapacityAcrossStages) {
  const auto cat = catalog();
  auto input = base_input(cat);
  // One node with 150 kbps offers both services; the chain at 100 kbps
  // needs ~104 in + ~104 out per stage — placing both stages there would
  // need ~208 each way. Greedy must reject (no alternative).
  input.request.substreams = {{{"a", "b"}, 100.0}};
  input.providers["a"] = {node(1, 150.0)};
  input.providers["b"] = {node(1, 150.0)};
  GreedyComposer composer;
  EXPECT_FALSE(composer.compose(input).admitted);
}

TEST(RandomComposer, DeterministicGivenSeed) {
  const auto cat = catalog();
  auto input = base_input(cat);
  input.request.substreams = {{{"a"}, 50.0}};
  input.providers["a"] = {node(1, 1000.0), node(2, 1000.0),
                          node(3, 1000.0)};
  RandomComposer c1{util::Xoshiro256(5)};
  RandomComposer c2{util::Xoshiro256(5)};
  const auto r1 = c1.compose(input);
  const auto r2 = c2.compose(input);
  ASSERT_TRUE(r1.admitted);
  EXPECT_EQ(r1.plan.substreams[0].stages[0].placements[0].node,
            r2.plan.substreams[0].stages[0].placements[0].node);
}

TEST(RandomComposer, UsesDifferentProvidersAcrossSeeds) {
  const auto cat = catalog();
  auto input = base_input(cat);
  input.request.substreams = {{{"a"}, 50.0}};
  input.providers["a"] = {node(1, 1000.0), node(2, 1000.0),
                          node(3, 1000.0), node(4, 1000.0)};
  std::set<sim::NodeIndex> picked;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    RandomComposer composer{util::Xoshiro256(seed)};
    const auto r = composer.compose(input);
    ASSERT_TRUE(r.admitted);
    picked.insert(r.plan.substreams[0].stages[0].placements[0].node);
  }
  EXPECT_GE(picked.size(), 3u) << "random placement barely varies";
}

TEST(RandomComposer, RejectsOnlyWhenPicksHaveEssentiallyNoCapacity) {
  const auto cat = catalog();
  auto input = base_input(cat);
  input.request.substreams = {{{"a"}, 100.0}};
  // Below 10% of the ~104 kbps requirement: every pick fails the sanity
  // check.
  input.providers["a"] = {node(1, 5.0), node(2, 5.0)};
  RandomComposer composer{util::Xoshiro256(1)};
  EXPECT_FALSE(composer.compose(input).admitted);
}

TEST(RandomComposer, PlacementIsBlindToLoad) {
  // The paper's random baseline places without considering capacity: a
  // provider with half the required bandwidth is still picked (and will
  // drop units at runtime).
  const auto cat = catalog();
  auto input = base_input(cat);
  input.request.substreams = {{{"a"}, 100.0}};
  input.providers["a"] = {node(1, 50.0)};
  RandomComposer composer{util::Xoshiro256(1)};
  EXPECT_TRUE(composer.compose(input).admitted);
}

TEST(AllComposers, RejectInvalidRequest) {
  const auto cat = catalog();
  ComposeInput input;
  input.catalog = &cat;  // request left invalid
  MinCostComposer m;
  GreedyComposer g;
  RandomComposer r{util::Xoshiro256(1)};
  EXPECT_FALSE(m.compose(input).admitted);
  EXPECT_FALSE(g.compose(input).admitted);
  EXPECT_FALSE(r.compose(input).admitted);
}

TEST(AllComposers, PlanRatesMatchRequirement) {
  const auto cat = catalog();
  auto input = base_input(cat);
  input.request.substreams = {{{"a", "b"}, 120.0}};
  input.providers["a"] = {node(1, 1000.0), node(2, 1000.0)};
  input.providers["b"] = {node(3, 1000.0), node(4, 1000.0)};
  MinCostComposer m;
  GreedyComposer g;
  RandomComposer r{util::Xoshiro256(2)};
  for (Composer* composer : std::initializer_list<Composer*>{&m, &g, &r}) {
    const auto result = composer->compose(input);
    ASSERT_TRUE(result.admitted) << composer->name();
    const auto& sub = result.plan.substreams[0];
    EXPECT_NEAR(sub.rate_units_per_sec, 12.0, 0.01) << composer->name();
    for (const auto& stage : sub.stages) {
      EXPECT_NEAR(stage_total_ups(stage), 12.0, 0.1) << composer->name();
    }
  }
}

}  // namespace
}  // namespace rasc::core
