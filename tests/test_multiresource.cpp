// Multi-resource composition (CPU + bandwidth — the paper's §2.1 general
// model with k resources, and its §6 future work): capacity translation,
// residual tracking, CPU-bound splitting, and runtime CPU accounting.
#include <gtest/gtest.h>

#include "core/greedy_composer.hpp"
#include "core/mincost_composer.hpp"
#include "core/plan_math.hpp"
#include "monitor/node_monitor.hpp"
#include "runtime/node_runtime.hpp"
#include "sim/topology.hpp"

namespace rasc::core {
namespace {

// 1250-byte payload units: 100 kbps = 10 delivered ups.
constexpr std::int64_t kUnitBytes = 1250;

runtime::ServiceCatalog heavy_catalog() {
  runtime::ServiceCatalog c;
  // 100 ms per unit: one CPU carries at most 10 units/sec.
  c.add({"heavy", sim::msec(100), 1.0, 1.0});
  c.add({"light", sim::msec(1), 1.0, 1.0});
  return c;
}

monitor::NodeStats node(sim::NodeIndex idx, double cap_kbps,
                        double cpu_used = 0.0) {
  monitor::NodeStats s;
  s.node = idx;
  s.capacity_in_kbps = cap_kbps;
  s.capacity_out_kbps = cap_kbps;
  s.cpu_used_fraction = cpu_used;
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

TEST(SubstreamMathCpu, PerUnitCpuSeconds) {
  const auto cat = heavy_catalog();
  Substream sub{{"heavy", "light"}, 100.0};
  SubstreamMath math(sub, cat, kUnitBytes);
  EXPECT_DOUBLE_EQ(math.cpu_secs_per_in_unit(0), 0.1);
  EXPECT_DOUBLE_EQ(math.cpu_secs_per_in_unit(1), 0.001);
}

TEST(SubstreamMathCpu, CpuBoundsMaxRate) {
  const auto cat = heavy_catalog();
  Substream sub{{"heavy"}, 100.0};
  SubstreamMath math(sub, cat, kUnitBytes);
  // Bandwidth would allow ~96 ups, but a full CPU caps at 10 ups.
  EXPECT_DOUBLE_EQ(math.max_delivered_ups(0, 1e6, 1e6, 1.0), 10.0);
  // Half a CPU: 5 ups.
  EXPECT_DOUBLE_EQ(math.max_delivered_ups(0, 1e6, 1e6, 0.5), 5.0);
  // Negative = ignore CPU.
  EXPECT_GT(math.max_delivered_ups(0, 1e6, 1e6, -1.0), 1000.0);
}

TEST(ResidualTrackerCpu, TracksAndConsumes) {
  const auto cat = heavy_catalog();
  auto input = base_input(cat);
  input.providers["heavy"] = {node(1, 1000.0, /*cpu_used=*/0.4)};
  ResidualTracker tracker(input, /*headroom=*/1.0);
  EXPECT_DOUBLE_EQ(tracker.avail_cpu_fraction(1), 0.6);
  tracker.consume(1, 0, 0, 0.5);
  EXPECT_NEAR(tracker.avail_cpu_fraction(1), 0.1, 1e-12);
  tracker.consume(1, 0, 0, 0.5);
  EXPECT_DOUBLE_EQ(tracker.avail_cpu_fraction(1), 0.0);
}

TEST(MinCostComposerCpu, SplitsWhenCpuBinds) {
  // Demand 20 ups of a 100ms/unit service: no single CPU can run it, but
  // two nodes at 10 ups each can — bandwidth is plentiful everywhere.
  const auto cat = heavy_catalog();
  auto input = base_input(cat);
  input.request.substreams = {{{"heavy"}, 200.0}};  // 20 ups
  input.providers["heavy"] = {node(1, 100000.0), node(2, 100000.0),
                              node(3, 100000.0)};
  MinCostComposer composer;
  const auto r = composer.compose(input);
  ASSERT_TRUE(r.admitted) << r.error;
  const auto& stage = r.plan.substreams[0].stages[0];
  EXPECT_GE(stage.placements.size(), 2u) << "CPU-bound splitting expected";
  double total = 0;
  for (const auto& p : stage.placements) {
    EXPECT_LE(p.rate_units_per_sec, 10.0 * 0.91);  // headroom-scaled CPU cap
    total += p.rate_units_per_sec;
  }
  EXPECT_NEAR(total, 20.0, 0.1);
}

TEST(MinCostComposerCpu, RejectsWhenAggregateCpuShort) {
  const auto cat = heavy_catalog();
  auto input = base_input(cat);
  input.request.substreams = {{{"heavy"}, 300.0}};  // 30 ups > 2 CPUs
  input.providers["heavy"] = {node(1, 100000.0), node(2, 100000.0)};
  MinCostComposer composer;
  EXPECT_FALSE(composer.compose(input).admitted);
}

TEST(MinCostComposerCpu, NoCpuOptionIgnoresProcessorLimits) {
  const auto cat = heavy_catalog();
  auto input = base_input(cat);
  input.request.substreams = {{{"heavy"}, 300.0}};
  input.providers["heavy"] = {node(1, 100000.0), node(2, 100000.0)};
  MinCostComposer::Options options;
  options.consider_cpu = false;
  MinCostComposer composer(options);
  // Admits (and would overload the CPUs at runtime) — the ablation knob.
  EXPECT_TRUE(composer.compose(input).admitted);
}

TEST(MinCostComposerCpu, BusyCpuSteersPlacement) {
  const auto cat = heavy_catalog();
  auto input = base_input(cat);
  input.request.substreams = {{{"heavy"}, 80.0}};  // 8 ups -> 0.8 CPU
  input.providers["heavy"] = {node(1, 100000.0, /*cpu_used=*/0.5),
                              node(2, 100000.0, /*cpu_used=*/0.0)};
  MinCostComposer composer;
  const auto r = composer.compose(input);
  ASSERT_TRUE(r.admitted) << r.error;
  // Node 1 can carry at most ~4.5 ups; node 2 must take the bulk.
  double node2_share = 0;
  for (const auto& p : r.plan.substreams[0].stages[0].placements) {
    if (p.node == 2) node2_share = p.rate_units_per_sec;
  }
  EXPECT_GT(node2_share, 3.0);
}

TEST(GreedyComposerCpu, SkipsCpuSaturatedProviders) {
  const auto cat = heavy_catalog();
  auto input = base_input(cat);
  input.request.substreams = {{{"heavy"}, 80.0}};  // 0.8 CPU needed
  input.providers["heavy"] = {node(1, 100000.0, /*cpu_used=*/0.9),
                              node(2, 100000.0, /*cpu_used=*/0.0)};
  GreedyComposer composer;
  const auto r = composer.compose(input);
  ASSERT_TRUE(r.admitted) << r.error;
  EXPECT_EQ(r.plan.substreams[0].stages[0].placements[0].node, 2);
}

TEST(GreedyComposerCpu, RejectsWhenNoProviderHasCpu) {
  const auto cat = heavy_catalog();
  auto input = base_input(cat);
  input.request.substreams = {{{"heavy"}, 150.0}};  // 1.5 CPUs on one node
  input.providers["heavy"] = {node(1, 100000.0), node(2, 100000.0)};
  GreedyComposer composer;
  EXPECT_FALSE(composer.compose(input).admitted);
}

}  // namespace
}  // namespace rasc::core

namespace rasc::runtime {
namespace {

TEST(RuntimeCpu, MonitorMeasuresCpuUtilization) {
  sim::Simulator sim(3);
  sim::Network net(sim, sim::make_uniform_topology(3, 100000.0,
                                                   sim::msec(1)));
  monitor::NodeMonitor mon(sim, net, 1);
  ServiceCatalog catalog;
  catalog.add({"burn", sim::msec(25), 1.0, 1.0});  // 25 ms per unit
  NodeRuntime rt(sim, net, 1, mon, catalog);
  net.set_handler(2, [](const sim::Packet&) {});

  // 20 ups x 25 ms = 50% CPU.
  rt.deploy_component({1, 0, 0}, "burn", 20.0, 500, {{2, 20.0}});
  monitor::NodeMonitor src_mon(sim, net, 0);
  NodeRuntime src(sim, net, 0, src_mon, catalog);
  src.deploy_source(1, 0, 20.0, 500, {{1, 20.0}}, 0, sim::sec(10));
  sim.run_until(sim::sec(10));
  EXPECT_NEAR(mon.snapshot().cpu_used_fraction, 0.5, 0.06);
}

TEST(RuntimeCpu, CpuReservationFollowsDeployAndTeardown) {
  sim::Simulator sim(3);
  sim::Network net(sim, sim::make_uniform_topology(2, 100000.0,
                                                   sim::msec(1)));
  monitor::NodeMonitor::Params params;
  params.advertise_reservations = true;
  monitor::NodeMonitor mon(sim, net, 0, params);
  ServiceCatalog catalog;
  catalog.add({"burn", sim::msec(50), 1.0, 1.0});
  NodeRuntime rt(sim, net, 0, mon, catalog);

  rt.deploy_component({1, 0, 0}, "burn", 10.0, 500, {{1, 10.0}});
  // 10 ups x 50 ms = 0.5 CPU reserved.
  EXPECT_NEAR(mon.snapshot().cpu_reserved_fraction, 0.5, 1e-9);
  EXPECT_NEAR(mon.snapshot().available_cpu_fraction(), 0.5, 1e-9);
  rt.teardown_app(1);
  EXPECT_NEAR(mon.snapshot().cpu_reserved_fraction, 0.0, 1e-9);
}

TEST(RuntimeCpu, ObservedExecTimeConvergesUnderJitter) {
  ServiceSpec spec{"jittery", sim::msec(10), 1.0, 1.0, 0.4};
  Component c({1, 0, 0}, spec, 10.0, {{1, 10.0}});
  // Before any execution: nominal.
  EXPECT_EQ(c.expected_exec_time(), sim::msec(10));
  // Feed a drifted series: EWMA tracks it.
  for (int i = 0; i < 100; ++i) c.on_executed(sim::msec(14));
  EXPECT_NEAR(double(c.expected_exec_time()), double(sim::msec(14)),
              double(sim::msec(1)));
}

TEST(RuntimeCpu, JitteredExecutionStillDeliversEverything) {
  sim::Simulator sim(9);
  sim::Network net(sim, sim::make_uniform_topology(3, 100000.0,
                                                   sim::msec(1)));
  monitor::NodeMonitor mon0(sim, net, 0), mon1(sim, net, 1),
      mon2(sim, net, 2);
  ServiceCatalog catalog;
  catalog.add({"wobble", sim::msec(5), 1.0, 1.0, 0.5});
  NodeRuntime rt0(sim, net, 0, mon0, catalog);
  NodeRuntime rt1(sim, net, 1, mon1, catalog);
  NodeRuntime rt2(sim, net, 2, mon2, catalog);

  rt1.deploy_component({1, 0, 0}, "wobble", 20.0, 500, {{2, 20.0}});
  rt2.deploy_sink(1, 0, 20.0, 500);
  rt0.deploy_source(1, 0, 20.0, 500, {{1, 20.0}}, 0, sim::sec(5));
  sim.run_until(sim::sec(7));
  EXPECT_EQ(rt2.aggregate_sink_stats().delivered, 100);
}

}  // namespace
}  // namespace rasc::runtime
