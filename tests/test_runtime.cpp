// NodeRuntime integration on a hand-wired 4-node chain: deployment
// (direct and via messages), streaming, overload drops, splitting,
// teardown, unroutable units.
#include "runtime/node_runtime.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/topology.hpp"

namespace rasc::runtime {
namespace {

class RuntimeFixture : public ::testing::Test {
 protected:
  static constexpr std::size_t kNodes = 4;

  explicit RuntimeFixture(double bw_kbps = 100000.0)
      : net_(sim_, sim::make_uniform_topology(kNodes, bw_kbps,
                                              sim::msec(2))) {
    ServiceSpec fast{"fast", sim::msec(1), 1.0, 1.0};
    ServiceSpec slow{"slow", sim::msec(40), 1.0, 1.0};
    ServiceSpec half{"half", sim::msec(1), 0.5, 1.0};
    catalog_.add(fast);
    catalog_.add(slow);
    catalog_.add(half);
    monitor::NodeMonitor::Params monitor_params;
    monitor_params.advertise_reservations = true;  // asserted by tests
    for (sim::NodeIndex i = 0; i < sim::NodeIndex(kNodes); ++i) {
      monitors_.push_back(std::make_unique<monitor::NodeMonitor>(
          sim_, net_, i, monitor_params));
      runtimes_.push_back(std::make_unique<NodeRuntime>(
          sim_, net_, i, *monitors_.back(), catalog_));
    }
  }

  NodeRuntime& rt(std::size_t i) { return *runtimes_[i]; }

  sim::Simulator sim_;
  sim::Network net_;
  ServiceCatalog catalog_;
  std::vector<std::unique_ptr<monitor::NodeMonitor>> monitors_;
  std::vector<std::unique_ptr<NodeRuntime>> runtimes_;
};

TEST_F(RuntimeFixture, TwoStageChainDeliversEverything) {
  // source(0) -> fast@1 -> fast@2 -> sink(3), 20 ups for 5 s.
  rt(1).deploy_component({1, 0, 0}, "fast", 20.0, 1000, {{2, 20.0}});
  rt(2).deploy_component({1, 0, 1}, "fast", 20.0, 1000, {{3, 20.0}});
  rt(3).deploy_sink(1, 0, 20.0, 1000);
  rt(0).deploy_source(1, 0, 20.0, 1000, {{1, 20.0}}, 0, sim::sec(5));
  sim_.run_until(sim::sec(7));

  EXPECT_EQ(rt(0).total_emitted(), 100);
  const auto sink = rt(3).aggregate_sink_stats();
  EXPECT_EQ(sink.delivered, 100);
  EXPECT_EQ(sink.out_of_order, 0);
  EXPECT_EQ(rt(1).units_processed(), 100);
  EXPECT_EQ(rt(2).units_processed(), 100);
  EXPECT_EQ(rt(1).units_dropped_deadline() + rt(1).units_dropped_queue_full(),
            0);
  // Delay = 3 network hops (~2 ms each + serialization) + 2 ms CPU.
  EXPECT_GT(sink.delay_ms.mean(), 6.0);
  EXPECT_LT(sink.delay_ms.mean(), 30.0);
}

TEST_F(RuntimeFixture, OverloadedComponentDropsUnits) {
  // "slow" takes 40 ms/unit but units arrive every 20 ms: half must drop.
  rt(1).deploy_component({1, 0, 0}, "slow", 50.0, 1000, {{3, 50.0}});
  rt(3).deploy_sink(1, 0, 50.0, 1000);
  rt(0).deploy_source(1, 0, 50.0, 1000, {{1, 50.0}}, 0, sim::sec(5));
  sim_.run_until(sim::sec(7));

  const auto sink = rt(3).aggregate_sink_stats();
  EXPECT_EQ(rt(0).total_emitted(), 250);
  const auto drops =
      rt(1).units_dropped_deadline() + rt(1).units_dropped_queue_full();
  EXPECT_GT(drops, 80);
  EXPECT_LT(sink.delivered, 200);
  EXPECT_NEAR(double(sink.delivered + drops), 250.0, 5.0);
}

TEST_F(RuntimeFixture, SplitStageSharesLoad) {
  // Stage 0 split across nodes 1 and 2 (1:1); both forward to the sink.
  rt(1).deploy_component({1, 0, 0}, "fast", 10.0, 1000, {{3, 20.0}});
  rt(2).deploy_component({1, 0, 0}, "fast", 10.0, 1000, {{3, 20.0}});
  rt(3).deploy_sink(1, 0, 20.0, 1000);
  rt(0).deploy_source(1, 0, 20.0, 1000, {{1, 10.0}, {2, 10.0}}, 0,
                      sim::sec(5));
  sim_.run_until(sim::sec(7));

  EXPECT_EQ(rt(1).units_processed(), 50);
  EXPECT_EQ(rt(2).units_processed(), 50);
  const auto sink = rt(3).aggregate_sink_stats();
  EXPECT_EQ(sink.delivered, 100);
  // Symmetric paths: splitting does not reorder here.
  EXPECT_EQ(sink.out_of_order, 0);
}

TEST_F(RuntimeFixture, RateRatioHalvesDeliveredStream) {
  rt(1).deploy_component({1, 0, 0}, "half", 40.0, 1000, {{3, 20.0}});
  rt(3).deploy_sink(1, 0, 20.0, 1000);
  rt(0).deploy_source(1, 0, 40.0, 1000, {{1, 40.0}}, 0, sim::sec(5));
  sim_.run_until(sim::sec(7));
  EXPECT_EQ(rt(0).total_emitted(), 200);
  EXPECT_EQ(rt(3).aggregate_sink_stats().delivered, 100);
}

TEST_F(RuntimeFixture, MessageBasedDeploymentWorks) {
  auto dc = std::make_shared<DeployComponentMsg>();
  dc->key = {7, 0, 0};
  dc->service = "fast";
  dc->rate_units_per_sec = 10.0;
  dc->in_unit_bytes = 500;
  dc->next = {{3, 10.0}};
  dc->request_id = 1;
  dc->requester = 0;
  bool acked = false;
  net_.set_handler(0, [&acked](const sim::Packet& p) {
    if (const auto* ack = dynamic_cast<const DeployAck*>(p.payload.get())) {
      acked = ack->ok;
    }
  });
  net_.send(0, 1, dc->wire_size(), dc);
  sim_.run_until(sim::sec(1));
  EXPECT_TRUE(acked);
  EXPECT_NE(rt(1).find_component({7, 0, 0}), nullptr);
}

TEST_F(RuntimeFixture, UnknownServiceDeployNacks) {
  auto dc = std::make_shared<DeployComponentMsg>();
  dc->key = {7, 0, 0};
  dc->service = "no-such-service";
  dc->rate_units_per_sec = 10.0;
  dc->in_unit_bytes = 500;
  dc->next = {{3, 10.0}};
  dc->request_id = 2;
  dc->requester = 0;
  bool got_ack = false, ok = true;
  net_.set_handler(0, [&](const sim::Packet& p) {
    if (const auto* ack = dynamic_cast<const DeployAck*>(p.payload.get())) {
      got_ack = true;
      ok = ack->ok;
    }
  });
  net_.send(0, 1, dc->wire_size(), dc);
  sim_.run_until(sim::sec(1));
  EXPECT_TRUE(got_ack);
  EXPECT_FALSE(ok);
  EXPECT_EQ(rt(1).find_component({7, 0, 0}), nullptr);
}

TEST_F(RuntimeFixture, UnroutableUnitsCounted) {
  auto du = std::make_shared<DataUnit>();
  du->app = 99;
  du->substream = 0;
  du->stage = 0;
  du->size_bytes = 100;
  net_.send(0, 1, 100, du);
  sim_.run_until(sim::sec(1));
  EXPECT_EQ(rt(1).units_unroutable(), 1);
}

TEST_F(RuntimeFixture, TeardownRemovesEverythingAndReleasesReservations) {
  rt(1).deploy_component({1, 0, 0}, "fast", 20.0, 1000, {{3, 20.0}});
  rt(1).deploy_sink(2, 0, 10.0, 1000);
  rt(1).deploy_source(3, 0, 10.0, 1000, {{3, 10.0}}, 0, sim::sec(60));
  const auto before = monitors_[1]->snapshot();
  EXPECT_GT(before.reserved_in_kbps, 0);
  EXPECT_GT(before.reserved_out_kbps, 0);

  rt(1).teardown_app(1);
  rt(1).teardown_app(2);
  rt(1).teardown_app(3);
  EXPECT_EQ(rt(1).component_count(), 0u);
  EXPECT_EQ(rt(1).find_sink(2, 0), nullptr);
  EXPECT_EQ(rt(1).find_source(3, 0), nullptr);
  const auto after = monitors_[1]->snapshot();
  EXPECT_NEAR(after.reserved_in_kbps, 0.0, 1e-9);
  EXPECT_NEAR(after.reserved_out_kbps, 0.0, 1e-9);
}

TEST_F(RuntimeFixture, RedeployOverLiveKeyReplacesItsReservation) {
  // Node 1 hosts a component, a sink and a source of app 1; each is
  // deployed again over its live key at twice the rate. The node must
  // then hold exactly what node 2 holds after deploying the new rates
  // once: the old reservations are released, not stacked.
  rt(1).deploy_component({1, 0, 0}, "slow", 10.0, 1000, {{3, 10.0}});
  rt(1).deploy_sink(1, 1, 10.0, 1000);
  rt(1).deploy_source(1, 2, 10.0, 1000, {{3, 10.0}}, 0, sim::sec(60));
  rt(1).deploy_component({1, 0, 0}, "slow", 20.0, 1000, {{3, 20.0}});
  rt(1).deploy_sink(1, 1, 20.0, 1000);
  rt(1).deploy_source(1, 2, 20.0, 1000, {{3, 20.0}}, 0, sim::sec(60));

  rt(2).deploy_component({1, 0, 0}, "slow", 20.0, 1000, {{3, 20.0}});
  rt(2).deploy_sink(1, 1, 20.0, 1000);
  rt(2).deploy_source(1, 2, 20.0, 1000, {{3, 20.0}}, 0, sim::sec(60));

  const auto redeployed = monitors_[1]->snapshot();
  const auto fresh = monitors_[2]->snapshot();
  ASSERT_GT(fresh.reserved_in_kbps, 0);
  EXPECT_NEAR(redeployed.reserved_in_kbps, fresh.reserved_in_kbps, 1e-9);
  EXPECT_NEAR(redeployed.reserved_out_kbps, fresh.reserved_out_kbps, 1e-9);
  EXPECT_NEAR(redeployed.cpu_reserved_fraction, fresh.cpu_reserved_fraction,
              1e-12);
  EXPECT_NEAR(rt(1).reserved_kbps_for_app(1), rt(2).reserved_kbps_for_app(1),
              1e-9);

  rt(1).teardown_app(1);
  const auto after = monitors_[1]->snapshot();
  EXPECT_NEAR(after.reserved_in_kbps, 0.0, 1e-9);
  EXPECT_NEAR(after.reserved_out_kbps, 0.0, 1e-9);
  EXPECT_NEAR(after.cpu_reserved_fraction, 0.0, 1e-12);
  EXPECT_EQ(rt(1).reserved_kbps_for_app(1), 0.0);
}

TEST_F(RuntimeFixture, TeardownViaMessage) {
  rt(1).deploy_component({5, 0, 0}, "fast", 20.0, 1000, {{3, 20.0}});
  auto td = std::make_shared<TeardownAppMsg>();
  td->app = 5;
  net_.send(0, 1, TeardownAppMsg::kBytes, td);
  sim_.run_until(sim::sec(1));
  EXPECT_EQ(rt(1).find_component({5, 0, 0}), nullptr);
}

/// Sends one app-1 unit from node 0 to node 1's stage-0 "slow" component
/// (40 ms of CPU) and runs until it holds node 1's CPU. Returns a weak
/// reference to the unit: the test keeps no strong one.
std::weak_ptr<const DataUnit> unit_on_cpu(sim::Simulator& sim,
                                          sim::Network& net,
                                          NodeRuntime& runtime) {
  runtime.deploy_component({1, 0, 0}, "slow", 10.0, 1000, {{3, 10.0}});
  auto du = std::make_shared<DataUnit>();
  du->app = 1;
  du->substream = 0;
  du->stage = 0;
  du->size_bytes = 1000;
  std::weak_ptr<const DataUnit> weak = du;
  net.send(0, 1, 1000, std::move(du));
  sim.run_until(sim::msec(10));  // arrived (~3 ms), finishes at ~43 ms
  EXPECT_EQ(runtime.units_received(), 1);
  EXPECT_EQ(runtime.units_processed(), 0);
  EXPECT_FALSE(weak.expired());
  return weak;
}

TEST_F(RuntimeFixture, TeardownWhileUnitHoldsCpuCountsItUnroutable) {
  rt(3).deploy_sink(1, 0, 10.0, 1000);
  const auto weak = unit_on_cpu(sim_, net_, rt(1));
  rt(1).teardown_app(1);
  sim_.run_until(sim::sec(1));
  EXPECT_EQ(rt(1).units_processed(), 0);
  EXPECT_EQ(rt(1).units_unroutable(), 1);
  EXPECT_EQ(rt(3).aggregate_sink_stats().delivered, 0);
  EXPECT_TRUE(weak.expired());
}

TEST_F(RuntimeFixture, RedeployWhileUnitHoldsCpuDoesNotProcessIt) {
  rt(3).deploy_sink(1, 0, 10.0, 1000);
  const auto weak = unit_on_cpu(sim_, net_, rt(1));
  rt(1).teardown_app(1);
  // Same key again: the unit on the CPU belongs to the old instance.
  rt(1).deploy_component({1, 0, 0}, "slow", 10.0, 1000, {{3, 10.0}});
  sim_.run_until(sim::sec(1));
  ASSERT_NE(rt(1).find_component({1, 0, 0}), nullptr);
  EXPECT_EQ(rt(1).find_component({1, 0, 0})->processed(), 0);
  EXPECT_EQ(rt(1).units_processed(), 0);
  EXPECT_EQ(rt(1).units_unroutable(), 1);
  EXPECT_EQ(rt(3).aggregate_sink_stats().delivered, 0);
  EXPECT_TRUE(weak.expired());
}

TEST_F(RuntimeFixture, RedeployOverLiveInstanceRetiresItsQueuedUnits) {
  // An app-1 unit waits behind an app-2 unit on node 1's CPU when app 1's
  // key is deployed again (a rate-adapter add over a live instance). The
  // queued unit belongs to the old instance: it finishes unroutable, and
  // only later units reach the new one.
  rt(3).deploy_sink(1, 0, 10.0, 1000);
  rt(3).deploy_sink(2, 0, 10.0, 1000);
  rt(1).deploy_component({2, 0, 0}, "slow", 10.0, 1000, {{3, 10.0}});
  rt(1).deploy_component({1, 0, 0}, "fast", 10.0, 1000, {{3, 10.0}});
  std::vector<std::weak_ptr<const DataUnit>> sent;
  const auto send = [&](AppId app, std::int64_t seq) {
    auto du = std::make_shared<DataUnit>();
    du->app = app;
    du->seq = seq;
    du->size_bytes = 1000;
    sent.push_back(du);
    net_.send(0, 1, 1000, std::move(du));
  };
  send(2, 0);  // holds the CPU from ~3 ms to ~43 ms
  sim_.run_until(sim::msec(10));
  send(1, 0);  // queued at ~13 ms
  sim_.run_until(sim::msec(20));
  rt(1).deploy_component({1, 0, 0}, "fast", 10.0, 1000, {{3, 10.0}});
  sim_.run_until(sim::msec(200));
  EXPECT_EQ(rt(1).units_processed(), 1);  // app 2's
  EXPECT_EQ(rt(1).units_unroutable(), 1);
  EXPECT_EQ(rt(1).units_dropped_deadline(), 0);
  for (const auto& weak : sent) EXPECT_TRUE(weak.expired());

  send(1, 1);
  sim_.run_until(sim::sec(1));
  EXPECT_EQ(rt(1).find_component({1, 0, 0})->processed(), 1);
  EXPECT_EQ(rt(3).find_sink(1, 0)->delivered(), 1);
}

TEST_F(RuntimeFixture, DeadlineDropsFeedTheMonitor) {
  rt(1).deploy_component({1, 0, 0}, "slow", 50.0, 1000, {{3, 50.0}});
  rt(3).deploy_sink(1, 0, 50.0, 1000);
  rt(0).deploy_source(1, 0, 50.0, 1000, {{1, 50.0}}, 0, sim::sec(5));
  sim_.run_until(sim::sec(7));
  EXPECT_GT(monitors_[1]->drop_ratio(), 0.1);
}

}  // namespace
}  // namespace rasc::runtime
