// Resource monitoring: bandwidth sampling from network counters, drop
// ratio windows, reservations, and the stats query protocol (§3.2-3.3).
#include "monitor/node_monitor.hpp"
#include "monitor/stats_protocol.hpp"

#include <gtest/gtest.h>

#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "sim/topology.hpp"

namespace rasc::monitor {
namespace {

struct Blob final : sim::Message {
  const char* kind() const override { return "test.blob"; }
};

class MonitorTest : public ::testing::Test {
 protected:
  MonitorTest()
      : net_(sim_, sim::make_uniform_topology(3, 8000.0, sim::msec(1))) {
    net_.set_handler(1, [](const sim::Packet&) {});
    net_.set_handler(2, [](const sim::Packet&) {});
  }

  sim::Simulator sim_;
  sim::Network net_;
};

TEST_F(MonitorTest, IdleNodeReportsFullAvailability) {
  NodeMonitor mon(sim_, net_, 0);
  sim_.run_until(sim::sec(3));
  const auto s = mon.snapshot();
  EXPECT_EQ(s.node, 0);
  EXPECT_DOUBLE_EQ(s.capacity_in_kbps, 8000.0);
  EXPECT_DOUBLE_EQ(s.capacity_out_kbps, 8000.0);
  EXPECT_NEAR(s.used_out_kbps, 0.0, 1.0);
  EXPECT_NEAR(s.available_out_kbps(), 8000.0, 1.0);
  EXPECT_EQ(s.drop_ratio, 0.0);
  EXPECT_EQ(s.taken_at, sim_.now());
}

TEST_F(MonitorTest, MeasuresOutgoingTrafficRate) {
  NodeMonitor mon(sim_, net_, 0);
  // Send ~2000 kbps: a 1202-byte payload (1250 wire bytes = 10 kbit)
  // every 5 ms.
  for (int i = 0; i < 600; ++i) {
    sim_.call_at(sim::msec(5 * i), [this] {
      net_.send(0, 1, 1250 - sim::Network::kFrameOverheadBytes,
                std::make_shared<Blob>());
    });
  }
  sim_.run_until(sim::sec(3));
  const auto s = mon.snapshot();
  EXPECT_NEAR(s.used_out_kbps, 2000.0, 150.0);
  EXPECT_NEAR(s.available_out_kbps(), 6000.0, 150.0);
}

TEST_F(MonitorTest, MeasuresIncomingTrafficRate) {
  NodeMonitor mon(sim_, net_, 1);
  for (int i = 0; i < 300; ++i) {
    sim_.call_at(sim::msec(10 * i), [this] {
      net_.send(0, 1, 1250 - sim::Network::kFrameOverheadBytes,
                std::make_shared<Blob>());
    });
  }
  sim_.run_until(sim::sec(3));
  const auto s = mon.snapshot();
  EXPECT_NEAR(s.used_in_kbps, 1000.0, 100.0);
}

TEST_F(MonitorTest, DropRatioWindowed) {
  NodeMonitor::Params params;
  params.outcome_window = 10;
  NodeMonitor mon(sim_, net_, 0, params);
  for (int i = 0; i < 5; ++i) mon.on_unit_processed();
  for (int i = 0; i < 5; ++i) mon.on_unit_dropped();
  EXPECT_DOUBLE_EQ(mon.drop_ratio(), 0.5);
  // A burst of successes pushes the drops out of the window.
  for (int i = 0; i < 10; ++i) mon.on_unit_processed();
  EXPECT_DOUBLE_EQ(mon.drop_ratio(), 0.0);
}

TEST_F(MonitorTest, ReservationsAffectAvailability) {
  NodeMonitor::Params params;
  params.advertise_reservations = true;
  NodeMonitor mon(sim_, net_, 0, params);
  mon.add_reservation(3000.0, 1000.0);
  auto s = mon.snapshot();
  EXPECT_DOUBLE_EQ(s.reserved_in_kbps, 3000.0);
  EXPECT_DOUBLE_EQ(s.available_in_kbps(), 5000.0);
  EXPECT_DOUBLE_EQ(s.available_out_kbps(), 7000.0);
  mon.add_reservation(-3000.0, -1000.0);
  s = mon.snapshot();
  EXPECT_DOUBLE_EQ(s.available_in_kbps(), 8000.0);
  // Over-release clamps at zero rather than going negative.
  mon.add_reservation(-500.0, 0.0);
  EXPECT_DOUBLE_EQ(mon.snapshot().reserved_in_kbps, 0.0);
}

TEST_F(MonitorTest, AvailabilityUsesMaxOfMeasuredAndReserved) {
  NodeStats s;
  s.capacity_in_kbps = 1000;
  s.used_in_kbps = 300;
  s.reserved_in_kbps = 500;
  EXPECT_DOUBLE_EQ(s.available_in_kbps(), 500.0);
  s.used_in_kbps = 700;
  EXPECT_DOUBLE_EQ(s.available_in_kbps(), 300.0);
}

TEST(StatsProtocol, RemoteQueryRoundTrip) {
  sim::Simulator sim;
  sim::Network net(sim, sim::make_uniform_topology(2, 8000.0, sim::msec(5)));
  NodeMonitor::Params params;
  params.advertise_reservations = true;
  NodeMonitor mon0(sim, net, 0, params), mon1(sim, net, 1, params);
  StatsAgent agent0(sim, net, 0, mon0), agent1(sim, net, 1, mon1);

  mon1.add_reservation(1234.0, 0.0);
  bool ok = false;
  NodeStats got;
  agent0.query(1, [&](bool success, const NodeStats& s) {
    ok = success;
    got = s;
  });
  sim.run_until(sim::sec(1));
  ASSERT_TRUE(ok);
  EXPECT_EQ(got.node, 1);
  EXPECT_DOUBLE_EQ(got.reserved_in_kbps, 1234.0);
}

TEST(StatsProtocol, QueryTimesOutOnDeadNode) {
  sim::Simulator sim;
  sim::Network net(sim, sim::make_uniform_topology(2, 8000.0, sim::msec(5)));
  NodeMonitor mon0(sim, net, 0);
  StatsAgent agent0(sim, net, 0, mon0);
  net.fail_node(1);

  bool called = false, ok = true;
  agent0.query(1, [&](bool success, const NodeStats&) {
    called = true;
    ok = success;
  });
  sim.run_until(sim::sec(5));
  EXPECT_TRUE(called);
  EXPECT_FALSE(ok);
}

TEST(StatsProtocol, QueryManyGathersAllReachable) {
  sim::Simulator sim;
  sim::Network net(sim, sim::make_uniform_topology(4, 8000.0, sim::msec(5)));
  std::vector<std::unique_ptr<NodeMonitor>> mons;
  std::vector<std::unique_ptr<StatsAgent>> agents;
  for (sim::NodeIndex i = 0; i < 4; ++i) {
    mons.push_back(std::make_unique<NodeMonitor>(sim, net, i));
    agents.push_back(std::make_unique<StatsAgent>(sim, net, i, *mons.back()));
  }
  net.fail_node(3);  // one target dead

  std::vector<NodeStats> got;
  bool done = false;
  agents[0]->query_many({1, 2, 3}, [&](std::vector<NodeStats> stats) {
    got = std::move(stats);
    done = true;
  });
  sim.run_until(sim::sec(5));
  ASSERT_TRUE(done);
  EXPECT_EQ(got.size(), 2u);  // node 3 timed out, omitted
}

}  // namespace
}  // namespace rasc::monitor
