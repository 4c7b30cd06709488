// Pastry overlay end-to-end inside the simulator: join convergence,
// routing correctness (delivery at the numerically closest node), hop
// bounds, DHT put/get, replication, and the service registry.
#include "overlay/builder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "overlay/registry.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "sim/topology.hpp"

namespace rasc::overlay {
namespace {

struct AppMsg final : sim::Message {
  const char* kind() const override { return "test.app"; }
  int tag = 0;
};

struct Fixture {
  explicit Fixture(std::size_t n, std::uint64_t seed = 1)
      : simulator(seed),
        network(simulator, sim::make_uniform_topology(n, 10000.0,
                                                      sim::msec(5))),
        overlay(build_overlay(simulator, network, n)) {}

  sim::Simulator simulator;
  sim::Network network;
  Overlay overlay;

  /// Index of the node whose id is numerically closest to `key`.
  std::size_t closest_to(const NodeId128& key) const {
    std::size_t best = 0;
    for (std::size_t i = 1; i < overlay.size(); ++i) {
      if (overlay.at(i).id().closer_to(key, overlay.at(best).id())) {
        best = i;
      }
    }
    return best;
  }
};

class OverlaySize : public ::testing::TestWithParam<std::size_t> {};

TEST_P(OverlaySize, AllNodesReady) {
  Fixture f(GetParam());
  for (std::size_t i = 0; i < f.overlay.size(); ++i) {
    EXPECT_TRUE(f.overlay.at(i).ready()) << "node " << i;
  }
}

TEST_P(OverlaySize, RoutingDeliversAtNumericallyClosestNode) {
  Fixture f(GetParam());
  const std::size_t n = f.overlay.size();
  int delivered_at = -1;
  for (std::size_t i = 0; i < n; ++i) {
    f.overlay.at(i).set_deliver_handler(
        [&delivered_at, i](const NodeId128&, const sim::MessagePtr&,
                           const PeerRef&, int) {
          delivered_at = int(i);
        });
  }
  // Route 20 random keys from random origins.
  auto rng = f.simulator.rng().split(99);
  for (int trial = 0; trial < 20; ++trial) {
    const NodeId128 key =
        NodeId128::hash_of("key-" + std::to_string(trial));
    const auto origin = std::size_t(
        rng.uniform_int(0, std::int64_t(n) - 1));
    delivered_at = -1;
    f.overlay.at(origin).route(key, std::make_shared<AppMsg>(), 16);
    f.simulator.run_until(f.simulator.now() + sim::sec(2));
    ASSERT_NE(delivered_at, -1) << "key never delivered";
    EXPECT_EQ(std::size_t(delivered_at), f.closest_to(key))
        << "key " << key.to_hex() << " landed on the wrong root";
  }
}

TEST_P(OverlaySize, HopCountIsLogarithmic) {
  Fixture f(GetParam());
  const std::size_t n = f.overlay.size();
  int max_hops = 0;
  for (std::size_t i = 0; i < n; ++i) {
    f.overlay.at(i).set_deliver_handler(
        [&max_hops](const NodeId128&, const sim::MessagePtr&,
                    const PeerRef&, int hops) {
          max_hops = std::max(max_hops, hops);
        });
  }
  for (int trial = 0; trial < 30; ++trial) {
    const NodeId128 key = NodeId128::hash_of("hop-" + std::to_string(trial));
    f.overlay.at(trial % n).route(key, std::make_shared<AppMsg>(), 16);
  }
  f.simulator.run_until(f.simulator.now() + sim::sec(5));
  // Pastry bound: ~log_16(n) + leaf-set hop; generous ceiling.
  EXPECT_LE(max_hops, 2 + int(std::log2(double(n)) / 4 + 1));
}

INSTANTIATE_TEST_SUITE_P(Sizes, OverlaySize,
                         ::testing::Values(2, 4, 8, 16, 32));

TEST(OverlayDht, PutThenGetRoundTrips) {
  Fixture f(16);
  const auto key = NodeId128::hash_of("some-object");
  bool put_ok = false;
  f.overlay.at(3).dht_put(key, "value-1", true,
                          [&put_ok](bool ok) { put_ok = ok; });
  f.simulator.run_until(f.simulator.now() + sim::sec(2));
  ASSERT_TRUE(put_ok);

  bool found = false;
  std::vector<std::string> values;
  f.overlay.at(9).dht_get(key, [&](bool ok, std::vector<std::string> v) {
    found = ok;
    values = std::move(v);
  });
  f.simulator.run_until(f.simulator.now() + sim::sec(2));
  ASSERT_TRUE(found);
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0], "value-1");
}

TEST(OverlayDht, AppendAccumulatesAndDeduplicates) {
  Fixture f(8);
  const auto key = NodeId128::hash_of("list");
  int acks = 0;
  for (const char* v : {"a", "b", "a", "c"}) {
    f.overlay.at(0).dht_put(key, v, true, [&acks](bool) { ++acks; });
    f.simulator.run_until(f.simulator.now() + sim::msec(500));
  }
  EXPECT_EQ(acks, 4);
  std::vector<std::string> values;
  f.overlay.at(5).dht_get(key, [&](bool, std::vector<std::string> v) {
    values = std::move(v);
  });
  f.simulator.run_until(f.simulator.now() + sim::sec(1));
  EXPECT_EQ(values.size(), 3u);  // "a" deduplicated
}

TEST(OverlayDht, ReplaceSemantics) {
  Fixture f(8);
  const auto key = NodeId128::hash_of("replace-me");
  f.overlay.at(0).dht_put(key, "old", false, nullptr);
  f.simulator.run_until(f.simulator.now() + sim::msec(500));
  f.overlay.at(0).dht_put(key, "new", false, nullptr);
  f.simulator.run_until(f.simulator.now() + sim::msec(500));
  std::vector<std::string> values;
  f.overlay.at(1).dht_get(key, [&](bool, std::vector<std::string> v) {
    values = std::move(v);
  });
  f.simulator.run_until(f.simulator.now() + sim::sec(1));
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0], "new");
}

TEST(OverlayDht, MissingKeyReportsNotFound) {
  Fixture f(8);
  bool called = false, found = true;
  f.overlay.at(2).dht_get(NodeId128::hash_of("nothing-here"),
                          [&](bool ok, std::vector<std::string>) {
                            called = true;
                            found = ok;
                          });
  f.simulator.run_until(f.simulator.now() + sim::sec(1));
  EXPECT_TRUE(called);
  EXPECT_FALSE(found);
}

TEST(OverlayDht, ValuesSurviveRootFailureViaReplication) {
  Fixture f(16);
  const auto key = NodeId128::hash_of("replicated-object");
  f.overlay.at(0).dht_put(key, "precious", true, nullptr);
  f.simulator.run_until(f.simulator.now() + sim::sec(1));

  // Kill the root and purge it from every node's state (the failure
  // detector's job, done manually here).
  const auto root = f.closest_to(key);
  f.network.fail_node(sim::NodeIndex(root));
  for (std::size_t i = 0; i < f.overlay.size(); ++i) {
    if (i != root) f.overlay.at(i).purge_peer(sim::NodeIndex(root));
  }

  const std::size_t asker = (root + 1) % f.overlay.size();
  bool found = false;
  std::vector<std::string> values;
  f.overlay.at(asker).dht_get(key, [&](bool ok, std::vector<std::string> v) {
    found = ok;
    values = std::move(v);
  });
  f.simulator.run_until(f.simulator.now() + sim::sec(3));
  ASSERT_TRUE(found) << "replica did not answer after root failure";
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0], "precious");
}

TEST(ServiceRegistry, RegisterAndLookupProviders) {
  Fixture f(16);
  ServiceRegistry reg0(f.overlay.at(0));
  ServiceRegistry reg5(f.overlay.at(5));
  reg0.register_provider("transcode", 3, nullptr);
  reg0.register_provider("transcode", 7, nullptr);
  f.simulator.run_until(f.simulator.now() + sim::sec(1));

  bool found = false;
  std::vector<sim::NodeIndex> providers;
  reg5.lookup("transcode", [&](bool ok, std::vector<sim::NodeIndex> p) {
    found = ok;
    providers = std::move(p);
  });
  f.simulator.run_until(f.simulator.now() + sim::sec(1));
  ASSERT_TRUE(found);
  std::sort(providers.begin(), providers.end());
  EXPECT_EQ(providers, (std::vector<sim::NodeIndex>{3, 7}));
}

TEST(ServiceRegistry, UnknownServiceNotFound) {
  Fixture f(8);
  ServiceRegistry reg(f.overlay.at(1));
  bool called = false, found = true;
  reg.lookup("never-registered", [&](bool ok, std::vector<sim::NodeIndex>) {
    called = true;
    found = ok;
  });
  f.simulator.run_until(f.simulator.now() + sim::sec(1));
  EXPECT_TRUE(called);
  EXPECT_FALSE(found);
}

TEST(OverlayIntrospection, NextHopMakesProgress) {
  Fixture f(32);
  const auto key = NodeId128::hash_of("progress-check");
  for (std::size_t i = 0; i < f.overlay.size(); ++i) {
    const auto& node = f.overlay.at(i);
    const auto hop = node.next_hop(key);
    if (hop.addr == node.addr()) continue;  // claims to be root
    // The hop must be strictly closer to the key (numerically) or share a
    // longer prefix — Pastry's progress guarantee.
    const bool closer = hop.id.closer_to(key, node.id());
    const bool longer_prefix =
        hop.id.shared_prefix_len(key) > node.id().shared_prefix_len(key);
    EXPECT_TRUE(closer || longer_prefix) << "node " << i;
  }
}

}  // namespace
}  // namespace rasc::overlay

namespace rasc::overlay {
namespace {

class LeafConvergence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LeafConvergence, EveryNodeKnowsItsTrueRingNeighbors) {
  // After build (joins + maintenance rounds), each node's leaf set must
  // contain its kHalf numerically nearest peers on each side — the
  // invariant Pastry's root-selection correctness rests on.
  Fixture f(GetParam());
  const std::size_t n = f.overlay.size();
  for (std::size_t i = 0; i < n; ++i) {
    const auto& node = f.overlay.at(i);
    // Compute the true clockwise/counterclockwise neighbors.
    std::vector<std::pair<NodeId128, std::size_t>> cw, ccw;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      const auto off_cw = f.overlay.at(j).id().ring_sub(node.id());
      const auto off_ccw = node.id().ring_sub(f.overlay.at(j).id());
      if (off_cw <= off_ccw) {
        cw.emplace_back(off_cw, j);
      } else {
        ccw.emplace_back(off_ccw, j);
      }
    }
    std::sort(cw.begin(), cw.end());
    std::sort(ccw.begin(), ccw.end());
    const std::size_t want_cw = std::min(LeafSet::kHalf, cw.size());
    for (std::size_t k = 0; k < want_cw; ++k) {
      EXPECT_TRUE(node.leaf_set().contains(sim::NodeIndex(cw[k].second)))
          << "node " << i << " missing cw neighbor " << cw[k].second;
    }
    const std::size_t want_ccw = std::min(LeafSet::kHalf, ccw.size());
    for (std::size_t k = 0; k < want_ccw; ++k) {
      EXPECT_TRUE(node.leaf_set().contains(sim::NodeIndex(ccw[k].second)))
          << "node " << i << " missing ccw neighbor " << ccw[k].second;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LeafConvergence,
                         ::testing::Values(4, 8, 16, 32, 48));

TEST(OverlayChurn, LateJoinIntegratesWhileTrafficFlows) {
  // Build 8 nodes on a 10-host network, start background routed traffic,
  // then join a 9th node: it must become ready and routable.
  sim::Simulator simulator(3);
  sim::Network network(simulator,
                       sim::make_uniform_topology(10, 10000.0,
                                                  sim::msec(5)));
  auto overlay = build_overlay(simulator, network, 8);

  // Background chatter: periodic DHT puts.
  const auto key = NodeId128::hash_of("churn-key");
  for (int i = 0; i < 20; ++i) {
    simulator.call_after(sim::msec(100 * i), [&overlay, key, i] {
      overlay.at(std::size_t(i) % 8).dht_put(
          key, "v" + std::to_string(i), true, nullptr);
    });
  }

  PastryNode late(simulator, network, 8,
                  NodeId128::hash_of("late-joiner"));
  bool joined = false;
  late.join_via(3, [&joined](bool ok) { joined = ok; });
  simulator.run_until(simulator.now() + sim::sec(5));
  ASSERT_TRUE(joined);
  EXPECT_TRUE(late.ready());

  // The newcomer can resolve DHT state.
  bool found = false;
  late.dht_get(key, [&found](bool ok, std::vector<std::string>) {
    found = ok;
  });
  simulator.run_until(simulator.now() + sim::sec(2));
  EXPECT_TRUE(found);
}

// Regression for the ~250-node bootstrap ceiling: joins seeded from a
// stale root left dozens of nodes with leaf sets pointing at the wrong
// ring neighborhood, and the push-only leaf exchange could never repair
// them (their true neighbors did not know they existed). The neighbor
// probe + exchange-on-new-leaf repair must converge every leaf set to
// ground truth on a heterogeneous low-bandwidth topology, and a
// World-style staggered registration wave must complete without a
// single put failure.
TEST(OverlayScale, FourHundredNodeBootstrapConverges) {
  const std::size_t n = 400;
  sim::Simulator simulator(1);
  auto topo_rng = simulator.rng().split(0x746f706f);
  sim::PlanetLabParams params;
  sim::Network network(
      simulator, sim::make_planetlab_like(n, topo_rng, params));
  auto overlay = build_overlay(simulator, network, n);

  // Every leaf set must hold the true 4 closest peers per side.
  std::vector<NodeId128> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = overlay.at(i).id();
  for (std::size_t i = 0; i < n; ++i) {
    const auto self = ids[i];
    std::vector<NodeId128> cw, ccw;
    for (const auto& id : ids) {
      if (!(id == self)) cw.push_back(id);
    }
    ccw = cw;
    std::sort(cw.begin(), cw.end(), [&](const auto& a, const auto& b) {
      return a.ring_sub(self) < b.ring_sub(self);
    });
    std::sort(ccw.begin(), ccw.end(), [&](const auto& a, const auto& b) {
      return self.ring_sub(a) < self.ring_sub(b);
    });
    const auto leaves = overlay.at(i).leaf_set().all();
    auto have = [&leaves](const NodeId128& id) {
      return std::any_of(leaves.begin(), leaves.end(),
                         [&id](const PeerRef& p) { return p.id == id; });
    };
    for (std::size_t k = 0; k < LeafSet::kHalf && k < cw.size(); ++k) {
      ASSERT_TRUE(have(cw[k])) << "node " << i << " missing cw leaf " << k;
    }
    for (std::size_t k = 0; k < LeafSet::kHalf && k < ccw.size(); ++k) {
      ASSERT_TRUE(have(ccw[k])) << "node " << i << " missing ccw leaf " << k;
    }
  }

  // World-style registration pressure: 5 staggered puts per node spread
  // over 10 hot keys; the ceiling showed up as routed puts looping past
  // kMaxHops and timing out.
  std::vector<NodeId128> keys;
  for (int s = 0; s < 10; ++s) {
    keys.push_back(NodeId128::hash_of("svc" + std::to_string(s)));
  }
  std::size_t outstanding = 0, failures = 0;
  sim::SimDuration offset = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (int s = 0; s < 5; ++s) {
      ++outstanding;
      offset += sim::msec(15);
      auto* node = &overlay.at(i);
      const auto key = keys[(i + std::size_t(s)) % keys.size()];
      simulator.call_after(offset, [node, key, i, &outstanding, &failures] {
        node->dht_put(key, "v" + std::to_string(i), true,
                      [&outstanding, &failures](bool ok) {
                        if (!ok) ++failures;
                        --outstanding;
                      });
      });
    }
  }
  while (outstanding > 0 && simulator.step()) {
  }
  EXPECT_EQ(outstanding, 0u);
  EXPECT_EQ(failures, 0u);
  EXPECT_EQ(network.packets_dropped(), 0);
}

TEST(OverlayChurn, PurgedPeerIsForgottenEverywhere) {
  Fixture f(16);
  const sim::NodeIndex victim = 5;
  for (std::size_t i = 0; i < f.overlay.size(); ++i) {
    if (i == 5) continue;
    f.overlay.at(i).purge_peer(victim);
    EXPECT_FALSE(f.overlay.at(i).leaf_set().contains(victim));
    for (const auto& p : f.overlay.at(i).routing_table().all()) {
      EXPECT_NE(p.addr, victim);
    }
  }
}

}  // namespace
}  // namespace rasc::overlay
