// Coordinator pipeline over a real (simulated) world: discovery through
// the DHT, stats over the network, composition, deployment with acks.
#include "core/coordinator.hpp"

#include <gtest/gtest.h>

#include "core/backoff.hpp"
#include "core/discovery.hpp"
#include "core/greedy_composer.hpp"
#include "core/mincost_composer.hpp"
#include "exp/world.hpp"

namespace rasc::core {
namespace {

exp::WorldConfig small_world() {
  exp::WorldConfig wc;
  wc.nodes = 12;
  wc.num_services = 6;
  wc.services_per_node = 3;
  wc.seed = 21;
  wc.net.bw_min_kbps = 4000;
  wc.net.bw_max_kbps = 8000;
  return wc;
}

ServiceRequest request_for(exp::World& world) {
  ServiceRequest req;
  req.app = 1;
  req.source = 0;
  req.destination = sim::NodeIndex(world.size() - 1);
  req.unit_bytes = 1250;
  req.substreams = {{{"svc0", "svc1"}, 100.0}};
  return req;
}

TEST(Coordinator, ComposesAndDeploysEndToEnd) {
  exp::World world(small_world());
  auto& sim = world.simulator();
  MinCostComposer composer;
  const auto req = request_for(world);

  bool done = false;
  SubmitOutcome outcome;
  world.host(0).coordinator().submit(
      req, composer, 0, sim.now() + sim::sec(10),
      [&](const SubmitOutcome& o) {
        done = true;
        outcome = o;
      });
  sim.run_until(sim.now() + sim::sec(12));

  ASSERT_TRUE(done);
  ASSERT_TRUE(outcome.compose.admitted) << outcome.compose.error;
  EXPECT_GT(outcome.composition_latency, 0);
  EXPECT_LT(outcome.composition_latency, sim::sec(5));

  // Components exist on the planned nodes and the stream flowed.
  const auto& plan = outcome.compose.plan;
  for (std::size_t ss = 0; ss < plan.substreams.size(); ++ss) {
    const auto& sub = plan.substreams[ss];
    for (std::size_t st = 0; st < sub.stages.size(); ++st) {
      for (const auto& p : sub.stages[st].placements) {
        EXPECT_NE(world.host(std::size_t(p.node))
                      .runtime()
                      .find_component({plan.app, std::int32_t(ss),
                                       std::int32_t(st)}),
                  nullptr);
      }
    }
  }
  const auto sink = world.host(world.size() - 1)
                        .runtime()
                        .aggregate_sink_stats();
  EXPECT_GT(sink.delivered, 0);
}

TEST(Coordinator, UnknownServiceIsRejectedViaDiscovery) {
  exp::World world(small_world());
  auto& sim = world.simulator();
  MinCostComposer composer;
  auto req = request_for(world);
  req.substreams[0].services = {"svc0", "no-such-service"};

  bool done = false;
  SubmitOutcome outcome;
  world.host(0).coordinator().submit(req, composer, 0,
                                     sim.now() + sim::sec(5),
                                     [&](const SubmitOutcome& o) {
                                       done = true;
                                       outcome = o;
                                     });
  sim.run_until(sim.now() + sim::sec(8));
  ASSERT_TRUE(done);
  EXPECT_FALSE(outcome.compose.admitted);
  EXPECT_NE(outcome.compose.error.find("discovery"), std::string::npos)
      << outcome.compose.error;
}

TEST(Coordinator, InvalidRequestFailsFast) {
  exp::World world(small_world());
  MinCostComposer composer;
  ServiceRequest bad;  // empty
  bool done = false;
  SubmitOutcome outcome;
  world.host(0).coordinator().submit(bad, composer, 0, sim::sec(5),
                                     [&](const SubmitOutcome& o) {
                                       done = true;
                                       outcome = o;
                                     });
  EXPECT_TRUE(done);  // synchronous rejection
  EXPECT_FALSE(outcome.compose.admitted);
}

TEST(Coordinator, ConcurrentRequestsBothHandled) {
  exp::World world(small_world());
  auto& sim = world.simulator();
  MinCostComposer composer;
  auto r1 = request_for(world);
  auto r2 = request_for(world);
  r2.app = 2;
  r2.source = 1;
  r2.substreams = {{{"svc2"}, 80.0}};

  int done = 0, admitted = 0;
  auto cb = [&](const SubmitOutcome& o) {
    ++done;
    admitted += o.compose.admitted ? 1 : 0;
  };
  world.host(0).coordinator().submit(r1, composer, 0,
                                     sim.now() + sim::sec(10), cb);
  world.host(1).coordinator().submit(r2, composer, 0,
                                     sim.now() + sim::sec(10), cb);
  sim.run_until(sim.now() + sim::sec(12));
  EXPECT_EQ(done, 2);
  EXPECT_EQ(admitted, 2);
}

TEST(Coordinator, GreedyDeploysOneInstancePerService) {
  exp::World world(small_world());
  auto& sim = world.simulator();
  GreedyComposer composer;
  const auto req = request_for(world);
  bool done = false;
  SubmitOutcome outcome;
  world.host(0).coordinator().submit(req, composer, 0,
                                     sim.now() + sim::sec(10),
                                     [&](const SubmitOutcome& o) {
                                       done = true;
                                       outcome = o;
                                     });
  sim.run_until(sim.now() + sim::sec(12));
  ASSERT_TRUE(done);
  ASSERT_TRUE(outcome.compose.admitted) << outcome.compose.error;
  EXPECT_EQ(outcome.compose.plan.component_count(), 2u);
}

TEST(CappedBackoff, ExponentialLadderSaturates) {
  using sim::msec;
  EXPECT_EQ(capped_backoff(msec(300), msec(5000), 0), msec(300));
  EXPECT_EQ(capped_backoff(msec(300), msec(5000), 1), msec(600));
  EXPECT_EQ(capped_backoff(msec(300), msec(5000), 2), msec(1200));
  EXPECT_EQ(capped_backoff(msec(300), msec(5000), 3), msec(2400));
  EXPECT_EQ(capped_backoff(msec(300), msec(5000), 10), msec(5000));
  EXPECT_EQ(capped_backoff(msec(300), msec(5000), 1000), msec(5000));
}

TEST(Coordinator, DiscoveryRetriesSpreadOut) {
  // An unknown service fails every lookup. With kDiscoveryAttempts = 3
  // the two retry gaps follow the 300/600 ms backoff ladder, so the
  // rejection cannot arrive before ~900 ms of retry spacing — the old
  // fixed 300 ms beat re-hammered the overlay and finished by ~600 ms.
  exp::World world(small_world());
  auto& sim = world.simulator();
  MinCostComposer composer;
  auto req = request_for(world);
  req.substreams[0].services = {"svc0", "no-such-service"};

  bool done = false;
  SubmitOutcome outcome;
  world.host(0).coordinator().submit(req, composer, 0,
                                     sim.now() + sim::sec(10),
                                     [&](const SubmitOutcome& o) {
                                       done = true;
                                       outcome = o;
                                     });
  sim.run_until(sim.now() + sim::sec(12));
  ASSERT_TRUE(done);
  EXPECT_FALSE(outcome.compose.admitted);
  EXPECT_GE(outcome.composition_latency,
            Coordinator::kDiscoveryBackoff * 3)
      << "retries arrived in lockstep instead of backing off";
}

TEST(Discovery, CallsBackOnceWithProvidersOrSortedFailures) {
  exp::World world(small_world());
  auto& sim = world.simulator();
  overlay::ServiceRegistry registry(world.overlay().at(0));
  int calls = 0;
  ProviderMap providers;
  std::string error;
  const DiscoveryCallback record = [&](ProviderMap p, std::string e) {
    ++calls;
    providers = std::move(p);
    error = std::move(e);
  };

  // Two of three services unknown: one callback naming both, sorted, and
  // no partial provider map.
  discover_providers(sim, registry, {"zz-missing", "svc0", "aa-missing"},
                     record);
  sim.run_until(sim.now() + sim::sec(12));
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(error, "service discovery failed for aa-missing, zz-missing");
  EXPECT_TRUE(providers.empty());

  calls = 0;
  discover_providers(sim, registry, {"svc1", "svc0"}, record);
  sim.run_until(sim.now() + sim::sec(12));
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(error, "");
  ASSERT_EQ(providers.size(), 2u);
  EXPECT_FALSE(providers["svc0"].empty());
  EXPECT_FALSE(providers["svc1"].empty());
}

}  // namespace
}  // namespace rasc::core
