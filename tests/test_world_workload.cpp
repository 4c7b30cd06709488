// World construction invariants and workload generator properties
// (parameterized over seeds).
#include "exp/workload.hpp"
#include "exp/world.hpp"

#include <gtest/gtest.h>

#include <set>

namespace rasc::exp {
namespace {

TEST(World, PaperDefaultsBuild) {
  WorldConfig wc;
  wc.nodes = 32;
  wc.seed = 3;
  World world(wc);
  EXPECT_EQ(world.size(), 32u);
  EXPECT_EQ(world.service_names().size(), 10u);
  for (std::size_t i = 0; i < world.size(); ++i) {
    EXPECT_TRUE(world.overlay().at(i).ready());
    EXPECT_EQ(world.services_on(i).size(), 5u);
    // No duplicate services on a node.
    std::set<std::string> uniq(world.services_on(i).begin(),
                               world.services_on(i).end());
    EXPECT_EQ(uniq.size(), world.services_on(i).size());
  }
}

TEST(World, EveryServiceHasAProviderRegisteredInDht) {
  WorldConfig wc;
  wc.nodes = 16;
  wc.num_services = 8;
  wc.services_per_node = 3;
  wc.seed = 11;
  World world(wc);
  auto& sim = world.simulator();
  for (const auto& service : world.service_names()) {
    overlay::ServiceRegistry reg(world.overlay().at(0));
    bool found = false;
    std::vector<sim::NodeIndex> providers;
    reg.lookup(service, [&](bool ok, std::vector<sim::NodeIndex> p) {
      found = ok;
      providers = std::move(p);
    });
    sim.run_until(sim.now() + sim::sec(2));
    EXPECT_TRUE(found) << service;
    EXPECT_FALSE(providers.empty()) << service;
    // Providers must actually host the service.
    for (auto p : providers) {
      const auto& on_node = world.services_on(std::size_t(p));
      EXPECT_NE(std::find(on_node.begin(), on_node.end(), service),
                on_node.end());
    }
  }
}

TEST(World, CatalogServicesHaveConfiguredCpuRange) {
  WorldConfig wc;
  wc.nodes = 8;
  wc.seed = 5;
  wc.service_cpu_min = sim::msec(2);
  wc.service_cpu_max = sim::msec(6);
  World world(wc);
  for (const auto& [name, spec] : world.catalog().all()) {
    (void)name;
    EXPECT_GE(spec.cpu_time_per_unit, sim::msec(2));
    EXPECT_LE(spec.cpu_time_per_unit, sim::msec(6));
  }
}

class WorkloadSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WorkloadSeeds, GeneratorInvariants) {
  WorkloadConfig cfg;
  cfg.num_requests = 50;
  cfg.avg_rate_kbps = 120;
  std::vector<std::string> services;
  for (int i = 0; i < 10; ++i) services.push_back("svc" + std::to_string(i));
  util::Xoshiro256 rng(GetParam());
  const auto reqs = generate_workload(cfg, services, 32, rng);
  ASSERT_EQ(reqs.size(), 50u);
  for (const auto& r : reqs) {
    EXPECT_TRUE(r.validate().empty());
    EXPECT_NE(r.source, r.destination);
    EXPECT_GE(r.source, 0);
    EXPECT_LT(r.source, 32);
    const auto distinct = r.distinct_services();
    std::size_t total = 0;
    for (const auto& ss : r.substreams) {
      total += ss.services.size();
      EXPECT_GE(ss.rate_kbps, 120 * 0.8 - 1e-9);
      EXPECT_LE(ss.rate_kbps, 120 * 1.2 + 1e-9);
    }
    EXPECT_GE(total, 2u);
    EXPECT_LE(total, 5u);
    EXPECT_EQ(distinct.size(), total) << "services repeat within request";
  }
}

TEST_P(WorkloadSeeds, DeterministicGivenSeed) {
  WorkloadConfig cfg;
  cfg.num_requests = 10;
  std::vector<std::string> services{"a", "b", "c", "d"};
  util::Xoshiro256 r1(GetParam()), r2(GetParam());
  const auto w1 = generate_workload(cfg, services, 8, r1);
  const auto w2 = generate_workload(cfg, services, 8, r2);
  for (std::size_t i = 0; i < w1.size(); ++i) {
    EXPECT_EQ(w1[i].source, w2[i].source);
    EXPECT_EQ(w1[i].substreams.size(), w2[i].substreams.size());
    EXPECT_EQ(w1[i].substreams[0].services, w2[i].substreams[0].services);
    EXPECT_EQ(w1[i].substreams[0].rate_kbps, w2[i].substreams[0].rate_kbps);
  }
}

TEST_P(WorkloadSeeds, SomeRequestsHaveTwoSubstreams) {
  WorkloadConfig cfg;
  cfg.num_requests = 100;
  std::vector<std::string> services{"a", "b", "c", "d", "e"};
  util::Xoshiro256 rng(GetParam());
  const auto reqs = generate_workload(cfg, services, 8, rng);
  int two = 0;
  for (const auto& r : reqs) two += (r.substreams.size() == 2);
  // Every request has >= 2 services, so the split count is
  // Binomial(100, kTwoSubstreamProb = 0.25): mean 25, sd 4.3. The bounds
  // sit about four standard deviations out on either side.
  EXPECT_GT(two, 7);
  EXPECT_LT(two, 43);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorkloadSeeds,
                         ::testing::Values(1, 7, 42, 1001));

}  // namespace
}  // namespace rasc::exp

namespace rasc::exp {
namespace {

TEST(WorldCustomServices, CatalogAndRegistryUseCallerSpecs) {
  WorldConfig wc;
  wc.nodes = 8;
  wc.services_per_node = 2;
  wc.seed = 4;
  wc.custom_services = {
      {"transcode", sim::msec(8), 1.0, 0.5},
      {"downmix", sim::msec(1), 0.5, 1.0},
      {"filter", sim::msec(2), 1.0, 1.0},
  };
  World world(wc);
  EXPECT_EQ(world.service_names().size(), 3u);
  EXPECT_TRUE(world.catalog().contains("transcode"));
  EXPECT_DOUBLE_EQ(world.catalog().get("downmix").rate_ratio, 0.5);
  EXPECT_DOUBLE_EQ(world.catalog().get("transcode").output_size_factor,
                   0.5);
  // Each custom service is discoverable.
  auto& sim = world.simulator();
  for (const auto& service : world.service_names()) {
    overlay::ServiceRegistry reg(world.overlay().at(0));
    bool found = false;
    reg.lookup(service, [&found](bool ok, std::vector<sim::NodeIndex> p) {
      found = ok && !p.empty();
    });
    sim.run_until(sim.now() + sim::sec(2));
    EXPECT_TRUE(found) << service;
  }
}

TEST(HostWiring, PortDropsOfDataUnitsFeedTheMonitor) {
  // A world node whose access link is overwhelmed must see its drop
  // ratio rise through the Host's network drop handler.
  WorldConfig wc;
  wc.nodes = 6;
  wc.services_per_node = 2;
  wc.num_services = 4;
  wc.seed = 8;
  wc.net.bw_min_kbps = 400;
  wc.net.bw_max_kbps = 600;
  World world(wc);
  auto& sim = world.simulator();

  // Blast data units far beyond node 1's input capacity, bypassing
  // admission entirely.
  auto& rt1 = world.host(1).runtime();
  (void)rt1;
  for (int i = 0; i < 400; ++i) {
    sim.call_after(sim::msec(2 * i), [&world, i] {
      auto du = std::make_shared<runtime::DataUnit>();
      du->app = 999;
      du->seq = i;
      du->size_bytes = 1250;
      world.network().send(0, 1, 1250, du);
    });
  }
  sim.run_until(sim.now() + sim::sec(3));
  EXPECT_GT(world.network().in_queue_drops(1) +
                world.network().out_queue_drops(0),
            0);
  // Either endpoint observed data-unit loss in its monitoring.
  const double drop0 = world.host(0).monitor().drop_ratio();
  const double drop1 = world.host(1).monitor().drop_ratio();
  EXPECT_GT(drop0 + drop1, 0.0);
}

}  // namespace
}  // namespace rasc::exp
