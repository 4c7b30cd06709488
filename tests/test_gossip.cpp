// Gossip subsystem: agent merge/staleness/budget semantics against a raw
// simulated fleet, hop-by-hop composer behavior (greedy walk, bounded
// backtracking) on hand-built inputs, and end-to-end
// --control-plane=gossip runs — admission and streaming, byte-identical
// same-seed replays, knob neutrality for the default
// planes, and convergence under churn and monitor-blackout chaos.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/gossip_composer.hpp"
#include "exp/gossip_control_plane.hpp"
#include "exp/runner.hpp"
#include "gossip/agent.hpp"
#include "obs/metric_registry.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "sim/topology.hpp"

namespace rasc {
namespace {

// --- Agent against a raw simulated fleet ------------------------------

struct Fleet {
  explicit Fleet(std::size_t n, gossip::Agent::Params params,
                 double bw_kbps = 10000.0)
      : simulator(11),
        network(simulator,
                sim::make_uniform_topology(n, bw_kbps, sim::msec(5)),
                &registry) {
    agents.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      gossip::Agent::Params p = params;
      p.seed = 1000 + i;
      const sim::NodeIndex node = sim::NodeIndex(i);
      agents.push_back(std::make_unique<gossip::Agent>(
          simulator, network, node, n, p,
          [node] {
            gossip::LoadSummary s;
            s.capacity_in_kbps = 1000.0 + double(node);
            s.capacity_out_kbps = 1000.0 + double(node);
            s.free_in_kbps = 500.0;
            s.free_out_kbps = 500.0;
            return s;
          },
          registry));
    }
  }

  void start_all() {
    for (auto& a : agents) a->start(simulator.now());
  }

  obs::MetricRegistry registry;
  sim::Simulator simulator;
  sim::Network network;
  std::vector<std::unique_ptr<gossip::Agent>> agents;
};

gossip::Agent::Params fast_params() {
  gossip::Agent::Params p;
  p.fanout = 2;
  p.interval = sim::msec(100);
  p.budget_bytes = 2048;
  p.stale_rounds = 8;
  return p;
}

TEST(GossipAgent, MergeAcceptsStrictlyNewerVersionsOnly) {
  Fleet fleet(2, fast_params());
  auto& agent = *fleet.agents[0];

  auto digest = std::make_shared<gossip::GossipDigestMsg>();
  digest->sender = 1;
  gossip::LoadSummary s;
  s.origin = 1;
  s.version = 5;
  s.free_out_kbps = 111.0;
  digest->entries = {s};
  sim::Packet packet;
  packet.src = 1;
  packet.dst = 0;
  packet.payload = digest;
  ASSERT_EQ(fleet.network.deliver_now(packet), &agent);
  ASSERT_EQ(agent.view().count(1), 1u);
  EXPECT_EQ(agent.view().at(1).summary.version, 5u);

  // Older and equal versions are stale news.
  auto stale = std::make_shared<gossip::GossipDigestMsg>();
  s.version = 5;
  s.free_out_kbps = 222.0;
  stale->entries = {s};
  packet.payload = stale;
  fleet.network.deliver_now(packet);
  EXPECT_DOUBLE_EQ(agent.view().at(1).summary.free_out_kbps, 111.0);

  auto fresh = std::make_shared<gossip::GossipDigestMsg>();
  s.version = 6;
  s.free_out_kbps = 333.0;
  fresh->entries = {s};
  packet.payload = fresh;
  fleet.network.deliver_now(packet);
  EXPECT_EQ(agent.view().at(1).summary.version, 6u);
  EXPECT_DOUBLE_EQ(agent.view().at(1).summary.free_out_kbps, 333.0);

  // Nobody can overwrite the agent's own summary.
  auto spoof = std::make_shared<gossip::GossipDigestMsg>();
  s.origin = 0;
  s.version = 999;
  spoof->entries = {s};
  packet.payload = spoof;
  fleet.network.deliver_now(packet);
  EXPECT_EQ(agent.view().count(0), 0u) << "self entry only via refresh";
}

TEST(GossipAgent, ConvergesAndRespectsByteBudget) {
  auto params = fast_params();
  params.budget_bytes = 1200;  // 2 peers x <= 600 bytes = 9 entries each
  // No prune inside this run: with an aggressive window an entry can be
  // legitimately mid-age-out at snapshot time, which is the staleness
  // test's subject, not this one's.
  params.stale_rounds = 1000;
  Fleet fleet(24, params);
  fleet.start_all();
  fleet.simulator.run_until(sim::sec(6));

  // Full convergence: every agent holds a summary for every node.
  for (const auto& agent : fleet.agents) {
    EXPECT_EQ(agent->view().size(), fleet.agents.size());
  }
  // Hard budget, per agent per round: the digest build itself stays
  // within the per-peer budget...
  for (const auto& agent : fleet.agents) {
    const auto entries = agent->build_digest();
    const std::int64_t digest_bytes =
        gossip::GossipDigestMsg::kHeaderBytes +
        std::int64_t(entries.size()) * gossip::LoadSummary::kWireBytes;
    EXPECT_LE(digest_bytes * params.fanout, params.budget_bytes);
    // ...and cumulative wire accounting agrees: what each node actually
    // sent never exceeds budget x rounds.
    obs::Labels labels;
    labels.node = agent->node();
    const auto* sent =
        fleet.registry.find_counter("gossip.sent_bytes", labels);
    ASSERT_NE(sent, nullptr);
    EXPECT_LE(sent->value(),
              std::int64_t(agent->round()) * params.budget_bytes);
    EXPECT_GT(sent->value(), 0);
  }
}

TEST(GossipAgent, StaleEntriesAgeOutAndSuspectsDrop) {
  auto params = fast_params();
  Fleet fleet(6, params);
  fleet.start_all();
  fleet.simulator.run_until(sim::sec(3));
  ASSERT_EQ(fleet.agents[0]->view().size(), 6u);

  // mark_suspect drops the entry immediately...
  fleet.agents[0]->mark_suspect(3);
  EXPECT_EQ(fleet.agents[0]->view().count(3), 0u);
  // ...but fresh dissemination re-admits it (node 3 still gossips).
  fleet.simulator.run_until(sim::sec(6));
  EXPECT_EQ(fleet.agents[0]->view().count(3), 1u);

  // A silenced node ages out of every view within stale_rounds (plus
  // dissemination slack for copies still circulating).
  fleet.network.fail_node(5);
  fleet.simulator.run_until(
      sim::sec(6) + params.interval * (6 * params.stale_rounds));
  for (std::size_t i = 0; i + 1 < fleet.agents.size(); ++i) {
    EXPECT_EQ(fleet.agents[i]->view().count(5), 0u) << "agent " << i;
  }
  EXPECT_GT(fleet.registry.counter_total("gossip.prunes"), 0);
}

// --- Hop-by-hop composer ----------------------------------------------

runtime::ServiceCatalog two_service_catalog() {
  runtime::ServiceCatalog c;
  c.add({"a", sim::msec(1), 1.0, 1.0});
  c.add({"b", sim::msec(1), 1.0, 1.0});
  return c;
}

monitor::NodeStats stats_node(sim::NodeIndex idx, double cap_kbps,
                              double drop = 0.0) {
  monitor::NodeStats s;
  s.node = idx;
  s.capacity_in_kbps = cap_kbps;
  s.capacity_out_kbps = cap_kbps;
  s.drop_ratio = drop;
  s.drop_samples = 1;
  return s;
}

core::ComposeInput chain_input(const runtime::ServiceCatalog& cat) {
  core::ComposeInput input;
  input.catalog = &cat;
  input.request.app = 1;
  input.request.source = 100;
  input.request.destination = 101;
  input.request.unit_bytes = 1250;
  input.request.substreams = {{{"a", "b"}, 100.0}};
  input.source_stats = stats_node(100, 100000.0);
  input.destination_stats = stats_node(101, 100000.0);
  return input;
}

TEST(GossipComposer, PicksCheapestNextHopByLatencyAndDrops) {
  const auto cat = two_service_catalog();
  auto input = chain_input(cat);
  input.providers["a"] = {stats_node(1, 5000.0), stats_node(2, 5000.0)};
  input.providers["b"] = {stats_node(3, 5000.0), stats_node(4, 5000.0)};

  core::GossipComposer::Options options;
  // Node 2 is far from the source; node 4 drops.
  options.latency_ms = [](sim::NodeIndex a, sim::NodeIndex b) {
    if ((a == 100 && b == 2) || (a == 2 && b == 100)) return 80.0;
    return 10.0;
  };
  core::GossipComposer composer(options);
  const auto r = composer.compose([&] {
    auto in = input;
    in.providers["b"] = {stats_node(3, 5000.0, 0.0),
                         stats_node(4, 5000.0, 0.3)};
    return in;
  }());
  ASSERT_TRUE(r.admitted) << r.error;
  ASSERT_EQ(r.plan.substreams.size(), 1u);
  const auto& stages = r.plan.substreams[0].stages;
  ASSERT_EQ(stages.size(), 2u);
  ASSERT_EQ(stages[0].placements.size(), 1u);
  ASSERT_EQ(stages[1].placements.size(), 1u);
  EXPECT_EQ(stages[0].placements[0].node, 1) << "latency-cheapest";
  EXPECT_EQ(stages[1].placements[0].node, 3) << "drop-cheapest";
  EXPECT_EQ(composer.last_backtracks(), 0);
}

TEST(GossipComposer, BacktracksWhenGreedyPrefixStrandsALaterStage) {
  const auto cat = two_service_catalog();
  auto input = chain_input(cat);
  // 100 kbps payload => ~104 wire kbps per stage. Node 1 is the cheap
  // stage-a choice but also the ONLY b provider, with capacity for one
  // stage: greedily placing a on 1 strands b; the composer must back up
  // and route a through node 2.
  input.providers["a"] = {stats_node(1, 150.0), stats_node(2, 5000.0)};
  input.providers["b"] = {stats_node(1, 150.0)};

  core::GossipComposer::Options options;
  options.latency_ms = [](sim::NodeIndex, sim::NodeIndex b) {
    return b == 1 ? 1.0 : 50.0;  // node 1 always looks cheapest
  };
  core::GossipComposer composer(options);
  const auto r = composer.compose(input);
  ASSERT_TRUE(r.admitted) << r.error;
  const auto& stages = r.plan.substreams[0].stages;
  EXPECT_EQ(stages[0].placements[0].node, 2);
  EXPECT_EQ(stages[1].placements[0].node, 1);
  EXPECT_GT(composer.last_backtracks(), 0);
}

// --- Gossip control plane ---------------------------------------------

TEST(GossipControlPlane, UnknownServiceFailsDiscoveryNamingIt) {
  // Provider discovery goes through the same retried DHT lookups as the
  // coordinators, so a service nobody registered fails with the shared
  // error that names it.
  exp::WorldConfig wc;
  wc.nodes = 16;
  wc.num_services = 6;
  wc.services_per_node = 3;
  wc.seed = 9;
  exp::World world(wc);
  auto& sim = world.simulator();
  exp::GossipControlPlane plane(world, {}, util::Xoshiro256(3));
  plane.start(sim.now());

  core::ServiceRequest req;
  req.app = 1;
  req.source = 0;
  req.destination = 15;
  req.unit_bytes = 1250;
  req.substreams = {{{"svc0", "no-such-service"}, 100.0}};
  bool done = false;
  core::SubmitOutcome outcome;
  sim.call_after(sim::msec(1), [&] {
    plane.submit(req, 0, sim.now() + sim::sec(10),
                 [&](const core::SubmitOutcome& o) {
                   done = true;
                   outcome = o;
                 });
  });
  sim.run_until(sim.now() + sim::sec(10));
  ASSERT_TRUE(done);
  EXPECT_FALSE(outcome.compose.admitted);
  EXPECT_EQ(outcome.compose.error,
            "service discovery failed for no-such-service");
}

// --- End-to-end gossip runs -------------------------------------------

exp::RunConfig gossip_run() {
  exp::RunConfig cfg;
  cfg.world.nodes = 16;
  cfg.world.num_services = 6;
  cfg.world.services_per_node = 3;
  cfg.world.seed = 9;
  cfg.world.net.bw_min_kbps = 3000;
  cfg.world.net.bw_max_kbps = 6000;
  cfg.workload.num_requests = 10;
  cfg.workload.avg_rate_kbps = 100;
  cfg.submit_gap = sim::msec(500);
  cfg.steady_duration = sim::sec(8);
  cfg.control_plane = "gossip";
  return cfg;
}

std::string snapshot_csv(const std::vector<obs::MetricRow>& rows) {
  std::ostringstream out;
  obs::MetricRegistry::write_csv(rows, out);
  return out.str();
}

TEST(GossipRunner, AdmitsAndStreams) {
  const auto m = exp::run_experiment(gossip_run());
  EXPECT_EQ(m.gossip_submitted, 10);
  EXPECT_GT(m.gossip_admitted, 0);
  EXPECT_EQ(m.composed, m.gossip_admitted);
  EXPECT_GT(m.emitted, 0);
  EXPECT_GT(m.delivered, 0);
  EXPECT_GT(m.gossip_sends, 0);
  EXPECT_GT(m.gossip_merges, 0);
  EXPECT_EQ(m.shard_submitted, 0) << "no sharded machinery in gossip mode";
  EXPECT_EQ(m.lease_grants, 0) << "pool debits need no negotiated grants";
}

TEST(GossipRunner, RepeatedRunsAreByteIdentical) {
  std::vector<obs::MetricRow> a, b;
  exp::run_experiment(gossip_run(), &a);
  exp::run_experiment(gossip_run(), &b);
  EXPECT_EQ(snapshot_csv(a), snapshot_csv(b));
}

TEST(GossipRunner, DefaultPlanesIgnoreGossipKnobs) {
  // Neither the centralized nor the sharded plane may be perturbed by
  // gossip flag values: no agent is constructed, no gossip.* cell
  // exists, and the runs replay byte-for-byte.
  for (int coordinators : {1, 2}) {
    auto cfg = gossip_run();
    cfg.control_plane = "";
    cfg.coordinators = coordinators;
    std::vector<obs::MetricRow> base, tweaked;
    const auto m = exp::run_experiment(cfg, &base);
    EXPECT_EQ(m.gossip_submitted, 0);
    EXPECT_EQ(m.gossip_sends, 0);
    const auto csv = snapshot_csv(base);
    EXPECT_EQ(csv.find("gossip."), std::string::npos)
        << "inactive plane must not create registry cells";
    cfg.gossip_fanout = 7;
    cfg.gossip_interval = sim::msec(50);
    cfg.gossip_budget_bytes = 640;
    cfg.gossip_stale_rounds = 3;
    exp::run_experiment(cfg, &tweaked);
    EXPECT_EQ(csv, snapshot_csv(tweaked)) << coordinators << " coordinators";
  }
}

TEST(GossipRunner, ConvergesUnderChurnDeterministically) {
  auto cfg = gossip_run();
  cfg.workload.num_requests = 8;
  cfg.chaos_scenario = "churn:period=3s,repeats=4";
  cfg.chaos_seed = 5;
  // Age out faster than the 3s crash windows so dead nodes actually
  // leave the views (and the prune counter proves it).
  cfg.gossip_interval = sim::msec(200);
  cfg.gossip_stale_rounds = 5;
  std::vector<obs::MetricRow> a, b;
  const auto m = exp::run_experiment(cfg, &a);
  EXPECT_GT(m.faults_injected, 0);
  EXPECT_GT(m.gossip_admitted, 0);
  EXPECT_GT(m.delivered_fraction(), 0.5)
      << "churned gossip run lost most of its traffic";
  // Crashed nodes stop refreshing: their summaries age out of the views
  // instead of attracting placements forever.
  EXPECT_GT(m.gossip_prunes, 0);
  const auto replay = exp::run_experiment(cfg, &b);
  EXPECT_EQ(snapshot_csv(a), snapshot_csv(b))
      << "same (seed, scenario) gossip chaos run must replay byte-for-byte";
  EXPECT_EQ(m.delivered, replay.delivered);
}

TEST(GossipRunner, GossipFedAdapterAdaptsWithoutCentralStats) {
  // In gossip mode the RateAdapter reads its stats from the node-local
  // partial view instead of round-tripping StatsQueryMsg to a central
  // StatsAgent: the adaptation loop must still run, and the run must
  // replay byte-for-byte.
  auto cfg = gossip_run();
  cfg.world.net.bw_min_kbps = 300;
  cfg.world.net.bw_max_kbps = 4000;
  cfg.workload.avg_rate_kbps = 300;
  cfg.steady_duration = sim::sec(20);
  cfg.chaos_scenario = "load-drift:mag=0.2";
  cfg.chaos_seed = 7;
  cfg.adapt_interval = sim::msec(2000);
  std::vector<obs::MetricRow> a, b;
  const auto m = exp::run_experiment(cfg, &a);
  EXPECT_GT(m.gossip_admitted, 0);
  EXPECT_GT(m.adapt_attempts, 0)
      << "the view-fed adapter never completed a round";
  const auto replay = exp::run_experiment(cfg, &b);
  // adapt.solve_us is wall-clock; strip it before comparing bytes.
  auto strip = [](const std::string& csv) {
    std::istringstream in(csv);
    std::string line, out;
    while (std::getline(in, line)) {
      if (line.find("adapt.solve_us") != std::string::npos) continue;
      out += line + '\n';
    }
    return out;
  };
  EXPECT_EQ(strip(snapshot_csv(a)), strip(snapshot_csv(b)));
  EXPECT_EQ(m.adapt_attempts, replay.adapt_attempts);
  EXPECT_EQ(m.adapt_deltas, replay.adapt_deltas);
}

TEST(GossipRunner, SurvivesMonitorBlackout) {
  auto cfg = gossip_run();
  cfg.chaos_scenario = "monitor-blackout";
  cfg.chaos_seed = 3;
  const auto m = exp::run_experiment(cfg);
  EXPECT_GT(m.faults_injected, 0);
  EXPECT_GT(m.gossip_admitted, 0);
  EXPECT_GT(m.delivered_fraction(), 0.5);
}

}  // namespace
}  // namespace rasc
