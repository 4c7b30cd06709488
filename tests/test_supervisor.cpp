// AppSupervisor: liveness probing, starvation detection, automatic
// teardown + re-composition, and restraint on healthy streams.
#include "core/supervisor.hpp"

#include <gtest/gtest.h>

#include "core/mincost_composer.hpp"
#include "exp/world.hpp"

namespace rasc::core {
namespace {

struct SupervisedApp {
  bool admitted = false;
  runtime::AppPlan plan;
};

exp::WorldConfig world_config() {
  exp::WorldConfig wc;
  wc.nodes = 16;
  wc.num_services = 6;
  wc.services_per_node = 4;
  wc.seed = 23;
  wc.net.bw_min_kbps = 1500;
  wc.net.bw_max_kbps = 4000;
  return wc;
}

ServiceRequest request_for(exp::World& world, runtime::AppId app) {
  ServiceRequest req;
  req.app = app;
  req.source = 0;
  req.destination = sim::NodeIndex(world.size() - 1);
  req.unit_bytes = 1250;
  req.substreams = {{{"svc0", "svc1"}, 150.0}};
  return req;
}

/// Submits, runs until admitted, returns the plan.
SupervisedApp submit_and_wait(exp::World& world, Composer& composer,
                              const ServiceRequest& req,
                              sim::SimTime stop) {
  SupervisedApp out;
  world.host(std::size_t(req.source))
      .coordinator()
      .submit(req, composer, 0, stop, [&out](const SubmitOutcome& o) {
        out.admitted = o.compose.admitted;
        out.plan = o.compose.plan;
      });
  auto& sim = world.simulator();
  sim.run_until(sim.now() + sim::sec(6));
  return out;
}

TEST(Supervisor, HealthyStreamIsLeftAlone) {
  exp::World world(world_config());
  auto& sim = world.simulator();
  MinCostComposer composer;
  const auto req = request_for(world, 1);
  const sim::SimTime stop = sim.now() + sim::sec(40);
  const auto app = submit_and_wait(world, composer, req, stop);
  ASSERT_TRUE(app.admitted);

  int events = 0;
  auto& supervisor = world.host(0).supervisor();
  supervisor.watch(req, app.plan, stop,
                   [&events](const AppSupervisor::Event&) { ++events; });
  sim.run_until(sim.now() + sim::sec(25));
  EXPECT_EQ(events, 0) << "healthy stream must not trigger recovery";
  // Supervision ends when the stream does.
  sim.run_until(stop + sim::sec(5));
  EXPECT_EQ(supervisor.watched_count(), 0u);
}

TEST(Supervisor, RecoversFromComponentHostFailure) {
  exp::World world(world_config());
  auto& sim = world.simulator();
  MinCostComposer composer;
  const auto req = request_for(world, 1);
  const sim::SimTime stop = sim.now() + sim::sec(90);
  const auto app = submit_and_wait(world, composer, req, stop);
  ASSERT_TRUE(app.admitted);

  std::vector<AppSupervisor::Event> events;
  auto& supervisor = world.host(0).supervisor();
  supervisor.watch(req, app.plan, stop,
                   [&events](const AppSupervisor::Event& e) {
                     events.push_back(e);
                   });

  // Kill the node hosting the first component; the stream starves.
  const auto victim = app.plan.substreams[0].stages[0].placements[0].node;
  sim.run_until(sim.now() + sim::sec(5));
  world.network().fail_node(victim);
  for (std::size_t n = 0; n < world.size(); ++n) {
    if (sim::NodeIndex(n) != victim) {
      world.overlay().at(n).purge_peer(victim);
    }
  }

  sim.run_until(sim.now() + sim::sec(30));
  ASSERT_GE(events.size(), 2u) << "expected recovering + recovered";
  EXPECT_EQ(events[0].kind, AppSupervisor::Event::Kind::kRecovering);
  const auto recovered_it = std::find_if(
      events.begin(), events.end(), [](const AppSupervisor::Event& e) {
        return e.kind == AppSupervisor::Event::Kind::kRecovered;
      });
  ASSERT_NE(recovered_it, events.end()) << "recovery did not complete";
  const auto new_app = recovered_it->new_app;
  EXPECT_NE(new_app, req.app);

  // The replacement stream is actually flowing at the destination.
  const auto* sink = world.host(world.size() - 1)
                         .runtime()
                         .find_sink(new_app, 0);
  ASSERT_NE(sink, nullptr);
  const auto delivered_mid = sink->stats().delivered;
  sim.run_until(sim.now() + sim::sec(10));
  EXPECT_GT(sink->stats().delivered, delivered_mid)
      << "recovered stream is not making progress";
}

TEST(Supervisor, GivesUpAfterMaxRecoveries) {
  exp::World world(world_config());
  auto& sim = world.simulator();
  MinCostComposer composer;
  const auto req = request_for(world, 1);
  const sim::SimTime stop = sim.now() + sim::sec(200);
  const auto app = submit_and_wait(world, composer, req, stop);
  ASSERT_TRUE(app.admitted);

  AppSupervisor supervisor(sim, world.network(),
                           world.host(0).coordinator(), composer);
  // This standalone supervisor shares node 0 with the Host's own; being
  // registered later, it takes node 0's health replies.

  std::vector<AppSupervisor::Event> events;
  supervisor.watch(req, app.plan, stop,
                   [&events](const AppSupervisor::Event& e) {
                     events.push_back(e);
                   });

  // Kill the destination: every recomposition targets the same (dead)
  // destination, so recovery can never succeed for long.
  world.network().fail_node(req.destination);
  sim.run_until(sim.now() + sim::sec(120));

  using K = AppSupervisor::Event::Kind;
  const auto count = [&events](K kind) {
    return std::count_if(events.begin(), events.end(),
                         [kind](const auto& e) { return e.kind == kind; });
  };
  // Every re-composition, failed or deployed into the dead destination,
  // spends one unit of the budget; the budget's end is one give-up.
  EXPECT_EQ(count(K::kRecoveryFailed) + count(K::kRecovered),
            AppSupervisor::kMaxRecoveries)
      << "supervisor must stop retrying after kMaxRecoveries";
  EXPECT_EQ(count(K::kGaveUp), 1);
  EXPECT_EQ(supervisor.watched_count(), 0u);
}

TEST(Supervisor, ForgetStopsSupervision) {
  exp::World world(world_config());
  auto& sim = world.simulator();
  MinCostComposer composer;
  const auto req = request_for(world, 1);
  const sim::SimTime stop = sim.now() + sim::sec(60);
  const auto app = submit_and_wait(world, composer, req, stop);
  ASSERT_TRUE(app.admitted);

  auto& supervisor = world.host(0).supervisor();
  int events = 0;
  supervisor.watch(req, app.plan, stop,
                   [&events](const AppSupervisor::Event&) { ++events; });
  EXPECT_EQ(supervisor.watched_count(), 1u);
  supervisor.forget(req.app);
  EXPECT_EQ(supervisor.watched_count(), 0u);

  // Even after killing a host, no recovery fires.
  world.network().fail_node(
      app.plan.substreams[0].stages[0].placements[0].node);
  sim.run_until(sim.now() + sim::sec(20));
  EXPECT_EQ(events, 0);
}

/// Rejects everything: recovery re-compositions through this composer
/// always fail, exercising the retry/backoff/give-up path in isolation.
struct RejectingComposer : Composer {
  const char* name() const override { return "rejecting"; }
  ComposeResult compose(const ComposeInput&) override {
    ComposeResult r;
    r.admitted = false;
    r.error = "synthetic rejection";
    return r;
  }
};

/// Runs a stream into a RejectingComposer-backed supervisor living on
/// `supervisor_host`, kills the stream's stage-0 host, and records
/// (kind, time) for every supervisor event.
std::vector<std::pair<AppSupervisor::Event::Kind, sim::SimTime>>
failing_recovery_events(exp::World& world, std::size_t supervisor_host) {
  auto& sim = world.simulator();
  MinCostComposer admit_composer;
  const auto req = request_for(world, 1);
  const sim::SimTime stop = sim.now() + sim::sec(200);
  const auto app = submit_and_wait(world, admit_composer, req, stop);
  EXPECT_TRUE(app.admitted);

  RejectingComposer rejecting;
  AppSupervisor supervisor(sim, world.network(),
                           world.host(supervisor_host).coordinator(),
                           rejecting, &world.metrics());

  std::vector<std::pair<AppSupervisor::Event::Kind, sim::SimTime>> events;
  supervisor.watch(req, app.plan, stop,
                   [&events, &sim](const AppSupervisor::Event& e) {
                     events.emplace_back(e.kind, sim.now());
                   });

  const auto victim = app.plan.substreams[0].stages[0].placements[0].node;
  world.network().fail_node(victim);
  for (std::size_t n = 0; n < world.size(); ++n) {
    if (sim::NodeIndex(n) != victim) {
      world.overlay().at(n).purge_peer(victim);
    }
  }
  sim.run_until(sim.now() + sim::sec(120));
  return events;
}

TEST(Supervisor, RetryBackoffGrowsUntilGiveUp) {
  exp::World world(world_config());
  const auto events = failing_recovery_events(world, 0);

  using K = AppSupervisor::Event::Kind;
  const auto count = [&events](K kind) {
    return std::count_if(events.begin(), events.end(),
                         [kind](const auto& e) { return e.first == kind; });
  };
  EXPECT_EQ(count(K::kRecovering), 1);
  EXPECT_EQ(count(K::kRecoveryFailed), AppSupervisor::kMaxRecoveries);
  EXPECT_EQ(count(K::kGaveUp), 1);
  EXPECT_EQ(count(K::kRecovered), 0);

  // Gaps between consecutive failed attempts follow the doubling ladder
  // (600, then 1200 ms of backoff, each jittered by at most +/-20%, plus a
  // near-constant composition round-trip), so each gap must strictly
  // exceed the previous one.
  std::vector<sim::SimTime> failures;
  for (const auto& [kind, at] : events) {
    if (kind == K::kRecoveryFailed) failures.push_back(at);
  }
  ASSERT_EQ(failures.size(), std::size_t(AppSupervisor::kMaxRecoveries));
  sim::SimDuration prev_gap = 0;
  for (std::size_t i = 1; i < failures.size(); ++i) {
    const sim::SimDuration gap = failures[i] - failures[i - 1];
    EXPECT_GT(gap, prev_gap)
        << "retry " << i << " did not back off further than retry "
        << (i - 1);
    prev_gap = gap;
  }
  // The last gap is bounded by the cap plus one probe/compose cycle.
  EXPECT_LE(prev_gap, AppSupervisor::kRecoveryBackoffMax + sim::sec(3));

  // The give-up is visible in the deployment-wide registry too.
  EXPECT_EQ(world.metrics().counter_total("supervisor.gave_up"), 1);
  EXPECT_EQ(world.metrics().counter_total("supervisor.recoveries_failed"),
            AppSupervisor::kMaxRecoveries);
  EXPECT_EQ(world.metrics().counter_total("supervisor.recoveries_succeeded"),
            0);
}

TEST(Supervisor, JitteredBackoffIsDeterministicPerSeed) {
  // Same node twice: identical event timelines (jitter draws come from a
  // private RNG keyed by (kJitterSeed, node), not from anything the run
  // perturbs).
  std::vector<std::vector<sim::SimTime>> runs;
  for (int i = 0; i < 2; ++i) {
    exp::World world(world_config());
    const auto events = failing_recovery_events(world, 0);
    std::vector<sim::SimTime> times;
    for (const auto& [kind, at] : events) times.push_back(at);
    ASSERT_FALSE(times.empty());
    runs.push_back(std::move(times));
  }
  EXPECT_EQ(runs[0], runs[1]);

  // A supervisor on another node draws a different jitter stream, so its
  // retries land at different times.
  exp::World world(world_config());
  const auto events = failing_recovery_events(world, 1);
  std::vector<sim::SimTime> times;
  for (const auto& [kind, at] : events) times.push_back(at);
  ASSERT_EQ(times.size(), runs[0].size());
  EXPECT_NE(times, runs[0]);
}

}  // namespace
}  // namespace rasc::core
