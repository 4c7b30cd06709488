// Shard re-homing: granter-side fencing of a replaced (zombie) primary,
// standby takeover with view reconstruction and app adoption, source-side
// submission journaling across a dead primary's batch window, fast
// rejection when every shard is suspect, and the determinism/inertness
// contracts (same-seed replay, byte-identical runs with the standby knobs
// off).
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/coordinator_shard.hpp"
#include "exp/control_plane.hpp"
#include "exp/runner.hpp"
#include "exp/world.hpp"
#include "runtime/lease_granter.hpp"
#include "runtime/lease_messages.hpp"

namespace rasc {
namespace {

exp::WorldConfig tiny_world() {
  exp::WorldConfig cfg;
  cfg.nodes = 4;
  cfg.num_services = 4;
  cfg.services_per_node = 2;
  cfg.seed = 11;
  return cfg;
}

/// One LeaseRequestMsg from `requester` to `node`, `after` from now.
void request_lease(exp::World& world, sim::SimDuration after,
                   sim::NodeIndex node, sim::NodeIndex requester,
                   std::int32_t shard, std::uint64_t request_id,
                   std::uint64_t takeover_epoch = 0) {
  world.simulator().call_after(after, [&world, node, requester, shard,
                                       request_id, takeover_epoch] {
    auto msg = std::make_shared<runtime::LeaseRequestMsg>();
    msg->shard = shard;
    msg->requester = requester;
    msg->request_id = request_id;
    msg->takeover_epoch = takeover_epoch;
    world.network().send(requester, node,
                         runtime::LeaseRequestMsg::kBytes, std::move(msg));
  });
}

std::string snapshot_csv(const std::vector<obs::MetricRow>& rows) {
  std::ostringstream out;
  obs::MetricRegistry::write_csv(rows, out);
  return out.str();
}

// --- Granter-side fencing ---------------------------------------------

TEST(ShardRehomeGranter, StaleTakeoverEpochRefusedAndRevoked) {
  exp::World world(tiny_world());
  const sim::SimTime t0 = world.simulator().now();
  runtime::LeaseGranter::Params params;
  params.lease_duration = sim::sec(30);
  params.shards = 2;
  auto& granter = world.host(0).enable_lease_granter(params);

  // Primary (node 1) holds the grant; the standby (node 2) takes over
  // with takeover epoch 1.
  request_lease(world, sim::msec(10), 0, 1, /*shard=*/0, 1);
  world.simulator().run_until(t0 + sim::msec(500));
  EXPECT_EQ(granter.holder_of(0), 1);
  const std::uint64_t primary_epoch = granter.epoch(0);
  request_lease(world, sim::msec(10), 0, 2, 0, 1, /*takeover_epoch=*/1);
  world.simulator().run_until(t0 + sim::sec(1));
  EXPECT_EQ(granter.holder_of(0), 2) << "takeover must replace the holder";
  const std::uint64_t standby_epoch = granter.epoch(0);
  EXPECT_GT(standby_epoch, primary_epoch);

  // The zombie primary renews with takeover epoch 0: refused, the holder
  // and epoch untouched, and the refusal counted.
  request_lease(world, sim::msec(10), 0, 1, 0, 2, /*takeover_epoch=*/0);
  world.simulator().run_until(t0 + sim::msec(1500));
  EXPECT_EQ(granter.holder_of(0), 2);
  EXPECT_EQ(granter.epoch(0), standby_epoch);
  EXPECT_EQ(world.metrics().counter_total("shard.fenced_msgs"), 1);
  EXPECT_EQ(world.metrics().counter_total("lease.granted"), 2);

  // In-flight debits stamped from the fenced-out primary's term NACK:
  // the takeover dropped the previous-epoch honor window.
  EXPECT_FALSE(granter.debit(0, primary_epoch, /*app=*/7, 10.0, 10.0));
  EXPECT_TRUE(granter.debit(0, standby_epoch, 7, 10.0, 10.0));
  EXPECT_EQ(granter.overgrant_high_water_kbps(), 0.0);
}

// --- End-to-end takeover runs -----------------------------------------

exp::RunConfig rehome_run() {
  exp::RunConfig cfg;
  cfg.world.nodes = 16;
  cfg.world.num_services = 6;
  cfg.world.services_per_node = 3;
  // Seed chosen so an orphaned app survives the crash intact (no
  // component or endpoint on the dead home): adoption has work to do.
  cfg.world.seed = 13;
  cfg.world.net.bw_min_kbps = 3000;
  cfg.world.net.bw_max_kbps = 6000;
  cfg.workload.num_requests = 12;
  cfg.workload.avg_rate_kbps = 100;
  cfg.submit_gap = sim::msec(800);
  cfg.steady_duration = sim::sec(12);
  cfg.coordinators = 2;
  cfg.lease_duration = sim::sec(2);
  cfg.lease_renew = sim::msec(800);
  cfg.shard_standby = true;
  // Kill shard 0's home (node 0) after the early submissions deployed.
  cfg.chaos_scenario = "shard-takeover:at=6s";
  return cfg;
}

TEST(ShardRehomeRunner, StandbyTakesOverAndAdoptsOrphans) {
  auto cfg = rehome_run();
  std::vector<obs::MetricRow> a, b;
  const auto m = exp::run_experiment(cfg, &a);
  EXPECT_GT(m.faults_injected, 0);
  EXPECT_EQ(m.shard_rehomes, 1) << "exactly one standby must take over";
  EXPECT_GE(m.shard_adopted, 1) << "orphaned apps were not adopted";
  EXPECT_GT(m.shard_admitted, 0);
  EXPECT_GT(m.delivered, 0);
  EXPECT_EQ(m.lease_overgrant_kbps, 0.0) << "double-reserved bandwidth";
  exp::run_experiment(cfg, &b);
  EXPECT_EQ(snapshot_csv(a), snapshot_csv(b))
      << "takeover must replay byte-for-byte";
}

TEST(ShardRehomeRunner, AdoptedAppsResumeAdaptation) {
  // With the rate adapter on, adoption re-attaches each orphan at the
  // standby's host; the adapter must keep re-solving after the takeover.
  auto cfg = rehome_run();
  cfg.adapt_interval = sim::sec(2);
  const auto m = exp::run_experiment(cfg);
  EXPECT_EQ(m.shard_rehomes, 1);
  EXPECT_GE(m.shard_adopted, 1);
  EXPECT_GT(m.adapt_attempts, 0);
  EXPECT_GT(m.delivered, 0);
}

TEST(ShardRehomeRunner, ZombiePrimaryIsFencedWithoutDoubleReservation) {
  // The primary comes back after the standby took over: a zombie
  // coordinator with stale shard state. Every lease renewal it attempts
  // is refused at the granters (stale takeover epoch), its in-flight
  // deploys lose the prev-epoch honor window, and no node ever
  // double-promises bandwidth.
  auto cfg = rehome_run();
  cfg.chaos_scenario = "shard-takeover:at=4s,duration=10s";
  cfg.steady_duration = sim::sec(20);
  std::vector<obs::MetricRow> a, b;
  const auto m = exp::run_experiment(cfg, &a);
  EXPECT_EQ(m.shard_rehomes, 1);
  EXPECT_GT(m.shard_fenced, 0) << "zombie renewals were not fenced";
  EXPECT_EQ(m.lease_overgrant_kbps, 0.0)
      << "fencing failed to prevent double reservation";
  EXPECT_GT(m.delivered, 0);
  exp::run_experiment(cfg, &b);
  EXPECT_EQ(snapshot_csv(a), snapshot_csv(b))
      << "zombie fencing must replay byte-for-byte";
}

TEST(ShardRehomeRunner, TakeoverReplaysByteIdentically) {
  // The adopting takeover (crash, reconstruction, adoption) must replay
  // byte-for-byte under the same seed.
  std::vector<obs::MetricRow> a, b;
  const auto ma = exp::run_experiment(rehome_run(), &a);
  const auto mb = exp::run_experiment(rehome_run(), &b);
  EXPECT_EQ(snapshot_csv(a), snapshot_csv(b));
  EXPECT_EQ(ma.shard_rehomes, mb.shard_rehomes);
  EXPECT_EQ(ma.shard_adopted, mb.shard_adopted);
}

TEST(ShardRehomeRunner, StandbyOffIgnoresRehomeKnobs) {
  // With the standby off, no re-homing machinery may exist: perturbing
  // its knobs yields the byte-identical execution, and no rehome cell is
  // ever created — even under the crash that would have triggered it.
  auto cfg = rehome_run();
  cfg.shard_standby = false;
  std::vector<obs::MetricRow> base, tweaked;
  const auto m = exp::run_experiment(cfg, &base);
  EXPECT_EQ(m.shard_rehomes, 0);
  EXPECT_EQ(m.shard_adopted, 0);
  EXPECT_EQ(m.shard_fenced, 0);
  EXPECT_EQ(m.shard_resubmits, 0);
  cfg.standby_check = sim::msec(123);
  exp::run_experiment(cfg, &tweaked);
  EXPECT_EQ(snapshot_csv(base), snapshot_csv(tweaked));
}

// --- Source-side submission journal (lost batch window) ---------------

TEST(ShardRehomeRunner, SubmissionsLostInDeadPrimaryAreResubmitted) {
  // Crash shard 0's home while submissions are still being routed to it:
  // requests in flight to (or queued inside) the dead primary vanish
  // without a trace. The source-side journal must notice the missing
  // outcome and re-submit; the re-routed copies reach the standby and
  // admit apps a journal-less run loses outright.
  // rehome_run's crash at 6 s lands mid-window for a shard-0 submission:
  // the request reaches the dead home before any granter suspects it.
  auto cfg = rehome_run();
  const auto without = exp::run_experiment(cfg);
  cfg.submit_retry = sim::msec(1500);
  std::vector<obs::MetricRow> a, b;
  const auto with = exp::run_experiment(cfg, &a);
  EXPECT_GT(with.shard_resubmits, 0) << "journal never re-submitted";
  EXPECT_GT(with.composed, without.composed)
      << "re-submission recovered no lost request";
  exp::run_experiment(cfg, &b);
  EXPECT_EQ(snapshot_csv(a), snapshot_csv(b))
      << "journaled runs must replay byte-for-byte";
}

// --- All shards suspect: fast bounded rejection ------------------------

TEST(ShardRehomePlane, AllShardsSuspectRejectsWithoutDeployTimeout) {
  // K=2 with both homes dead and no standby: a submission must come back
  // with a rejection verdict after the bounded backoff (~3 s), not fall
  // through to a dead shard and eat the 5 s deploy timeout.
  exp::WorldConfig wcfg;
  wcfg.nodes = 8;
  wcfg.num_services = 4;
  wcfg.services_per_node = 2;
  wcfg.seed = 11;
  exp::World world(wcfg);
  auto& simulator = world.simulator();
  const sim::SimTime t0 = simulator.now();

  exp::ShardControlPlane::Config pcfg;
  pcfg.coordinators = 2;
  pcfg.lease_duration = sim::sec(2);
  pcfg.lease_renew = sim::msec(800);
  exp::ShardControlPlane plane(world, pcfg,
                               simulator.rng().split(0x74657374));
  plane.start(t0);

  // Both homes (nodes 0 and 4) die at +3 s; every granter's grants from
  // both shards lapse by +5 s, making both shards suspect fleet-wide.
  simulator.call_after(sim::sec(3), [&world, &plane] {
    world.network().fail_node(plane.home_of(0));
    world.network().fail_node(plane.home_of(1));
  });

  core::ServiceRequest request;
  request.app = 42;
  request.source = 1;
  request.destination = 2;
  request.substreams.push_back({{world.service_names().front()}, 50.0});

  sim::SimTime rejected_at = 0;
  std::string error;
  simulator.call_after(sim::sec(6), [&] {
    plane.submit(request, 0, t0 + sim::sec(30),
                 [&](const core::SubmitOutcome& outcome) {
                   EXPECT_FALSE(outcome.compose.admitted);
                   rejected_at = simulator.now();
                   error = outcome.compose.error;
                 });
  });
  simulator.run_until(t0 + sim::sec(20));

  ASSERT_GT(rejected_at, 0) << "submission never resolved";
  EXPECT_NE(error.find("suspect"), std::string::npos) << error;
  // Bounded linear backoff (1 s + 2 s), well under one deploy timeout.
  const auto elapsed = rejected_at - (t0 + sim::sec(6));
  EXPECT_LE(elapsed, sim::msec(3500))
      << "rejection took " << elapsed << " us";
  EXPECT_GT(world.metrics().counter_total("shard.submit_retries"), 0);
}

}  // namespace
}  // namespace rasc
