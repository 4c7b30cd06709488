// Sharded control plane: lease granter state machine (grant / renew /
// expire / epoch-mismatch NACK / credit-back), admission ordering
// policies, app->shard hashing, end-to-end K-shard runs (admission,
// same-seed determinism, zero double-reservation under
// contention), and K=1 neutrality (shard knobs must not perturb the
// unsharded execution).
#include <gtest/gtest.h>

#include <set>
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

// --- Pure helpers -----------------------------------------------------

TEST(ShardHash, StableUniformAndDegenerate) {
  EXPECT_EQ(core::CoordinatorShard::shard_of(7, 1), 0);
  EXPECT_EQ(core::CoordinatorShard::shard_of(7, 0), 0);
  std::set<std::int32_t> hit;
  for (runtime::AppId app = 0; app < 256; ++app) {
    const auto s = core::CoordinatorShard::shard_of(app, 4);
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 4);
    EXPECT_EQ(s, core::CoordinatorShard::shard_of(app, 4));  // stable
    hit.insert(s);
  }
  EXPECT_EQ(hit.size(), 4u) << "256 apps missed some of 4 shards";
}

TEST(AdmissionOrder, PoliciesAndTieBreaks) {
  // (seq, demand): seqs out of order on purpose.
  const std::vector<std::pair<std::uint64_t, double>> jobs = {
      {2, 300.0}, {0, 100.0}, {1, 300.0}, {3, 50.0}};
  using core::AdmissionPolicy;
  const auto fifo =
      core::CoordinatorShard::admission_order(AdmissionPolicy::kFifo, jobs);
  EXPECT_EQ(fifo, (std::vector<std::size_t>{1, 2, 0, 3}));
  const auto small = core::CoordinatorShard::admission_order(
      AdmissionPolicy::kSmallestDemand, jobs);
  // 50 first, then 100, then the two 300s in seq order (1 before 2).
  EXPECT_EQ(small, (std::vector<std::size_t>{3, 1, 2, 0}));
  const auto value = core::CoordinatorShard::admission_order(
      AdmissionPolicy::kHighestValue, jobs);
  EXPECT_EQ(value, (std::vector<std::size_t>{2, 0, 1, 3}));
}

TEST(AdmissionOrder, ParseNames) {
  EXPECT_EQ(core::parse_admission_policy("fifo"),
            core::AdmissionPolicy::kFifo);
  EXPECT_EQ(core::parse_admission_policy("smallest-demand"),
            core::AdmissionPolicy::kSmallestDemand);
  EXPECT_EQ(core::parse_admission_policy("highest-value"),
            core::AdmissionPolicy::kHighestValue);
  EXPECT_THROW(core::parse_admission_policy("lifo"), std::invalid_argument);
}

// --- Granter state machine --------------------------------------------

exp::WorldConfig tiny_world() {
  exp::WorldConfig cfg;
  cfg.nodes = 4;
  cfg.num_services = 4;
  cfg.services_per_node = 2;
  cfg.seed = 11;
  return cfg;
}

/// Delivers one LeaseRequestMsg from `requester` to `node` through the
/// network, `after` from now (the World constructor already advanced the
/// clock through overlay join and monitor warmup, so times are relative).
void request_lease(exp::World& world, sim::SimDuration after,
                   sim::NodeIndex node, sim::NodeIndex requester,
                   std::int32_t shard, std::uint64_t request_id,
                   double demand_kbps = -1.0) {
  world.simulator().call_after(after, [&world, node, requester, shard,
                                       request_id, demand_kbps] {
    auto msg = std::make_shared<runtime::LeaseRequestMsg>();
    msg->shard = shard;
    msg->requester = requester;
    msg->request_id = request_id;
    msg->demand_kbps = demand_kbps;
    world.network().send(requester, node,
                         runtime::LeaseRequestMsg::kBytes, std::move(msg));
  });
}

TEST(LeaseGranter, GrantRenewExpireDeterministically) {
  exp::World world(tiny_world());
  const sim::SimTime t0 = world.simulator().now();
  runtime::LeaseGranter::Params params;
  params.lease_duration = sim::sec(2);
  params.shards = 2;
  auto& granter = world.host(0).enable_lease_granter(params);

  request_lease(world, sim::msec(10), 0, 1, /*shard=*/0, 1);
  world.simulator().run_until(t0 + sim::msec(500));
  EXPECT_EQ(granter.epoch(0), 1u);
  const double first = granter.remaining_in_kbps(0);
  EXPECT_GT(first, 0.0);
  EXPECT_GT(granter.remaining_out_kbps(0), 0.0);

  // Renewal before expiry: epoch bumps, the share is replaced.
  request_lease(world, sim::msec(500), 0, 1, 0, 2);
  world.simulator().run_until(t0 + sim::msec(1500));
  EXPECT_EQ(granter.epoch(0), 2u);
  EXPECT_GT(granter.remaining_in_kbps(0), 0.0);

  // No further renewal: the grant lapses exactly lease_duration after the
  // last grant and its allowance drops to zero.
  world.simulator().run_until(t0 + sim::sec(5));
  EXPECT_EQ(granter.remaining_in_kbps(0), 0.0);
  EXPECT_EQ(granter.remaining_out_kbps(0), 0.0);
  EXPECT_EQ(world.metrics().counter_total("lease.expired"), 1);
  EXPECT_EQ(world.metrics().counter_total("lease.granted"), 2);
}

TEST(LeaseGranter, EqualSharesAndNoOvergrant) {
  exp::World world(tiny_world());
  runtime::LeaseGranter::Params params;
  params.shards = 2;
  auto& granter = world.host(0).enable_lease_granter(params);
  const sim::SimTime t0 = world.simulator().now();
  request_lease(world, sim::msec(10), 0, 1, 0, 1);
  request_lease(world, sim::msec(11), 0, 2, 1, 2);
  world.simulator().run_until(t0 + sim::sec(1));
  const double a = granter.remaining_in_kbps(0);
  const double b = granter.remaining_in_kbps(1);
  EXPECT_GT(a, 0.0);
  // min(pool/K, free): both shards end up with the equal fair share
  // (modulo the trickle of monitor traffic between the two grants).
  EXPECT_NEAR(a, b, 0.02 * a);
  EXPECT_EQ(granter.overgrant_high_water_kbps(), 0.0);
}

TEST(LeaseGranter, DemandHintsRebalanceShares) {
  exp::World world(tiny_world());
  runtime::LeaseGranter::Params params;
  params.shards = 4;
  auto& granter = world.host(0).enable_lease_granter(params);
  const sim::SimTime t0 = world.simulator().now();
  // No hint: legacy equal split pool/K. Anchors the pool size for the
  // assertions below (pool ~= 4a, modulo monitor-traffic drift).
  request_lease(world, sim::msec(10), 0, 1, /*shard=*/0, 1, -1.0);
  // Zero demand: the idle floor pool/2K — half the fair share.
  request_lease(world, sim::msec(20), 0, 2, 1, 2, 0.0);
  // Large demand with one active peer (the unknown-hint shard counts,
  // the idle one does not): fair split over two actives = pool/2.
  request_lease(world, sim::msec(30), 0, 3, 2, 3, 1e9);
  world.simulator().run_until(t0 + sim::sec(1));

  const double a = granter.remaining_in_kbps(0);
  const double idle = granter.remaining_in_kbps(1);
  const double busy = granter.remaining_in_kbps(2);
  ASSERT_GT(a, 0.0);
  EXPECT_NEAR(idle, 0.5 * a, 0.02 * a);
  EXPECT_NEAR(busy, 2.0 * a, 0.04 * a);
  // Rebalancing never breaks the no-double-booking invariant.
  EXPECT_EQ(granter.overgrant_high_water_kbps(), 0.0);

  // The idle shard turning busy reclaims capacity bounded by what is
  // still free, never by raiding live grants.
  request_lease(world, sim::msec(100), 0, 2, 1, 4, 1e9);
  world.simulator().run_until(t0 + sim::sec(2));
  const double reclaimed = granter.remaining_in_kbps(1);
  EXPECT_GT(reclaimed, idle);
  EXPECT_EQ(granter.overgrant_high_water_kbps(), 0.0);
}

TEST(LeaseGranter, DebitEpochMismatchAndOverdrawNack) {
  exp::World world(tiny_world());
  runtime::LeaseGranter::Params params;
  params.shards = 2;
  auto& granter = world.host(0).enable_lease_granter(params);
  const sim::SimTime t0 = world.simulator().now();
  request_lease(world, sim::msec(10), 0, 1, 0, 1);
  world.simulator().run_until(t0 + sim::sec(1));
  const std::uint64_t epoch = granter.epoch(0);
  const double have = granter.remaining_in_kbps(0);
  ASSERT_GT(have, 100.0);

  // Stale epoch: refused, allowance untouched.
  EXPECT_FALSE(granter.debit(0, epoch + 1, /*app=*/7, 10.0, 10.0));
  EXPECT_DOUBLE_EQ(granter.remaining_in_kbps(0), have);
  // Overdraw: refused.
  EXPECT_FALSE(granter.debit(0, epoch, 7, have + 1.0, 0.0));
  // Unknown shard: refused.
  EXPECT_FALSE(granter.debit(1, epoch, 7, 1.0, 1.0));
  EXPECT_EQ(world.metrics().counter_total("lease.nacks"), 3);

  // Valid debit spends the allowance; release credits it back in full
  // while the same lease term is still current.
  EXPECT_TRUE(granter.debit(0, epoch, 7, 100.0, 50.0));
  EXPECT_DOUBLE_EQ(granter.remaining_in_kbps(0), have - 100.0);
  granter.release_app(7);
  EXPECT_DOUBLE_EQ(granter.remaining_in_kbps(0), have);

  // A debit from a lapsed term must NOT come back at release time (the
  // pool already re-absorbed it): spend, let the lease expire, release.
  EXPECT_TRUE(granter.debit(0, epoch, 8, 50.0, 25.0));
  world.simulator().run_until(t0 + sim::sec(20));
  granter.release_app(8);
  EXPECT_EQ(granter.remaining_in_kbps(0), 0.0);  // expired, not credited
}

// --- End-to-end sharded runs ------------------------------------------

exp::RunConfig sharded_run(int coordinators) {
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
  cfg.coordinators = coordinators;
  return cfg;
}

std::string snapshot_csv(const std::vector<obs::MetricRow>& rows) {
  std::ostringstream out;
  obs::MetricRegistry::write_csv(rows, out);
  return out.str();
}

TEST(ShardRunner, TwoShardsAdmitAndStream) {
  const auto m = exp::run_experiment(sharded_run(2));
  EXPECT_EQ(m.shard_submitted, 10);
  EXPECT_GT(m.shard_admitted, 0);
  EXPECT_EQ(m.composed, m.shard_admitted);
  EXPECT_GT(m.emitted, 0);
  EXPECT_GT(m.delivered, 0);
  EXPECT_GT(m.lease_grants, 0);
  EXPECT_GT(m.shard_batches, 0);
  EXPECT_EQ(m.lease_overgrant_kbps, 0.0) << "double-reserved bandwidth";
  EXPECT_EQ(m.shard_failovers, 0) << "healthy shards must never fail over";
}

TEST(LeaseGranter, HolderSuspectOnlyAfterExpiry) {
  exp::World world(tiny_world());
  const sim::SimTime t0 = world.simulator().now();
  runtime::LeaseGranter::Params params;
  params.lease_duration = sim::sec(2);
  params.shards = 2;
  auto& granter = world.host(0).enable_lease_granter(params);
  // No grant yet: absence of evidence is not suspicion.
  EXPECT_FALSE(granter.holder_suspect(0));
  request_lease(world, sim::msec(10), 0, 1, /*shard=*/0, 1);
  world.simulator().run_until(t0 + sim::msec(500));
  EXPECT_FALSE(granter.holder_suspect(0)) << "a live grant is not suspect";
  // The holder never renews: once the grant lapses it becomes suspect.
  world.simulator().run_until(t0 + sim::sec(5));
  EXPECT_TRUE(granter.holder_suspect(0));
  EXPECT_FALSE(granter.holder_suspect(1)) << "other shards unaffected";
}

TEST(ShardRunner, DeadShardSubmissionsFailOverToLiveShard) {
  // Crash shard 0's home (node 0 with 16 nodes / 2 shards) early. Once
  // its grants lapse on the source nodes, later submissions hashed to the
  // dead shard must reroute to shard 1 instead of timing out against a
  // silent coordinator.
  auto cfg = sharded_run(2);
  cfg.workload.num_requests = 14;
  cfg.submit_gap = sim::msec(800);
  cfg.lease_duration = sim::sec(2);
  cfg.lease_renew = sim::msec(800);
  cfg.chaos_scenario = "single-crash:at=2s,node=0,duration=0s";
  cfg.steady_duration = sim::sec(10);
  std::vector<obs::MetricRow> a, b;
  const auto m = exp::run_experiment(cfg, &a);
  EXPECT_GT(m.faults_injected, 0);
  EXPECT_GT(m.shard_failovers, 0)
      << "submissions kept going to the dead shard";
  EXPECT_GT(m.shard_admitted, 0) << "the live shard should still admit";
  EXPECT_GT(m.delivered, 0);
  exp::run_experiment(cfg, &b);
  EXPECT_EQ(snapshot_csv(a), snapshot_csv(b))
      << "failover rerouting must replay byte-for-byte";
}

TEST(ShardRunner, RepeatedShardedRunsAreByteIdentical) {
  std::vector<obs::MetricRow> a, b;
  exp::run_experiment(sharded_run(3), &a);
  exp::run_experiment(sharded_run(3), &b);
  EXPECT_EQ(snapshot_csv(a), snapshot_csv(b));
}

TEST(ShardRunner, AdmissionPoliciesAllAdmitWithoutOvergrant) {
  for (const char* policy : {"fifo", "smallest-demand", "highest-value"}) {
    auto cfg = sharded_run(2);
    cfg.admission_policy = policy;
    const auto m = exp::run_experiment(cfg);
    EXPECT_GT(m.shard_admitted, 0) << policy;
    EXPECT_EQ(m.lease_overgrant_kbps, 0.0) << policy;
  }
}

TEST(ShardRunner, ContentionNeverDoubleReserves) {
  // Overload: demand far beyond capacity, two shards racing for the same
  // nodes. Admission must degrade (NACK + repair or reject), never
  // over-promise node bandwidth.
  auto cfg = sharded_run(2);
  cfg.world.net.bw_min_kbps = 300;
  cfg.world.net.bw_max_kbps = 900;
  cfg.workload.num_requests = 16;
  cfg.workload.avg_rate_kbps = 300;
  cfg.submit_gap = sim::msec(100);  // whole burst lands in few batches
  const auto m = exp::run_experiment(cfg);
  EXPECT_EQ(m.shard_submitted, 16);
  EXPECT_LT(m.shard_admitted, 16) << "overload should reject some";
  EXPECT_EQ(m.lease_overgrant_kbps, 0.0) << "double-reserved bandwidth";
}

TEST(ShardRunner, SingleCoordinatorIgnoresShardKnobs) {
  // K=1 must not construct any of the sharded machinery: every shard
  // knob perturbation yields the byte-identical execution.
  auto cfg = sharded_run(1);
  std::vector<obs::MetricRow> base, tweaked;
  const auto m = exp::run_experiment(cfg, &base);
  EXPECT_EQ(m.shard_submitted, 0);
  EXPECT_EQ(m.lease_grants, 0);
  cfg.admission_policy = "highest-value";
  cfg.batch_window = sim::msec(7);
  cfg.lease_duration = sim::sec(1);
  cfg.lease_renew = sim::msec(333);
  exp::run_experiment(cfg, &tweaked);
  EXPECT_EQ(snapshot_csv(base), snapshot_csv(tweaked));
}

}  // namespace
}  // namespace rasc
