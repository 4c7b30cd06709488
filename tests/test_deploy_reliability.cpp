// Reliable deployment control plane: receiver-side dedup and epoch
// ordering, coordinator retransmission/rollback, the orphan reaper, and
// the chaos control-loss scenario end to end.
#include <gtest/gtest.h>

#include <memory>
#include <string_view>

#include "chaos/injector.hpp"
#include "chaos/scenario.hpp"
#include "core/coordinator.hpp"
#include "core/mincost_composer.hpp"
#include "exp/world.hpp"
#include "runtime/deploy_messages.hpp"

namespace rasc {
namespace {

exp::WorldConfig small_world() {
  exp::WorldConfig wc;
  wc.nodes = 12;
  wc.num_services = 6;
  wc.services_per_node = 3;
  wc.seed = 21;
  wc.net.bw_min_kbps = 4000;
  wc.net.bw_max_kbps = 8000;
  // Snapshots expose reservations (several tests read them back).
  wc.monitor_params.advertise_reservations = true;
  return wc;
}

core::ServiceRequest request_for(exp::World& world) {
  core::ServiceRequest req;
  req.app = 1;
  req.source = 0;
  req.destination = sim::NodeIndex(world.size() - 1);
  req.unit_bytes = 1250;
  req.substreams = {{{"svc0", "svc1"}, 100.0}};
  return req;
}

/// Hands `payload` from node 0 to `dst`'s handler for its kind, at once;
/// returns the subsystem that consumed it.
const void* deliver(exp::World& world, sim::NodeIndex dst,
                    sim::MessagePtr payload) {
  sim::Packet packet;
  packet.src = 0;
  packet.dst = dst;
  packet.size_bytes = 64;
  packet.payload = std::move(payload);
  packet.sent_at = world.simulator().now();
  return world.network().deliver_now(std::move(packet));
}

std::shared_ptr<runtime::DeployComponentMsg> component_msg(
    runtime::AppId app, std::uint64_t epoch, std::uint64_t request_id,
    sim::NodeIndex next_node) {
  auto msg = std::make_shared<runtime::DeployComponentMsg>();
  msg->key = runtime::ComponentKey{app, 0, 0};
  msg->service = "svc0";
  msg->rate_units_per_sec = 50;
  msg->in_unit_bytes = 1250;
  msg->next = {runtime::Placement{next_node, 50}};
  msg->request_id = request_id;
  msg->requester = 0;
  msg->epoch = epoch;
  return msg;
}

double monitor_reserved(exp::World& world, std::size_t node) {
  const auto stats = world.host(node).monitor().snapshot();
  return stats.reserved_in_kbps + stats.reserved_out_kbps;
}

double total_reserved_for_app(exp::World& world, runtime::AppId app) {
  double total = 0;
  for (std::size_t n = 0; n < world.size(); ++n) {
    total += world.host(n).runtime().reserved_kbps_for_app(app);
  }
  return total;
}

TEST(DeployReliability, DuplicateDeployReAcksWithoutReapplying) {
  exp::World world(small_world());
  auto& rt = world.host(1).runtime();

  const auto msg = component_msg(7, 1, 77, sim::NodeIndex(2));
  ASSERT_EQ(deliver(world, 1, msg), &rt);
  EXPECT_EQ(rt.component_count(), 1u);
  const double reserved_once = monitor_reserved(world, 1);
  EXPECT_GT(reserved_once, 0);

  // Retransmission / wire duplicate: verdict re-acked, nothing re-applied.
  ASSERT_EQ(deliver(world, 1, msg), &rt);
  EXPECT_EQ(rt.component_count(), 1u);
  EXPECT_EQ(monitor_reserved(world, 1), reserved_once);
  EXPECT_EQ(world.metrics().counter_total("deploy.dup_acks"), 1);
}

TEST(DeployReliability, RolledBackEpochTombstonesLateDeploys) {
  exp::World world(small_world());
  auto& rt = world.host(1).runtime();

  // The rollback teardown of attempt 5 overtook its deploy messages.
  auto td = std::make_shared<runtime::TeardownAppMsg>();
  td->app = 7;
  td->epoch = 5;
  ASSERT_EQ(deliver(world, 1, td), &rt);

  // Late deploy of the rolled-back attempt: dropped, not re-instantiated.
  ASSERT_EQ(deliver(world, 1, component_msg(7, 5, 91, 2)), &rt);
  EXPECT_EQ(rt.component_count(), 0u);
  // And anything from an older attempt too.
  ASSERT_EQ(deliver(world, 1, component_msg(7, 4, 92, 2)), &rt);
  EXPECT_EQ(rt.component_count(), 0u);
  EXPECT_EQ(world.metrics().counter_total("deploy.stale_epoch"), 2);

  // A genuinely newer attempt still deploys.
  ASSERT_EQ(deliver(world, 1, component_msg(7, 6, 93, 2)), &rt);
  EXPECT_EQ(rt.component_count(), 1u);
}

TEST(DeployReliability, StaleTeardownCannotKillNewerEpoch) {
  exp::World world(small_world());
  auto& rt = world.host(1).runtime();

  ASSERT_EQ(deliver(world, 1, component_msg(7, 5, 91, 2)), &rt);
  ASSERT_EQ(rt.component_count(), 1u);

  // A reordered rollback of attempt 3 arrives after attempt 5 deployed.
  auto stale = std::make_shared<runtime::TeardownAppMsg>();
  stale->app = 7;
  stale->epoch = 3;
  ASSERT_EQ(deliver(world, 1, stale), &rt);
  EXPECT_EQ(rt.component_count(), 1u);
  EXPECT_EQ(world.metrics().counter_total("deploy.stale_epoch"), 1);

  // Epoch 0 = unconditional (supervisor recovery): always applies.
  auto legacy = std::make_shared<runtime::TeardownAppMsg>();
  legacy->app = 7;
  ASSERT_EQ(deliver(world, 1, legacy), &rt);
  EXPECT_EQ(rt.component_count(), 0u);
}

// Satellite (a): under chaos control-duplicate, every deploy message
// arrives twice; receiver-side dedup must keep reservations single.
TEST(DeployReliability, ControlDuplicateChaosDoesNotDoubleReserve) {
  exp::World world(small_world());
  auto& sim = world.simulator();

  chaos::Scenario s;
  s.name = "dup-everything";
  s.seed = 7;
  chaos::Fault f;
  f.kind = chaos::FaultKind::kControlDuplicate;
  f.at = 0;
  f.duration = 0;  // whole run
  f.probability = 1.0;
  s.faults.push_back(f);
  chaos::Injector injector(sim, world.network(), s);
  injector.arm(sim.now(), sim.now() + sim::sec(60));

  core::MinCostComposer composer;
  const auto req = request_for(world);
  bool done = false;
  core::SubmitOutcome outcome;
  world.host(0).coordinator().submit(req, composer, 0,
                                     sim.now() + sim::sec(10),
                                     [&](const core::SubmitOutcome& o) {
                                       done = true;
                                       outcome = o;
                                     });
  sim.run_until(sim.now() + sim::sec(12));
  ASSERT_TRUE(done);
  ASSERT_TRUE(outcome.compose.admitted) << outcome.compose.error;
  EXPECT_GT(world.metrics().counter_total("deploy.dup_acks"), 0);

  // The monitor-side reservation on every node must equal what the
  // runtime's books say: a double-applied deploy would inflate only the
  // former (the runtime's maps are keyed and silently overwrite).
  for (std::size_t n = 0; n < world.size(); ++n) {
    EXPECT_NEAR(monitor_reserved(world, n),
                world.host(n).runtime().reserved_kbps_for_app(req.app), 1e-6)
        << "node " << n;
  }
}

// Satellite (b) + tentpole rollback: a deploy that can never complete
// (every sink deploy lost) must release all partial reservations on
// timeout when rollback is on — and demonstrably leak without it.
TEST(DeployReliability, TimeoutRollbackReleasesPartialReservations) {
  for (const bool rollback : {false, true}) {
    exp::WorldConfig wc = small_world();
    wc.deploy_policy.rollback = rollback;
    exp::World world(wc);
    auto& sim = world.simulator();
    world.network().set_send_interceptor(
        [](sim::NodeIndex, sim::NodeIndex, const sim::Message* payload)
            -> sim::Network::SendPerturbation {
          sim::Network::SendPerturbation p;
          if (payload != nullptr &&
              std::string_view(payload->kind()) == "runtime.deploy_sink") {
            p.drop = true;
          }
          return p;
        });

    core::MinCostComposer composer;
    const auto req = request_for(world);
    bool done = false;
    core::SubmitOutcome outcome;
    world.host(0).coordinator().submit(req, composer, 0,
                                       sim.now() + sim::sec(10),
                                       [&](const core::SubmitOutcome& o) {
                                         done = true;
                                         outcome = o;
                                       });
    sim.run_until(sim.now() + sim::sec(12));
    ASSERT_TRUE(done);
    EXPECT_FALSE(outcome.compose.admitted);

    const double leaked = total_reserved_for_app(world, req.app);
    if (rollback) {
      EXPECT_EQ(leaked, 0) << "rollback left reservations behind";
      EXPECT_EQ(world.metrics().counter_total("deploy.rollbacks"), 1);
    } else {
      // Negative control: the single-shot protocol strands the
      // components it managed to place.
      EXPECT_GT(leaked, 0);
      EXPECT_EQ(world.metrics().counter_total("deploy.rollbacks"), 0);
    }
  }
}

TEST(DeployReliability, NackTriggersRollback) {
  exp::WorldConfig wc = small_world();
  wc.deploy_policy.rollback = true;
  exp::World world(wc);
  auto& sim = world.simulator();

  // Snoop the first component deploy, drop it, and answer it with a
  // forged NACK instead (a deterministic stand-in for an overloaded
  // runtime rejecting the instantiation).
  struct Snoop {
    bool dropped = false;
    std::uint64_t rid = 0;
    sim::NodeIndex target = sim::kInvalidNode;
    sim::NodeIndex requester = sim::kInvalidNode;
  };
  auto snoop = std::make_shared<Snoop>();
  world.network().set_send_interceptor(
      [snoop](sim::NodeIndex src, sim::NodeIndex dst,
              const sim::Message* payload)
          -> sim::Network::SendPerturbation {
        sim::Network::SendPerturbation p;
        const auto* dc =
            dynamic_cast<const runtime::DeployComponentMsg*>(payload);
        if (dc != nullptr && !snoop->dropped) {
          snoop->dropped = true;
          snoop->rid = dc->request_id;
          snoop->target = dst;
          snoop->requester = src;
          p.drop = true;
        }
        return p;
      });

  core::MinCostComposer composer;
  const auto req = request_for(world);
  bool done = false;
  core::SubmitOutcome outcome;
  world.host(0).coordinator().submit(req, composer, 0,
                                     sim.now() + sim::sec(10),
                                     [&](const core::SubmitOutcome& o) {
                                       done = true;
                                       outcome = o;
                                     });
  // By 3 s the deploy phase ran and the snooped message was dropped.
  sim.run_until(sim.now() + sim::sec(3));
  ASSERT_TRUE(snoop->dropped);
  auto nack = std::make_shared<runtime::DeployAck>();
  nack->request_id = snoop->rid;
  nack->ok = false;
  world.network().send(snoop->target, snoop->requester,
                       runtime::DeployAck::kBytes, std::move(nack));
  sim.run_until(sim.now() + sim::sec(8));

  ASSERT_TRUE(done);
  EXPECT_FALSE(outcome.compose.admitted);
  EXPECT_EQ(world.metrics().counter_total("deploy.rollbacks"), 1);
  EXPECT_EQ(total_reserved_for_app(world, req.app), 0);
}

// Satellite (d): an ack that arrives after its deploy already timed out
// must be counted, not silently swallowed.
TEST(DeployReliability, StaleAckAfterTimeoutIsCounted) {
  exp::WorldConfig wc = small_world();
  wc.deploy_policy.rollback = true;  // policy on => stale acks counted
  exp::World world(wc);
  auto& sim = world.simulator();

  struct Snoop {
    std::uint64_t rid = 0;
    sim::NodeIndex target = sim::kInvalidNode;
    sim::NodeIndex requester = sim::kInvalidNode;
  };
  auto snoop = std::make_shared<Snoop>();
  world.network().set_send_interceptor(
      [snoop](sim::NodeIndex src, sim::NodeIndex dst,
              const sim::Message* payload)
          -> sim::Network::SendPerturbation {
        sim::Network::SendPerturbation p;
        const auto* ds = dynamic_cast<const runtime::DeploySinkMsg*>(payload);
        if (ds != nullptr) {
          snoop->rid = ds->request_id;
          snoop->target = dst;
          snoop->requester = src;
          p.drop = true;  // the sink never deploys -> deadline fires
        }
        return p;
      });

  core::MinCostComposer composer;
  const auto req = request_for(world);
  bool done = false;
  core::SubmitOutcome outcome;
  world.host(0).coordinator().submit(req, composer, 0,
                                     sim.now() + sim::sec(20),
                                     [&](const core::SubmitOutcome& o) {
                                       done = true;
                                       outcome = o;
                                     });
  // Past composition (~0.5 s) + the 5 s deploy deadline.
  sim.run_until(sim.now() + sim::sec(8));
  ASSERT_TRUE(done);
  EXPECT_FALSE(outcome.compose.admitted);
  ASSERT_NE(snoop->rid, 0u);
  EXPECT_EQ(world.metrics().counter_total("deploy.stale_ack"), 0);

  // The "lost" ack finally limps in, long after the deadline.
  auto ack = std::make_shared<runtime::DeployAck>();
  ack->request_id = snoop->rid;
  ack->ok = true;
  world.network().send(snoop->target, snoop->requester,
                       runtime::DeployAck::kBytes, std::move(ack));
  sim.run_until(sim.now() + sim::sec(2));
  EXPECT_EQ(world.metrics().counter_total("deploy.stale_ack"), 1);
}

// Tentpole acceptance: with deploy-plane packets dropped at p=0.25 the
// retransmitting coordinator still admits; the same seeds without
// retransmission fail (negative control).
TEST(DeployReliability, RetransmissionSurvivesControlLoss) {
  bool reliable_admitted = false;
  bool single_shot_admitted = true;
  std::int64_t retries = 0;
  for (const bool reliable : {false, true}) {
    exp::WorldConfig wc = small_world();
    if (reliable) {
      wc.deploy_policy.retransmit_budget = 5;  // kRetransmitBase: 400 ms
      wc.deploy_policy.rollback = true;
    }
    exp::World world(wc);
    auto& sim = world.simulator();
    chaos::Injector injector(
        sim, world.network(),
        chaos::parse_scenario("control-loss:prob=0.25,at=0s,seed=9"));
    injector.arm(sim.now(), sim.now() + sim::sec(60));

    core::MinCostComposer composer;
    const auto req = request_for(world);
    bool done = false;
    core::SubmitOutcome outcome;
    world.host(0).coordinator().submit(req, composer, 0,
                                       sim.now() + sim::sec(15),
                                       [&](const core::SubmitOutcome& o) {
                                         done = true;
                                         outcome = o;
                                       });
    sim.run_until(sim.now() + sim::sec(20));
    ASSERT_TRUE(done);
    if (reliable) {
      reliable_admitted = outcome.compose.admitted;
      retries = world.metrics().counter_total("deploy.retries");
    } else {
      single_shot_admitted = outcome.compose.admitted;
    }
  }
  EXPECT_TRUE(reliable_admitted);
  EXPECT_FALSE(single_shot_admitted);
  EXPECT_GT(retries, 0);
}

TEST(DeployReliability, OrphanReaperCollectsAbandonedPartialDeploy) {
  exp::WorldConfig wc = small_world();
  wc.runtime_params.orphan_lease = sim::sec(2);
  exp::World world(wc);
  auto& sim = world.simulator();
  auto& rt = world.host(2).runtime();

  // A partial deploy whose coordinator died: nothing ever streams, no
  // teardown will ever arrive.
  ASSERT_EQ(deliver(world, 2, component_msg(7, 1, 50, 3)), &rt);
  ASSERT_EQ(rt.component_count(), 1u);
  ASSERT_GT(monitor_reserved(world, 2), 0);

  sim.run_until(sim.now() + sim::sec(6));
  EXPECT_EQ(rt.component_count(), 0u);
  EXPECT_EQ(monitor_reserved(world, 2), 0);
  EXPECT_EQ(world.metrics().counter_total("orphan.reaped"), 1);
}

TEST(DeployReliability, SupervisorProbesRenewOrphanLease) {
  exp::WorldConfig wc = small_world();
  wc.runtime_params.orphan_lease = sim::sec(2);
  exp::World world(wc);
  auto& sim = world.simulator();
  auto& rt = world.host(2).runtime();

  ASSERT_EQ(deliver(world, 2, component_msg(7, 1, 50, 3)), &rt);

  // A supervisor is probing the app: each probe renews the lease.
  const sim::SimTime t0 = sim.now();
  for (int i = 1; i <= 5; ++i) {
    sim.call_at(t0 + sim::SimDuration(i) * sim::sec(1), [&rt, &world] {
      auto probe = std::make_shared<runtime::SinkHealthRequest>();
      probe->app = 7;
      probe->request_id = 1;
      probe->requester = 0;
      EXPECT_EQ(deliver(world, 2, probe), &rt);
    });
  }
  sim.run_until(t0 + sim::sec(5) + sim::msec(500));
  EXPECT_EQ(rt.component_count(), 1u) << "reaped despite live probes";

  // Probes stop (the supervisor died too): the lease lapses and the
  // orphan is collected.
  sim.run_until(t0 + sim::sec(10));
  EXPECT_EQ(rt.component_count(), 0u);
  EXPECT_EQ(world.metrics().counter_total("orphan.reaped"), 1);
}

TEST(DeployReliability, StreamedAppsAreNeverReaped) {
  exp::WorldConfig wc = small_world();
  wc.runtime_params.orphan_lease = sim::sec(2);
  exp::World world(wc);
  auto& sim = world.simulator();

  core::MinCostComposer composer;
  const auto req = request_for(world);
  bool done = false;
  core::SubmitOutcome outcome;
  world.host(0).coordinator().submit(req, composer, sim.now() + sim::sec(1),
                                     sim.now() + sim::sec(6),
                                     [&](const core::SubmitOutcome& o) {
                                       done = true;
                                       outcome = o;
                                     });
  // Far past the stream's end plus many leases: a deployed app that
  // actually streamed must keep its state (end-of-run stats read it).
  sim.run_until(sim.now() + sim::sec(15));
  ASSERT_TRUE(done);
  ASSERT_TRUE(outcome.compose.admitted) << outcome.compose.error;
  EXPECT_EQ(world.metrics().counter_total("orphan.reaped"), 0);
  const auto sink =
      world.host(world.size() - 1).runtime().aggregate_sink_stats();
  EXPECT_GT(sink.delivered, 0);
  EXPECT_GT(total_reserved_for_app(world, req.app), 0);
}

// Byte-identity guard: a default-policy run must create none of the new
// registry cells (snapshots stay identical to pre-reliability builds).
TEST(DeployReliability, CleanRunCreatesNoReliabilityCells) {
  exp::World world(small_world());
  auto& sim = world.simulator();
  core::MinCostComposer composer;
  const auto req = request_for(world);
  bool done = false;
  world.host(0).coordinator().submit(
      req, composer, 0, sim.now() + sim::sec(10),
      [&](const core::SubmitOutcome&) { done = true; });
  sim.run_until(sim.now() + sim::sec(12));
  ASSERT_TRUE(done);

  for (const auto& row : world.metrics().snapshot()) {
    EXPECT_NE(row.name.rfind("deploy.", 0), 0u) << row.name;
    EXPECT_NE(row.name.rfind("orphan.", 0), 0u) << row.name;
  }
}

}  // namespace
}  // namespace rasc
