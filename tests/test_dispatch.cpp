// Per-kind packet dispatch on a fully wired host: every message kind the
// simulator defines reaches the one subsystem that consumes it, and a kind
// with no consumer at its node is logged and dropped without touching any
// metric.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/coordinator_shard.hpp"
#include "exp/control_plane.hpp"
#include "exp/gossip_control_plane.hpp"
#include "exp/world.hpp"
#include "gossip/messages.hpp"
#include "monitor/stats_protocol.hpp"
#include "overlay/messages.hpp"
#include "runtime/data_unit.hpp"
#include "runtime/deploy_messages.hpp"
#include "runtime/lease_messages.hpp"
#include "runtime/rehome_messages.hpp"

namespace rasc {
namespace {

exp::WorldConfig world_config() {
  exp::WorldConfig wc;
  wc.nodes = 8;
  wc.num_services = 4;
  wc.services_per_node = 2;
  wc.seed = 5;
  return wc;
}

std::string registry_csv(exp::World& world) {
  std::ostringstream out;
  obs::MetricRegistry::write_csv(world.metrics().snapshot(), out);
  return out.str();
}

const void* deliver(exp::World& world, sim::NodeIndex dst,
                    sim::MessagePtr payload) {
  sim::Packet packet;
  packet.src = 1;
  packet.dst = dst;
  packet.size_bytes = 64;
  packet.payload = std::move(payload);
  packet.sent_at = world.simulator().now();
  return world.network().deliver_now(std::move(packet));
}

/// One message kind: its literal, a plausible payload, and the subsystem
/// that must consume it at the host under test (nullptr: nobody).
struct Route {
  const char* kind;
  std::function<sim::MessagePtr()> make;
  const void* consumer;
};

/// A world whose node 0 carries every packet consumer at once: the
/// overlay node, the host's stats agent, runtime, coordinator and
/// supervisor, a lease granter, coordinator shard 0 and a gossip agent.
struct WiredWorld {
  WiredWorld()
      : world(world_config()),
        shards(world, shard_config(), world.simulator().rng().split(1)),
        gossip(world, exp::GossipControlPlane::Config(),
               world.simulator().rng().split(2)) {}

  static exp::ShardControlPlane::Config shard_config() {
    exp::ShardControlPlane::Config config;
    config.coordinators = 1;
    return config;
  }

  std::vector<Route> routes() {
    const sim::NodeIndex h = kHost;
    exp::Host& host = world.host(std::size_t(h));
    overlay::PastryNode& pastry = world.overlay().at(std::size_t(h));
    const overlay::PeerRef peer = world.overlay().at(1).self();
    core::CoordinatorShard& shard = shards.shard(0);
    const std::string service = world.service_names().front();

    const void* const kPastry = &pastry;
    const void* const kStats = &host.stats_agent();
    const void* const kRuntime = &host.runtime();
    const void* const kCoordinator = &host.coordinator();
    const void* const kSupervisor = &host.supervisor();
    const void* const kGranter = host.lease_granter();
    const void* const kLeases = &shard.leases();
    const void* const kShard = &shard;
    const void* const kGossip = &gossip.agent(std::size_t(h));

    return {
        {overlay::RoutedMessage::kKind,
         [&pastry, peer] {
           auto m = std::make_shared<overlay::RoutedMessage>();
           m->key = pastry.id();
           m->origin = peer;
           m->inner = std::make_shared<overlay::NeighborProbe>();
           m->inner_size = overlay::NeighborProbe::kBytes;
           return m;
         },
         kPastry},
        {overlay::JoinRequest::kKind,
         [peer] {
           auto m = std::make_shared<overlay::JoinRequest>();
           m->joiner = peer;
           return m;
         },
         nullptr},
        {overlay::JoinStateInfo::kKind,
         [peer] {
           auto m = std::make_shared<overlay::JoinStateInfo>();
           m->sender = peer;
           return m;
         },
         kPastry},
        {overlay::LeafSetExchange::kKind,
         [peer] {
           auto m = std::make_shared<overlay::LeafSetExchange>();
           m->sender = peer;
           return m;
         },
         kPastry},
        {overlay::NeighborProbe::kKind,
         [] { return std::make_shared<overlay::NeighborProbe>(); }, nullptr},
        {overlay::Announce::kKind,
         [peer] {
           auto m = std::make_shared<overlay::Announce>();
           m->who = peer;
           return m;
         },
         kPastry},
        {overlay::DhtPut::kKind,
         [peer] {
           auto m = std::make_shared<overlay::DhtPut>();
           m->value = "x";
           m->requester = peer;
           return m;
         },
         nullptr},
        {overlay::DhtReplicate::kKind,
         [] {
           auto m = std::make_shared<overlay::DhtReplicate>();
           m->key = overlay::NodeId128::hash_of("dispatch-test");
           m->values = {"x"};
           return m;
         },
         kPastry},
        {overlay::DhtAck::kKind,
         [] { return std::make_shared<overlay::DhtAck>(); }, kPastry},
        {overlay::DhtGet::kKind,
         [peer] {
           auto m = std::make_shared<overlay::DhtGet>();
           m->requester = peer;
           return m;
         },
         nullptr},
        {overlay::DhtGetReply::kKind,
         [] { return std::make_shared<overlay::DhtGetReply>(); }, kPastry},
        {runtime::LeaseRequestMsg::kKind,
         [] {
           auto m = std::make_shared<runtime::LeaseRequestMsg>();
           m->shard = 0;
           m->requester = 1;
           m->request_id = 1;
           return m;
         },
         kGranter},
        {runtime::LeaseGrantMsg::kKind,
         [] {
           auto m = std::make_shared<runtime::LeaseGrantMsg>();
           m->shard = 0;
           m->node = 1;
           m->lease_epoch = 1;
           return m;
         },
         kLeases},
        {runtime::LeaseRevokeMsg::kKind,
         [] {
           auto m = std::make_shared<runtime::LeaseRevokeMsg>();
           m->shard = 0;
           m->node = 1;
           return m;
         },
         kLeases},
        {runtime::ShardRecoverRequestMsg::kKind,
         [] {
           auto m = std::make_shared<runtime::ShardRecoverRequestMsg>();
           m->shard = 0;
           m->requester = 1;
           m->request_id = 1;
           return m;
         },
         kRuntime},
        {runtime::ShardRecoverReplyMsg::kKind,
         [] { return std::make_shared<runtime::ShardRecoverReplyMsg>(); },
         kShard},
        {runtime::DataUnit::kKind,
         [] {
           auto m = std::make_shared<runtime::DataUnit>();
           m->app = 99;
           m->size_bytes = 100;
           return m;
         },
         kRuntime},
        {runtime::DeployComponentMsg::kKind,
         [service] {
           auto m = std::make_shared<runtime::DeployComponentMsg>();
           m->key = runtime::ComponentKey{7, 0, 0};
           m->service = service;
           m->rate_units_per_sec = 1;
           m->in_unit_bytes = 100;
           m->next = {runtime::Placement{2, 1}};
           m->request_id = 1;
           m->requester = 1;
           return m;
         },
         kRuntime},
        {runtime::DeploySinkMsg::kKind,
         [] {
           auto m = std::make_shared<runtime::DeploySinkMsg>();
           m->app = 8;
           m->rate_units_per_sec = 1;
           m->unit_bytes = 100;
           m->request_id = 2;
           m->requester = 1;
           return m;
         },
         kRuntime},
        {runtime::DeploySourceMsg::kKind,
         [this] {
           auto m = std::make_shared<runtime::DeploySourceMsg>();
           m->app = 9;
           m->rate_units_per_sec = 1;
           m->unit_bytes = 100;
           m->first_stage = {runtime::Placement{2, 1}};
           m->start_at = world.simulator().now() + sim::sec(1);
           m->stop_at = m->start_at + sim::sec(1);
           m->request_id = 3;
           m->requester = 1;
           return m;
         },
         kRuntime},
        {runtime::DeployAck::kKind,
         [] { return std::make_shared<runtime::DeployAck>(); }, kCoordinator},
        {runtime::UpdateComponentMsg::kKind,
         [] {
           auto m = std::make_shared<runtime::UpdateComponentMsg>();
           m->key = runtime::ComponentKey{70, 0, 0};
           return m;
         },
         kRuntime},
        {runtime::AddPlacementMsg::kKind,
         [service] {
           auto m = std::make_shared<runtime::AddPlacementMsg>();
           m->key = runtime::ComponentKey{71, 0, 0};
           m->service = service;
           m->rate_units_per_sec = 1;
           m->in_unit_bytes = 100;
           m->next = {runtime::Placement{2, 1}};
           return m;
         },
         kRuntime},
        {runtime::RemovePlacementMsg::kKind,
         [] {
           auto m = std::make_shared<runtime::RemovePlacementMsg>();
           m->key = runtime::ComponentKey{72, 0, 0};
           return m;
         },
         kRuntime},
        {runtime::UpdateSourceSplitMsg::kKind,
         [] {
           auto m = std::make_shared<runtime::UpdateSourceSplitMsg>();
           m->app = 73;
           return m;
         },
         kRuntime},
        {runtime::TeardownAppMsg::kKind,
         [] {
           auto m = std::make_shared<runtime::TeardownAppMsg>();
           m->app = 74;
           return m;
         },
         kRuntime},
        {runtime::SinkHealthRequest::kKind,
         [] {
           auto m = std::make_shared<runtime::SinkHealthRequest>();
           m->app = 75;
           m->requester = 1;
           return m;
         },
         kRuntime},
        {runtime::SinkHealthReply::kKind,
         [] { return std::make_shared<runtime::SinkHealthReply>(); },
         kSupervisor},
        {gossip::GossipDigestMsg::kKind,
         [] {
           auto m = std::make_shared<gossip::GossipDigestMsg>();
           m->sender = 1;
           return m;
         },
         kGossip},
        {monitor::StatsRequest::kKind,
         [] {
           auto m = std::make_shared<monitor::StatsRequest>();
           m->requester = 1;
           return m;
         },
         kStats},
        {monitor::StatsReply::kKind,
         [] { return std::make_shared<monitor::StatsReply>(); }, kStats},
        {core::SubmitShardMsg::kKind,
         [this] { return submit_msg(); }, kShard},
    };
  }

  std::shared_ptr<core::SubmitShardMsg> submit_msg() const {
    auto m = std::make_shared<core::SubmitShardMsg>();
    m->request.app = 42;
    m->request.source = 1;
    m->request.destination = 2;
    m->request.substreams.push_back(
        {{world.service_names().front()}, 10.0});
    return m;
  }

  static constexpr sim::NodeIndex kHost = 0;  // home of shard 0

  exp::World world;
  exp::ShardControlPlane shards;
  exp::GossipControlPlane gossip;
};

TEST(Dispatch, EveryKindReachesItsConsumer) {
  WiredWorld wired;
  ASSERT_EQ(wired.shards.home_of(0), WiredWorld::kHost);
  const auto routes = wired.routes();

  // The table covers every message kind defined under src/, once each.
  std::set<std::string> kinds;
  for (const Route& route : routes) kinds.insert(route.kind);
  EXPECT_EQ(routes.size(), 32u);
  EXPECT_EQ(kinds.size(), routes.size());

  for (const Route& route : routes) {
    SCOPED_TRACE(route.kind);
    const sim::MessagePtr payload = route.make();
    ASSERT_STREQ(payload->kind(), route.kind);
    EXPECT_EQ(deliver(wired.world, WiredWorld::kHost, payload),
              route.consumer);
  }
}

TEST(Dispatch, KindWithoutConsumerLeavesMetricsUntouched) {
  WiredWorld wired;
  exp::World& world = wired.world;
  const std::string before = registry_csv(world);

  // No shard lives on node 1: a submission routed there has no consumer.
  ASSERT_NE(wired.shards.home_of(0), 1);
  EXPECT_EQ(deliver(world, 1, wired.submit_msg()), nullptr);
  // Routed-only inner payloads never arrive as packets of their own.
  EXPECT_EQ(deliver(world, WiredWorld::kHost,
                    std::make_shared<overlay::NeighborProbe>()),
            nullptr);
  EXPECT_EQ(registry_csv(world), before);
}

}  // namespace
}  // namespace rasc
