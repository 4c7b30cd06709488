// Decentralized (gossip) control plane: every node is its own admission
// point.
//
// Each host runs a gossip::Agent maintaining a budgeted partial view of
// the fleet's load summaries, and a core::GossipComposer that places
// requests hop-by-hop from that view. A request submits at its source
// node: service providers are discovered through the DHT as usual, their
// *stats* however come from the local gossip view instead of a stats
// query fan-out — composition costs no extra control round-trips, at the
// price of bounded staleness. Deploys are stamped with the leaseless
// kPoolShard sentinel, so every target node's LeaseGranter debits its
// live pool as the authoritative admission check; a mid-deploy NACK rolls
// the attempt back (PR-5 epoch machinery), marks the NACKing nodes
// suspect in the local view and recomposes, bounded by kRepairAttempts.
//
// Constructed only for --control-plane=gossip runs: a centralized or
// sharded run never instantiates agents, never interns the gossip.digest
// message kind, and stays byte-identical to builds without this
// subsystem.
#pragma once

#include <memory>
#include <vector>

#include "core/gossip_composer.hpp"
#include "core/rate_adapter.hpp"
#include "exp/world.hpp"
#include "gossip/agent.hpp"
#include "overlay/registry.hpp"

namespace rasc::exp {

class GossipControlPlane {
 public:
  /// NACK-repair recompositions allowed per request.
  static constexpr int kRepairAttempts = 2;

  struct Config {
    gossip::Agent::Params agent;
    core::GossipComposer::Options composer;
  };

  /// Wires a gossip agent, composer and DHT client into every host and
  /// enables each node's lease granter as the pool-debit authority.
  /// `rng` seeds the per-node agent rotation streams.
  GossipControlPlane(World& world, Config config, util::Xoshiro256 rng);

  GossipControlPlane(const GossipControlPlane&) = delete;
  GossipControlPlane& operator=(const GossipControlPlane&) = delete;

  /// Starts every agent's round timer at `at` (phase-staggered per node).
  void start(sim::SimTime at);

  /// Time from start() until every view has had one full dissemination
  /// sweep; submissions before this see mostly-empty views and reject.
  /// Derived from fleet size and digest capacity (full view coverage plus
  /// margin).
  sim::SimDuration warmup() const;

  /// Composes and deploys `request` at its source node from the local
  /// partial view. Call from a simulation event.
  void submit(const core::ServiceRequest& request, sim::SimTime stream_start,
              sim::SimTime stream_stop, core::Coordinator::Callback done);

  /// Points `adapter` (living on `node`) at the node-local gossip view
  /// for its replanning snapshots, instead of the central StatsAgent
  /// round-trip that would defeat the decentralized plane. Targets absent
  /// from the view are simply omitted — the adapter already treats a
  /// missing snapshot as an unusable candidate (and skips the round when
  /// an endpoint is missing), mirroring composition's staleness
  /// semantics.
  void feed_adapter(std::size_t node, core::RateAdapter& adapter);

  gossip::Agent& agent(std::size_t node) { return *clients_[node].agent; }

 private:
  struct Client {
    std::unique_ptr<gossip::Agent> agent;
    std::unique_ptr<core::GossipComposer> composer;
    std::unique_ptr<overlay::ServiceRegistry> registry;
  };

  struct Pending;
  void compose_and_deploy(const std::shared_ptr<Pending>& pending);
  void finish(const std::shared_ptr<Pending>& pending,
              const core::SubmitOutcome& outcome);

  World& world_;
  Config config_;
  std::vector<Client> clients_;
  /// Digest entries one peer's digest can carry (derived from the budget).
  std::int64_t digest_capacity_ = 0;

  obs::Counter* submitted_;
  obs::Counter* admitted_;
  obs::Counter* rejected_;
  obs::Counter* repairs_;
};

}  // namespace rasc::exp
