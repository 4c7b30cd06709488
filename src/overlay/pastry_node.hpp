// A Pastry overlay node: prefix routing, join protocol, and a replicated
// DHT used by RASC for component discovery (paper §3.3).
//
// One PastryNode lives on each simulated host. It registers the overlay's
// packet kinds in the host's row of the network dispatch table; the upper
// layers on the host (resource monitor, stream runtime, ...) register
// theirs, so each packet reaches its consumer without a type probe.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "overlay/messages.hpp"
#include "overlay/state.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace rasc::overlay {

class PastryNode {
 public:
  /// Callback for DHT reads: (found, values).
  using GetCallback = std::function<void(bool, std::vector<std::string>)>;
  /// Callback for DHT writes: success flag.
  using PutCallback = std::function<void(bool)>;
  /// Callback when this node is the root for an application-routed key.
  using DeliverHandler =
      std::function<void(const NodeId128& key, const sim::MessagePtr& inner,
                         const PeerRef& origin, int hops)>;

  /// RPC timeout for DHT operations (generous vs simulated RTTs).
  static constexpr sim::SimDuration kRpcTimeout = sim::msec(2000);

  /// Leaf-set exchange cadence: fast while the ring is converging after
  /// a join, then slow to keep steady-state control overhead negligible.
  static constexpr sim::SimDuration kLeafMaintenanceFast = sim::msec(300);
  static constexpr sim::SimDuration kLeafMaintenanceSlow = sim::msec(2000);
  static constexpr int kFastMaintenanceRounds = 10;
  /// Slow-phase neighbor probes run every Nth maintenance round.
  static constexpr int kSlowProbeEvery = 4;

  PastryNode(sim::Simulator& simulator, sim::Network& network,
             sim::NodeIndex addr, NodeId128 id);
  ~PastryNode();

  PastryNode(const PastryNode&) = delete;
  PastryNode& operator=(const PastryNode&) = delete;

  const NodeId128& id() const { return id_; }
  sim::NodeIndex addr() const { return addr_; }
  PeerRef self() const { return PeerRef{id_, addr_}; }

  /// First node of the overlay: becomes ready immediately.
  void bootstrap_as_first();

  /// Joins via `seed` (an already-joined node). `done(success)` fires when
  /// the root's state transfer has been installed and announcements sent.
  void join_via(sim::NodeIndex seed, std::function<void(bool)> done);

  bool ready() const { return ready_; }

  /// Routes `inner` (of `inner_size` bytes) toward the root of `key`.
  void route(const NodeId128& key, sim::MessagePtr inner,
             std::int64_t inner_size);

  /// Handler invoked when this node is the root for a non-overlay inner
  /// payload (application use of routing).
  void set_deliver_handler(DeliverHandler handler) {
    deliver_handler_ = std::move(handler);
  }

  // --- DHT ---
  void dht_put(const NodeId128& key, std::string value, bool append,
               PutCallback done);
  void dht_get(const NodeId128& key, GetCallback done);

  /// Values this node stores locally as a root or replica (tests).
  const std::map<NodeId128, std::vector<std::string>>& local_store() const {
    return store_;
  }

  /// Forgets a failed peer everywhere (leaf set + routing table). Invoked
  /// by upper layers when a peer stops responding.
  void purge_peer(sim::NodeIndex peer_addr);

  // --- Introspection for tests and benchmarks ---
  const LeafSet& leaf_set() const { return leaves_; }
  const RoutingTable& routing_table() const { return table_; }
  /// All distinct peers this node knows about.
  std::vector<PeerRef> known_peers() const;
  /// The next hop this node would choose for `key` (no side effects).
  PeerRef next_hop(const NodeId128& key) const;

 private:
  // Overlay packets, one overload per kind registered on the network.
  void receive(const RoutedMessage& m);
  void receive(const JoinStateInfo& info);
  void receive(const Announce& ann);
  void receive(const LeafSetExchange& lx);
  void receive(const DhtAck& ack);
  void receive(const DhtGetReply& reply);
  void receive(const DhtReplicate& repl);

  void start_maintenance();
  void run_maintenance();
  void send_neighbor_probe();
  void forward(const RoutedMessage& m);
  void handle_routed(const RoutedMessage& m);
  void deliver_at_root(const RoutedMessage& m);
  void send_join_state(const PeerRef& joiner, bool as_root);
  void learn(const PeerRef& peer);
  void replicate_to_leaves(const NodeId128& key);
  RequestId next_request_id() { return ++request_counter_; }
  void send_direct(sim::NodeIndex to, std::int64_t size,
                   sim::MessagePtr msg);

  sim::Simulator& simulator_;
  sim::Network& network_;
  sim::NodeIndex addr_;
  NodeId128 id_;
  LeafSet leaves_;
  RoutingTable table_;
  bool ready_ = false;

  // Join in progress.
  std::function<void(bool)> join_done_;
  sim::EventId join_timeout_event_ = 0;
  sim::EventId maintenance_event_ = 0;
  int maintenance_rounds_ = 0;

  // DHT storage (root + replicas).
  std::map<NodeId128, std::vector<std::string>> store_;

  // Outstanding RPCs.
  struct PendingPut {
    PutCallback done;
    sim::EventId timeout_event;
  };
  struct PendingGet {
    GetCallback done;
    sim::EventId timeout_event;
  };
  std::unordered_map<RequestId, PendingPut> pending_puts_;
  std::unordered_map<RequestId, PendingGet> pending_gets_;
  RequestId request_counter_ = 0;

  DeliverHandler deliver_handler_;
};

}  // namespace rasc::overlay
