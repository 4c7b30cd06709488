// Node-side composition coordinator.
//
// Runs the full RASC pipeline for a request submitted at this node
// (paper §3.1): (1) discover providers of each requested service through
// the Pastry DHT, (2) gather utilization statistics from those nodes over
// the network, (3) run the composition algorithm, (4) instantiate the
// components and start the stream. Every step exchanges real messages in
// the simulation, so composition itself costs time and bandwidth.
#pragma once

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/composer.hpp"
#include "monitor/stats_protocol.hpp"
#include "obs/metric_registry.hpp"
#include "overlay/pastry_node.hpp"
#include "overlay/registry.hpp"
#include "runtime/node_runtime.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace rasc::core {

struct SubmitOutcome {
  ComposeResult compose;
  /// Time from submission until the stream was fully deployed (or the
  /// request failed).
  sim::SimDuration composition_latency = 0;
  /// Providers discovered for each requested service (addresses only;
  /// stats are re-queried when needed). Lets the caller hand an admitted
  /// app to the rate adapter without a second discovery round.
  std::map<std::string, std::vector<sim::NodeIndex>> providers;
  /// Nodes that NACKed a deploy message of this attempt (lease contention
  /// or local failure). A sharded caller repairs its plan against these
  /// instead of treating the rejection as final.
  std::vector<sim::NodeIndex> nacked;
  /// Home of the coordinator shard that admitted the app (kInvalidNode on
  /// the unsharded path). After a standby takeover this is the standby's
  /// node, not the hash home — the caller must attach the app's adapter
  /// and supervisor here.
  sim::NodeIndex admitted_by = sim::kInvalidNode;
};

class Coordinator {
 public:
  using Callback = std::function<void(const SubmitOutcome&)>;

  /// Reliability knobs of the deployment phase. Defaults reproduce the
  /// legacy single-shot protocol exactly — a run with the default policy
  /// is event-for-event identical to older builds. With retransmission
  /// and rollback on, deployment is exactly-once-effective under control
  /// packet loss, duplication and reordering (receiver-side dedup and
  /// epoch checks live in runtime::NodeRuntime).
  struct DeployPolicy {
    /// Retransmissions allowed per deploy message after the original
    /// send (0 = single-shot). Spacing follows the capped_backoff ladder
    /// kRetransmitBase, 2x, ... up to kRetransmitMax; the overall
    /// kDeployTimeout deadline is unchanged.
    int retransmit_budget = 0;
    /// On NACK or deadline, send epoch-stamped teardowns to every node
    /// this deployment targeted, releasing partial reservations.
    bool rollback = false;

    bool enabled() const { return retransmit_budget > 0 || rollback; }
  };

  static constexpr sim::SimDuration kDeployTimeout = sim::msec(5000);
  /// Deploy retransmission ladder (DeployPolicy::retransmit_budget).
  static constexpr sim::SimDuration kRetransmitBase = sim::msec(400);
  static constexpr sim::SimDuration kRetransmitMax = sim::msec(3200);
  /// DHT lookup attempts per service before the request is rejected.
  static constexpr int kDiscoveryAttempts = 3;
  /// Backoff ladder between retries of a failed lookup: 300ms, 600ms, ...
  /// capped so a flapping overlay root is not hammered in lockstep.
  static constexpr sim::SimDuration kDiscoveryBackoff = sim::msec(300);
  static constexpr sim::SimDuration kDiscoveryBackoffMax = sim::msec(5000);

  /// `registry` is the deployment-wide metric registry; the coordinator
  /// owns a private one when null. Submission outcomes and composition
  /// latency are published under compose.* with this node's label.
  Coordinator(sim::Simulator& simulator, sim::Network& network,
              overlay::PastryNode& pastry, monitor::StatsAgent& stats,
              const runtime::ServiceCatalog& catalog,
              obs::MetricRegistry* registry = nullptr);
  Coordinator(sim::Simulator& simulator, sim::Network& network,
              overlay::PastryNode& pastry, monitor::StatsAgent& stats,
              const runtime::ServiceCatalog& catalog,
              obs::MetricRegistry* registry, DeployPolicy policy);
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Composes and deploys `request` using `composer`. The stream runs
  /// [stream_start, stream_stop). `done` fires once deployment completes
  /// or the request is rejected.
  void submit(const ServiceRequest& request, Composer& composer,
              sim::SimTime stream_start, sim::SimTime stream_stop,
              Callback done);

  /// A deployment whose discovery and composition already happened
  /// elsewhere (a coordinator shard composing a whole batch against its
  /// lease view). Runs phase 4 only.
  struct PreparedSubmit {
    ServiceRequest request;
    ComposeResult compose;
    std::map<std::string, std::vector<sim::NodeIndex>> providers;
    sim::SimTime stream_start = 0;
    sim::SimTime stream_stop = 0;
    /// Latency baseline (0: deployment starts the clock now).
    sim::SimTime submitted_at = 0;
    /// Lease stamp for every component/sink deploy of this attempt
    /// (-1: unstamped legacy deploy).
    std::int32_t shard = -1;
    std::function<std::uint64_t(sim::NodeIndex)> lease_epoch_of;
    Callback done;
  };
  /// Deploys an already-composed plan, stamping each component/sink
  /// message with (shard, lease_epoch_of(target)). NACKed nodes are
  /// reported through SubmitOutcome::nacked for plan repair.
  void submit_prepared(PreparedSubmit prepared);

  /// Fast-forwards the deploy-epoch counter to at least `floor`. A
  /// standby adopting a dead coordinator's apps calls this with the
  /// highest epoch the fleet recorded for them, so this coordinator's
  /// subsequent attempts supersede (rather than lose to) the dead
  /// primary's stamps at the epoch gate.
  void advance_epochs(std::uint64_t floor) {
    epoch_counter_ = std::max(epoch_counter_, floor);
  }

  /// The node this coordinator lives on.
  sim::NodeIndex node() const { return node_; }

 private:
  struct Pending {
    ServiceRequest request;
    Composer* composer = nullptr;
    sim::SimTime submitted_at = 0;
    sim::SimTime stream_start = 0;
    sim::SimTime stream_stop = 0;
    Callback done;

    std::map<std::string, std::vector<sim::NodeIndex>> provider_addrs;

    ComposeResult compose_result;
    std::set<std::uint64_t> awaiting_acks;
    bool any_nack = false;
    /// Senders of failed acks (lease contention repair input).
    std::vector<sim::NodeIndex> nacked;
    /// Lease stamp of this attempt (-1 = legacy unstamped deploy).
    std::int32_t shard = -1;
    std::function<std::uint64_t(sim::NodeIndex)> lease_epoch_of;
    sim::EventId deploy_timeout = 0;
    /// Epoch stamped on every message of this deployment attempt.
    std::uint64_t epoch = 0;
    /// Every node that received a deploy message (rollback recipients).
    std::set<sim::NodeIndex> deploy_targets;
    /// All component/sink acks arrived and the DeploySourceMsgs went out;
    /// acks routed here from now on are source acks (absorbed only).
    bool sources_started = false;
  };

  /// Retransmission state of one in-flight deploy message.
  struct Retransmit {
    sim::NodeIndex target = sim::kInvalidNode;
    sim::MessagePtr msg;
    std::int64_t size = 0;
    int attempts = 0;  // retransmissions performed so far
    sim::EventId timer = 0;
  };

  void start_stats_phase(const std::shared_ptr<Pending>& pending);
  void compose_and_deploy(const std::shared_ptr<Pending>& pending,
                          const std::vector<monitor::NodeStats>& stats);
  void deploy(const std::shared_ptr<Pending>& pending);
  /// DeployAck from node `from` (registered per kind at construction).
  void receive(const runtime::DeployAck& ack, sim::NodeIndex from);
  void finish(const std::shared_ptr<Pending>& pending, bool deployed);
  /// Arms the retransmission ladder for `rid` (policy budget > 0 only).
  void arm_retransmit(std::uint64_t rid, sim::NodeIndex target,
                      sim::MessagePtr msg, std::int64_t size);
  void schedule_retransmit(std::uint64_t rid);
  void clear_retransmit(std::uint64_t rid);
  /// Epoch-stamped teardown to every node this attempt targeted.
  void roll_back(const std::shared_ptr<Pending>& pending);
  /// Lazily-created deploy.* cells: runs that never retransmit, roll
  /// back or see stale acks keep their snapshots byte-identical.
  obs::Counter& lazy_counter(const char* name, obs::Counter*& slot);

  sim::Simulator& simulator_;
  sim::Network& network_;
  overlay::PastryNode& pastry_;
  overlay::ServiceRegistry registry_;
  monitor::StatsAgent& stats_;
  const runtime::ServiceCatalog& catalog_;
  sim::NodeIndex node_;

  std::unique_ptr<obs::MetricRegistry> owned_metrics_;
  obs::MetricRegistry* metrics_;
  obs::Counter* submitted_;
  obs::Counter* admitted_;
  obs::Counter* rejected_;
  obs::Histogram* latency_ms_;

  DeployPolicy policy_;
  std::uint64_t deploy_counter_ = 0;
  /// Deployment attempts stamped by this coordinator. App ids are unique
  /// per request (recoveries get fresh ids), so a per-coordinator counter
  /// is monotonic per app.
  std::uint64_t epoch_counter_ = 0;
  // ack request id -> owning pending request
  std::map<std::uint64_t, std::shared_ptr<Pending>> ack_routing_;
  // in-flight retransmission state, by request id
  std::map<std::uint64_t, Retransmit> retx_;
  // Lazy cells (see lazy_counter).
  obs::Counter* retries_ = nullptr;
  obs::Counter* rollbacks_ = nullptr;
  obs::Counter* stale_ack_ = nullptr;
};

}  // namespace rasc::core
