// Coordinator shard: batched admission against a leased capacity view.
//
// The sharded control plane replaces the one-coordinator-per-request
// model with K coordinator shards, each on its own home node. Apps hash
// to exactly one shard; the shard queues incoming requests, and on a
// fixed batch cadence drains the queue, composing every pending request
// against ONE snapshot of its lease view (see core/lease_manager.hpp) —
// no per-request stats round-trips on the admission path. The order the
// batch is admitted in is a pluggable policy: FIFO, smallest demand
// first (maximize admission count), or highest value first (maximize
// admitted rate).
//
// Contention between shards is resolved by the node-side lease granters:
// a deploy spending a stale or overdrawn lease NACKs, the shard
// invalidates its view of the NACKing nodes, refreshes stats with a
// short scoped query, and re-composes the app against what remains of
// its lease (the failed attempt's view debits are NOT re-credited inline
// — landed deploys free node bandwidth only when the rollback teardown
// reaches them, so the funds come back with the next renewal) — the
// epoch/dedup machinery of the deploy protocol guarantees the losing
// attempt's partial state is rolled back exactly once.
//
// Determinism: everything is driven by simulator timers and packet
// arrivals at the home node, so sharded runs replay byte-identically for
// a fixed seed.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/composer.hpp"
#include "core/coordinator.hpp"
#include "core/lease_manager.hpp"
#include "core/plan_math.hpp"
#include "monitor/stats_protocol.hpp"
#include "obs/metric_registry.hpp"
#include "overlay/pastry_node.hpp"
#include "overlay/registry.hpp"
#include "runtime/rehome_messages.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace rasc::runtime {
class LeaseGranter;
}

namespace rasc::core {

/// Routes a request to its owning shard's admission queue. Carries the
/// submitting host's outcome callback as a same-process convenience (the
/// simulation never serializes callbacks; wire size models the request).
struct SubmitShardMsg final : sim::Message {
  static constexpr char kKind[] = "core.submit_shard";
  const char* kind() const override { return kKind; }
  ServiceRequest request;
  sim::SimTime stream_start = 0;
  sim::SimTime stream_stop = 0;
  Coordinator::Callback done;

  std::int64_t wire_size() const {
    std::int64_t services = 0;
    for (const auto& ss : request.substreams) {
      services += std::int64_t(ss.services.size());
    }
    return 64 + std::int64_t(request.substreams.size()) * 16 +
           services * 16;
  }
};

enum class AdmissionPolicy {
  kFifo,            // arrival order
  kSmallestDemand,  // ascending total requested rate
  kHighestValue,    // descending total requested rate
};

/// Parses "fifo" / "smallest-demand" / "highest-value"; throws
/// std::invalid_argument otherwise.
AdmissionPolicy parse_admission_policy(const std::string& name);

class CoordinatorShard {
 public:
  /// Re-compositions attempted after a lease-contention NACK before the
  /// request is rejected.
  static constexpr int kRepairAttempts = 2;
  /// Reply deadline of the scoped stats refresh on the repair path.
  static constexpr sim::SimDuration kRefreshTimeout = sim::msec(500);
  /// Times a request whose composition fails against the current view is
  /// re-queued (after an off-cycle renewal enlarges the shard's grants)
  /// before the failure is final. Covers cold or recently-idle shards
  /// whose grants shrank to the idle floor.
  static constexpr int kCapacityRetries = 3;
  /// Delay before a capacity-retried request rejoins the queue: long
  /// enough for the renewal round-trip its retry depends on.
  static constexpr sim::SimDuration kRetryDelay = sim::msec(600);
  /// Reply-collection window of a standby's reconstruction broadcast;
  /// replies arriving later are ignored (deterministic adoption deadline).
  static constexpr sim::SimDuration kReconstructTimeout = sim::sec(1);

  struct Params {
    std::int32_t shard = 0;
    /// Fleet size (the lease view covers every node).
    std::size_t nodes = 0;
    /// Queue drain cadence; all requests pending at a tick are composed
    /// against one lease-view snapshot.
    sim::SimDuration batch_window = sim::msec(100);
    AdmissionPolicy policy = AdmissionPolicy::kFifo;
    LeaseManager::Params lease;

    // --- Standby mode (shard re-homing) ---
    /// This instance shadows `primary_home` from its own node: it stays
    /// dormant (no leases, no batches) until its local granter reports
    /// the primary's lease lapsed, then takes the shard over — fencing
    /// the primary with a takeover epoch, reconstructing the shard's
    /// state from the fleet, and adopting the orphaned apps.
    bool standby = false;
    sim::NodeIndex primary_home = sim::kInvalidNode;
    /// Watchdog poll period of the local holder_suspect signal.
    sim::SimDuration standby_check = sim::msec(500);
    /// Deadline stamped on adopted requests: the original SLO is not
    /// recoverable from runtime state, so the plane's configured default
    /// applies.
    double default_deadline_ms = 0;
  };

  /// Adoption callout: the experiment runner re-attaches supervision and
  /// rate adaptation for an app this shard adopted (mirrors what it does
  /// for a freshly admitted submission). `home` is the adopting shard's
  /// home node; `providers` the re-discovered service provider lists.
  using AdoptHandler = std::function<void(
      sim::NodeIndex home, const ServiceRequest& request,
      const runtime::AppPlan& plan,
      const std::map<std::string, std::vector<sim::NodeIndex>>& providers,
      sim::SimTime stream_stop)>;

  /// `coordinator` is the home node's (phase-4 deployment) coordinator,
  /// `composer` this shard's private composition algorithm. `registry`
  /// is the deployment-wide metric registry; shard.* cells are labeled
  /// with the home node.
  CoordinatorShard(sim::Simulator& simulator, sim::Network& network,
                   overlay::PastryNode& pastry, monitor::StatsAgent& stats,
                   Coordinator& coordinator,
                   const runtime::ServiceCatalog& catalog,
                   std::unique_ptr<Composer> composer, Params params,
                   obs::MetricRegistry* registry = nullptr);
  ~CoordinatorShard();

  CoordinatorShard(const CoordinatorShard&) = delete;
  CoordinatorShard& operator=(const CoordinatorShard&) = delete;

  /// Starts lease renewals and the batch drain cadence at `at`.
  void start(sim::SimTime at);

  /// Which shard of `shards` owns `app` (stable hash, uniform).
  static std::int32_t shard_of(runtime::AppId app, int shards);

  /// Drain order of (seq, total demand kbps) entries under `policy`,
  /// as indices into `jobs` — exposed for unit tests.
  static std::vector<std::size_t> admission_order(
      AdmissionPolicy policy,
      const std::vector<std::pair<std::uint64_t, double>>& jobs);

  sim::NodeIndex home() const { return home_; }
  const LeaseManager& leases() const { return lease_; }
  LeaseManager& leases() { return lease_; }

  /// Wires in the home node's granter — the standby's death detector
  /// (its view of the primary's lease lapsing is the takeover trigger).
  void set_local_granter(const runtime::LeaseGranter* granter) {
    local_granter_ = granter;
  }
  void set_adopt_handler(AdoptHandler handler) {
    adopt_handler_ = std::move(handler);
  }
  /// False only for a dormant standby.
  bool active() const { return active_; }

 private:
  struct Job {
    ServiceRequest request;
    sim::SimTime stream_start = 0;
    sim::SimTime stream_stop = 0;
    sim::SimTime enqueued_at = 0;
    std::uint64_t seq = 0;
    Coordinator::Callback done;

    std::map<std::string, std::vector<sim::NodeIndex>> provider_addrs;
    /// View-side debits of the last composed plan (returned on NACK).
    std::map<sim::NodeIndex, LeaseDebit> debits;
    int attempts = 0;
    int capacity_retries = 0;
  };
  using JobPtr = std::shared_ptr<Job>;

  /// Pending adoption: the rebuilt request/plan waiting on provider
  /// re-discovery before the adopt handler fires.
  struct AdoptDiscovery {
    ServiceRequest request;
    runtime::AppPlan plan;
    std::map<std::string, std::vector<sim::NodeIndex>> providers;
    sim::SimTime stream_stop = 0;
    std::size_t outstanding = 0;
  };

  // Registered per kind at construction, at the home node (the lease
  // manager registers the grant/revoke kinds itself).
  void receive(const SubmitShardMsg& submit);
  void receive(const runtime::ShardRecoverReplyMsg& reply);
  void enqueue(const SubmitShardMsg& msg);
  void drain();
  // --- Standby takeover state machine: suspect -> fence -> reconstruct
  // -> adopt (DESIGN.md §17) ---
  void standby_watch();
  void takeover();
  void adopt_collected();
  void adopt_app(runtime::AppId app);
  void adopt_discover(const ServiceRequest& request,
                      const runtime::AppPlan& plan, sim::SimTime stream_stop);
  /// Tears down the surviving fragments of an app whose reconstructed
  /// state cannot be adopted (a component or endpoint died with the
  /// primary): live sources of a broken chain keep emitting units that
  /// can never be delivered, and stranded components hold reservations
  /// nobody will release.
  void reclaim_app(runtime::AppId app, const std::set<sim::NodeIndex>& holders);
  /// Re-queues a job whose composition failed against the current view
  /// (bounded; fires an off-cycle renewal first). False when the retry
  /// budget is exhausted and the failure is final.
  bool retry_capacity(const JobPtr& job);
  void compose_and_dispatch(const JobPtr& job);
  void on_outcome(const JobPtr& job, const SubmitOutcome& outcome);
  void repair(const JobPtr& job, const SubmitOutcome& outcome);
  void reject(const JobPtr& job, ComposeResult result);

  sim::Simulator& simulator_;
  sim::Network& network_;
  overlay::ServiceRegistry registry_;
  monitor::StatsAgent& stats_;
  Coordinator& coordinator_;
  const runtime::ServiceCatalog& catalog_;
  std::unique_ptr<Composer> composer_;
  Params params_;
  sim::NodeIndex home_;
  LeaseManager lease_;

  std::vector<JobPtr> ready_;
  std::set<runtime::AppId> seen_apps_;
  std::uint64_t seq_counter_ = 0;

  /// False while a standby is dormant; flipped by takeover().
  bool active_ = true;
  const runtime::LeaseGranter* local_granter_ = nullptr;
  AdoptHandler adopt_handler_;
  sim::SimTime takeover_at_ = 0;
  std::uint64_t recover_request_id_ = 0;
  std::vector<runtime::ShardRecoverReplyMsg> recover_replies_;
  bool adopted_ = false;
  /// Source-rate demand submitted since the last renewal sweep, and its
  /// max-decayed value actually advertised (see the demand provider).
  double demand_window_kbps_ = 0;
  double demand_ewma_kbps_ = 0;

  std::unique_ptr<obs::MetricRegistry> owned_metrics_;
  obs::MetricRegistry* metrics_;
  obs::Counter* submitted_;
  obs::Counter* admitted_;
  obs::Counter* rejected_;
  obs::Counter* batches_;
  obs::Counter* repairs_;
  obs::Counter* retries_;
  obs::Histogram* batch_size_;
  obs::Histogram* latency_ms_;
  // Lazily-created re-homing cells: runs without standbys export
  // byte-identical snapshots.
  obs::Counter* rehomes_ = nullptr;
  obs::Counter* adopted_apps_ = nullptr;
  obs::Counter* reclaimed_apps_ = nullptr;
  obs::Histogram* rehome_time_ = nullptr;
};

}  // namespace rasc::core
