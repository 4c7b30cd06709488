// Per-node stream-processing runtime.
//
// Hosts the components deployed on a simulated node, runs the single-CPU
// scheduler loop (paper §3.4), forwards processed units downstream, hosts
// destination sinks and stream sources, and feeds the resource monitor
// (drops, queue length, reservations).
//
// Telemetry: every tally (received/processed/dropped counts, sink
// delivery stats, source emissions) is an obs::MetricRegistry cell under
// runtime.* / sink.* / source.* names labeled with this node; scheduler
// outcomes additionally feed the per-unit lifecycle trace when one is
// attached. Without an external registry the runtime owns a private one,
// so the emit path is identical either way.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>

#include "monitor/node_monitor.hpp"
#include "obs/metric_registry.hpp"
#include "obs/unit_trace.hpp"
#include "runtime/component.hpp"
#include "runtime/deploy_messages.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/service.hpp"
#include "runtime/sink.hpp"
#include "runtime/source.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace rasc::runtime {

class LeaseGranter;
struct ShardRecoverRequestMsg;

class NodeRuntime {
 public:
  /// Ready-queue bound of the node's CPU scheduler.
  static constexpr std::size_t kMaxReadyQueue = 64;

  struct Params {
    SchedulingPolicy policy = SchedulingPolicy::kLeastLaxity;
    /// Orphan reaper lease (0 = reaper off, the default). Components and
    /// sinks of an app that never streamed a unit through this node
    /// self-garbage-collect once this long passes without any control
    /// message, data unit, or supervisor probe for the app — covering a
    /// coordinator that died mid-deploy and can never roll back.
    sim::SimDuration orphan_lease = 0;
  };

  /// `registry` is the deployment-wide metric registry (null: the runtime
  /// owns a private one); `trace` the optional data-unit lifecycle trace.
  NodeRuntime(sim::Simulator& simulator, sim::Network& network,
              sim::NodeIndex node, monitor::NodeMonitor& node_monitor,
              const ServiceCatalog& catalog, Params params,
              obs::MetricRegistry* registry = nullptr,
              obs::UnitTrace* trace = nullptr);
  NodeRuntime(sim::Simulator& simulator, sim::Network& network,
              sim::NodeIndex node, monitor::NodeMonitor& node_monitor,
              const ServiceCatalog& catalog);
  ~NodeRuntime();

  NodeRuntime(const NodeRuntime&) = delete;
  NodeRuntime& operator=(const NodeRuntime&) = delete;

  /// Wires in this node's capacity-lease granter (sharded control plane).
  /// With a granter set, component/sink deploys stamped with a shard are
  /// debited against that shard's lease before instantiation and NACK
  /// when the grant cannot cover them; teardown returns the debits. Null
  /// (the default) keeps the legacy lease-free behavior byte-identical.
  void set_lease_granter(LeaseGranter* granter) { granter_ = granter; }

  // --- Local deployment API (the message handlers call these; tests and
  // oracle-mode experiments may call them directly) ---

  /// Instantiates a component. Reserves input and output bandwidth with
  /// the monitor. Throws std::out_of_range for an unknown service.
  void deploy_component(const ComponentKey& key, const std::string& service,
                        double rate_units_per_sec,
                        std::int64_t in_unit_bytes,
                        std::vector<Placement> next);

  void deploy_sink(AppId app, std::int32_t substream,
                   double rate_units_per_sec, std::int64_t unit_bytes);

  void deploy_source(AppId app, std::int32_t substream,
                     double rate_units_per_sec, std::int64_t unit_bytes,
                     std::vector<Placement> first_stage,
                     sim::SimTime start_at, sim::SimTime stop_at);

  // --- Delta re-allocation (rate adapter) ---

  /// Re-rates a deployed component and rewrites its downstream split,
  /// adjusting bandwidth/CPU reservations by the delta. No-op when the
  /// component is not deployed here (a stale delta).
  void update_component(const ComponentKey& key, double rate_units_per_sec,
                        std::int64_t in_unit_bytes,
                        std::vector<Placement> next);

  /// Retires one component instance: releases its reservations and purges
  /// its queued units (counted unroutable). The app keeps running.
  void remove_component(const ComponentKey& key);

  /// Rewrites a running source's stage-0 split and emission rate,
  /// adjusting the output reservation. No-op when no source is here.
  void update_source_split(AppId app, std::int32_t substream,
                           double rate_units_per_sec,
                           std::vector<Placement> first_stage);

  /// Removes all state of `app` on this node and releases reservations.
  void teardown_app(AppId app);

  // --- Introspection ---
  const Component* find_component(const ComponentKey& key) const;
  const StreamSink* find_sink(AppId app, std::int32_t substream) const;
  const StreamSource* find_source(AppId app, std::int32_t substream) const;
  std::size_t component_count() const { return components_.size(); }

  /// Bandwidth (in+out kbps) currently reserved on this node for `app`
  /// across its components, sinks and sources. Deterministic summation
  /// order; 0 once the app is fully torn down (leak detection in tests
  /// and the deploy-reliability bench).
  double reserved_kbps_for_app(AppId app) const;

  /// Sum of units emitted by every source hosted on this node.
  std::int64_t total_emitted() const;
  /// Merged stats of every sink hosted on this node (deterministic
  /// (app, substream) merge order).
  SinkStats aggregate_sink_stats() const;

  std::int64_t units_received() const { return units_received_->value(); }
  std::int64_t units_dropped_queue_full() const {
    return dropped_queue_full_->value();
  }
  std::int64_t units_dropped_deadline() const {
    return dropped_deadline_->value();
  }
  std::int64_t units_processed() const { return units_processed_->value(); }
  /// Units addressed to a component/sink this node does not host (stale
  /// plans, failures). They are dropped and counted.
  std::int64_t units_unroutable() const { return units_unroutable_->value(); }

  sim::NodeIndex node() const { return node_; }
  /// The registry this runtime emits through (shared or private).
  obs::MetricRegistry& metrics() { return *registry_; }

  /// Packs a stream endpoint identity into the endpoint-table key. App
  /// ids and substream indices are non-negative and fit 32 bits each.
  static std::uint64_t endpoint_key(AppId app, std::int32_t substream) {
    return (std::uint64_t(std::uint32_t(app)) << 32) |
           std::uint64_t(std::uint32_t(substream));
  }

 private:
  /// Sink and/or source endpoint of one (app, substream) on this node,
  /// plus the bandwidth reserved for each at deploy time.
  struct Endpoint {
    std::optional<StreamSink> sink;
    std::unique_ptr<StreamSource> source;
    double sink_reserved_kbps = 0;
    double source_reserved_kbps = 0;
    /// Planned rates/sizes as deployed (the sink/source objects keep only
    /// derived state — e.g. the source's truncated emission period — so
    /// the exact figures are recorded here for shard-takeover
    /// reconstruction).
    double sink_rate_ups = 0;
    std::int64_t sink_unit_bytes = 0;
    double source_rate_ups = 0;
    sim::SimTime source_stop_at = 0;

    bool empty() const { return !sink.has_value() && source == nullptr; }
  };

  /// One hosted component instance and what it reserved with the monitor.
  /// Whatever replaces or removes the instance (redeploy over its key,
  /// remove_component, teardown_app) releases the reservation with it.
  struct Hosted {
    std::unique_ptr<Component> instance;
    double in_kbps = 0;
    double out_kbps = 0;
    double cpu_fraction = 0;
  };

  /// Per-app control-plane state: the deployment epoch ordering rule, the
  /// rollback tombstone, and the orphan-reaper lease.
  struct AppControl {
    std::uint64_t epoch = 0;
    /// Tombstoned by an epoch-stamped teardown: deploys of `epoch` (or
    /// older) arriving late are dropped instead of re-instantiated.
    bool retired = false;
    /// A data unit of this app passed through here — the app reached
    /// streaming, so it is never an orphan.
    bool streamed = false;
    sim::SimTime lease_renewed = 0;
  };

  // Packet handlers, registered per kind at construction. Deploy messages
  // are exactly-once-effective: duplicates (same requester and request
  // id) re-ack the recorded verdict without re-applying, and messages
  // from a stale or rolled-back epoch are dropped (deploy_messages.hpp).
  void on_data_unit(const std::shared_ptr<const DataUnit>& unit);
  void receive(const DeployComponentMsg& dc);
  void receive(const DeploySinkMsg& ds);
  void receive(const DeploySourceMsg& src);
  void receive(const UpdateComponentMsg& uc);
  void receive(const AddPlacementMsg& ap);
  void receive(const RemovePlacementMsg& rp);
  void receive(const UpdateSourceSplitMsg& us);
  void receive(const TeardownAppMsg& td);
  void receive(const SinkHealthRequest& hq);
  /// Answers a standby's shard-state reconstruction query with this
  /// node's ledger slice and full runtime state (sorted, deterministic).
  void receive(const ShardRecoverRequestMsg& req);
  void maybe_dispatch();
  void finish_unit(sim::SimDuration actual);
  /// Called before `component` is destroyed: a unit it holds on the CPU
  /// finishes unroutable instead of reaching the dangling pointer.
  void forget_running(const Component* component);
  /// Returns `hosted`'s bandwidth and CPU reservation to the monitor.
  void release(const Hosted& hosted);
  void send_ack(sim::NodeIndex to, std::uint64_t request_id, bool ok);
  double reservation_kbps(double rate_ups, std::int64_t unit_bytes) const;

  /// Dedup + epoch gate shared by the three deploy-message handlers.
  /// True when the message must be applied; duplicates are re-acked and
  /// stale epochs dropped (counted) here.
  bool admit_deploy(AppId app, std::uint64_t epoch, sim::NodeIndex requester,
                    std::uint64_t request_id);
  void schedule_reap();
  void reap_orphans();
  /// Lazily-created deploy.*/orphan.* cells: a run that never needs them
  /// leaves the registry snapshot byte-identical to older builds.
  obs::Counter& lazy_counter(const char* name, obs::Counter*& slot);

  /// Ascending (app, substream) key order — the deterministic iteration
  /// order every aggregate over the endpoint table uses.
  std::vector<std::uint64_t> sorted_endpoint_keys() const;

  /// Labels a per-endpoint metric; re-deployments of the same
  /// (app, substream) get a fresh incarnation suffix so their registry
  /// cells never alias.
  obs::Labels endpoint_labels(AppId app, std::int32_t substream,
                              std::uint32_t incarnation) const;

  /// True when any component or stream endpoint of `app` lives here.
  bool app_has_state(AppId app) const;

  sim::Simulator& simulator_;
  sim::Network& network_;
  sim::NodeIndex node_;
  monitor::NodeMonitor& monitor_;
  const ServiceCatalog& catalog_;
  Params params_;
  LeaseGranter* granter_ = nullptr;
  Scheduler scheduler_;
  bool cpu_busy_ = false;
  /// The unit holding the CPU while cpu_busy_; its component is null once
  /// torn down. Kept here so the finish event captures only {this, time}.
  ScheduledUnit running_;
  util::Xoshiro256 exec_rng_;

  std::unique_ptr<obs::MetricRegistry> owned_registry_;
  obs::MetricRegistry* registry_;
  obs::UnitTrace* trace_;

  std::unordered_map<ComponentKey, Hosted, ComponentKeyHash> components_;
  /// Instances replaced by a redeploy of their key. Units queued for them
  /// keep a pointer to them, so they live until their key's units are
  /// purged (remove_component, teardown_app).
  std::vector<std::unique_ptr<Component>> retired_;

  /// Stream endpoints keyed by endpoint_key(app, substream).
  std::unordered_map<std::uint64_t, Endpoint> endpoints_;
  /// Control-plane state of every app that was ever deployed here through
  /// messages (local-API deployments bypass it and are never reaped).
  std::unordered_map<AppId, AppControl> app_control_;
  /// Verdict of every applied deploy request, keyed by (requester,
  /// request_id) — request ids are only unique per coordinator.
  std::map<std::pair<sim::NodeIndex, std::uint64_t>, bool> seen_requests_;
  sim::EventId reap_event_ = 0;
  /// Deploy counts per endpoint key (never erased): metric incarnations.
  std::unordered_map<std::uint64_t, std::uint32_t> sink_incarnations_;
  std::unordered_map<std::uint64_t, std::uint32_t> source_incarnations_;

  obs::Counter* units_received_;
  obs::Counter* dropped_queue_full_;
  obs::Counter* dropped_deadline_;
  obs::Counter* units_processed_;
  obs::Counter* units_unroutable_;
  // Lazy cells (see lazy_counter).
  obs::Counter* dup_acks_ = nullptr;
  obs::Counter* stale_epoch_ = nullptr;
  obs::Counter* orphans_reaped_ = nullptr;
};

}  // namespace rasc::runtime
