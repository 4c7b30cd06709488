// A Host bundles everything that lives on one simulated node: the resource
// monitor, the stats agent, the stream runtime and the composition
// coordinator. Each subsystem registers its own packet kinds in the node's
// row of the network dispatch table (as do the overlay node, a coordinator
// shard or a gossip agent homed here); the Host adds the node's catch-all,
// which logs a packet no subsystem here consumes and drops it uncounted.
#pragma once

#include <memory>

#include "core/coordinator.hpp"
#include "core/mincost_composer.hpp"
#include "core/rate_adapter.hpp"
#include "core/supervisor.hpp"
#include "monitor/node_monitor.hpp"
#include "monitor/stats_protocol.hpp"
#include "overlay/builder.hpp"
#include "runtime/lease_granter.hpp"
#include "runtime/node_runtime.hpp"

namespace rasc::exp {

class Host {
 public:
  /// `registry`/`trace` are the deployment-wide metric registry and
  /// data-unit lifecycle trace shared by every subsystem on this node;
  /// when null each subsystem owns a private registry (and no tracing).
  Host(sim::Simulator& simulator, sim::Network& network,
       overlay::PastryNode& pastry, const runtime::ServiceCatalog& catalog,
       monitor::NodeMonitor::Params monitor_params,
       runtime::NodeRuntime::Params runtime_params,
       obs::MetricRegistry* registry = nullptr,
       obs::UnitTrace* trace = nullptr,
       core::Coordinator::DeployPolicy deploy_policy = {});

  monitor::NodeMonitor& monitor() { return *monitor_; }
  monitor::StatsAgent& stats_agent() { return *stats_; }
  runtime::NodeRuntime& runtime() { return *runtime_; }
  core::Coordinator& coordinator() { return *coordinator_; }
  const runtime::NodeRuntime& runtime() const { return *runtime_; }
  /// Supervisor bound to this node's coordinator, recomposing starved
  /// applications with min-cost composition.
  core::AppSupervisor& supervisor() { return *supervisor_; }

  /// Constructs this node's capacity-lease granter on first call and
  /// wires it into the runtime (sharded control plane; see
  /// runtime/lease_granter.hpp). Lazy for the same reason as the
  /// adapter: unsharded runs must not create lease.* registry cells.
  runtime::LeaseGranter& enable_lease_granter(
      const runtime::LeaseGranter::Params& params);
  /// The granter, or nullptr while enable_lease_granter was never called.
  runtime::LeaseGranter* lease_granter() { return granter_.get(); }

  /// Constructs this node's rate adapter on first call (idempotent for
  /// identical params; later calls return the existing instance) and
  /// wires it into the supervisor as the first-line starvation response.
  /// Lazy on purpose: a host that never adapts must not create adapt.*
  /// registry cells, keeping adapt-disabled runs byte-identical.
  core::RateAdapter& enable_adapter(const core::RateAdapter::Params& params);
  /// The adapter, or nullptr while enable_adapter was never called.
  core::RateAdapter* adapter() { return adapter_.get(); }

 private:
  std::unique_ptr<monitor::NodeMonitor> monitor_;
  std::unique_ptr<monitor::StatsAgent> stats_;
  std::unique_ptr<runtime::NodeRuntime> runtime_;
  std::unique_ptr<core::Coordinator> coordinator_;
  std::unique_ptr<core::MinCostComposer> recovery_composer_;
  std::unique_ptr<core::AppSupervisor> supervisor_;
  // Lazy-construction context for the adapter (the ctor refs above do not
  // survive as members elsewhere).
  sim::Simulator* simulator_ = nullptr;
  sim::Network* network_ = nullptr;
  const runtime::ServiceCatalog* catalog_ = nullptr;
  obs::MetricRegistry* registry_ = nullptr;
  sim::NodeIndex node_ = sim::kInvalidNode;
  /// Declared after supervisor_ so pending adapter callbacks die first.
  std::unique_ptr<core::RateAdapter> adapter_;
  std::unique_ptr<runtime::LeaseGranter> granter_;
};

}  // namespace rasc::exp
