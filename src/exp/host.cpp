#include "exp/host.hpp"

#include "util/logging.hpp"

namespace rasc::exp {

Host::Host(sim::Simulator& simulator, sim::Network& network,
           overlay::PastryNode& pastry,
           const runtime::ServiceCatalog& catalog,
           monitor::NodeMonitor::Params monitor_params,
           runtime::NodeRuntime::Params runtime_params,
           obs::MetricRegistry* registry, obs::UnitTrace* trace,
           core::Coordinator::DeployPolicy deploy_policy) {
  const sim::NodeIndex node = pastry.addr();
  simulator_ = &simulator;
  network_ = &network;
  catalog_ = &catalog;
  registry_ = registry;
  node_ = node;
  monitor_ = std::make_unique<monitor::NodeMonitor>(
      simulator, network, node, monitor_params, registry);
  stats_ = std::make_unique<monitor::StatsAgent>(simulator, network, node,
                                                 *monitor_);
  runtime_ = std::make_unique<runtime::NodeRuntime>(
      simulator, network, node, *monitor_, catalog, runtime_params, registry,
      trace);
  coordinator_ = std::make_unique<core::Coordinator>(
      simulator, network, pastry, *stats_, catalog, registry, deploy_policy);
  recovery_composer_ = std::make_unique<core::MinCostComposer>();
  supervisor_ = std::make_unique<core::AppSupervisor>(
      simulator, network, *coordinator_, *recovery_composer_, registry);

  network.set_handler(node, [](const sim::Packet& packet) {
    RASC_LOG(kWarn) << "host " << packet.dst << ": unhandled packet kind "
                    << (packet.payload ? packet.payload->kind() : "null");
  });

  // Data units tail-dropped at this node's port queues are congestion
  // losses this node caused: they feed the drop-ratio the composers see.
  monitor::NodeMonitor* monitor = monitor_.get();
  const sim::KindId unit_kind = network.kind_id(runtime::DataUnit::kKind);
  network.set_drop_handler(
      node, [monitor, unit_kind](const sim::Packet& packet, bool) {
        if (packet.kind == unit_kind) monitor->on_unit_dropped();
      });
}

runtime::LeaseGranter& Host::enable_lease_granter(
    const runtime::LeaseGranter::Params& params) {
  if (granter_ == nullptr) {
    granter_ = std::make_unique<runtime::LeaseGranter>(
        *simulator_, *network_, node_, *monitor_, params, registry_);
    runtime_->set_lease_granter(granter_.get());
  }
  return *granter_;
}

core::RateAdapter& Host::enable_adapter(
    const core::RateAdapter::Params& params) {
  if (adapter_ == nullptr) {
    adapter_ = std::make_unique<core::RateAdapter>(
        *simulator_, *network_, *stats_, *catalog_, node_, params,
        registry_);
    supervisor_->set_adapter(adapter_.get());
  }
  return *adapter_;
}

}  // namespace rasc::exp
