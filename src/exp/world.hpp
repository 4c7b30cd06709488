// World construction: topology, overlay, hosts, service catalog and DHT
// registration — everything that exists before the first request arrives.
//
// Paper defaults (§4.1): 32 nodes, 10 unique services, 5 services hosted
// per node (average replication degree 16).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "exp/host.hpp"
#include "obs/metric_registry.hpp"
#include "obs/unit_trace.hpp"
#include "overlay/builder.hpp"
#include "runtime/service.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "sim/topology.hpp"

namespace rasc::exp {

struct WorldConfig {
  std::size_t nodes = 32;
  int num_services = 10;
  int services_per_node = 5;
  sim::PlanetLabParams net;
  monitor::NodeMonitor::Params monitor_params;
  runtime::NodeRuntime::Params runtime_params;
  /// Deploy-phase reliability knobs shared by every host's coordinator
  /// (defaults: the legacy single-shot protocol).
  core::Coordinator::DeployPolicy deploy_policy;
  /// Range of per-unit CPU time across the generated services.
  sim::SimDuration service_cpu_min = sim::msec(1);
  sim::SimDuration service_cpu_max = sim::msec(4);
  /// When non-empty, these service specs are used instead of the
  /// generated svc0..svcN catalog (domain-specific examples: transcoders
  /// with rate ratios, aggregators, ...). num_services is ignored.
  std::vector<runtime::ServiceSpec> custom_services;
  /// Record per-data-unit lifecycle hops in the world's UnitTrace.
  /// Off by default: the trace is observational only (it never perturbs
  /// simulation state), but recording costs memory and time.
  bool enable_unit_trace = false;
  std::uint64_t seed = 1;
};

/// A fully built simulated deployment. Construction drives the simulator
/// through overlay join and service registration; afterwards `now()` is
/// the earliest time requests can be submitted.
class World {
 public:
  explicit World(const WorldConfig& config);

  sim::Simulator& simulator() { return *simulator_; }
  sim::Network& network() { return *network_; }
  overlay::Overlay& overlay() { return *overlay_; }
  Host& host(std::size_t i) { return *hosts_[i]; }
  const Host& host(std::size_t i) const { return *hosts_[i]; }
  std::size_t size() const { return hosts_.size(); }

  const runtime::ServiceCatalog& catalog() const { return catalog_; }
  const std::vector<std::string>& service_names() const {
    return service_names_;
  }
  /// Which services node i offers (and registered in the DHT).
  const std::vector<std::string>& services_on(std::size_t i) const {
    return services_on_node_[i];
  }

  const WorldConfig& config() const { return config_; }

  /// Deployment-wide metric registry every subsystem emits through.
  obs::MetricRegistry& metrics() { return metrics_; }
  const obs::MetricRegistry& metrics() const { return metrics_; }
  /// Deployment-wide data-unit lifecycle trace (recording only when
  /// WorldConfig::enable_unit_trace).
  obs::UnitTrace& unit_trace() { return trace_; }
  const obs::UnitTrace& unit_trace() const { return trace_; }

 private:
  WorldConfig config_;
  // Declared before the network and hosts that hold pointers into them.
  obs::MetricRegistry metrics_;
  obs::UnitTrace trace_;
  std::unique_ptr<sim::Simulator> simulator_;
  std::unique_ptr<sim::Network> network_;
  std::unique_ptr<overlay::Overlay> overlay_;
  std::vector<std::unique_ptr<Host>> hosts_;
  runtime::ServiceCatalog catalog_;
  std::vector<std::string> service_names_;
  std::vector<std::vector<std::string>> services_on_node_;
};

}  // namespace rasc::exp
