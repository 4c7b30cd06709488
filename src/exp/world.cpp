#include "exp/world.hpp"

#include <algorithm>
#include <stdexcept>

#include "overlay/registry.hpp"

namespace rasc::exp {

World::World(const WorldConfig& config) : config_(config) {
  trace_.set_enabled(config.enable_unit_trace);
  simulator_ = std::make_unique<sim::Simulator>(config.seed);

  auto topo_rng = simulator_->rng().split(0x746f706f /* "topo" */);
  auto topology =
      sim::make_planetlab_like(config.nodes, topo_rng, config.net);

  network_ = std::make_unique<sim::Network>(*simulator_, std::move(topology),
                                            &metrics_, &trace_);

  overlay_ = std::make_unique<overlay::Overlay>(
      overlay::build_overlay(*simulator_, *network_, config.nodes));

  // Service catalog: caller-provided specs, or generated svc0..svcN with
  // heterogeneous CPU costs and rate ratio 1 (the paper's evaluated
  // case; examples exercise R != 1 via custom_services).
  if (!config.custom_services.empty()) {
    config_.num_services = int(config.custom_services.size());
    for (const auto& spec : config.custom_services) {
      catalog_.add(spec);
      service_names_.push_back(spec.name);
    }
  } else {
    auto svc_rng = simulator_->rng().split(0x73766373 /* "svcs" */);
    for (int s = 0; s < config.num_services; ++s) {
      runtime::ServiceSpec spec;
      spec.name = "svc" + std::to_string(s);
      spec.cpu_time_per_unit = svc_rng.uniform_int(config.service_cpu_min,
                                                   config.service_cpu_max);
      catalog_.add(spec);
      service_names_.push_back(spec.name);
    }
  }

  // Assign services to nodes: each node offers `services_per_node`
  // distinct services (paper §4.1).
  auto assign_rng = simulator_->rng().split(0x61736767 /* "assg" */);
  services_on_node_.resize(config.nodes);
  std::vector<bool> covered(std::size_t(config_.num_services), false);
  for (std::size_t n = 0; n < config.nodes; ++n) {
    std::vector<int> ids(std::size_t(config_.num_services));
    for (int s = 0; s < config_.num_services; ++s) ids[std::size_t(s)] = s;
    assign_rng.shuffle(ids);
    for (int k = 0; k < config.services_per_node &&
                    k < config_.num_services;
         ++k) {
      services_on_node_[n].push_back(service_names_[std::size_t(ids[std::size_t(k)])]);
      covered[std::size_t(ids[std::size_t(k)])] = true;
    }
  }
  // Guarantee every service has at least one provider.
  for (int s = 0; s < config_.num_services; ++s) {
    if (!covered[std::size_t(s)]) {
      services_on_node_[std::size_t(s) % config.nodes].push_back(
          service_names_[std::size_t(s)]);
    }
  }

  // Hosts (monitor + runtime + coordinator per node); their subsystems
  // register their packet kinds beside the overlay node's.
  hosts_.reserve(config.nodes);
  for (std::size_t n = 0; n < config.nodes; ++n) {
    hosts_.push_back(std::make_unique<Host>(
        *simulator_, *network_, overlay_->at(n), catalog_,
        config.monitor_params, config.runtime_params, &metrics_, &trace_,
        config.deploy_policy));
  }

  // Register every (service, node) pair in the DHT and wait for the
  // acks. Registrations are staggered (a synchronized burst of puts plus
  // their leaf-set replication would overflow the bounded port queues on
  // low-bandwidth topologies) and retried once on timeout.
  std::size_t outstanding = 0;
  bool failed = false;
  sim::SimDuration offset = 0;
  for (std::size_t n = 0; n < config.nodes; ++n) {
    for (const auto& service : services_on_node_[n]) {
      ++outstanding;
      offset += sim::msec(15);
      overlay::PastryNode* node = &overlay_->at(n);
      simulator_->call_after(offset, [node, service, n, &outstanding,
                                      &failed] {
        overlay::ServiceRegistry registry(*node);
        registry.register_provider(
            service, sim::NodeIndex(n),
            [node, service, n, &outstanding, &failed](bool ok) {
              if (ok) {
                --outstanding;
                return;
              }
              overlay::ServiceRegistry retry(*node);
              retry.register_provider(service, sim::NodeIndex(n),
                                      [&outstanding, &failed](bool ok2) {
                                        if (!ok2) failed = true;
                                        --outstanding;
                                      });
            });
      });
    }
  }
  while (outstanding > 0 && simulator_->step()) {
  }
  if (outstanding > 0 || failed) {
    throw std::runtime_error("World: service registration failed");
  }
  // Let replication traffic settle.
  simulator_->run_until(simulator_->now() + sim::msec(500));
}

}  // namespace rasc::exp
