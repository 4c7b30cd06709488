// Provider discovery through the DHT (paper §3.1 step 1), shared by the
// unsharded coordinator and the coordinator shards.
//
// Lookups can time out when control traffic queues behind saturated
// access links, so each service is retried up to
// Coordinator::kDiscoveryAttempts times on the capped_backoff ladder
// before the request is failed.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "overlay/registry.hpp"
#include "sim/simulator.hpp"

namespace rasc::core {

/// Provider addresses per service name.
using ProviderMap = std::map<std::string, std::vector<sim::NodeIndex>>;

/// Called exactly once: with every service's providers and an empty
/// `error`, or with `error` = "service discovery failed for a, b" (failed
/// services sorted by name) and no providers.
using DiscoveryCallback =
    std::function<void(ProviderMap providers, std::string error)>;

/// Issues one DHT lookup per service, in order, retrying failed ones, and
/// calls `done` once the last lookup has resolved. `services` must be
/// non-empty.
void discover_providers(sim::Simulator& simulator,
                        overlay::ServiceRegistry& registry,
                        const std::vector<std::string>& services,
                        DiscoveryCallback done);

}  // namespace rasc::core
