#include "core/discovery.hpp"

#include <algorithm>
#include <memory>

#include "core/backoff.hpp"
#include "core/coordinator.hpp"

namespace rasc::core {
namespace {

struct Discovery {
  sim::Simulator& simulator;
  overlay::ServiceRegistry& registry;
  std::size_t outstanding = 0;
  ProviderMap providers;
  std::vector<std::string> failed;
  DiscoveryCallback done;
};

void lookup_with_retry(const std::shared_ptr<Discovery>& d,
                       const std::string& service, int attempts_left) {
  d->registry.lookup(service, [d, service, attempts_left](
                                  bool found,
                                  std::vector<sim::NodeIndex> providers) {
    if ((!found || providers.empty()) && attempts_left > 1) {
      // Exponential spacing (300ms, 600ms, ...) instead of a fixed beat:
      // consecutive retries against a flapping overlay root spread out
      // rather than re-arriving in lockstep.
      const int failed_so_far =
          Coordinator::kDiscoveryAttempts - attempts_left;
      d->simulator.call_after(
          capped_backoff(Coordinator::kDiscoveryBackoff,
                         Coordinator::kDiscoveryBackoffMax, failed_so_far),
          [d, service, attempts_left] {
            lookup_with_retry(d, service, attempts_left - 1);
          });
      return;
    }
    if (!found || providers.empty()) {
      d->failed.push_back(service);
    } else {
      d->providers[service] = std::move(providers);
    }
    if (--d->outstanding > 0) return;
    if (d->failed.empty()) {
      d->done(std::move(d->providers), {});
      return;
    }
    // Name every service that failed discovery, not just the one whose
    // callback happened to finish last.
    std::sort(d->failed.begin(), d->failed.end());
    std::string names;
    for (const auto& s : d->failed) {
      if (!names.empty()) names += ", ";
      names += s;
    }
    d->done({}, "service discovery failed for " + names);
  });
}

}  // namespace

void discover_providers(sim::Simulator& simulator,
                        overlay::ServiceRegistry& registry,
                        const std::vector<std::string>& services,
                        DiscoveryCallback done) {
  auto d = std::make_shared<Discovery>(Discovery{
      simulator, registry, services.size(), {}, {}, std::move(done)});
  for (const auto& service : services) {
    lookup_with_retry(d, service, Coordinator::kDiscoveryAttempts);
  }
}

}  // namespace rasc::core
