#include "exp/workload.hpp"

#include <algorithm>
#include <cassert>

namespace rasc::exp {
namespace {

/// Probability a request's services are split across two substreams (the
/// paper's example request graph has two).
constexpr double kTwoSubstreamProb = 0.25;

}  // namespace

std::vector<core::ServiceRequest> generate_workload(
    const WorkloadConfig& config, const std::vector<std::string>& services,
    std::size_t nodes, util::Xoshiro256& rng) {
  assert(!services.empty());
  assert(nodes >= 2);
  std::vector<core::ServiceRequest> out;
  out.reserve(std::size_t(config.num_requests));

  for (int r = 0; r < config.num_requests; ++r) {
    core::ServiceRequest req;
    req.app = r + 1;
    req.unit_bytes = config.unit_bytes;
    req.source = sim::NodeIndex(rng.uniform_int(0, std::int64_t(nodes) - 1));
    do {
      req.destination =
          sim::NodeIndex(rng.uniform_int(0, std::int64_t(nodes) - 1));
    } while (req.destination == req.source);

    const int max_services =
        std::min(config.max_services, int(services.size()));
    const int count =
        int(rng.uniform_int(config.min_services, max_services));
    std::vector<std::string> picked = services;
    rng.shuffle(picked);
    picked.resize(std::size_t(count));

    const double rate = config.avg_rate_kbps *
                        rng.uniform_double(1.0 - config.rate_jitter,
                                           1.0 + config.rate_jitter);

    const bool split = count >= 2 && rng.bernoulli(kTwoSubstreamProb);
    if (split) {
      const int first = int(rng.uniform_int(1, count - 1));
      core::Substream a;
      a.services.assign(picked.begin(), picked.begin() + first);
      a.rate_kbps = rate;
      core::Substream b;
      b.services.assign(picked.begin() + first, picked.end());
      b.rate_kbps = rate;
      req.substreams = {std::move(a), std::move(b)};
    } else {
      core::Substream a;
      a.services = std::move(picked);
      a.rate_kbps = rate;
      req.substreams = {std::move(a)};
    }
    out.push_back(std::move(req));
  }
  return out;
}

}  // namespace rasc::exp
