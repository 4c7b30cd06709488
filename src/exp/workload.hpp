// Workload generation (paper §4.1): each request asks for 2-5 services
// chosen at random, at a rate near the sweep's average, between random
// source/destination endpoints.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/request.hpp"
#include "util/rng.hpp"

namespace rasc::exp {

struct WorkloadConfig {
  int num_requests = 60;
  double avg_rate_kbps = 100;
  /// Rates are drawn uniformly in avg * [1-jitter, 1+jitter].
  double rate_jitter = 0.2;
  int min_services = 2;
  int max_services = 5;
  std::int64_t unit_bytes = 1250;
};

/// Generates the request sequence deterministically from `rng`.
/// Service names are drawn (without replacement within a request) from
/// `services`; endpoints from [0, nodes).
std::vector<core::ServiceRequest> generate_workload(
    const WorkloadConfig& config, const std::vector<std::string>& services,
    std::size_t nodes, util::Xoshiro256& rng);

}  // namespace rasc::exp
