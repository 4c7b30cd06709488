// Random candidate sets of the shape the composer hands to
// core::CompositionGraph — `stages` services, `providers` candidates each,
// per-candidate capacity, drop ratio and utilization — so the solver
// micro-benchmarks time the graphs the system actually solves.
#pragma once

#include <vector>

#include "core/composition_graph.hpp"
#include "util/rng.hpp"

namespace rasc::bench {

/// Gate capacities and demand (delivered ups) for one substream; the
/// gates never bind, so the candidates decide the solve.
constexpr double kGateUps = 1000.0;
constexpr double kDemandUps = 20.0;

inline std::vector<std::vector<core::CandidateCap>> random_candidates(
    int stages, int providers, util::Xoshiro256& rng) {
  auto caps =
      std::vector<std::vector<core::CandidateCap>>(std::size_t(stages));
  for (auto& stage : caps) {
    for (int p = 0; p < providers; ++p) {
      stage.push_back(core::CandidateCap{
          sim::NodeIndex(p), rng.uniform_double(2.0, 30.0),
          rng.uniform_double(0.0, 0.2), rng.uniform_double(0.0, 1.0)});
    }
  }
  return caps;
}

/// A CompositionGraph over random_candidates(), gated by kGateUps and
/// asking for kDemandUps.
inline core::CompositionGraph random_composition_graph(
    int stages, int providers, util::Xoshiro256& rng) {
  return core::CompositionGraph(random_candidates(stages, providers, rng),
                                kGateUps, kGateUps, kDemandUps);
}

}  // namespace rasc::bench
