// Micro-benchmark: the per-substream solve on the composition graphs the
// composer builds (stages × providers). Two variants of a bare solve
// separate what the reusable SspSolver workspace buys:
//   cold    — fresh solver every call: pays the CSR adjacency build, all
//             vector allocations, the negative-arc scan and a
//             from-scratch solve;
//   reused  — one persistent solver, same topology: adjacency snapshot and
//             buffers are cached and the previous solve's potentials
//             warm-start the next (validated first), so only the solve
//             itself runs.
// BM_SubstreamSolve then times core::SubstreamSolver, the routine both
// composition and rate adaptation call: warm-started solve plus the
// per-node capacity repair loop on one persistent graph.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "composition_caps.hpp"
#include "core/composition_graph.hpp"
#include "core/mincost_composer.hpp"
#include "core/plan_math.hpp"
#include "flow/ssp.hpp"
#include "util/rng.hpp"

namespace {

using namespace rasc;

void BM_ComposeSolverCold(benchmark::State& state) {
  util::Xoshiro256 rng(7);
  auto cg = bench::random_composition_graph(int(state.range(0)),
                                            int(state.range(1)), rng);
  for (auto _ : state) {
    cg.reset_flow();
    flow::SspSolver solver;  // fresh workspace: CSR build + allocations
    const auto r = solver.solve(cg.graph(), cg.source(), cg.sink(),
                                cg.demand());
    benchmark::DoNotOptimize(r.cost);
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          cg.graph().num_arcs());
}
BENCHMARK(BM_ComposeSolverCold)->Args({5, 16})->Args({5, 64});

void BM_ComposeSolverReused(benchmark::State& state) {
  util::Xoshiro256 rng(7);
  auto cg = bench::random_composition_graph(int(state.range(0)),
                                            int(state.range(1)), rng);
  flow::SspSolver solver;
  for (auto _ : state) {
    cg.reset_flow();
    const auto r = solver.solve(cg.graph(), cg.source(), cg.sink(),
                                cg.demand());
    benchmark::DoNotOptimize(r.cost);
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          cg.graph().num_arcs());
}
BENCHMARK(BM_ComposeSolverReused)->Args({5, 16})->Args({5, 64});

void BM_SubstreamSolve(benchmark::State& state) {
  // The loop composition and rate adaptation both run: one persistent
  // CompositionGraph whose capacities are rewritten each round, solved by
  // SubstreamSolver — warm-started solve, per-node capacity repair, share
  // folding and the residual update. Candidate p of every stage is node
  // p, so one node serves consecutive stages, and each node has wire
  // budget for only kNodeUps delivered ups in total: stacking stages on
  // a node trips the repair loop (2 or 3 solves per call at these sizes).
  const int stages = int(state.range(0));
  const int providers = int(state.range(1));
  constexpr double kNodeUps = 0.75 * bench::kDemandUps;
  constexpr std::int64_t kUnitBytes = 1250;
  util::Xoshiro256 rng(11);
  const auto candidates = bench::random_candidates(stages, providers, rng);
  core::CompositionGraph cg(candidates, bench::kGateUps, bench::kGateUps,
                            bench::kDemandUps);

  runtime::ServiceCatalog catalog;
  core::ComposeInput input;
  input.catalog = &catalog;
  auto& req = input.request;
  req.source = providers;
  req.destination = providers + 1;
  req.unit_bytes = kUnitBytes;
  req.substreams.resize(1);
  auto& sub = req.substreams[0];
  for (int s = 0; s < stages; ++s) {
    std::string service(1, 's');
    service += std::to_string(s);
    catalog.add({service, sim::msec(1), 1.0, 1.0});
    sub.services.push_back(service);
  }
  sub.rate_kbps = core::payload_kbps(bench::kDemandUps, double(kUnitBytes));
  const auto stats = [](sim::NodeIndex node, double kbps) {
    monitor::NodeStats s;
    s.node = node;
    s.capacity_in_kbps = kbps;
    s.capacity_out_kbps = kbps;
    return s;
  };
  // Availability is reported through the tracker's headroom.
  const double node_kbps =
      core::wire_kbps(kNodeUps, double(kUnitBytes)) /
      core::ResidualTracker::kDefaultHeadroom;
  for (int p = 0; p < providers; ++p) {
    input.providers[sub.services[0]].push_back(stats(p, node_kbps));
  }
  input.source_stats = stats(req.source, 1e6);
  input.destination_stats = stats(req.destination, 1e6);
  const core::SubstreamMath math(sub, catalog, kUnitBytes);
  const double demand = math.delivered_ups(sub.rate_kbps);

  core::SubstreamSolver solver;
  std::int64_t solved = 0;
  for (auto _ : state) {
    cg.reset_flow();
    for (int s = 0; s < stages; ++s) {
      for (int p = 0; p < providers; ++p) {
        cg.set_candidate_cap(
            s, p,
            candidates[std::size_t(s)][std::size_t(p)].max_delivered_ups);
      }
    }
    core::ResidualTracker tracker(input);
    const auto r = solver.solve(cg, candidates, math, req, demand, tracker);
    solved += r.status == core::SubstreamSolver::Status::kSolved;
    benchmark::DoNotOptimize(r.shares.data());
  }
  state.counters["solved"] = benchmark::Counter(
      double(solved), benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          cg.graph().num_arcs());
}
BENCHMARK(BM_SubstreamSolve)->Args({2, 16})->Args({5, 16})->Args({5, 64});

}  // namespace

BENCHMARK_MAIN();
