// Micro-benchmark: cost of the solver *workspace*, isolated from the
// algorithm, on the composition graphs the composer builds (stages ×
// providers). Three variants of the same solve separate what the reusable
// SspSolver buys:
//   cold    — fresh solver every call: pays the CSR adjacency build, all
//             vector allocations, and a from-scratch solve;
//   reused  — one persistent solver, same topology: adjacency snapshot and
//             buffers are cached, only the solve itself runs;
//   repair  — persistent solver AND persistent graph: tighten a batch of
//             candidate capacities in place, then warm-start re-solve from
//             the previous potentials — the composer's repair-loop pattern.
// Plus the end-to-end repair pattern with share extraction.
#include <benchmark/benchmark.h>

#include <vector>

#include "composition_caps.hpp"
#include "core/composition_graph.hpp"
#include "flow/ssp.hpp"
#include "util/rng.hpp"

namespace {

using namespace rasc;

void BM_ComposeSolverCold(benchmark::State& state) {
  util::Xoshiro256 rng(7);
  auto cg = bench::random_composition_graph(int(state.range(0)),
                                            int(state.range(1)), rng);
  const flow::SolveOptions opts{.assume_nonnegative_costs = true};
  for (auto _ : state) {
    cg.reset_flow();
    flow::SspSolver solver;  // fresh workspace: CSR build + allocations
    const auto r = solver.solve(cg.graph(), cg.source(), cg.sink(),
                                cg.demand(), opts);
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
  const flow::SolveOptions opts{.assume_nonnegative_costs = true};
  flow::SspSolver solver;
  for (auto _ : state) {
    cg.reset_flow();
    const auto r = solver.solve(cg.graph(), cg.source(), cg.sink(),
                                cg.demand(), opts);
    benchmark::DoNotOptimize(r.cost);
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          cg.graph().num_arcs());
}
BENCHMARK(BM_ComposeSolverReused)->Args({5, 16})->Args({5, 64});

void BM_ComposeSolverWarmRepair(benchmark::State& state) {
  const int stages = int(state.range(0));
  const int providers = int(state.range(1));
  util::Xoshiro256 rng(7);
  auto cg = bench::random_composition_graph(stages, providers, rng);

  // Pre-generate capacity edit batches: each re-draws ~10% of the
  // candidates, cycled so the graph never drifts toward zero capacity.
  struct Edit {
    int stage, index;
    double ups;
  };
  std::vector<std::vector<Edit>> edits(8);
  for (auto& batch : edits) {
    for (int s = 0; s < stages; ++s) {
      for (int p = 0; p < providers; ++p) {
        if (rng.bernoulli(0.1)) {
          batch.push_back(Edit{s, p, rng.uniform_double(2.0, 30.0)});
        }
      }
    }
  }

  const flow::SolveOptions opts{.assume_nonnegative_costs = true,
                                .warm_start = true};
  flow::SspSolver solver;
  // Prime potentials + snapshot.
  solver.solve(cg.graph(), cg.source(), cg.sink(), cg.demand(), opts);
  std::size_t which = 0;
  for (auto _ : state) {
    cg.reset_flow();
    for (const Edit& e : edits[which]) {
      cg.set_candidate_cap(e.stage, e.index, e.ups);
    }
    which = (which + 1) % edits.size();
    const auto r = solver.solve(cg.graph(), cg.source(), cg.sink(),
                                cg.demand(), opts);
    benchmark::DoNotOptimize(r.cost);
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          cg.graph().num_arcs());
}
BENCHMARK(BM_ComposeSolverWarmRepair)->Args({5, 16})->Args({5, 64});

void BM_CompositionRepair(benchmark::State& state) {
  // The composer's actual hot path: one persistent CompositionGraph,
  // capacities tightened in place each round, warm re-solve, shares out.
  const int stages = int(state.range(0));
  const int providers = int(state.range(1));
  util::Xoshiro256 rng(11);
  auto cg = bench::random_composition_graph(stages, providers, rng);
  const flow::SolveOptions opts{.assume_nonnegative_costs = true,
                                .warm_start = true};
  flow::SspSolver solver;
  solver.solve(cg.graph(), cg.source(), cg.sink(), cg.demand(), opts);
  for (auto _ : state) {
    cg.reset_flow();
    // Tighten one candidate per stage, as a repair round does when a
    // provider's reported bandwidth drops.
    for (int s = 0; s < stages; ++s) {
      const int idx = int(rng.uniform_int(0, providers - 1));
      cg.set_candidate_cap(s, idx, rng.uniform_double(2.0, 30.0));
    }
    const auto r = solver.solve(cg.graph(), cg.source(), cg.sink(),
                                cg.demand(), opts);
    benchmark::DoNotOptimize(r.flow);
    auto shares = cg.extract_shares();
    benchmark::DoNotOptimize(shares.size());
  }
}
BENCHMARK(BM_CompositionRepair)
    ->Args({2, 16})
    ->Args({5, 16})
    ->Args({5, 64});

}  // namespace

BENCHMARK_MAIN();
