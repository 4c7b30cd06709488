// Micro-benchmark: min-cost flow solver scaling on the composition graphs
// the composer builds (stages × providers), the cycle-cancelling oracle on
// the same graphs, plus the full CompositionGraph build + solve as invoked
// per substream.
#include <benchmark/benchmark.h>

#include "composition_caps.hpp"
#include "core/composition_graph.hpp"
#include "flow/cycle_cancel.hpp"
#include "flow/ssp.hpp"
#include "util/rng.hpp"

namespace {

using namespace rasc;

core::CompositionGraph make_graph(const benchmark::State& state) {
  util::Xoshiro256 rng(7);
  return bench::random_composition_graph(int(state.range(0)),
                                         int(state.range(1)), rng);
}

void BM_SspComposition(benchmark::State& state) {
  const auto base = make_graph(state);
  for (auto _ : state) {
    auto g = base.graph();
    const auto r =
        flow::min_cost_flow_ssp(g, base.source(), base.sink(), base.demand());
    benchmark::DoNotOptimize(r.cost);
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          base.graph().num_arcs());
}
BENCHMARK(BM_SspComposition)
    ->Args({3, 4})
    ->Args({5, 16})
    ->Args({5, 64})
    ->Args({8, 64});

void BM_CycleCancelComposition(benchmark::State& state) {
  const auto base = make_graph(state);
  for (auto _ : state) {
    auto g = base.graph();
    const auto r = flow::min_cost_flow_cycle_cancel(g, base.source(),
                                                    base.sink(), base.demand());
    benchmark::DoNotOptimize(r.cost);
  }
}
BENCHMARK(BM_CycleCancelComposition)->Args({3, 4})->Args({5, 16});

void BM_CompositionGraphSolve(benchmark::State& state) {
  // The per-substream workload RASC's composer issues: paper scale is 16
  // providers per service, 2-5 stages.
  util::Xoshiro256 rng(11);
  const auto caps =
      bench::random_candidates(int(state.range(0)), int(state.range(1)), rng);
  for (auto _ : state) {
    core::CompositionGraph cg(caps, bench::kGateUps, bench::kGateUps,
                              bench::kDemandUps);
    const auto r = flow::min_cost_flow_ssp(cg.graph(), cg.source(),
                                           cg.sink(), cg.demand());
    benchmark::DoNotOptimize(r.flow);
    auto shares = cg.extract_shares();
    benchmark::DoNotOptimize(shares.size());
  }
}
BENCHMARK(BM_CompositionGraphSolve)
    ->Args({2, 16})
    ->Args({5, 16})
    ->Args({5, 64});

}  // namespace

BENCHMARK_MAIN();
