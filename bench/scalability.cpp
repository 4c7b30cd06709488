// Scalability: the paper claims "our experimental results demonstrate the
// efficiency, scalability and performance of our approach" (§6). This
// bench grows the deployment (nodes and proportional workload) and tracks
// composition quality, composition latency (discovery + stats + solve +
// deploy as simulated message exchanges), and Pastry's O(log N) routing.
#include <cstdio>
#include <iterator>
#include <sstream>
#include <vector>

#include "figures_common.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace rasc;
  util::Flags flags(argc, argv);
  auto sweep = bench::paper_sweep(flags);
  const int reps = int(flags.get_int("scal-reps", 3));
  flags.finish();

  const std::size_t sizes[] = {16, 32, 64, 128};
  constexpr std::size_t kNumSizes = std::size(sizes);

  exp::SeriesTable table;
  table.title = "Scalability — min-cost composition vs deployment size";
  table.row_header = "metric";
  table.col_header = "overlay nodes (requests scale with N)";
  for (std::size_t n : sizes) {
    table.col_labels.push_back(std::to_string(n));
  }

  // Every (size, repetition) trial is an independent Simulator; flatten
  // them onto one shared pool instead of a barrier per deployment size,
  // so small-deployment runs don't leave workers idle while 128-node
  // trials finish.
  util::ThreadPool pool(sweep.threads);
  std::vector<std::vector<exp::RunMetrics>> metrics(
      kNumSizes, std::vector<exp::RunMetrics>(std::size_t(reps)));
  pool.parallel_for(kNumSizes * std::size_t(reps), [&](std::size_t i) {
    const std::size_t size_idx = i / std::size_t(reps);
    const std::size_t rep = i % std::size_t(reps);
    const std::size_t n = sizes[size_idx];
    exp::RunConfig run = sweep.base;
    run.algorithm = "mincost";
    run.workload.avg_rate_kbps = 100;
    run.world.nodes = n;
    // Workload proportional to the deployment: ~1.9 requests per node.
    run.workload.num_requests = int(n) * 15 / 8;
    // Same world seeds per repetition as run_sweep uses.
    run.world.seed = sweep.base_seed + std::uint64_t(rep) * 7919;
    metrics[size_idx][rep] = exp::run_experiment(run);
  });

  std::vector<double> composed_frac, delivered, delay;
  for (std::size_t s = 0; s < kNumSizes; ++s) {
    double cf = 0, df = 0, dl = 0;
    for (const auto& m : metrics[s]) {
      cf += m.composed_fraction();
      df += m.delivered_fraction();
      dl += m.mean_delay_ms();
    }
    const double r = double(metrics[s].size());
    composed_frac.push_back(cf / r);
    delivered.push_back(df / r);
    delay.push_back(dl / r);
  }
  table.row_labels = {"composed fraction", "delivered fraction",
                      "mean delay (ms)"};
  table.values = {composed_frac, delivered, delay};
  table.precision = 3;
  exp::print_table(table);
  std::printf(
      "\nexpectation: quality holds as the system grows — per-request "
      "work is O(providers x stages) and discovery is O(log N) Pastry "
      "routing, so nothing degrades with N at fixed per-node load.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return rasc::util::run_main(argc, argv, run);
}
