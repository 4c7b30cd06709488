// Online rate re-allocation under sustained load drift: does in-place
// delta replanning (core::RateAdapter) hold the delivered rate without
// resorting to teardown-and-recompose? Runs the "load-drift" chaos
// scenario (the two most bandwidth-starved access links sag mid-run and
// stay degraded) with adaptation off and at a sweep of adaptation
// intervals, and reports delivered/timely fractions, supervisor
// recovery/abandon counts, and the adapter's own counters, averaged over
// seeded repetitions.
//
//   ./build/bench/adaptation_drift [--adapt-reps 3] [--adapt-ms=0,1000,2000]
//       [--nodes 12] [--requests 10] [--rate 300] [--csv out.csv]
//
// Column 0 (adapt interval 0 = off) is the teardown-only baseline: the
// supervisor is the sole responder, so drift shows up as recoveries,
// abandoned apps, or a depressed delivered fraction. Determinism: each
// (interval, rep) cell is a pure function of its seeds except for the
// wall-clock adapt.solve_us histogram, which this table does not read.
#include <cstdio>
#include <vector>

#include "figures_common.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace rasc;
  util::Flags flags(argc, argv);
  auto sweep = bench::paper_sweep(flags);
  // This table's regime is the small drift world, not the 60-request
  // paper sweep: there, every app replans into the same contended
  // capacity each round and the deltas thrash (EXPERIMENTS.md). The
  // flags still override both.
  sweep.base.world.nodes = std::size_t(flags.get_int("nodes", 12));
  sweep.base.workload.num_requests = int(flags.get_int("requests", 10));
  const int reps = int(flags.get_int("adapt-reps", 3));
  const double rate = flags.get_double("rate", 300);
  const auto adapt_ms = flags.get_double_list("adapt-ms", {0, 1000, 2000});
  const std::string csv_path = flags.get_string("csv", "");
  flags.finish();

  exp::SeriesTable table;
  table.title = "Delivered rate under load drift: in-place delta replanning "
                "vs teardown-only supervision";
  table.row_header = "metric";
  table.col_header = "adapt interval (ms; 0 = off)";
  for (double ms : adapt_ms) {
    table.col_labels.push_back(std::to_string(int(ms)));
  }

  // Every (interval, rep) trial is an independent Simulator; flatten
  // onto one shared pool.
  util::ThreadPool pool(sweep.threads);
  std::vector<std::vector<exp::RunMetrics>> metrics(
      adapt_ms.size(), std::vector<exp::RunMetrics>(std::size_t(reps)));
  pool.parallel_for(adapt_ms.size() * std::size_t(reps), [&](std::size_t i) {
    const std::size_t a_idx = i / std::size_t(reps);
    const std::size_t rep = i % std::size_t(reps);
    exp::RunConfig run = sweep.base;
    run.algorithm = "mincost";
    run.workload.avg_rate_kbps = rate;
    // The drift lands at 10 s and persists for ~25 s; leave the steady
    // phase long enough to live through it.
    run.steady_duration = sim::sec(20);
    run.chaos_scenario = "load-drift:mag=0.2";
    run.chaos_seed = sweep.base_seed + std::uint64_t(rep) * 104729;
    run.adapt_interval = sim::msec(std::int64_t(adapt_ms[a_idx]));
    run.world.seed = sweep.base_seed + std::uint64_t(rep) * 7919;
    metrics[a_idx][rep] = exp::run_experiment(run);
  });

  std::vector<double> delivered, timely, recoveries, gave_up, attempts,
      deltas, teardowns;
  for (std::size_t a = 0; a < adapt_ms.size(); ++a) {
    double df = 0, tf = 0, rc = 0, gu = 0, at = 0, dl = 0, td = 0;
    for (const auto& m : metrics[a]) {
      df += m.delivered_fraction();
      tf += m.timely_fraction();
      rc += double(m.recoveries);
      gu += double(m.gave_up);
      at += double(m.adapt_attempts);
      dl += double(m.adapt_deltas);
      td += double(m.adapt_teardowns);
    }
    const double r = double(metrics[a].size());
    delivered.push_back(df / r);
    timely.push_back(tf / r);
    recoveries.push_back(rc / r);
    gave_up.push_back(gu / r);
    attempts.push_back(at / r);
    deltas.push_back(dl / r);
    teardowns.push_back(td / r);
  }
  table.row_labels = {"delivered fraction", "timely fraction",
                      "recoveries (mean)",  "gave up (mean)",
                      "adapt attempts",     "adapt deltas shipped",
                      "adapt teardowns"};
  table.values = {delivered, timely, recoveries, gave_up,
                  attempts,  deltas, teardowns};
  table.precision = 3;
  exp::print_table(table);
  std::printf(
      "\nexpectation: the baseline column sheds rate for the whole drift "
      "(or burns teardown-and-recompose episodes: recoveries/gave-up "
      "nonzero); adaptation columns ship rate deltas instead, lifting "
      "the delivered fraction toward 1 with no abandoned apps and far "
      "fewer teardown episodes (zero on most seeds). Shorter intervals "
      "react faster at the cost of more solver rounds.\n");
  if (!csv_path.empty()) {
    exp::write_csv(table, csv_path);
    std::printf("csv written to %s\n", csv_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return rasc::util::run_main(argc, argv, run);
}
