// Recovery latency under injected failures: how fast does supervised
// re-composition restore the delivered rate after crashing K nodes at
// once? Sweeps the failure scale (simultaneous crash count) and reports
// SLO recovery time, delivered fraction, successful recoveries, and
// abandoned apps, averaged over seeded repetitions.
//
//   ./build/bench/recovery_latency [--reps 3] [--crash-counts=1,2,4]
//       [--nodes 32] [--rate 100] [--csv out.csv]
//
// Every trial runs the same "multi-crash" scenario with count=K at 10 s;
// the SloChecker's recovery clock starts at the first crash and stops
// when the deployment-wide delivered rate climbs back to half its
// pre-fault mean (and holds). Determinism: each (K, rep) cell is a pure
// function of its seeds, so the table reproduces bit-exactly.
#include <cstdio>
#include <sstream>
#include <vector>

#include "figures_common.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace rasc;
  util::Flags flags(argc, argv);
  auto sweep = bench::paper_sweep(flags);
  const int reps = int(flags.get_int("rec-reps", 3));
  const double rate = flags.get_double("rate", 100);
  const auto counts_d = flags.get_double_list("crash-counts", {1, 2, 4});
  const std::string csv_path = flags.get_string("csv", "");
  flags.finish();

  std::vector<int> counts;
  for (double c : counts_d) counts.push_back(int(c));

  exp::SeriesTable table;
  table.title = "Recovery latency vs failure scale (multi-crash, "
                "supervised min-cost re-composition)";
  table.row_header = "metric";
  table.col_header = "simultaneous node crashes";
  for (int k : counts) table.col_labels.push_back(std::to_string(k));

  // Every (K, rep) trial is an independent Simulator; flatten onto one
  // shared pool.
  util::ThreadPool pool(sweep.threads);
  std::vector<std::vector<exp::RunMetrics>> metrics(
      counts.size(), std::vector<exp::RunMetrics>(std::size_t(reps)));
  pool.parallel_for(counts.size() * std::size_t(reps), [&](std::size_t i) {
    const std::size_t k_idx = i / std::size_t(reps);
    const std::size_t rep = i % std::size_t(reps);
    exp::RunConfig run = sweep.base;
    run.algorithm = "mincost";
    run.workload.avg_rate_kbps = rate;
    // Longer steady phase: the crash lands at 10 s and recovery needs
    // room to play out before the drain.
    run.steady_duration = sim::sec(30);
    std::ostringstream scenario;
    scenario << "multi-crash:count=" << counts[k_idx] << ",at=10s";
    run.chaos_scenario = scenario.str();
    run.chaos_seed = sweep.base_seed + std::uint64_t(rep) * 104729;
    // A generous bound: the check reports the measured recovery time;
    // the bound only decides pass/fail.
    run.slo = chaos::parse_slo("recovery<=30s");
    run.world.seed = sweep.base_seed + std::uint64_t(rep) * 7919;
    metrics[k_idx][rep] = exp::run_experiment(run);
  });

  std::vector<double> recovery_ms, delivered, recoveries, gave_up;
  for (std::size_t s = 0; s < counts.size(); ++s) {
    double rec = 0, df = 0, rc = 0, gu = 0;
    int recovered_cells = 0;
    for (const auto& m : metrics[s]) {
      if (m.recovery_ms >= 0) {
        rec += m.recovery_ms;
        ++recovered_cells;
      }
      df += m.delivered_fraction();
      rc += double(m.recoveries);
      gu += double(m.gave_up);
    }
    const double r = double(metrics[s].size());
    recovery_ms.push_back(recovered_cells > 0 ? rec / recovered_cells : -1);
    delivered.push_back(df / r);
    recoveries.push_back(rc / r);
    gave_up.push_back(gu / r);
  }
  table.row_labels = {"recovery time (ms)", "delivered fraction",
                      "recoveries (mean)", "gave up (mean)"};
  table.values = {recovery_ms, delivered, recoveries, gave_up};
  table.precision = 3;
  exp::print_table(table);
  std::printf(
      "\nexpectation: recovery time grows mildly with the failure scale "
      "(more victims -> more concurrent re-compositions contending for "
      "the survivors' capacity) but stays bounded while spare capacity "
      "exists; delivered fraction dips with K as in-flight units on dead "
      "paths are lost. -1 means the rate never re-stabilized.\n");
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
