// Ablation: measurement-driven admission (the paper's model — availability
// inferred from observed utilization, §3.2) vs our reservation-aware
// extension, where nodes advertise the bandwidth already committed to
// admitted streams.
#include <cstdio>
#include <sstream>

#include "figures_common.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace rasc;
  util::Flags flags(argc, argv);
  auto sweep = bench::paper_sweep(flags);
  flags.finish();
  sweep.algorithms = {"mincost"};

  exp::SeriesTable composed, delivered, jitter;
  for (auto* t : {&composed, &delivered, &jitter}) {
    t->row_header = "admission";
    t->col_header = "average rate (Kb/sec)";
    for (double r : sweep.rates_kbps) {
      std::ostringstream os;
      os << r;
      t->col_labels.push_back(os.str());
    }
  }
  composed.title = "Ablation(admission) — requests composed";
  composed.precision = 1;
  delivered.title = "Ablation(admission) — delivered fraction";
  jitter.title = "Ablation(admission) — mean jitter (ms)";
  jitter.precision = 2;

  for (bool reservations : {false, true}) {
    auto cfg = sweep;
    cfg.base.world.monitor_params.advertise_reservations = reservations;
    const auto result = exp::run_sweep(cfg);
    const std::string label =
        reservations ? "reservation-aware" : "measured-only";
    std::vector<double> c_row, d_row, j_row;
    for (double rate : cfg.rates_kbps) {
      c_row.push_back(result.mean("mincost", rate, [](const auto& m) {
        return double(m.composed);
      }));
      d_row.push_back(result.mean("mincost", rate, [](const auto& m) {
        return m.delivered_fraction();
      }));
      j_row.push_back(result.mean("mincost", rate, [](const auto& m) {
        return m.mean_jitter_ms();
      }));
    }
    composed.row_labels.push_back(label);
    composed.values.push_back(c_row);
    delivered.row_labels.push_back(label);
    delivered.values.push_back(d_row);
    jitter.row_labels.push_back(label);
    jitter.values.push_back(j_row);
  }
  exp::print_table(composed);
  exp::print_table(delivered);
  exp::print_table(jitter);
  std::printf(
      "\nexpectation: reservation-aware admission composes fewer requests "
      "(commitments visible before traffic materializes) but delivers a "
      "higher fraction of what it admits.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return rasc::util::run_main(argc, argv, run);
}
