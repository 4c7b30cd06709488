// Ablation: the paper's least-laxity scheduler (§3.4) against FIFO and
// EDF, under min-cost composition.
#include <cstdio>
#include <sstream>

#include "figures_common.hpp"
#include "runtime/scheduler.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace rasc;
  util::Flags flags(argc, argv);
  auto sweep = bench::paper_sweep(flags);
  flags.finish();
  sweep.algorithms = {"mincost"};
  // Scheduling only matters when the CPU actually contends: use
  // heavyweight services (8-25 ms per unit) so nodes hosting several
  // components saturate their processor under load.
  sweep.base.world.service_cpu_min = sim::msec(8);
  sweep.base.world.service_cpu_max = sim::msec(25);

  struct Policy {
    const char* name;
    runtime::SchedulingPolicy policy;
  };
  const Policy policies[] = {
      {"llf", runtime::SchedulingPolicy::kLeastLaxity},
      {"edf", runtime::SchedulingPolicy::kEdf},
      {"fifo", runtime::SchedulingPolicy::kFifo},
  };

  // One sweep per policy, merged into a single table keyed by policy.
  exp::SeriesTable delivered, timely, delay;
  for (auto* t : {&delivered, &timely, &delay}) {
    t->row_header = "scheduler";
    t->col_header = "average rate (Kb/sec)";
    for (double r : sweep.rates_kbps) {
      std::ostringstream os;
      os << r;
      t->col_labels.push_back(os.str());
    }
  }
  delivered.title = "Ablation(scheduler) — delivered fraction";
  timely.title = "Ablation(scheduler) — timely fraction";
  delay.title = "Ablation(scheduler) — mean delay (ms)";
  delay.precision = 1;

  for (const auto& p : policies) {
    auto cfg = sweep;
    cfg.base.world.runtime_params.policy = p.policy;
    const auto result = exp::run_sweep(cfg);
    std::vector<double> d_row, t_row, l_row;
    for (double rate : cfg.rates_kbps) {
      d_row.push_back(result.mean("mincost", rate, [](const auto& m) {
        return m.delivered_fraction();
      }));
      t_row.push_back(result.mean("mincost", rate, [](const auto& m) {
        return m.timely_fraction();
      }));
      l_row.push_back(result.mean("mincost", rate, [](const auto& m) {
        return m.mean_delay_ms();
      }));
    }
    delivered.row_labels.push_back(p.name);
    delivered.values.push_back(d_row);
    timely.row_labels.push_back(p.name);
    timely.values.push_back(t_row);
    delay.row_labels.push_back(p.name);
    delay.values.push_back(l_row);
  }
  exp::print_table(delivered);
  exp::print_table(timely);
  exp::print_table(delay);
  std::printf(
      "\nexpectation: LLF (the paper's policy) sheds hopeless units early "
      "and keeps timely delivery at least as high as EDF; FIFO wastes "
      "capacity on units that will miss anyway under load.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return rasc::util::run_main(argc, argv, run);
}
