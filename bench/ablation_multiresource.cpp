// Ablation: multi-resource composition (the paper's §6 future work —
// "study the performance of our approach under multiple resource
// constraints"). With CPU-heavy services, a composer that only accounts
// for bandwidth overloads processors; tracking CPU as a second rate-based
// resource (per the §2.1 requirement-vector model) avoids that.
#include <cstdio>
#include <sstream>

#include "figures_common.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace rasc;
  util::Flags flags(argc, argv);
  auto sweep = bench::paper_sweep(flags);
  flags.finish();
  sweep.algorithms = {"mincost", "mincost-nocpu"};
  // CPU-heavy services: 10-25 ms per unit, so a node hosting a few
  // instances saturates its processor well before its access link.
  sweep.base.world.service_cpu_min = sim::msec(10);
  sweep.base.world.service_cpu_max = sim::msec(25);
  sweep.base.world.net.bw_min_kbps = 2000;
  sweep.base.world.net.bw_max_kbps = 8000;

  const auto result = exp::run_sweep(sweep);
  for (const auto& [title, extract, precision] :
       std::vector<std::tuple<std::string,
                              std::function<double(const exp::RunMetrics&)>,
                              int>>{
           {"Ablation(multi-resource) — requests composed",
            [](const exp::RunMetrics& m) { return double(m.composed); }, 1},
           {"Ablation(multi-resource) — delivered fraction",
            [](const exp::RunMetrics& m) { return m.delivered_fraction(); },
            3},
           {"Ablation(multi-resource) — timely fraction",
            [](const exp::RunMetrics& m) { return m.timely_fraction(); },
            3},
       }) {
    exp::print_table(
        exp::make_table(sweep, result, title, extract, precision));
  }
  std::printf(
      "\nexpectation: the CPU-blind variant admits more requests than the "
      "processors can run and pays with deadline drops; CPU-aware "
      "composition admits less but delivers what it admits.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return rasc::util::run_main(argc, argv, run);
}
