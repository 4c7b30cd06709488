// Shared scaffolding for the figure-reproduction benchmarks.
//
// Every fig*_ binary sweeps average requested rate ∈ {50,100,150,200} Kbps
// over the three composition algorithms on the paper's deployment (§4.1:
// 32 nodes, 10 services, 5 per node, requests of 2–5 services, 5 seeded
// repetitions) and prints one table whose rows mirror the paper's figure
// series. Absolute numbers differ from PlanetLab 2007; the *shape*
// (ordering, rough factors, crossovers) is the reproduction target —
// see EXPERIMENTS.md.
#pragma once

#include <cstdio>
#include <functional>
#include <string>

#include "exp/sweep.hpp"
#include "util/flags.hpp"
#include "util/thread_pool.hpp"

namespace rasc::bench {

/// Paper-calibrated sweep configuration, overridable from the command
/// line: --reps, --requests, --nodes, --rates=50,100,150,200, --threads.
inline exp::SweepConfig paper_sweep(util::Flags& flags) {
  exp::SweepConfig sweep;

  exp::RunConfig& base = sweep.base;
  base.world.nodes = std::size_t(flags.get_int("nodes", 32));
  base.world.num_services = 10;
  base.world.services_per_node = 5;
  // PlanetLab slices are bandwidth-capped; tight access links make
  // admission the binding constraint, as in the paper's testbed.
  base.world.net.bw_min_kbps = flags.get_double("bw-min", 300);
  base.world.net.bw_max_kbps = flags.get_double("bw-max", 4000);

  base.workload.num_requests = int(flags.get_int("requests", 60));
  base.workload.min_services = 2;
  base.workload.max_services = 5;
  base.workload.unit_bytes = 1250;

  base.submit_gap = sim::msec(flags.get_int("submit-gap-ms", 700));
  base.steady_duration = sim::sec(flags.get_int("steady-sec", 15));

  sweep.rates_kbps = flags.get_double_list("rates", {50, 100, 150, 200});
  sweep.repetitions = int(flags.get_int("reps", 5));
  sweep.base_seed = std::uint64_t(flags.get_int("seed", 42));
  sweep.threads = std::size_t(flags.get_int("threads", 0));
  return sweep;
}

/// Runs the sweep, prints the table, optionally mirrors it to CSV
/// (--csv=path), and echoes the paper's qualitative expectation.
inline int run_figure(int argc, char** argv, const std::string& title,
                      const std::string& expectation,
                      const std::function<double(const exp::RunMetrics&)>&
                          extract,
                      int precision = 3) {
  // Bad flags and --help end through run_main: exit 2 / exit 0.
  return util::run_main(argc, argv, [&](int, char**) {
    util::Flags flags(argc, argv);
    const auto sweep = paper_sweep(flags);
    const std::string csv_path = flags.get_string("csv", "");
    flags.finish();

    // One pool for the whole figure: every (algorithm × rate × repetition)
    // trial is an independent Simulator, so they all run in parallel.
    util::ThreadPool pool(sweep.threads);
    const auto result = exp::run_sweep(sweep, pool);
    const auto table = exp::make_table(sweep, result, title, extract,
                                       precision);
    exp::print_table(table);
    std::printf("paper expectation: %s\n", expectation.c_str());
    if (!csv_path.empty()) {
      exp::write_csv(table, csv_path);
      std::printf("csv written to %s\n", csv_path.c_str());
    }
    return 0;
  });
}

}  // namespace rasc::bench
