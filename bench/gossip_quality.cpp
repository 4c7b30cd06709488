// Gossip control plane: plan quality and admission rate vs the
// centralized min-cost-flow optimum, as a function of the gossip byte
// budget and staleness window, plus the bandwidth-scaling leg that shows
// per-node gossip control traffic is O(fanout), not O(N).
//
//   ./build/bench/gossip_quality [--nodes 64] [--requests 60]
//       [--budgets=640,1600,3200,6400] [--stale-rounds=10,30]
//       [--scale-nodes=64,128,200] [--reps 3] [--rate 100]
//       [--csv out.csv] [--json out.json] [--threads 0]
//
// Leg A (scaling): fixed fanout/budget, growing fleet. The reported
// per-node digest bytes per round must stay flat (and under the budget)
// from 64 to 200 nodes — each node talks to `fanout` rotating peers under
// a hard byte cap, so fleet size only stretches the view-coverage cycle,
// never the wire bill.
//
// Leg B (quality): fixed fleet, budget x staleness sweep, each cell
// paired against a centralized mincost run of the identical workload.
// Reported gaps: admission ratio and mean end-to-end delay (the plan-cost
// proxy the paper's §4.2 tables use), gossip relative to centralized.
// Smaller budgets mean slower view coverage; larger stale windows mean
// mouldier summaries — both widen the gap, which is the tradeoff curve
// this benchmark draws.
//
// Invariant gate: at the DEFAULT budget (3200 B/round) and staleness (30
// rounds), the admission-ratio gap and the mean-delay gap vs centralized
// must both stay within 15%, and every scaling cell must respect the
// byte budget. Violations exit nonzero so CI can run this binary as a
// correctness check, not just a perf probe.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "util/flags.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace rasc;

constexpr std::int64_t kDefaultBudget = 3200;
constexpr int kDefaultStaleRounds = 30;
constexpr double kMaxGap = 0.15;

struct QualityCell {
  std::int64_t budget = 0;
  int stale_rounds = 0;
  int rep = 0;
  double gossip_admitted = 0;   // admission ratio
  double central_admitted = 0;
  double gossip_delay_ms = 0;   // mean end-to-end delay (plan-cost proxy)
  double central_delay_ms = 0;
  double gossip_delivered = 0;
  std::int64_t repairs = 0;
  std::int64_t prunes = 0;
};

struct ScaleCell {
  std::size_t nodes = 0;
  int rep = 0;
  double bytes_per_node_round = 0;  // digest payload bytes, budget-capped
  double digests_per_node_round = 0;
  double admitted = 0;
};

exp::RunConfig base_config(std::size_t nodes, int requests, double rate,
                           std::uint64_t seed) {
  exp::RunConfig cfg;
  cfg.world.nodes = nodes;
  cfg.world.num_services = 8;
  cfg.world.services_per_node = 4;
  cfg.world.seed = seed;
  cfg.world.net.bw_min_kbps = 2000;
  cfg.world.net.bw_max_kbps = 6000;
  cfg.workload.num_requests = requests;
  cfg.workload.avg_rate_kbps = rate;
  cfg.workload.min_services = 2;
  cfg.workload.max_services = 4;
  cfg.workload.unit_bytes = 1250;
  cfg.submit_gap = sim::msec(200);
  cfg.steady_duration = sim::sec(10);
  // Rollback on both planes so the comparison isolates the view quality,
  // not deploy reliability.
  cfg.world.deploy_policy.rollback = true;
  return cfg;
}

QualityCell run_quality_cell(std::int64_t budget, int stale_rounds, int rep,
                             std::size_t nodes, int requests, double rate,
                             std::uint64_t base_seed) {
  const std::uint64_t seed = base_seed + std::uint64_t(rep) * 7919;
  exp::RunConfig gossip = base_config(nodes, requests, rate, seed);
  gossip.control_plane = "gossip";
  gossip.gossip_budget_bytes = budget;
  gossip.gossip_stale_rounds = stale_rounds;
  const exp::RunMetrics g = exp::run_experiment(gossip);

  exp::RunConfig central = base_config(nodes, requests, rate, seed);
  central.control_plane = "centralized";
  const exp::RunMetrics c = exp::run_experiment(central);

  QualityCell cell;
  cell.budget = budget;
  cell.stale_rounds = stale_rounds;
  cell.rep = rep;
  cell.gossip_admitted = g.composed_fraction();
  cell.central_admitted = c.composed_fraction();
  cell.gossip_delay_ms = g.mean_delay_ms();
  cell.central_delay_ms = c.mean_delay_ms();
  cell.gossip_delivered = g.delivered_fraction();
  cell.repairs = g.gossip_repairs;
  cell.prunes = g.gossip_prunes;
  return cell;
}

ScaleCell run_scale_cell(std::size_t nodes, int rep, double rate,
                         std::uint64_t base_seed) {
  const std::uint64_t seed = base_seed + std::uint64_t(rep) * 104729;
  // Workload proportional to the fleet so per-node streaming load stays
  // comparable; the measured quantity is control traffic, not data.
  exp::RunConfig cfg =
      base_config(nodes, int(nodes) / 2, rate, seed);
  cfg.control_plane = "gossip";
  const exp::RunMetrics m = exp::run_experiment(cfg);

  ScaleCell cell;
  cell.nodes = nodes;
  cell.rep = rep;
  // sends counts digests pushed; fanout digests make one round, so the
  // per-node per-round wire bill is (mean digest size) x fanout. This is
  // the quantity the hard budget caps — flat in N by construction, and
  // this leg proves the implementation honors it.
  if (m.gossip_sends > 0) {
    cell.bytes_per_node_round = double(m.gossip_sent_bytes) /
                                double(m.gossip_sends) *
                                double(cfg.gossip_fanout);
    cell.digests_per_node_round = double(cfg.gossip_fanout);
  }
  cell.admitted = m.composed_fraction();
  return cell;
}

int run(int argc, char** argv) {
  util::Flags flags(argc, argv);

  const std::size_t nodes = std::size_t(flags.get_int("nodes", 64));
  const int requests = int(flags.get_int("requests", 60));
  const double rate = flags.get_double("rate", 100);
  const auto budgets =
      flags.get_double_list("budgets", {640, 1600, 3200, 6400});
  const auto stale_list = flags.get_double_list("stale-rounds", {10, 30});
  const auto scale_nodes =
      flags.get_double_list("scale-nodes", {64, 128, 200});
  const int reps = int(flags.get_int("reps", 3));
  const std::uint64_t seed = std::uint64_t(flags.get_int("seed", 42));
  const std::string csv_path = flags.get_string("csv", "");
  const std::string json_path = flags.get_string("json", "");
  const std::size_t threads = std::size_t(flags.get_int("threads", 0));
  flags.finish();

  struct Job {
    bool scale = false;
    std::int64_t budget = 0;
    int stale_rounds = 0;
    std::size_t nodes = 0;
    int rep = 0;
  };
  std::vector<Job> jobs;
  for (const double b : budgets) {
    for (const double s : stale_list) {
      for (int r = 0; r < reps; ++r) {
        jobs.push_back({false, std::int64_t(b), int(s), nodes, r});
      }
    }
  }
  const std::size_t scale_begin = jobs.size();
  for (const double n : scale_nodes) {
    for (int r = 0; r < reps; ++r) {
      jobs.push_back({true, kDefaultBudget, kDefaultStaleRounds,
                      std::size_t(n), r});
    }
  }

  util::ThreadPool pool(threads);
  std::vector<QualityCell> quality(scale_begin);
  std::vector<ScaleCell> scale(jobs.size() - scale_begin);
  pool.parallel_for(jobs.size(), [&](std::size_t i) {
    const Job& j = jobs[i];
    if (j.scale) {
      scale[i - scale_begin] = run_scale_cell(j.nodes, j.rep, rate, seed);
    } else {
      quality[i] = run_quality_cell(j.budget, j.stale_rounds, j.rep,
                                    j.nodes, requests, rate, seed);
    }
  });

  std::printf(
      "gossip quality: %zu nodes, %d apps, rate %.0f kbps, %d rep(s)\n",
      nodes, requests, rate, reps);
  std::printf("%-8s %-7s | %-10s %-10s %-10s %-10s %-9s %-8s %s\n",
              "budget", "stale", "g_admit", "c_admit", "g_delay", "c_delay",
              "delivered", "repairs", "prunes");

  FILE* csv = csv_path.empty() ? nullptr : std::fopen(csv_path.c_str(), "w");
  if (csv) {
    std::fprintf(csv,
                 "budget,stale_rounds,gossip_admitted,central_admitted,"
                 "gossip_delay_ms,central_delay_ms,delivered,repairs,"
                 "prunes,nodes,bytes_per_node_round\n");
  }
  FILE* json = json_path.empty() ? nullptr
                                 : std::fopen(json_path.c_str(), "w");
  if (json) std::fprintf(json, "[");
  bool first_row = true;
  bool gate_violated = false;

  for (std::size_t i = 0; i < quality.size(); i += std::size_t(reps)) {
    QualityCell mean = quality[i];
    for (int r = 1; r < reps; ++r) {
      const QualityCell& c = quality[i + std::size_t(r)];
      mean.gossip_admitted += c.gossip_admitted;
      mean.central_admitted += c.central_admitted;
      mean.gossip_delay_ms += c.gossip_delay_ms;
      mean.central_delay_ms += c.central_delay_ms;
      mean.gossip_delivered += c.gossip_delivered;
      mean.repairs += c.repairs;
      mean.prunes += c.prunes;
    }
    mean.gossip_admitted /= reps;
    mean.central_admitted /= reps;
    mean.gossip_delay_ms /= reps;
    mean.central_delay_ms /= reps;
    mean.gossip_delivered /= reps;

    const double admit_gap =
        mean.central_admitted > 0
            ? (mean.central_admitted - mean.gossip_admitted) /
                  mean.central_admitted
            : 0;
    const double delay_gap =
        mean.central_delay_ms > 0
            ? (mean.gossip_delay_ms - mean.central_delay_ms) /
                  mean.central_delay_ms
            : 0;
    if (mean.budget == kDefaultBudget &&
        mean.stale_rounds == kDefaultStaleRounds &&
        (admit_gap > kMaxGap || delay_gap > kMaxGap)) {
      gate_violated = true;
    }

    std::printf(
        "%-8lld %-7d | %-10.3f %-10.3f %-10.2f %-10.2f %-9.3f %-8lld "
        "%lld  (admit gap %+.1f%%, delay gap %+.1f%%)\n",
        static_cast<long long>(mean.budget), mean.stale_rounds,
        mean.gossip_admitted, mean.central_admitted, mean.gossip_delay_ms,
        mean.central_delay_ms, mean.gossip_delivered,
        static_cast<long long>(mean.repairs),
        static_cast<long long>(mean.prunes), admit_gap * 100,
        delay_gap * 100);
    if (csv) {
      std::fprintf(csv, "%lld,%d,%.6f,%.6f,%.3f,%.3f,%.6f,%lld,%lld,,\n",
                   static_cast<long long>(mean.budget), mean.stale_rounds,
                   mean.gossip_admitted, mean.central_admitted,
                   mean.gossip_delay_ms, mean.central_delay_ms,
                   mean.gossip_delivered,
                   static_cast<long long>(mean.repairs),
                   static_cast<long long>(mean.prunes));
    }
    if (json) {
      std::fprintf(
          json,
          "%s\n  {\"name\": \"gossip_quality/budget=%lld/stale=%d\", "
          "\"gossip_admitted\": %.6f, \"central_admitted\": %.6f, "
          "\"gossip_delay_ms\": %.3f, \"central_delay_ms\": %.3f, "
          "\"admit_gap\": %.6f, \"delay_gap\": %.6f}",
          first_row ? "" : ",", static_cast<long long>(mean.budget),
          mean.stale_rounds, mean.gossip_admitted, mean.central_admitted,
          mean.gossip_delay_ms, mean.central_delay_ms, admit_gap,
          delay_gap);
      first_row = false;
    }
  }

  std::printf("%-8s | %-18s %s\n", "nodes", "bytes/node/round", "admitted");
  for (std::size_t i = 0; i < scale.size(); i += std::size_t(reps)) {
    ScaleCell mean = scale[i];
    for (int r = 1; r < reps; ++r) {
      mean.bytes_per_node_round +=
          scale[i + std::size_t(r)].bytes_per_node_round;
      mean.admitted += scale[i + std::size_t(r)].admitted;
    }
    mean.bytes_per_node_round /= reps;
    mean.admitted /= reps;
    if (mean.bytes_per_node_round > double(kDefaultBudget) ||
        mean.bytes_per_node_round <= 0) {
      gate_violated = true;
    }
    std::printf("%-8zu | %-18.1f %.3f\n", mean.nodes,
                mean.bytes_per_node_round, mean.admitted);
    if (csv) {
      std::fprintf(csv, ",,,,,,,,,%zu,%.3f\n", mean.nodes,
                   mean.bytes_per_node_round);
    }
    if (json) {
      std::fprintf(json,
                   "%s\n  {\"name\": \"gossip_scale/nodes=%zu\", "
                   "\"bytes_per_node_round\": %.3f, \"admitted\": %.6f}",
                   first_row ? "" : ",", mean.nodes,
                   mean.bytes_per_node_round, mean.admitted);
      first_row = false;
    }
  }
  if (csv) std::fclose(csv);
  if (json) {
    std::fprintf(json, "\n]\n");
    std::fclose(json);
  }

  std::printf(
      "expectation: per-node digest bytes/round flat (and <= %lld B) from "
      "%zu to %zu nodes; at budget=%lld/stale=%d the admission and "
      "mean-delay gaps vs the centralized min-cost optimum stay within "
      "%.0f%%; smaller budgets / longer stale windows widen both\n",
      static_cast<long long>(kDefaultBudget), std::size_t(scale_nodes.front()),
      std::size_t(scale_nodes.back()), static_cast<long long>(kDefaultBudget),
      kDefaultStaleRounds, kMaxGap * 100);
  if (gate_violated) {
    std::fprintf(stderr,
                 "FAIL: gossip quality gate — default-knob gap exceeded "
                 "%.0f%% or a scaling cell broke the byte budget\n",
                 kMaxGap * 100);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return rasc::util::run_main(argc, argv, run);
}
