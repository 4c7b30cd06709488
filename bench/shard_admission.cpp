// Sharded control plane: admission ratio and admission-latency p99 vs
// offered load, one coordinator against K coordinator shards composing
// batches over leased capacity views.
//
//   ./build/bench/shard_admission [--nodes 200] [--requests 300]
//       [--shards=1,4] [--gaps-ms=400,200,100,50] [--reps 3]
//       [--rate 100] [--policy fifo] [--csv out.csv] [--json out.json]
//       [--threads 0] [--chaos] [--no-chaos]
//
// Offered load rises as the submission gap shrinks. Per cell the table
// reports the admission ratio, the p99 admission latency (enqueue ->
// admitted; compose.latency_ms for the unsharded coordinator,
// shard.latency_ms for K > 1), the delivered fraction of what was
// admitted, and the lease counters. The chaos leg re-runs the highest
// load with control-loss and coordinator-crash faults injected.
//
// Invariant gate: lease.overgrant_kbps must be 0.0 in EVERY cell — a
// single node promising more bandwidth than it has (double reservation
// across shards) fails the whole benchmark with a nonzero exit, so CI
// can run this binary as a correctness check, not just a perf probe.
//
// Scale note: the issue's aspiration was 1k nodes / 10k apps; the
// overlay bootstrap (DHT registration) currently tops out near ~250
// nodes, so the benchmark runs the largest stable configuration (200
// nodes, up to 600 apps via --requests) — see EXPERIMENTS.md.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "util/flags.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace rasc;

struct Cell {
  int shards = 0;
  int gap_ms = 0;
  bool chaos = false;
  int rep = 0;
  // Averaged over reps at print time; one row per rep internally.
  double admission_ratio = 0;
  double latency_p99_ms = 0;
  double delivered = 0;
  std::int64_t net_drops = 0;
  std::int64_t repairs = 0;
  std::int64_t nacks = 0;
  double overgrant_kbps = 0;
};

double admission_p99_ms(const std::vector<obs::MetricRow>& snapshot,
                        int shards) {
  const std::string key =
      shards > 1 ? "shard.latency_ms" : "compose.latency_ms";
  // Histogram cells are per-label; take the max p99 over them (the
  // merged-histogram p99 is not recoverable from the rows, and the max
  // is the honest tail bound).
  double p99 = 0;
  for (const auto& row : snapshot) {
    if (row.name != key || row.count == 0) continue;
    if (row.p99 > p99) p99 = row.p99;
  }
  return p99;
}

Cell run_cell(int shards, int gap_ms, bool chaos, int rep,
              const exp::RunConfig& base, std::uint64_t base_seed) {
  exp::RunConfig config = base;
  config.coordinators = shards;
  config.submit_gap = sim::msec(gap_ms);
  config.world.seed = base_seed + std::uint64_t(rep) * 7919;
  if (chaos) {
    // Lossy control plane: 20% of deploy/ack/teardown packets are
    // dropped for the whole run. The scenario is designed to pair with
    // the retransmitting deploy protocol (single-shot deploys would
    // nearly all lose at least one of their messages), so arm it; the
    // invariant under test is that retries + lease NACK-repair never
    // let a node double-promise bandwidth.
    config.chaos_scenario = "control-loss";
    config.chaos_seed = 77 + std::uint64_t(rep);
    config.world.deploy_policy.retransmit_budget = 3;
  }

  std::vector<obs::MetricRow> snapshot;
  const exp::RunMetrics m = exp::run_experiment(config, &snapshot);

  Cell cell;
  cell.shards = shards;
  cell.gap_ms = gap_ms;
  cell.chaos = chaos;
  cell.rep = rep;
  cell.admission_ratio =
      m.requests ? double(m.composed) / m.requests : 0;
  cell.latency_p99_ms = admission_p99_ms(snapshot, shards);
  cell.delivered = m.delivered_fraction();
  cell.net_drops = m.drops_network;
  cell.repairs = m.shard_repairs;
  cell.nacks = m.lease_nacks;
  cell.overgrant_kbps = m.lease_overgrant_kbps;
  return cell;
}

int run(int argc, char** argv) {
  util::Flags flags(argc, argv);

  exp::RunConfig base;
  base.world.nodes = std::size_t(flags.get_int("nodes", 200));
  base.world.num_services = 10;
  base.world.services_per_node = 5;
  base.world.net.bw_min_kbps = flags.get_double("bw-min", 300);
  base.world.net.bw_max_kbps = flags.get_double("bw-max", 4000);
  base.workload.num_requests = int(flags.get_int("requests", 300));
  base.workload.avg_rate_kbps = flags.get_double("rate", 100);
  base.workload.min_services = 2;
  base.workload.max_services = 5;
  base.workload.unit_bytes = 1250;
  base.steady_duration = sim::sec(flags.get_int("steady-sec", 10));
  base.admission_policy = flags.get_string("policy", "fifo");
  // Rollback keeps lease accounting exact for the unsharded baseline
  // too, so the comparison isolates sharding, not deploy reliability.
  base.world.deploy_policy.rollback = true;

  const auto shard_counts = flags.get_double_list("shards", {1, 4});
  const auto gaps = flags.get_double_list("gaps-ms", {400, 200, 100, 50});
  const int reps = int(flags.get_int("reps", 3));
  const std::uint64_t seed = std::uint64_t(flags.get_int("seed", 42));
  const bool chaos = flags.get_bool("chaos", true);
  const std::string csv_path = flags.get_string("csv", "");
  const std::string json_path = flags.get_string("json", "");
  const std::size_t threads = std::size_t(flags.get_int("threads", 0));
  flags.finish();

  struct Job {
    int shards, gap_ms, rep;
    bool chaos;
  };
  std::vector<Job> jobs;
  for (const double k : shard_counts) {
    for (const double gap : gaps) {
      for (int r = 0; r < reps; ++r) {
        jobs.push_back({int(k), int(gap), r, false});
      }
    }
  }
  if (chaos) {
    // Chaos leg: highest offered load only, sharded configs only.
    for (const double k : shard_counts) {
      if (int(k) <= 1) continue;
      for (int r = 0; r < reps; ++r) {
        jobs.push_back({int(k), int(gaps.back()), r, true});
      }
    }
  }

  util::ThreadPool pool(threads);
  std::vector<Cell> cells(jobs.size());
  pool.parallel_for(jobs.size(), [&jobs, &cells, &base, seed](
                                     std::size_t i) {
    const Job& j = jobs[i];
    cells[i] = run_cell(j.shards, j.gap_ms, j.chaos, j.rep, base, seed);
  });

  std::printf(
      "sharded admission: %zu nodes, %d apps, rate %.0f kbps, "
      "policy %s, %d rep(s)\n",
      base.world.nodes, base.workload.num_requests,
      base.workload.avg_rate_kbps, base.admission_policy.c_str(), reps);
  std::printf(
      "%-6s %-8s %-6s | %-9s %-12s %-9s %-9s %-8s %-8s %s\n", "K",
      "gap_ms", "chaos", "admitted", "p99_lat_ms", "delivered",
      "netdrops", "repairs", "nacks", "overgrant");

  bool overgrant_violated = false;
  FILE* csv = csv_path.empty() ? nullptr : std::fopen(csv_path.c_str(), "w");
  if (csv) {
    std::fprintf(csv,
                 "shards,gap_ms,chaos,admission_ratio,latency_p99_ms,"
                 "delivered,net_drops,repairs,nacks,overgrant_kbps\n");
  }
  FILE* json = json_path.empty() ? nullptr
                                 : std::fopen(json_path.c_str(), "w");
  if (json) std::fprintf(json, "[");

  // Aggregate reps per (K, gap, chaos) in job construction order.
  for (std::size_t i = 0; i < cells.size(); i += std::size_t(reps)) {
    Cell mean = cells[i];
    for (int r = 1; r < reps; ++r) {
      const Cell& c = cells[i + std::size_t(r)];
      mean.admission_ratio += c.admission_ratio;
      mean.latency_p99_ms += c.latency_p99_ms;
      mean.delivered += c.delivered;
      mean.net_drops += c.net_drops;
      mean.repairs += c.repairs;
      mean.nacks += c.nacks;
      if (c.overgrant_kbps > mean.overgrant_kbps) {
        mean.overgrant_kbps = c.overgrant_kbps;
      }
    }
    mean.admission_ratio /= reps;
    mean.latency_p99_ms /= reps;
    mean.delivered /= reps;
    mean.net_drops /= reps;
    mean.repairs /= reps;
    mean.nacks /= reps;
    if (mean.overgrant_kbps > 0) overgrant_violated = true;

    std::printf(
        "%-6d %-8d %-6s | %-9.3f %-12.1f %-9.3f %-9lld %-8lld %-8lld "
        "%.3f\n",
        mean.shards, mean.gap_ms, mean.chaos ? "yes" : "no",
        mean.admission_ratio, mean.latency_p99_ms, mean.delivered,
        static_cast<long long>(mean.net_drops),
        static_cast<long long>(mean.repairs),
        static_cast<long long>(mean.nacks), mean.overgrant_kbps);
    if (csv) {
      std::fprintf(csv, "%d,%d,%d,%.6f,%.3f,%.6f,%lld,%lld,%lld,%.6f\n",
                   mean.shards, mean.gap_ms, mean.chaos ? 1 : 0,
                   mean.admission_ratio, mean.latency_p99_ms,
                   mean.delivered, static_cast<long long>(mean.net_drops),
                   static_cast<long long>(mean.repairs),
                   static_cast<long long>(mean.nacks),
                   mean.overgrant_kbps);
    }
    if (json) {
      std::fprintf(
          json,
          "%s\n  {\"name\": \"shard_admission/K=%d/gap_ms=%d%s\", "
          "\"admission_ratio\": %.6f, \"latency_p99_ms\": %.3f, "
          "\"delivered\": %.6f, \"overgrant_kbps\": %.6f}",
          i == 0 ? "" : ",", mean.shards, mean.gap_ms,
          mean.chaos ? "/chaos" : "", mean.admission_ratio,
          mean.latency_p99_ms, mean.delivered, mean.overgrant_kbps);
    }
  }
  if (csv) std::fclose(csv);
  if (json) {
    std::fprintf(json, "\n]\n");
    std::fclose(json);
  }

  std::printf(
      "expectation: K=4 holds delivered ~1.0 under overload where K=1 "
      "over-admits and drops on the wire; admission p99 stays bounded "
      "by the batch cadence; overgrant is 0.0 everywhere (no node ever "
      "double-promises bandwidth, chaos included)\n");
  if (overgrant_violated) {
    std::fprintf(stderr,
                 "FAIL: lease.overgrant_kbps > 0 — a node over-promised "
                 "bandwidth\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return rasc::util::run_main(argc, argv, run);
}
