// Shard re-homing under a coordinator crash: how much of the delivered
// stream a standby takeover recovers, against a no-crash baseline and a
// crash with no standby.
//
//   ./build/bench/shard_rehome [--nodes 24] [--shards 4] [--requests 16]
//       [--rate 100] [--gap-ms 500] [--steady-sec 12] [--seed 2]
//       [--crash-at "6s"] [--csv out.csv]
//
// Three legs, same seed and workload:
//   baseline   no fault injected
//   crash      shard 0's home dies at --crash-at, no standby
//   rehome     same crash, per-shard standbys + the submission journal
//
// Invariant gates (nonzero exit on violation, so CI can run this binary
// as a correctness check):
//   - rehome leg:   delivered fraction >= 0.9x the no-crash baseline
//                   and exactly one standby takeover happened
//   - every leg:    lease.overgrant_kbps == 0 (no node double-promised
//                   bandwidth, fenced zombie or not)
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "util/flags.hpp"

namespace {

using namespace rasc;

struct Leg {
  const char* name;
  exp::RunMetrics m;
};

int run(int argc, char** argv) {
  util::Flags flags(argc, argv);

  exp::RunConfig base;
  base.world.nodes = std::size_t(flags.get_int("nodes", 24));
  base.world.num_services = 6;
  base.world.services_per_node = 3;
  base.world.seed = std::uint64_t(flags.get_int("seed", 2));
  base.world.net.bw_min_kbps = 3000;
  base.world.net.bw_max_kbps = 6000;
  base.workload.num_requests = int(flags.get_int("requests", 16));
  base.workload.avg_rate_kbps = flags.get_double("rate", 100);
  base.submit_gap = sim::msec(flags.get_int("gap-ms", 500));
  base.steady_duration = sim::sec(flags.get_int("steady-sec", 12));
  base.coordinators = int(flags.get_int("shards", 4));
  // Tight leases so the crash is suspected (and the standby fences the
  // dead primary) within a few seconds of the fault.
  base.lease_duration = sim::sec(2);
  base.lease_renew = sim::msec(800);
  const std::string crash_at = flags.get_string("crash-at", "6s");
  const std::string csv_path = flags.get_string("csv", "");
  flags.finish();

  // Crash shard 0's home (node 0 under the plane's s*N/K placement)
  // once streams are established; the scenario's control-delay fault
  // rides along as in the reliability drills.
  const std::string crash_scenario =
      "coordinator-crash:node=0,at=" + crash_at;

  std::vector<Leg> legs;
  {
    exp::RunConfig cfg = base;
    legs.push_back({"baseline", exp::run_experiment(cfg)});
  }
  {
    exp::RunConfig cfg = base;
    cfg.chaos_scenario = crash_scenario;
    legs.push_back({"crash", exp::run_experiment(cfg)});
  }
  {
    exp::RunConfig cfg = base;
    cfg.chaos_scenario = crash_scenario;
    cfg.shard_standby = true;
    cfg.submit_retry = sim::msec(1500);
    legs.push_back({"rehome", exp::run_experiment(cfg)});
  }

  std::printf(
      "shard re-homing: %zu nodes, K=%d, %d apps, crash at %s\n",
      base.world.nodes, base.coordinators, base.workload.num_requests,
      crash_at.c_str());
  std::printf("%-9s | %-9s %-9s %-9s %-8s %-8s %-8s %-8s %-8s %-8s %s\n",
              "leg", "composed", "delivered", "frac", "rehomes", "adopted",
              "reclaim", "fenced", "resubmit", "failover", "overgrant");

  FILE* csv = csv_path.empty() ? nullptr : std::fopen(csv_path.c_str(), "w");
  if (csv) {
    std::fprintf(csv,
                 "leg,composed,delivered,delivered_fraction,rehomes,"
                 "adopted,reclaimed,fenced,resubmits,failovers,"
                 "overgrant_kbps\n");
  }
  for (const Leg& leg : legs) {
    std::printf(
        "%-9s | %-9d %-9lld %-9.3f %-8lld %-8lld %-8lld %-8lld %-8lld "
        "%-8lld %.3f\n",
        leg.name, leg.m.composed, static_cast<long long>(leg.m.delivered),
        leg.m.delivered_fraction(),
        static_cast<long long>(leg.m.shard_rehomes),
        static_cast<long long>(leg.m.shard_adopted),
        static_cast<long long>(leg.m.shard_reclaimed),
        static_cast<long long>(leg.m.shard_fenced),
        static_cast<long long>(leg.m.shard_resubmits),
        static_cast<long long>(leg.m.shard_failovers),
        leg.m.lease_overgrant_kbps);
    if (csv) {
      std::fprintf(
          csv, "%s,%d,%lld,%.6f,%lld,%lld,%lld,%lld,%lld,%lld,%.6f\n",
          leg.name, leg.m.composed,
          static_cast<long long>(leg.m.delivered),
          leg.m.delivered_fraction(),
          static_cast<long long>(leg.m.shard_rehomes),
          static_cast<long long>(leg.m.shard_adopted),
          static_cast<long long>(leg.m.shard_reclaimed),
          static_cast<long long>(leg.m.shard_fenced),
          static_cast<long long>(leg.m.shard_resubmits),
          static_cast<long long>(leg.m.shard_failovers),
          leg.m.lease_overgrant_kbps);
    }
  }
  if (csv) std::fclose(csv);

  int rc = 0;
  const double baseline = legs[0].m.delivered_fraction();
  const double rehomed = legs[2].m.delivered_fraction();
  if (rehomed < 0.9 * baseline) {
    std::fprintf(stderr,
                 "FAIL: rehome delivered fraction %.3f < 0.9 x baseline "
                 "%.3f\n",
                 rehomed, baseline);
    rc = 1;
  }
  if (legs[2].m.shard_rehomes != 1) {
    std::fprintf(stderr, "FAIL: expected exactly 1 takeover, saw %lld\n",
                 static_cast<long long>(legs[2].m.shard_rehomes));
    rc = 1;
  }
  for (const Leg& leg : legs) {
    if (leg.m.lease_overgrant_kbps > 0) {
      std::fprintf(stderr, "FAIL: %s leg overgranted %.3f kbps\n", leg.name,
                   leg.m.lease_overgrant_kbps);
      rc = 1;
    }
  }
  if (rc == 0) std::printf("all re-homing gates passed\n");
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  return rasc::util::run_main(argc, argv, run);
}
