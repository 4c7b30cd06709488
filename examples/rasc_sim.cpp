// rasc_sim: run a fully parameterized RASC experiment from the command
// line and print (or CSV-dump) every metric the harness collects. This is
// the "kitchen sink" driver for exploring configurations beyond the
// paper's §4.1 defaults.
//
//   ./build/examples/rasc_cli --algorithm mincost --nodes 32 --rate 150
//       --requests 60 --reps 3 --bw-min 300 --bw-max 4000
//       [--policy llf|fifo|edf] [--no-cpu] [--reservations] [--csv out.csv]
//       [--metrics-csv snap.csv] [--metrics-json snap.json]
//       [--chaos-scenario churn:period=4s] [--chaos-seed 7] [--supervise]
//       [--slo "delivered>=0.8,recovery<=10s"] [--slo-report slo.csv]
//       [--adapt-interval 2000] [--adapt-hysteresis 0.05]
//       [--deploy-retries 3] [--deploy-rollback] [--orphan-lease-ms 8000]
//       [--coordinators 4] [--admission-policy smallest-demand]
//       [--batch-window-ms 100] [--lease-ms 12000] [--lease-renew-ms 5000]
//       [--shard-standby] [--standby-check-ms 500] [--submit-retry-ms 0]
//       [--control-plane centralized|sharded|gossip] [--gossip-fanout 3]
//       [--gossip-interval-ms 500] [--gossip-budget-bytes 3200]
//       [--gossip-stale-rounds 30]
//       [--deadline-ms 400] [--adapt-predictive] [--slo-window-ms 1000]
//
// --metrics-csv / --metrics-json dump the deployment-wide metric registry
// snapshot (every net.*/runtime.*/sink.*/monitor.*/compose.* cell, stable
// key order) after each repetition; with --reps > 1 the rep index is
// appended to the file stem.
//
// --chaos-scenario injects a named fault scenario (see chaos/scenario.hpp
// for the library and override syntax); --slo asserts delivery/recovery
// bounds and makes the process exit nonzero when any repetition violates
// them, so chaos runs can gate CI.
//
// --adapt-interval (ms; 0 = off) turns on online rate re-allocation: each
// admitted app is periodically re-solved against fresh statistics and
// changed rates ship as in-place deltas (see core/rate_adapter.hpp);
// --adapt-hysteresis sets the minimum relative cost improvement.
//
// --deploy-retries arms per-message retransmission of deploy traffic
// (capped-backoff ladder, receiver-side dedup); --deploy-rollback tears
// down partial deployments on NACK/timeout; --orphan-lease-ms starts the
// runtimes' orphan reaper (see core/coordinator.hpp DeployPolicy).
//
// --coordinators > 1 shards the control plane: requests hash to one of K
// coordinator shards, each composing batches against revocable capacity
// leases granted by the nodes (see core/coordinator_shard.hpp).
// --admission-policy orders each batch (fifo | smallest-demand |
// highest-value); --batch-window-ms sets the drain cadence and
// --lease-ms / --lease-renew-ms the node-side grant lifetime and the
// shard-side renewal period. With the default --coordinators 1 none of
// this machinery is constructed and output is byte-identical to
// pre-shard builds.
//
// --shard-standby gives every shard a dormant standby coordinator on a
// second node: it detects the primary's death through its local lease
// granter, fences the zombie with a takeover epoch, reconstructs the
// shard state from the fleet and adopts the orphaned apps (DESIGN.md
// §17). --standby-check-ms sets the watchdog period. --submit-retry-ms
// > 0 journals submissions at the source and re-submits those whose
// outcome never arrived (lost in a dead primary's batch window). Both
// default off and leave output byte-identical.
//
// --deadline-ms stamps an end-to-end latency SLO on every request:
// composers predict each plan's latency with the M/G/1 queueing model
// (core/latency_model.hpp) and reject deadline violations at admission;
// per-(app, second) violation windows are scored from the sink delay
// histograms. --adapt-predictive additionally lets the rate adapter act
// when the *predicted* latency of a deployed plan crosses the deadline,
// before drops appear (needs --adapt-interval). With the default
// --deadline-ms 0 none of this exists and output is byte-identical.
//
// --control-plane gossip switches to the fully decentralized plane: every
// node runs a budgeted epidemic disseminator of load summaries (see
// gossip/agent.hpp) and admits requests itself by composing hop-by-hop
// from its partial view, with node-side pool debits as the authoritative
// capacity check. --gossip-fanout / --gossip-interval-ms set the push
// cadence, --gossip-budget-bytes the hard per-round digest byte budget
// and --gossip-stale-rounds the view aging window. With the default
// (empty) --control-plane, coordinators > 1 still selects the sharded
// plane as before.
//
// --help lists every flag with its default. A bad command line (unknown,
// repeated or malformed flag) prints its error and exits 2; a run that
// fails exits 1 with its message; an SLO violation exits 1.
#include <cstdio>
#include <string>

#include "exp/runner.hpp"
#include "runtime/scheduler.hpp"
#include "util/csv.hpp"
#include "util/flags.hpp"
#include "util/summary_stats.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace rasc;
  util::Flags flags(argc, argv);

  exp::RunConfig cfg;
  cfg.algorithm = flags.get_string("algorithm", "mincost");
  cfg.world.nodes = std::size_t(flags.get_int("nodes", 32));
  cfg.world.num_services = int(flags.get_int("services", 10));
  cfg.world.services_per_node =
      int(flags.get_int("services-per-node", 5));
  cfg.world.net.bw_min_kbps = flags.get_double("bw-min", 300);
  cfg.world.net.bw_max_kbps = flags.get_double("bw-max", 4000);
  cfg.world.net.latency_min =
      sim::msec(flags.get_int("latency-min-ms", 10));
  cfg.world.net.latency_max =
      sim::msec(flags.get_int("latency-max-ms", 200));
  cfg.world.net.latency_jitter = flags.get_double("latency-jitter", 0.25);
  cfg.world.service_cpu_min =
      sim::msec(flags.get_int("cpu-min-ms", 1));
  cfg.world.service_cpu_max =
      sim::msec(flags.get_int("cpu-max-ms", 4));
  cfg.world.monitor_params.outcome_window =
      std::size_t(flags.get_int("window", 200));
  cfg.world.monitor_params.advertise_reservations =
      flags.get_bool("reservations", false);

  const std::string policy = flags.get_string("policy", "llf");
  if (policy == "fifo") {
    cfg.world.runtime_params.policy = runtime::SchedulingPolicy::kFifo;
  } else if (policy == "edf") {
    cfg.world.runtime_params.policy = runtime::SchedulingPolicy::kEdf;
  } else if (policy != "llf") {
    throw util::FlagError("unknown --policy " + policy);
  }

  cfg.workload.num_requests = int(flags.get_int("requests", 60));
  cfg.workload.avg_rate_kbps = flags.get_double("rate", 100);
  cfg.workload.rate_jitter = flags.get_double("rate-jitter", 0.2);
  cfg.workload.min_services = int(flags.get_int("min-services", 2));
  cfg.workload.max_services = int(flags.get_int("max-services", 5));
  cfg.workload.unit_bytes = flags.get_int("unit-bytes", 1250);
  cfg.submit_gap = sim::msec(flags.get_int("submit-gap-ms", 700));
  cfg.steady_duration = sim::sec(flags.get_int("steady-sec", 15));

  if (flags.get_bool("no-cpu", false)) cfg.algorithm = "mincost-nocpu";

  cfg.adapt_interval = sim::msec(flags.get_int("adapt-interval", 0));
  cfg.adapt_hysteresis = flags.get_double("adapt-hysteresis", 0.05);

  // Predictive latency SLO (default 0 = off, byte-identical output).
  cfg.deadline_ms = flags.get_double("deadline-ms", 0);
  cfg.adapt_predictive = flags.get_bool("adapt-predictive", false);
  cfg.slo_window = sim::msec(flags.get_int("slo-window-ms", 1000));

  // Deploy-phase reliability (defaults keep the legacy single-shot
  // protocol and identical output bytes).
  cfg.world.deploy_policy.retransmit_budget =
      int(flags.get_int("deploy-retries", 0));
  cfg.world.deploy_policy.rollback = flags.get_bool("deploy-rollback", false);
  cfg.world.runtime_params.orphan_lease =
      sim::msec(flags.get_int("orphan-lease-ms", 0));

  // Sharded control plane (default 1 coordinator = legacy path).
  cfg.coordinators = int(flags.get_int("coordinators", 1));
  cfg.admission_policy = flags.get_string("admission-policy", "fifo");
  cfg.batch_window = sim::msec(flags.get_int("batch-window-ms", 100));
  cfg.lease_duration = sim::msec(flags.get_int("lease-ms", 12000));
  cfg.lease_renew = sim::msec(flags.get_int("lease-renew-ms", 5000));

  // Shard re-homing (default off = no standby objects, byte-identical
  // output).
  cfg.shard_standby = flags.get_bool("shard-standby", false);
  cfg.standby_check = sim::msec(flags.get_int("standby-check-ms", 500));
  cfg.submit_retry = sim::msec(flags.get_int("submit-retry-ms", 0));

  // Control-plane selection and gossip knobs (empty = legacy behavior).
  cfg.control_plane = flags.get_string("control-plane", "");
  cfg.gossip_fanout = int(flags.get_int("gossip-fanout", 3));
  cfg.gossip_interval = sim::msec(flags.get_int("gossip-interval-ms", 500));
  cfg.gossip_budget_bytes = flags.get_int("gossip-budget-bytes", 3200);
  cfg.gossip_stale_rounds = int(flags.get_int("gossip-stale-rounds", 30));

  cfg.chaos_scenario = flags.get_string("chaos-scenario", "");
  cfg.chaos_seed = std::uint64_t(flags.get_int("chaos-seed", 0));
  cfg.supervise = flags.get_bool("supervise", false);
  const std::string slo_spec = flags.get_string("slo", "");
  if (!slo_spec.empty()) cfg.slo = chaos::parse_slo(slo_spec);
  const std::string slo_report = flags.get_string("slo-report", "");
  const std::string timeline_csv = flags.get_string("chaos-timeline", "");

  const int reps = int(flags.get_int("reps", 1));
  const std::uint64_t seed = std::uint64_t(flags.get_int("seed", 42));
  const std::string csv_path = flags.get_string("csv", "");
  const std::string metrics_csv = flags.get_string("metrics-csv", "");
  const std::string metrics_json = flags.get_string("metrics-json", "");
  flags.finish();

  // "snap.csv" -> "snap_rep2.csv" when running several repetitions.
  const auto rep_path = [reps](const std::string& path, int rep) {
    if (path.empty() || reps <= 1) return path;
    const auto dot = path.find_last_of('.');
    const std::string suffix = "_rep" + std::to_string(rep);
    if (dot == std::string::npos) return path + suffix;
    return path.substr(0, dot) + suffix + path.substr(dot);
  };

  util::CsvWriter* csv = nullptr;
  util::CsvWriter csv_storage = csv_path.empty()
                                    ? util::CsvWriter("/dev/null")
                                    : util::CsvWriter(csv_path);
  if (!csv_path.empty()) {
    csv = &csv_storage;
    csv->row({"rep", "composed", "emitted", "delivered_fraction",
              "timely_fraction", "ooo_fraction", "mean_delay_ms",
              "mean_jitter_ms", "splitting_degree", "drops_network"});
  }

  util::SummaryStats composed, delivered, timely, delay, jitter;
  bool slo_violated = false;
  for (int rep = 0; rep < reps; ++rep) {
    cfg.world.seed = seed + std::uint64_t(rep) * 7919;
    cfg.metrics_csv = rep_path(metrics_csv, rep);
    cfg.metrics_json = rep_path(metrics_json, rep);
    cfg.slo_report = rep_path(slo_report, rep);
    cfg.chaos_timeline_csv = rep_path(timeline_csv, rep);
    const auto m = exp::run_experiment(cfg);
    std::printf(
        "rep %d: composed %d/%d | emitted %lld | delivered %.3f | timely "
        "%.3f | ooo %.4f | delay %.1f ms | jitter %.2f ms | split %.2f | "
        "net drops %lld\n",
        rep, m.composed, m.requests, (long long)m.emitted,
        m.delivered_fraction(), m.timely_fraction(),
        m.out_of_order_fraction(), m.mean_delay_ms(), m.mean_jitter_ms(),
        m.splitting_degree(), (long long)m.drops_network);
    if (m.faults_injected > 0 || m.slo_pass >= 0) {
      std::printf(
          "rep %d: chaos faults %lld | recoveries %lld | gave up %lld | "
          "recovery %s | slo %s\n",
          rep, (long long)m.faults_injected, (long long)m.recoveries,
          (long long)m.gave_up,
          m.recovery_ms >= 0
              ? (std::to_string(std::int64_t(m.recovery_ms)) + " ms").c_str()
              : "n/a",
          m.slo_pass < 0 ? "n/a" : (m.slo_pass == 1 ? "PASS" : "FAIL"));
    }
    if (m.adapt_attempts > 0) {
      std::printf("rep %d: adapt attempts %lld | deltas %lld | teardowns "
                  "%lld\n",
                  rep, (long long)m.adapt_attempts, (long long)m.adapt_deltas,
                  (long long)m.adapt_teardowns);
    }
    if (m.slo_windows > 0 || m.predict_triggers > 0) {
      std::printf(
          "rep %d: slo windows %lld | violated %lld (%.3f) | predict "
          "triggers %lld\n",
          rep, (long long)m.slo_windows, (long long)m.slo_windows_violated,
          m.slo_windows > 0
              ? double(m.slo_windows_violated) / double(m.slo_windows)
              : 0.0,
          (long long)m.predict_triggers);
    }
    if (m.deploy_retries > 0 || m.deploy_rollbacks > 0 ||
        m.orphans_reaped > 0) {
      std::printf("rep %d: deploy retries %lld | rollbacks %lld | orphans "
                  "reaped %lld\n",
                  rep, (long long)m.deploy_retries,
                  (long long)m.deploy_rollbacks, (long long)m.orphans_reaped);
    }
    if (m.shard_submitted > 0) {
      std::printf(
          "rep %d: shards admitted %lld/%lld | batches %lld | repairs "
          "%lld | lease grants %lld | nacks %lld | expired %lld | "
          "overgrant %.3f kbps\n",
          rep, (long long)m.shard_admitted, (long long)m.shard_submitted,
          (long long)m.shard_batches, (long long)m.shard_repairs,
          (long long)m.lease_grants, (long long)m.lease_nacks,
          (long long)m.lease_expired, m.lease_overgrant_kbps);
      if (m.shard_failovers > 0) {
        std::printf("rep %d: shard failovers %lld\n", rep,
                    (long long)m.shard_failovers);
      }
      if (m.shard_rehomes > 0 || m.shard_fenced > 0 ||
          m.shard_resubmits > 0) {
        std::printf(
            "rep %d: shard rehomes %lld | adopted %lld | reclaimed %lld | "
            "fenced %lld | resubmits %lld\n",
            rep, (long long)m.shard_rehomes, (long long)m.shard_adopted,
            (long long)m.shard_reclaimed, (long long)m.shard_fenced,
            (long long)m.shard_resubmits);
      }
    }
    if (m.gossip_submitted > 0) {
      std::printf(
          "rep %d: gossip admitted %lld/%lld | repairs %lld | digests "
          "%lld | digest bytes %lld | merges %lld | prunes %lld\n",
          rep, (long long)m.gossip_admitted, (long long)m.gossip_submitted,
          (long long)m.gossip_repairs, (long long)m.gossip_sends,
          (long long)m.gossip_sent_bytes, (long long)m.gossip_merges,
          (long long)m.gossip_prunes);
    }
    if (m.slo_pass == 0) slo_violated = true;
    composed.add(m.composed);
    delivered.add(m.delivered_fraction());
    timely.add(m.timely_fraction());
    delay.add(m.mean_delay_ms());
    jitter.add(m.mean_jitter_ms());
    if (csv != nullptr) {
      csv->numeric_row(std::to_string(rep),
                       {double(m.composed), double(m.emitted),
                        m.delivered_fraction(), m.timely_fraction(),
                        m.out_of_order_fraction(), m.mean_delay_ms(),
                        m.mean_jitter_ms(), m.splitting_degree(),
                        double(m.drops_network)});
    }
  }
  if (reps > 1) {
    std::printf(
        "\nmean over %d reps: composed %.1f | delivered %.3f | timely "
        "%.3f | delay %.1f ms | jitter %.2f ms\n",
        reps, composed.mean(), delivered.mean(), timely.mean(),
        delay.mean(), jitter.mean());
  }
  return slo_violated ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  return rasc::util::run_main(argc, argv, run);
}
