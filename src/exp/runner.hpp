// Single-run experiment driver: build a world, submit a workload through
// the distributed pipeline (discovery -> stats -> composition ->
// deployment -> streaming), and collect the paper's §4.2 metrics.
#pragma once

#include <cstdint>
#include <string>

#include "chaos/slo.hpp"
#include "exp/workload.hpp"
#include "exp/world.hpp"
#include "obs/metric_registry.hpp"
#include "util/summary_stats.hpp"

namespace rasc::exp {

struct RunConfig {
  WorldConfig world;
  WorkloadConfig workload;
  /// "mincost" (RASC), "greedy" or "random".
  std::string algorithm = "mincost";
  /// Gap between consecutive request submissions.
  sim::SimDuration submit_gap = sim::msec(800);
  /// How long streams keep running after the last submission.
  sim::SimDuration steady_duration = sim::sec(20);
  /// Drain margin: sources stop this long before measurement ends so
  /// in-flight units can land.
  sim::SimDuration drain = sim::sec(3);
  /// When non-empty: write the world's full registry snapshot here after
  /// the run (deterministic key order; see obs::MetricRegistry).
  std::string metrics_csv;
  std::string metrics_json;

  // --- Chaos / resilience (all off by default; a run with no scenario
  // and no SLO is event-for-event identical to pre-chaos builds) ---

  /// chaos::parse_scenario spec, e.g. "single-crash" or
  /// "churn:period=4s,repeats=8". Empty or "none" disables injection.
  std::string chaos_scenario;
  /// Overrides the scenario's own fault seed when nonzero.
  std::uint64_t chaos_seed = 0;
  /// SLO checks evaluated over the run; see chaos::parse_slo. An empty
  /// spec (no checks enabled) skips the checker entirely.
  chaos::SloSpec slo;
  /// When non-empty: the SLO pass/fail report CSV is written here.
  std::string slo_report;
  /// When non-empty: the expanded fault timeline CSV is written here.
  std::string chaos_timeline_csv;
  /// Watch every admitted app with its source node's AppSupervisor.
  /// Implied by a chaos scenario.
  bool supervise = false;

  // --- Online rate re-allocation (off by default: with interval 0 no
  // adapter is constructed, no adapt.* registry cell exists, and the run
  // is event-for-event identical to an adaptation-free build) ---

  /// Period of the per-app delta re-allocation loop; 0 disables it.
  sim::SimDuration adapt_interval = 0;
  /// Minimum relative cost improvement before deltas are shipped.
  double adapt_hysteresis = 0.05;

  // --- Predictive latency SLO (off by default: with deadline_ms 0 no
  // LatencyModel is constructed, requests carry no deadline, no
  // predict.*/slo.* registry cell exists, and the run is event-for-event
  // identical to a build without the subsystem) ---

  /// End-to-end latency deadline stamped on every generated request (ms);
  /// composers then reject placements whose predicted queueing latency
  /// violates it. 0 = no deadline.
  double deadline_ms = 0;
  /// Let the RateAdapter re-solve when the *predicted* latency of the
  /// deployed plan crosses the deadline, instead of waiting for observed
  /// drops. Needs deadline_ms > 0 and adapt_interval > 0.
  bool adapt_predictive = false;
  /// Violation accounting window (per app, from sink delay deltas).
  sim::SimDuration slo_window = sim::sec(1);

  // --- Sharded control plane (1 coordinator by default: requests submit
  // through their source node's coordinator exactly as before, no lease
  // subsystem is constructed, and the run is event-for-event identical
  // to pre-shard builds) ---

  /// Number of coordinator shards; > 1 switches admission to hash-routed
  /// batched composition against leased capacity views. Clamped to the
  /// node count. Forces deploy rollback (lease accounting relies on it).
  int coordinators = 1;
  /// Batch admission order: "fifo", "smallest-demand" or "highest-value".
  std::string admission_policy = "fifo";
  /// Shard queue drain cadence.
  sim::SimDuration batch_window = sim::msec(100);
  /// Node-side lease lifetime and shard-side renewal cadence.
  sim::SimDuration lease_duration = sim::sec(12);
  sim::SimDuration lease_renew = sim::sec(5);

  // --- Shard re-homing (off by default: no standby object exists and
  // sharded runs stay event-for-event identical to pre-rehome builds) ---

  /// Give every shard a dormant standby coordinator that takes the shard
  /// over (fence, reconstruct, adopt) when the primary dies. Needs
  /// coordinators > 1 and nodes >= 2 * coordinators.
  bool shard_standby = false;
  /// Standby watchdog poll period of the primary-death signal.
  sim::SimDuration standby_check = sim::msec(500);
  /// Source-side submission journal deadline: > 0 re-submits requests
  /// whose outcome never arrived (lost in a dead primary's batch
  /// window), up to the plane's retry budget. 0 = journal off.
  sim::SimDuration submit_retry = 0;

  // --- Control-plane selection (empty by default: the legacy behavior —
  // centralized per-source coordinators, or the sharded plane when
  // coordinators > 1 — is untouched, and no gossip object is ever
  // constructed, keeping default runs byte-identical) ---

  /// "" (auto: sharded iff coordinators > 1), "centralized", "sharded",
  /// or "gossip" (decentralized: per-node partial views + hop-by-hop
  /// composition + leaseless pool debits; forces deploy rollback).
  std::string control_plane;
  /// Gossip knobs (--control-plane=gossip only; ignored otherwise).
  int gossip_fanout = 3;
  sim::SimDuration gossip_interval = sim::msec(500);
  std::int64_t gossip_budget_bytes = 3200;
  int gossip_stale_rounds = 30;
};

struct RunMetrics {
  int requests = 0;
  int composed = 0;

  std::int64_t emitted = 0;
  std::int64_t delivered = 0;
  std::int64_t timely = 0;
  std::int64_t out_of_order = 0;

  util::SummaryStats delay_ms;
  util::SummaryStats jitter_ms;

  /// Components instantiated across all admitted requests and the number
  /// of service stages they implement; components/stages > 1 means rate
  /// splitting happened (greedy and random are exactly 1).
  std::int64_t components = 0;
  std::int64_t stages = 0;
  std::int64_t drops_queue_full = 0;
  std::int64_t drops_deadline = 0;
  std::int64_t unroutable = 0;
  /// Packets tail-dropped at access-link port queues (all kinds).
  std::int64_t drops_network = 0;
  /// Events the world's simulator processed, overlay bootstrap included.
  std::int64_t sim_events = 0;

  /// Chaos/resilience outcomes (all zero / -1 on plain runs).
  std::int64_t faults_injected = 0;
  std::int64_t recoveries = 0;  // supervisor recoveries that succeeded
  std::int64_t gave_up = 0;     // apps the supervisor abandoned

  /// Rate-adapter outcomes (all zero when adaptation is off).
  std::int64_t adapt_attempts = 0;
  std::int64_t adapt_deltas = 0;     // delta messages shipped
  std::int64_t adapt_teardowns = 0;  // tracked apps still torn down

  /// Deploy-reliability outcomes (all zero under the default single-shot
  /// deploy policy with the reaper off).
  std::int64_t deploy_retries = 0;    // deploy messages retransmitted
  std::int64_t deploy_rollbacks = 0;  // failed deployments rolled back
  std::int64_t orphans_reaped = 0;    // apps lease-reaped by runtimes

  /// Predictive-SLO outcomes (all zero when deadline_ms is 0).
  std::int64_t slo_windows = 0;           // (app, window) pairs scored
  std::int64_t slo_windows_violated = 0;  // mean delay past the deadline
  std::int64_t predict_triggers = 0;      // adapter predictive firings

  /// Sharded-control-plane outcomes (all zero with one coordinator).
  std::int64_t shard_failovers = 0;  // submissions rerouted off dead shards
  /// Shard re-homing outcomes (all zero with standbys off).
  std::int64_t shard_rehomes = 0;       // standby takeovers
  std::int64_t shard_fenced = 0;        // zombie messages NACKed at granters
  std::int64_t shard_adopted = 0;       // orphaned apps adopted
  std::int64_t shard_reclaimed = 0;     // unadoptable apps torn down
  std::int64_t shard_resubmits = 0;     // journal re-submissions
  std::int64_t shard_submitted = 0;
  std::int64_t shard_admitted = 0;
  std::int64_t shard_rejected = 0;
  std::int64_t shard_batches = 0;
  std::int64_t shard_repairs = 0;  // NACK-repair re-compositions
  std::int64_t lease_grants = 0;
  std::int64_t lease_nacks = 0;    // lease debits refused by granters
  std::int64_t lease_expired = 0;  // grants that lapsed unrenewed
  /// Max over nodes of the overgrant high-water mark: > 0 would mean
  /// some node promised more bandwidth than it had (double reservation).
  double lease_overgrant_kbps = 0;

  /// Gossip-control-plane outcomes (all zero unless control_plane is
  /// "gossip").
  std::int64_t gossip_submitted = 0;
  std::int64_t gossip_admitted = 0;
  std::int64_t gossip_rejected = 0;
  std::int64_t gossip_repairs = 0;   // NACK-repair re-compositions
  std::int64_t gossip_sends = 0;     // digests pushed
  std::int64_t gossip_sent_bytes = 0;  // digest payload bytes (no framing)
  std::int64_t gossip_merges = 0;    // fresh entries accepted
  std::int64_t gossip_prunes = 0;    // entries aged out as stale
  double recovery_ms = -1;      // SLO recovery time; -1 = n/a or never
  int slo_pass = -1;            // -1 = no SLO evaluated, else 0/1

  double composed_fraction() const {
    return requests ? double(composed) / requests : 0;
  }
  double delivered_fraction() const {
    return emitted ? double(delivered) / double(emitted) : 0;
  }
  double timely_fraction() const {
    return delivered ? double(timely) / double(delivered) : 0;
  }
  double out_of_order_fraction() const {
    return delivered ? double(out_of_order) / double(delivered) : 0;
  }
  double mean_delay_ms() const { return delay_ms.mean(); }
  double mean_jitter_ms() const { return jitter_ms.mean(); }
  /// Average component instances per service stage (1.0 = no splitting).
  double splitting_degree() const {
    return stages ? double(components) / double(stages) : 0;
  }
};

/// Runs one full experiment. Deterministic in `config` (including seeds).
/// `snapshot_out` (optional) receives the world's registry snapshot taken
/// at the end of the run, after the RunMetrics were collected.
RunMetrics run_experiment(const RunConfig& config,
                          std::vector<obs::MetricRow>* snapshot_out);
RunMetrics run_experiment(const RunConfig& config);

}  // namespace rasc::exp
