#include "exp/runner.hpp"

#include <algorithm>
#include <memory>

#include "chaos/injector.hpp"
#include "chaos/scenario.hpp"
#include "core/latency_model.hpp"
#include "exp/control_plane.hpp"
#include "exp/gossip_control_plane.hpp"
#include "util/logging.hpp"

namespace rasc::exp {

RunMetrics run_experiment(const RunConfig& config) {
  return run_experiment(config, nullptr);
}

RunMetrics run_experiment(const RunConfig& config,
                          std::vector<obs::MetricRow>* snapshot_out) {
  const bool gossip = config.control_plane == "gossip";
  const bool sharded =
      !gossip && (config.control_plane == "sharded" ||
                  (config.control_plane.empty() && config.coordinators > 1));
  WorldConfig world_config = config.world;
  // Lease accounting on the nodes relies on failed attempts being rolled
  // back (debits returned); pool debits in gossip mode likewise. Plain
  // centralized runs keep the configured policy.
  if (sharded || gossip) world_config.deploy_policy.rollback = true;
  World world(world_config);
  auto& simulator = world.simulator();

  auto workload_rng = simulator.rng().split(0x776f726b /* "work" */);
  auto requests = generate_workload(
      config.workload, world.service_names(), world.size(), workload_rng);

  // Predictive latency SLO: constructed only when a deadline is set —
  // deadline-off runs build no model, stamp no requests and create no
  // predict.*/slo.* cells (no RNG stream is involved either way).
  const bool deadline_on = config.deadline_ms > 0;
  std::unique_ptr<core::LatencyModel> latency_model;
  core::MinCostComposer::Options composer_options;
  if (deadline_on) {
    for (auto& request : requests) request.deadline_ms = config.deadline_ms;
    const sim::Topology& topo = world.network().topology();
    core::LatencyModel::Options lm_options;
    lm_options.link_latency_ms = [&topo](sim::NodeIndex a,
                                         sim::NodeIndex b) {
      if (a == b) return 0.0;
      return double(topo.latency_us[std::size_t(a)][std::size_t(b)]) /
             1000.0;
    };
    latency_model =
        std::make_unique<core::LatencyModel>(world.catalog(), lm_options);
    composer_options.latency_model = latency_model.get();
  }

  auto composer = make_composer(config.algorithm,
                                simulator.rng().split(0x636f6d70 /*comp*/),
                                composer_options);

  // Sharded control plane (coordinators > 1 only): constructed strictly
  // after the splits above so the unsharded random streams are untouched.
  std::unique_ptr<ShardControlPlane> plane;
  if (sharded) {
    ShardControlPlane::Config plane_config;
    plane_config.coordinators = config.coordinators;
    plane_config.admission_policy = config.admission_policy;
    plane_config.batch_window = config.batch_window;
    plane_config.lease_duration = config.lease_duration;
    plane_config.lease_renew = config.lease_renew;
    plane_config.algorithm = config.algorithm;
    plane_config.composer_options = composer_options;
    plane_config.standby = config.shard_standby;
    plane_config.standby_check = config.standby_check;
    plane_config.submit_retry = config.submit_retry;
    // Adopted apps get the run's deadline back (the original request's
    // SLO is not recoverable from runtime state).
    plane_config.default_deadline_ms = config.deadline_ms;
    plane_config.coordinators = std::max(plane_config.coordinators, 2);
    plane = std::make_unique<ShardControlPlane>(
        world, plane_config, simulator.rng().split(0x73686164 /*shad*/));
  }

  // Gossip control plane (--control-plane=gossip only): same construction
  // discipline — strictly after the splits above, so centralized and
  // sharded random streams are untouched.
  std::unique_ptr<GossipControlPlane> gossip_plane;
  if (gossip) {
    GossipControlPlane::Config plane_config;
    plane_config.agent.fanout = config.gossip_fanout;
    plane_config.agent.interval = config.gossip_interval;
    plane_config.agent.budget_bytes = config.gossip_budget_bytes;
    plane_config.agent.stale_rounds = config.gossip_stale_rounds;
    plane_config.composer.latency_model = composer_options.latency_model;
    gossip_plane = std::make_unique<GossipControlPlane>(
        world, plane_config, simulator.rng().split(0x676f7373 /*goss*/));
  }

  RunMetrics metrics;
  metrics.requests = int(requests.size());

  // Chaos setup. Everything below is conditional: with no scenario and
  // no SLO spec, no object is created, nothing is scheduled and no
  // random stream is touched, so the run is event-for-event identical
  // to a build without the chaos subsystem.
  const bool chaos_on =
      !config.chaos_scenario.empty() && config.chaos_scenario != "none";
  chaos::Scenario scenario;
  if (chaos_on) {
    scenario = chaos::parse_scenario(config.chaos_scenario);
    if (config.chaos_seed != 0) scenario.seed = config.chaos_seed;
  }
  const bool supervise = config.supervise || chaos_on;
  const bool adapt = config.adapt_interval > 0;
  core::RateAdapter::Params adapt_params;
  if (adapt) {
    adapt_params.interval = config.adapt_interval;
    adapt_params.hysteresis = config.adapt_hysteresis;
    // Quiet period after a shipped round: long enough for the deltas to
    // land and the windowed statistics to reflect them.
    adapt_params.cooldown = 2 * config.adapt_interval;
    if (config.adapt_predictive && deadline_on) {
      adapt_params.predictive = true;
      adapt_params.latency_model = latency_model.get();
    }
  }

  // Adoption callout: when a standby takes over a dead shard, re-attach
  // the adapter and supervisor on the standby's home — the same wiring a
  // fresh admission gets below, minus the metrics (the app was already
  // counted when first admitted).
  if (sharded && config.shard_standby) {
    plane->set_adopt_handler(
        [&world, supervise, adapt, adapt_params](
            sim::NodeIndex home, const core::ServiceRequest& request,
            const runtime::AppPlan& plan,
            const std::map<std::string, std::vector<sim::NodeIndex>>&
                providers,
            sim::SimTime stream_stop) {
          auto& host = world.host(std::size_t(home));
          if (adapt) {
            host.enable_adapter(adapt_params)
                .track(request, plan, providers, stream_stop);
          }
          if (supervise) {
            host.supervisor().watch(request, plan, stream_stop, {});
          }
        });
  }

  const bool rehome = sharded && config.shard_standby;
  const sim::SimTime t0 = simulator.now();
  // Sharded runs hold submissions until every node's first lease grant
  // landed; gossip runs until the views had a full dissemination sweep;
  // unsharded runs start at t0 exactly as before.
  const sim::SimTime submit0 = sharded  ? t0 + plane->warmup()
                               : gossip ? t0 + gossip_plane->warmup()
                                        : t0;
  const sim::SimTime last_submit =
      submit0 + sim::SimDuration(requests.size()) * config.submit_gap;
  const sim::SimTime stream_stop =
      last_submit + config.steady_duration;
  const sim::SimTime run_end = stream_stop + config.drain;

  if (sharded) plane->start(t0);
  if (gossip) gossip_plane->start(t0);

  // Submit each request, staggered: through its source node's own
  // coordinator, or routed to its hash-owned shard when sharded.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto& request = requests[i];
    const sim::SimTime when =
        submit0 + sim::SimDuration(i) * config.submit_gap;
    // The node whose host controls the admitted app: the shard home owns
    // the deployment (its coordinator sent it), so its adapter and
    // supervisor must watch the app, not the source's.
    const sim::NodeIndex ctl_node =
        sharded ? plane->home_of(plane->shard_of(request.app))
                : request.source;
    simulator.call_at(when, [&world, &metrics, &request, &composer, &plane,
                             &gossip_plane, stream_stop, supervise, adapt,
                             adapt_params, sharded, gossip, rehome,
                             ctl_node] {
      auto on_outcome = [&world, &metrics, &request, &gossip_plane,
                         stream_stop, supervise, adapt, adapt_params, gossip,
                         rehome,
                         ctl_node](const core::SubmitOutcome& outcome) {
        if (outcome.compose.admitted) {
          ++metrics.composed;
          metrics.components +=
              std::int64_t(outcome.compose.plan.component_count());
          for (const auto& sub : outcome.compose.plan.substreams) {
            metrics.stages += std::int64_t(sub.stages.size());
          }
          // Admission-time latency prediction, exported next to the
          // observed sink.delay_ms for the same app (only composers
          // running with a LatencyModel produce one).
          if (outcome.compose.predicted_latency_ms >= 0) {
            obs::Labels labels;
            labels.app = request.app;
            world.metrics()
                .gauge("predict.latency_ms", labels)
                .set(outcome.compose.predicted_latency_ms);
          }
          // The shard that actually admitted may differ from the hash
          // home computed at submission time (a standby takeover or a
          // failover re-homed the app). Only honored with standbys on:
          // plain runs keep the legacy static attachment byte-for-byte.
          const sim::NodeIndex admitted_on =
              rehome && outcome.admitted_by != sim::kInvalidNode
                  ? outcome.admitted_by
                  : ctl_node;
          auto& host = world.host(std::size_t(admitted_on));
          // Adapter before supervisor: watch() consults the adapter
          // as its first-line starvation response.
          if (adapt) {
            auto& adapter = host.enable_adapter(adapt_params);
            // Decentralized runs feed replanning snapshots from the
            // node-local gossip view instead of central stats queries.
            if (gossip) {
              gossip_plane->feed_adapter(std::size_t(ctl_node), adapter);
            }
            adapter.track(request, outcome.compose.plan,
                          outcome.providers, stream_stop);
          }
          if (supervise) {
            host.supervisor().watch(request, outcome.compose.plan,
                                    stream_stop, {});
          }
        } else {
          RASC_LOG(kDebug) << "app " << request.app
                           << " rejected: " << outcome.compose.error;
        }
      };
      if (sharded) {
        plane->submit(request, /*stream_start=*/0, stream_stop,
                      std::move(on_outcome));
      } else if (gossip) {
        gossip_plane->submit(request, /*stream_start=*/0, stream_stop,
                             std::move(on_outcome));
      } else {
        world.host(std::size_t(request.source))
            .coordinator()
            .submit(request, *composer, /*stream_start=*/0, stream_stop,
                    std::move(on_outcome));
      }
    });
  }

  // Per-(app, window) SLO violation accounting: every slo_window, each
  // app's windowed mean delivery delay — reconstructed from the
  // sink.delay_ms histogram deltas, summed over that app's sinks — is
  // scored against the deadline; a window with deliveries before it but
  // none inside it counts as starved (violated). Scheduled only when a
  // deadline is set.
  struct SloAppState {
    double sum_ms = 0;  // Σ mean·count over the app's delay cells
    std::int64_t count = 0;
  };
  auto slo_state = std::make_shared<std::map<std::int64_t, SloAppState>>();
  if (deadline_on && config.slo_window > 0) {
    auto* windows_cell = &world.metrics().counter("slo.windows");
    auto* violated_cell = &world.metrics().counter("slo.windows_violated");
    const double deadline = config.deadline_ms;
    auto probe = [&world, slo_state, windows_cell, violated_cell,
                  deadline] {
      std::map<std::int64_t, SloAppState> current;
      for (const auto& row : world.metrics().snapshot()) {
        if (row.name != "sink.delay_ms") continue;
        SloAppState& s = current[row.labels.app];
        s.sum_ms += row.mean * double(row.count);
        s.count += row.count;
      }
      for (const auto& [app, s] : current) {
        const auto last = slo_state->find(app);
        const double last_sum =
            last == slo_state->end() ? 0 : last->second.sum_ms;
        const std::int64_t last_count =
            last == slo_state->end() ? 0 : last->second.count;
        // A sink whose cell exists but never delivered is not yet
        // streaming — nothing to score.
        if (s.count == 0 && last_count == 0) continue;
        windows_cell->add();
        const std::int64_t delta = s.count - last_count;
        const bool violated =
            delta > 0 ? (s.sum_ms - last_sum) / double(delta) > deadline
                      : true;  // starved: delivered before, not now
        if (violated) violated_cell->add();
      }
      *slo_state = std::move(current);
    };
    for (sim::SimTime at = submit0 + config.slo_window; at <= stream_stop;
         at += config.slo_window) {
      simulator.call_at(at, probe);
    }
  }

  std::unique_ptr<chaos::SloChecker> slo_checker;
  if (config.slo.any()) {
    slo_checker = std::make_unique<chaos::SloChecker>(
        simulator, world.metrics(), config.slo);
    slo_checker->start(run_end);
  }

  std::unique_ptr<chaos::Injector> injector;
  if (chaos_on) {
    chaos::Hooks hooks;
    // A crashed node must also vanish from the overlay: its neighbors
    // drop it from their routing tables (re-discovery on restore is the
    // overlay's normal join path).
    hooks.on_crash = [&world](sim::NodeIndex victim) {
      for (std::size_t n = 0; n < world.size(); ++n) {
        if (sim::NodeIndex(n) != victim) {
          world.overlay().at(n).purge_peer(victim);
        }
      }
    };
    hooks.set_monitor_blackout = [&world](sim::NodeIndex node, bool on) {
      world.host(std::size_t(node)).monitor().set_blackout(on);
    };
    if (slo_checker != nullptr) {
      auto* checker = slo_checker.get();
      hooks.on_first_fault = [checker](sim::SimTime at) {
        checker->note_fault(at);
      };
    }
    injector = std::make_unique<chaos::Injector>(
        simulator, world.network(), scenario, std::move(hooks),
        &world.metrics());
    injector->arm(t0, run_end);
  }

  simulator.run_until(run_end);
  metrics.sim_events = std::int64_t(simulator.processed_events());

  // Collect the §4.2 stream statistics from the live endpoints, in node
  // order. Sink stats are floating-point summaries whose merge order
  // matters for bit-exactness, and live endpoints exclude torn-down
  // applications (the registry's sink.* cells outlive teardown).
  for (std::size_t n = 0; n < world.size(); ++n) {
    const auto& rt = world.host(n).runtime();
    metrics.emitted += rt.total_emitted();
    const auto sink = rt.aggregate_sink_stats();
    metrics.delivered += sink.delivered;
    metrics.timely += sink.timely;
    metrics.out_of_order += sink.out_of_order;
    metrics.delay_ms.merge(sink.delay_ms);
    metrics.jitter_ms.merge(sink.jitter_ms);
  }

  // Drop totals come straight from the registry: integer counters, so
  // the label-order sum is exact and teardown cannot lose them.
  const auto& registry = world.metrics();
  metrics.drops_queue_full = registry.counter_total("runtime.drops_queue_full");
  metrics.drops_deadline = registry.counter_total("runtime.drops_deadline");
  metrics.unroutable = registry.counter_total("runtime.units_unroutable");
  metrics.drops_network = registry.counter_total("net.port_drops_out") +
                          registry.counter_total("net.port_drops_in");
  metrics.recoveries =
      registry.counter_total("supervisor.recoveries_succeeded");
  metrics.gave_up = registry.counter_total("supervisor.gave_up");
  metrics.adapt_attempts = registry.counter_total("adapt.attempts");
  metrics.adapt_deltas = registry.counter_total("adapt.deltas_shipped");
  metrics.adapt_teardowns = registry.counter_total("adapt.teardowns");
  metrics.deploy_retries = registry.counter_total("deploy.retries");
  metrics.deploy_rollbacks = registry.counter_total("deploy.rollbacks");
  metrics.orphans_reaped = registry.counter_total("orphan.reaped");
  metrics.slo_windows = registry.counter_total("slo.windows");
  metrics.slo_windows_violated =
      registry.counter_total("slo.windows_violated");
  metrics.predict_triggers = registry.counter_total("adapt.predict_triggers");
  metrics.shard_failovers = registry.counter_total("shard.failovers");
  metrics.shard_rehomes = registry.counter_total("shard.rehomes");
  metrics.shard_fenced = registry.counter_total("shard.fenced_msgs");
  metrics.shard_adopted = registry.counter_total("shard.adopted_apps");
  metrics.shard_reclaimed = registry.counter_total("shard.reclaimed_apps");
  metrics.shard_resubmits = registry.counter_total("shard.resubmits");
  metrics.shard_submitted = registry.counter_total("shard.submitted");
  metrics.shard_admitted = registry.counter_total("shard.admitted");
  metrics.shard_rejected = registry.counter_total("shard.rejected");
  metrics.shard_batches = registry.counter_total("shard.batches");
  metrics.shard_repairs = registry.counter_total("shard.repairs");
  metrics.lease_grants = registry.counter_total("lease.granted");
  metrics.lease_nacks = registry.counter_total("lease.nacks");
  metrics.lease_expired = registry.counter_total("lease.expired");
  metrics.gossip_submitted = registry.counter_total("gossip.submitted");
  metrics.gossip_admitted = registry.counter_total("gossip.admitted");
  metrics.gossip_rejected = registry.counter_total("gossip.rejected");
  metrics.gossip_repairs = registry.counter_total("gossip.repairs");
  metrics.gossip_sends = registry.counter_total("gossip.sends");
  metrics.gossip_sent_bytes = registry.counter_total("gossip.sent_bytes");
  metrics.gossip_merges = registry.counter_total("gossip.merges_fresh");
  metrics.gossip_prunes = registry.counter_total("gossip.prunes");
  for (std::size_t n = 0; n < world.size(); ++n) {
    const auto* granter = world.host(n).lease_granter();
    if (granter != nullptr) {
      metrics.lease_overgrant_kbps = std::max(
          metrics.lease_overgrant_kbps, granter->overgrant_high_water_kbps());
    }
  }

  if (injector != nullptr) {
    metrics.faults_injected = injector->applied();
    if (!config.chaos_timeline_csv.empty()) {
      injector->write_timeline_csv(config.chaos_timeline_csv);
    }
  }
  if (slo_checker != nullptr) {
    const auto report =
        slo_checker->finalize(chaos_on ? scenario.name : "none");
    metrics.slo_pass = report.pass ? 1 : 0;
    if (report.recovery_us >= 0) {
      metrics.recovery_ms = sim::to_seconds(report.recovery_us) * 1000.0;
    }
    if (!config.slo_report.empty()) {
      chaos::SloChecker::write_report(report, config.slo_report);
    }
  }

  if (snapshot_out != nullptr) *snapshot_out = registry.snapshot();
  if (!config.metrics_csv.empty()) registry.write_csv(config.metrics_csv);
  if (!config.metrics_json.empty()) registry.write_json(config.metrics_json);
  return metrics;
}

}  // namespace rasc::exp
