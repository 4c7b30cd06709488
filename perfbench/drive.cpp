#include <algorithm>
#include <bit>
#include <chrono>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "bench.hpp"
#include "chaos/injector.hpp"
#include "chaos/scenario.hpp"
#include "exp/control_plane.hpp"
#include "exp/workload.hpp"
#include "monitor/stats_protocol.hpp"
#include "overlay/builder.hpp"
#include "runtime/scheduler.hpp"
#include "util/flags.hpp"

namespace perfbench {

using namespace rasc;

const std::vector<Workload>& workloads() {
  // README.md gives the reason for each workload and the layer each one
  // loads; keep the two in step.
  static const std::vector<Workload> table = {
      {"paper32", "--nodes 32 --rate 200 --requests 120 --steady-sec 60", 26,
       true},
      {"compose128",
       "--nodes 128 --bw-min 1000 --rate 50 --requests 120 --submit-gap-ms "
       "100 --steady-sec 5",
       56, true},
      {"drift128",
       "--nodes 128 --adapt-interval 1000 --supervise "
       "--chaos-scenario load-drift",
       8, true},
      {"scale384", "--nodes 384", 1, false},
  };
  return table;
}

exp::RunConfig cli_config(const std::string& flags, std::uint64_t seed) {
  std::vector<std::string> args = {"rasc_cli"};
  std::istringstream in(flags);
  for (std::string token; in >> token;) args.push_back(token);
  std::vector<const char*> argv;
  for (const auto& a : args) argv.push_back(a.c_str());
  util::Flags f(int(argv.size()), argv.data());

  // Same flag names and defaults as examples/rasc_sim.cpp, restricted to
  // the flags the centralized, deadline-free path reads.
  exp::RunConfig cfg;
  cfg.algorithm = f.get_string("algorithm", "mincost");
  cfg.world.nodes = std::size_t(f.get_int("nodes", 32));
  cfg.world.num_services = int(f.get_int("services", 10));
  cfg.world.services_per_node = int(f.get_int("services-per-node", 5));
  cfg.world.net.bw_min_kbps = f.get_double("bw-min", 300);
  cfg.world.net.bw_max_kbps = f.get_double("bw-max", 4000);
  cfg.world.net.latency_min = sim::msec(f.get_int("latency-min-ms", 10));
  cfg.world.net.latency_max = sim::msec(f.get_int("latency-max-ms", 200));
  cfg.world.net.latency_jitter = f.get_double("latency-jitter", 0.25);
  cfg.world.service_cpu_min = sim::msec(f.get_int("cpu-min-ms", 1));
  cfg.world.service_cpu_max = sim::msec(f.get_int("cpu-max-ms", 4));
  cfg.world.monitor_params.outcome_window =
      std::size_t(f.get_int("window", 200));
  cfg.world.monitor_params.advertise_reservations =
      f.get_bool("reservations", false);
  const std::string policy = f.get_string("policy", "llf");
  if (policy == "fifo") {
    cfg.world.runtime_params.policy = runtime::SchedulingPolicy::kFifo;
  } else if (policy == "edf") {
    cfg.world.runtime_params.policy = runtime::SchedulingPolicy::kEdf;
  } else if (policy != "llf") {
    throw std::invalid_argument("unknown --policy " + policy);
  }
  cfg.workload.num_requests = int(f.get_int("requests", 60));
  cfg.workload.avg_rate_kbps = f.get_double("rate", 100);
  cfg.workload.rate_jitter = f.get_double("rate-jitter", 0.2);
  cfg.workload.min_services = int(f.get_int("min-services", 2));
  cfg.workload.max_services = int(f.get_int("max-services", 5));
  cfg.workload.unit_bytes = f.get_int("unit-bytes", 1250);
  cfg.submit_gap = sim::msec(f.get_int("submit-gap-ms", 700));
  cfg.steady_duration = sim::sec(f.get_int("steady-sec", 15));
  if (f.get_bool("no-cpu", false)) cfg.algorithm = "mincost-nocpu";
  cfg.adapt_interval = sim::msec(f.get_int("adapt-interval", 0));
  cfg.adapt_hysteresis = f.get_double("adapt-hysteresis", 0.05);
  cfg.world.deploy_policy.retransmit_budget =
      int(f.get_int("deploy-retries", 0));
  cfg.world.deploy_policy.rollback = f.get_bool("deploy-rollback", false);
  cfg.world.runtime_params.orphan_lease =
      sim::msec(f.get_int("orphan-lease-ms", 0));
  cfg.chaos_scenario = f.get_string("chaos-scenario", "");
  cfg.chaos_seed = std::uint64_t(f.get_int("chaos-seed", 0));
  cfg.supervise = f.get_bool("supervise", false);
  f.finish();
  cfg.world.seed = seed;
  return cfg;
}

double host_now() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point origin = clock::now();
  return std::chrono::duration<double>(clock::now() - origin).count();
}

int Tracer::open(const char* name) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.run = run_;
  span.start_s = host_now();
  spans_.push_back(span);
  open_.push_back(int(spans_.size()) - 1);
  return open_.back();
}

void Tracer::close(int id) {
  if (id < 0) return;
  spans_[std::size_t(id)].end_s = host_now();
  open_.pop_back();
}

int SubRun::failed() const {
  if (!error.empty()) return sim.requests;
  return deploy_timeouts + (sim.requests - outcomes);
}

namespace {

/// Times Composer::compose from outside the coordinator that calls it.
class TimedComposer final : public core::Composer {
 public:
  TimedComposer(core::Composer& inner, Tracer& tracer, std::int64_t& calls)
      : inner_(inner), tracer_(tracer), calls_(calls) {}

  const char* name() const override { return inner_.name(); }
  core::ComposeResult compose(const core::ComposeInput& input) override {
    Tracer::Scope span(tracer_, "core.compose");
    ++calls_;
    return inner_.compose(input);
  }

 private:
  core::Composer& inner_;
  Tracer& tracer_;
  std::int64_t& calls_;
};

class Hash {
 public:
  void add(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ULL;  // FNV-1a
    }
  }
  void add(const std::string& s) { add(s.data(), s.size()); add(s.size()); }
  template <typename T>
  void add(T value) requires std::is_arithmetic_v<T> {
    add(&value, sizeof value);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Cells that hold host time; only their sample counts are simulated.
bool wall_clock_cell(const std::string& name) {
  return name == "adapt.solve_us";
}

std::uint64_t registry_digest(const std::vector<obs::MetricRow>& rows) {
  Hash h;
  for (const auto& row : rows) {
    h.add(row.name);
    h.add(row.labels.node);
    h.add(row.labels.app);
    h.add(row.labels.component);
    h.add(int(row.kind));
    h.add(row.count);
    if (wall_clock_cell(row.name)) continue;
    for (double v : {row.value, row.mean, row.stddev, row.min, row.max,
                     row.p50, row.p95, row.p99}) {
      h.add(v);
    }
  }
  return h.value();
}

/// The RunMetrics fields a benchmark workload can move.
std::vector<std::pair<const char*, double>> outcome_fields(
    const exp::RunMetrics& m) {
  return {{"requests", m.requests},
          {"composed", m.composed},
          {"emitted", double(m.emitted)},
          {"delivered", double(m.delivered)},
          {"timely", double(m.timely)},
          {"out_of_order", double(m.out_of_order)},
          {"mean_delay_ms", m.mean_delay_ms()},
          {"mean_jitter_ms", m.mean_jitter_ms()},
          {"components", double(m.components)},
          {"stages", double(m.stages)},
          {"drops_queue_full", double(m.drops_queue_full)},
          {"drops_deadline", double(m.drops_deadline)},
          {"drops_network", double(m.drops_network)},
          {"faults_injected", double(m.faults_injected)},
          {"recoveries", double(m.recoveries)},
          {"adapt_attempts", double(m.adapt_attempts)},
          {"adapt_deltas", double(m.adapt_deltas)}};
}

/// Runs the simulator to `end` in fixed simulated-time slices, one span
/// each; returns the host seconds spent.
double run_slices(sim::Simulator& simulator, sim::SimTime end,
                  Tracer& tracer, SubRun& out) {
  constexpr sim::SimDuration kSlice = sim::sec(1);
  const double start = host_now();
  while (simulator.now() < end) {
    const sim::SimTime next = std::min(simulator.now() + kSlice, end);
    {
      Tracer::Scope span(tracer, "sim.slice");
      simulator.run_until(next);
    }
    out.pending_max =
        std::max(out.pending_max, std::int64_t(simulator.pending_events()));
  }
  return host_now() - start;
}

void read_counts(exp::World& world, const std::vector<obs::MetricRow>& rows,
                 SubRun& out) {
  const auto& registry = world.metrics();
  auto& c = out.counts;
  c["net.packets"] = double(registry.counter_total("net.packets_sent"));
  c["net.bytes"] = double(registry.counter_total("net.bytes_sent"));
  c["net.port_drops"] = double(out.sim.drops_network);
  for (const char* kind : {"runtime", "monitor", "overlay", "core"}) {
    c[std::string("net.bytes.") + kind] = 0;
  }
  double stats_request_bytes = 0;
  for (const auto& row : rows) {
    if (row.name != "net.sent_bytes_by_kind") continue;
    const std::string& kind = row.labels.component;
    const std::string prefix = kind.substr(0, kind.find('.'));
    c["net.bytes." + prefix] += row.value;
    if (kind == "monitor.stats_request") stats_request_bytes += row.value;
  }
  c["monitor.stats_requests"] =
      stats_request_bytes / double(monitor::StatsRequest::kBytes +
                                   sim::Network::kFrameOverheadBytes);
  c["runtime.drops_queue_full"] = double(out.sim.drops_queue_full);
  c["runtime.drops_deadline"] = double(out.sim.drops_deadline);
  c["core.admitted"] = double(registry.counter_total("compose.admitted"));
  c["core.rejected"] = double(registry.counter_total("compose.rejected"));
  const auto solve = registry.histogram_total("adapt.solve_us");
  c["core.adapt_solves"] = double(solve.count());
  c["core.adapt_solve_s"] =
      double(solve.count()) * solve.summary().mean() / 1e6;
  c["core.adapt_deltas"] = double(out.sim.adapt_deltas);
  c["chaos.faults"] = double(out.sim.faults_injected);
}

}  // namespace

SubRun drive(const exp::RunConfig& config, Tracer& tracer) {
  SubRun out;
  out.seed = config.world.seed;
  out.sim.requests = config.workload.num_requests;
  const std::size_t first_span = tracer.spans().size();

  if (tracer.enabled()) {
    // The first steps of exp::World: same seed, same topology stream.
    sim::Simulator simulator(config.world.seed);
    auto topo_rng = simulator.rng().split(0x746f706f /* "topo" */);
    auto topology = sim::make_planetlab_like(config.world.nodes, topo_rng,
                                             config.world.net);
    obs::MetricRegistry registry;
    obs::UnitTrace trace;
    sim::Network network(simulator, std::move(topology), &registry, &trace);
    const double start = host_now();
    {
      Tracer::Scope span(tracer, "overlay.build");
      overlay::build_overlay(simulator, network, config.world.nodes);
    }
    out.overlay_build_s = host_now() - start;
  }

  std::unique_ptr<exp::World> world_ptr;
  {
    const double start = host_now();
    Tracer::Scope span(tracer, "world");
    world_ptr = std::make_unique<exp::World>(config.world);
    out.setup_s = host_now() - start;
  }
  exp::World& world = *world_ptr;
  auto& simulator = world.simulator();

  // From here to the end of the run this mirrors exp::run_experiment for
  // the centralized plane without a deadline, statement for statement
  // where it touches the simulation; check_fidelity() holds it to that.
  auto workload_rng = simulator.rng().split(0x776f726b /* "work" */);
  const auto requests = exp::generate_workload(
      config.workload, world.service_names(), world.size(), workload_rng);
  auto inner = exp::make_composer(config.algorithm,
                                  simulator.rng().split(0x636f6d70 /*comp*/));
  TimedComposer composer(*inner, tracer, out.compose_calls);

  exp::RunMetrics& metrics = out.sim;
  metrics.requests = int(requests.size());
  out.admit_ms.assign(requests.size(), 0);

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
    adapt_params.cooldown = 2 * config.adapt_interval;
  }

  const sim::SimTime t0 = simulator.now();
  const sim::SimTime last_submit =
      t0 + sim::SimDuration(requests.size()) * config.submit_gap;
  const sim::SimTime stream_stop = last_submit + config.steady_duration;
  const sim::SimTime run_end = stream_stop + config.drain;

  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto& request = requests[i];
    const sim::SimTime when = t0 + sim::SimDuration(i) * config.submit_gap;
    simulator.call_at(when, [&, i, stream_stop] {
      auto on_outcome = [&, i, stream_stop](
                            const core::SubmitOutcome& outcome) {
        simulator.exclusive([&, i, stream_stop, outcome] {
          ++out.outcomes;
          out.admit_ms[i] = sim::to_seconds(outcome.composition_latency) *
                            1000.0;
          if (outcome.compose.error == "deployment timed out") {
            ++out.deploy_timeouts;
          }
          if (!outcome.compose.admitted) return;
          ++metrics.composed;
          metrics.components +=
              std::int64_t(outcome.compose.plan.component_count());
          for (const auto& sub : outcome.compose.plan.substreams) {
            metrics.stages += std::int64_t(sub.stages.size());
          }
          auto& host = world.host(std::size_t(request.source));
          if (adapt) {
            host.enable_adapter(adapt_params)
                .track(request, outcome.compose.plan, outcome.providers,
                       stream_stop);
          }
          if (supervise) {
            host.supervisor().watch(request, outcome.compose.plan,
                                    stream_stop, {});
          }
        });
      };
      Tracer::Scope span(tracer, "coord.submit");
      world.host(std::size_t(request.source))
          .coordinator()
          .submit(request, composer, /*stream_start=*/0, stream_stop,
                  std::move(on_outcome));
    });
  }

  std::unique_ptr<chaos::Injector> injector;
  if (chaos_on) {
    chaos::Hooks hooks;
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
    injector = std::make_unique<chaos::Injector>(
        simulator, world.network(), scenario, std::move(hooks),
        &world.metrics());
    injector->arm(t0, run_end);
  }

  const std::int64_t events_before = std::int64_t(simulator.processed_events());
  out.submit_s = run_slices(simulator, last_submit, tracer, out);
  out.steady_s = run_slices(simulator, run_end, tracer, out);
  out.run_s = out.submit_s + out.steady_s;
  out.events = std::int64_t(simulator.processed_events()) - events_before;

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
  if (injector != nullptr) metrics.faults_injected = injector->applied();

  std::vector<obs::MetricRow> rows;
  {
    const double start = host_now();
    Tracer::Scope span(tracer, "obs.snapshot");
    rows = registry.snapshot();
    out.snapshot_s = host_now() - start;
  }
  out.rows = std::int64_t(rows.size());
  out.registry_digest = registry_digest(rows);
  read_counts(world, rows, out);

  for (std::size_t i = first_span; i < tracer.spans().size(); ++i) {
    const Span& span = tracer.spans()[i];
    if (std::string_view(span.name) == "core.compose") {
      out.compose_s += span.end_s - span.start_s;
    }
  }

  Hash h;
  h.add(out.registry_digest);
  for (const auto& [name, value] : outcome_fields(metrics)) h.add(value);
  for (double ms : out.admit_ms) h.add(ms);
  h.add(out.outcomes);
  out.digest = h.value();
  return out;
}

std::string check_fidelity(const exp::RunConfig& config, const SubRun& run) {
  std::vector<obs::MetricRow> rows;
  const exp::RunMetrics reference = exp::run_experiment(config, &rows);
  std::string diff;
  const auto ours = outcome_fields(run.sim);
  const auto theirs = outcome_fields(reference);
  for (std::size_t i = 0; i < ours.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(ours[i].second) !=
        std::bit_cast<std::uint64_t>(theirs[i].second)) {
      std::ostringstream s;
      s.precision(17);
      s << ours[i].first << " " << ours[i].second << " vs run_experiment "
        << theirs[i].second << "; ";
      diff += s.str();
    }
  }
  if (registry_digest(rows) != run.registry_digest) {
    diff += "registry snapshot differs from run_experiment's; ";
  }
  return diff;
}

}  // namespace perfbench
