#include "exp/gossip_control_plane.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "core/discovery.hpp"
#include "util/logging.hpp"

namespace rasc::exp {

namespace {

/// A gossip entry rendered as the stats snapshot the composer framework
/// expects: free bandwidth is the min of what the monitor measured free
/// and what the lease authority would still debit, folded back into
/// used_* against the advertised capacity.
monitor::NodeStats stats_from_summary(const gossip::LoadSummary& s,
                                      sim::SimTime now) {
  monitor::NodeStats stats;
  stats.node = s.origin;
  stats.capacity_in_kbps = s.capacity_in_kbps;
  stats.capacity_out_kbps = s.capacity_out_kbps;
  const double free_in = std::min(s.free_in_kbps, s.lease_headroom_in_kbps);
  const double free_out =
      std::min(s.free_out_kbps, s.lease_headroom_out_kbps);
  stats.used_in_kbps = std::max(0.0, s.capacity_in_kbps - free_in);
  stats.used_out_kbps = std::max(0.0, s.capacity_out_kbps - free_out);
  stats.cpu_used_fraction = std::max(0.0, 1.0 - s.cpu_free_fraction);
  stats.drop_ratio = s.drop_ratio;
  stats.drop_samples = s.drop_samples;
  stats.taken_at = now;
  return stats;
}

}  // namespace

struct GossipControlPlane::Pending {
  core::ServiceRequest request;
  sim::SimTime submitted_at = 0;
  sim::SimTime stream_start = 0;
  sim::SimTime stream_stop = 0;
  core::Coordinator::Callback done;

  core::ProviderMap providers;
  int attempts_left = 0;
};

GossipControlPlane::GossipControlPlane(World& world, Config config,
                                       util::Xoshiro256 rng)
    : world_(world), config_(config) {
  const std::size_t nodes = world.size();
  const std::int64_t per_peer =
      config_.agent.budget_bytes / std::max(1, config_.agent.fanout);
  digest_capacity_ =
      std::max<std::int64_t>(0, (per_peer - gossip::GossipDigestMsg::kHeaderBytes) /
                                    gossip::LoadSummary::kWireBytes);

  // Every node's granter becomes the pool-debit authority. One shard:
  // no real grants are ever negotiated in this mode, the granter only
  // answers kPoolShard debits from deploys.
  runtime::LeaseGranter::Params granter_params;
  for (std::size_t n = 0; n < nodes; ++n) {
    world.host(n).enable_lease_granter(granter_params);
  }

  if (!config_.composer.latency_ms) {
    const sim::Topology& topo = world.network().topology();
    config_.composer.latency_ms = [&topo](sim::NodeIndex a,
                                          sim::NodeIndex b) {
      if (a == b) return 0.0;
      return double(topo.latency_us[std::size_t(a)][std::size_t(b)]) /
             1000.0;
    };
  }

  clients_.resize(nodes);
  for (std::size_t n = 0; n < nodes; ++n) {
    Client& client = clients_[n];
    gossip::Agent::Params agent_params = config_.agent;
    agent_params.seed = rng.split(0x676f7370u /* "gosp" */ ^ n).next();
    Host& host = world.host(n);
    runtime::LeaseGranter* granter = host.lease_granter();
    monitor::NodeMonitor* monitor = &host.monitor();
    auto summary_fn = [monitor, granter]() {
      gossip::LoadSummary s;
      const monitor::NodeStats stats = monitor->snapshot();
      s.capacity_in_kbps = stats.capacity_in_kbps;
      s.capacity_out_kbps = stats.capacity_out_kbps;
      s.free_in_kbps = stats.available_in_kbps();
      s.free_out_kbps = stats.available_out_kbps();
      granter->pool_remaining_kbps(s.lease_headroom_in_kbps,
                                   s.lease_headroom_out_kbps);
      s.cpu_free_fraction = stats.available_cpu_fraction();
      s.drop_ratio = stats.drop_ratio;
      s.drop_samples = stats.drop_samples;
      s.demand_hint_kbps =
          std::max(stats.used_out_kbps, stats.reserved_out_kbps);
      return s;
    };
    client.agent = std::make_unique<gossip::Agent>(
        world.simulator(), world.network(), sim::NodeIndex(n), nodes,
        agent_params, std::move(summary_fn), world.metrics());
    client.composer =
        std::make_unique<core::GossipComposer>(config_.composer);
    client.registry = std::make_unique<overlay::ServiceRegistry>(
        world.overlay().at(n));
  }

  obs::Labels global;
  submitted_ = &world.metrics().counter("gossip.submitted", global);
  admitted_ = &world.metrics().counter("gossip.admitted", global);
  rejected_ = &world.metrics().counter("gossip.rejected", global);
  repairs_ = &world.metrics().counter("gossip.repairs", global);
}

void GossipControlPlane::start(sim::SimTime at) {
  for (auto& client : clients_) client.agent->start(at);
}

sim::SimDuration GossipControlPlane::warmup() const {
  // Full view coverage: each digest carries `digest_capacity_` entries and
  // consecutive rounds cover consecutive view chunks, so one sweep is
  // ceil(N / capacity) rounds; epidemic spread over fanout peers multiplies
  // that by a small dissemination depth. Plus slack for the first
  // summaries to exist at all.
  const double per_sweep =
      std::ceil(double(world_.size()) /
                double(std::max<std::int64_t>(1, digest_capacity_)));
  const int rounds = int(3.0 * per_sweep) + 10;
  return config_.agent.interval * rounds + sim::sec(1);
}

void GossipControlPlane::feed_adapter(std::size_t node,
                                      core::RateAdapter& adapter) {
  gossip::Agent* agent = clients_[node].agent.get();
  sim::Simulator* simulator = &world_.simulator();
  adapter.set_stats_provider(
      [agent, simulator](
          const std::vector<sim::NodeIndex>& targets,
          std::function<void(std::vector<monitor::NodeStats>)> done) {
        const auto& view = agent->view();
        const sim::SimTime now = simulator->now();
        std::vector<monitor::NodeStats> stats;
        stats.reserve(targets.size());
        for (const sim::NodeIndex target : targets) {
          const auto it = view.find(target);
          if (it == view.end()) continue;
          stats.push_back(stats_from_summary(it->second.summary, now));
        }
        // Synchronous on purpose: the whole point is zero control
        // round-trips; the adapter tolerates re-entrant delivery.
        done(std::move(stats));
      });
}

void GossipControlPlane::submit(const core::ServiceRequest& request,
                                sim::SimTime stream_start,
                                sim::SimTime stream_stop,
                                core::Coordinator::Callback done) {
  submitted_->add();
  auto pending = std::make_shared<Pending>();
  pending->request = request;
  pending->submitted_at = world_.simulator().now();
  pending->stream_start = stream_start;
  pending->stream_stop = stream_stop;
  pending->done = std::move(done);
  pending->attempts_left = kRepairAttempts;

  // Provider discovery through the DHT exactly as the centralized
  // coordinator does it — what gossip replaces is the stats fan-out, not
  // service discovery.
  core::discover_providers(
      world_.simulator(), *clients_[std::size_t(request.source)].registry,
      request.distinct_services(),
      [this, pending](core::ProviderMap providers, std::string error) {
        if (!error.empty()) {
          core::SubmitOutcome outcome;
          outcome.compose.error = std::move(error);
          finish(pending, outcome);
          return;
        }
        pending->providers = std::move(providers);
        compose_and_deploy(pending);
      });
}

void GossipControlPlane::compose_and_deploy(
    const std::shared_ptr<Pending>& pending) {
  Client& client = clients_[std::size_t(pending->request.source)];
  const auto& view = client.agent->view();
  const sim::SimTime now = world_.simulator().now();

  core::ComposeInput input;
  input.request = pending->request;
  input.catalog = &world_.catalog();
  std::map<sim::NodeIndex, double> hints;
  for (const auto& [service, providers] : pending->providers) {
    auto& stats = input.providers[service];
    for (const sim::NodeIndex provider : providers) {
      // Providers the view holds no (fresh) summary for are invisible to
      // this composer: bounded staleness trades a smaller candidate set
      // for zero stats round-trips.
      const auto it = view.find(provider);
      if (it == view.end()) continue;
      stats.push_back(stats_from_summary(it->second.summary, now));
      hints[provider] = it->second.summary.demand_hint_kbps;
    }
    if (stats.empty()) {
      core::SubmitOutcome outcome;
      outcome.compose.error =
          "no provider of " + service + " in gossip view";
      outcome.providers = pending->providers;
      finish(pending, outcome);
      return;
    }
  }
  const auto source_it = view.find(pending->request.source);
  const auto dest_it = view.find(pending->request.destination);
  if (source_it == view.end() || dest_it == view.end()) {
    core::SubmitOutcome outcome;
    outcome.compose.error = source_it == view.end()
                                ? "source not in gossip view"
                                : "destination not in gossip view";
    outcome.providers = pending->providers;
    finish(pending, outcome);
    return;
  }
  input.source_stats = stats_from_summary(source_it->second.summary, now);
  input.destination_stats = stats_from_summary(dest_it->second.summary, now);

  client.composer->set_load_hints(std::move(hints));
  core::ComposeResult result = client.composer->compose(input);
  if (!result.admitted) {
    core::SubmitOutcome outcome;
    outcome.compose = std::move(result);
    outcome.providers = pending->providers;
    finish(pending, outcome);
    return;
  }

  core::Coordinator::PreparedSubmit prepared;
  prepared.request = pending->request;
  prepared.compose = std::move(result);
  prepared.providers = pending->providers;
  prepared.stream_start = pending->stream_start;
  prepared.stream_stop = pending->stream_stop;
  prepared.submitted_at = pending->submitted_at;
  prepared.shard = runtime::LeaseGranter::kPoolShard;
  prepared.lease_epoch_of = [](sim::NodeIndex) { return std::uint64_t(1); };
  prepared.done = [this, pending](const core::SubmitOutcome& outcome) {
    if (!outcome.compose.admitted && !outcome.nacked.empty() &&
        pending->attempts_left > 0) {
      --pending->attempts_left;
      repairs_->add();
      // The NACKing nodes' advertised headroom was wrong (a race or a
      // stale summary): drop them from the view until fresh news and
      // recompose around them.
      auto& agent = *clients_[std::size_t(pending->request.source)].agent;
      for (const sim::NodeIndex node : outcome.nacked) {
        agent.mark_suspect(node);
      }
      compose_and_deploy(pending);
      return;
    }
    finish(pending, outcome);
  };
  world_.host(std::size_t(pending->request.source))
      .coordinator()
      .submit_prepared(std::move(prepared));
}

void GossipControlPlane::finish(const std::shared_ptr<Pending>& pending,
                                const core::SubmitOutcome& outcome) {
  (outcome.compose.admitted ? admitted_ : rejected_)->add();
  if (!outcome.compose.admitted) {
    RASC_LOG(kDebug) << "gossip plane: app " << pending->request.app
                     << " rejected: " << outcome.compose.error;
  }
  if (pending->done) pending->done(outcome);
}

}  // namespace rasc::exp
