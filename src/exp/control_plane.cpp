#include "exp/control_plane.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/greedy_composer.hpp"
#include "core/mincost_composer.hpp"
#include "core/random_composer.hpp"

namespace rasc::exp {
namespace {

/// Base delay of the all-shards-suspect backoff (attempt n waits n of
/// these): long enough for a takeover or restart to become visible, and
/// with the default 2-attempt budget still rejects well inside one
/// deploy timeout.
constexpr sim::SimDuration kUnreachableBackoff = sim::sec(1);

}  // namespace

std::unique_ptr<core::Composer> make_composer(
    const std::string& name, util::Xoshiro256 rng,
    core::MinCostComposer::Options options) {
  if (name == "mincost") {
    return std::make_unique<core::MinCostComposer>(options);
  }
  if (name == "mincost-nosplit") {
    options.single_instance_per_stage = true;
    return std::make_unique<core::MinCostComposer>(options);
  }
  if (name == "mincost-nocpu") {
    options.consider_cpu = false;
    return std::make_unique<core::MinCostComposer>(options);
  }
  if (name == "greedy") return std::make_unique<core::GreedyComposer>(rng);
  if (name == "random") {
    return std::make_unique<core::RandomComposer>(rng);
  }
  throw std::invalid_argument("unknown algorithm: " + name);
}

ShardControlPlane::ShardControlPlane(World& world, Config config,
                                     util::Xoshiro256 rng)
    : world_(world), config_(config) {
  const std::size_t nodes = world.size();
  const int k =
      std::max(1, std::min(config_.coordinators, int(nodes)));
  config_.coordinators = k;

  // Every node partitions its capacity among the K shards.
  runtime::LeaseGranter::Params granter_params;
  granter_params.lease_duration = config_.lease_duration;
  granter_params.shards = k;
  for (std::size_t n = 0; n < nodes; ++n) {
    world.host(n).enable_lease_granter(granter_params);
  }

  const auto policy = core::parse_admission_policy(config_.admission_policy);
  for (int s = 0; s < k; ++s) {
    // Even spread over the node id space (node ids are dense 0..N-1).
    const auto home =
        sim::NodeIndex((std::size_t(s) * nodes) / std::size_t(k));
    core::CoordinatorShard::Params params;
    params.shard = s;
    params.nodes = nodes;
    params.batch_window = config_.batch_window;
    params.policy = policy;
    params.lease.renew_period = config_.lease_renew;
    auto& host = world.host(std::size_t(home));
    shards_.push_back(std::make_unique<core::CoordinatorShard>(
        world.simulator(), world.network(), world.overlay().at(std::size_t(home)),
        host.stats_agent(), host.coordinator(), world.catalog(),
        make_composer(config_.algorithm,
                      rng.split(0x73686172u /* "shar" */ ^ std::uint64_t(s)),
                      config_.composer_options),
        params, &world.metrics()));
  }

  // Dormant standbys, one per shard, each on a node of its own. The home
  // (2s+1)*N/(2K) interleaves halfway between consecutive primary homes
  // s*N/K and (s+1)*N/K; with N >= 2K the 2K numerators m*N/(2K) are
  // strictly increasing, so every standby lands on a node no primary (and
  // no other standby) occupies. Constructed after ALL primaries so their
  // composer rng splits extend the primary sequence: runs with standbys
  // off draw exactly the seed's stream.
  if (config_.standby && nodes >= 2 * std::size_t(k)) {
    for (int s = 0; s < k; ++s) {
      const auto home = sim::NodeIndex(
          ((2 * std::size_t(s) + 1) * nodes) / (2 * std::size_t(k)));
      core::CoordinatorShard::Params params;
      params.shard = s;
      params.nodes = nodes;
      params.batch_window = config_.batch_window;
      params.policy = policy;
      params.lease.renew_period = config_.lease_renew;
      params.standby = true;
      params.primary_home = home_of(s);
      params.standby_check = config_.standby_check;
      params.default_deadline_ms = config_.default_deadline_ms;
      auto& host = world.host(std::size_t(home));
      standbys_.push_back(std::make_unique<core::CoordinatorShard>(
          world.simulator(), world.network(),
          world.overlay().at(std::size_t(home)), host.stats_agent(),
          host.coordinator(), world.catalog(),
          make_composer(
              config_.algorithm,
              rng.split(0x73746279u /* "stby" */ ^ std::uint64_t(s)),
              config_.composer_options),
          params, &world.metrics()));
      standbys_.back()->set_local_granter(host.lease_granter());
      standby_homes_.push_back(home);
    }
  }
}

void ShardControlPlane::start(sim::SimTime at) {
  for (const auto& shard : shards_) shard->start(at);
  for (const auto& standby : standbys_) standby->start(at);
}

void ShardControlPlane::set_adopt_handler(
    core::CoordinatorShard::AdoptHandler handler) {
  for (const auto& standby : standbys_) {
    standby->set_adopt_handler(handler);
  }
}

sim::SimDuration ShardControlPlane::warmup() const {
  // One full renewal sweep (staggered across the fleet), plus a second
  // for the last grants' round trips to land.
  return core::LeaseManager::kStagger * std::int64_t(world_.size()) +
         sim::sec(1);
}

void ShardControlPlane::submit(const core::ServiceRequest& request,
                               sim::SimTime stream_start,
                               sim::SimTime stream_stop,
                               core::Coordinator::Callback done) {
  if (config_.submit_retry <= 0) {
    dispatch(request, stream_start, stream_stop, std::move(done));
    return;
  }
  // Journal the submission at the source before anything goes on the
  // wire: a copy that dies in a crashed primary's batch window leaves no
  // trace anywhere else, so the source is the only place that can notice
  // the missing outcome and re-submit.
  const auto app = request.app;
  Pending pending;
  pending.request = request;
  pending.stream_start = stream_start;
  pending.stream_stop = stream_stop;
  pending.done = std::move(done);
  pending_.insert_or_assign(app, std::move(pending));
  dispatch(request, stream_start, stream_stop,
           [this, app](const core::SubmitOutcome& outcome) {
             resolve_pending(app, outcome);
           });
  world_.simulator().call_after(config_.submit_retry,
                                [this, app] { retry_pending(app); });
}

void ShardControlPlane::dispatch(const core::ServiceRequest& request,
                                 sim::SimTime stream_start,
                                 sim::SimTime stream_stop,
                                 core::Coordinator::Callback done) {
  std::int32_t shard = shard_of(request.app);
  auto home = home_of(shard);
  const auto* granter =
      world_.host(std::size_t(request.source)).lease_granter();
  // Route to whoever actually holds the shard's lease on this node: the
  // hash home normally, the standby once a takeover's renewals land here
  // (the dead primary's home would silently eat the submission).
  if (granter != nullptr) {
    if (const auto holder = granter->holder_of(shard);
        holder != sim::kInvalidNode) {
      home = holder;
    }
  }
  // Fail fast on a dead shard: the source node's own granter knows when a
  // coordinator stopped renewing its lease (an expired grant means ~7 s
  // of missed renewals at the default cadence). Submitting there anyway
  // would hang until the 5 s deploy timeout; route around it instead.
  // Healthy runs never enter this branch.
  if (granter != nullptr && granter->holder_suspect(shard)) {
    if (const auto standby = standby_home(shard);
        standby != sim::kInvalidNode) {
      // The shard's designated successor owns it after takeover; while
      // still dormant it forwards to the primary, so routing there early
      // is harmless.
      home = standby;
      lazy_counter("shard.failovers", failovers_).add();
    } else {
      bool rerouted = false;
      const int k = shards();
      for (int i = 1; i < k; ++i) {
        const auto next = std::int32_t((shard + i) % k);
        if (granter->holder_suspect(next)) continue;
        shard = next;
        home = home_of(shard);
        lazy_counter("shard.failovers", failovers_).add();
        rerouted = true;
        break;
      }
      if (!rerouted) {
        // Every shard looks dead from here. Falling through to the home
        // shard would eat the full deploy timeout per attempt; instead
        // back off (linearly, re-checking suspicion each time — a shard
        // may yet recover) and reject after the retry budget.
        int& attempts = unreachable_attempts_[request.app];
        if (attempts < kSubmitRetries) {
          ++attempts;
          lazy_counter("shard.submit_retries", submit_retries_).add();
          const auto backoff = kUnreachableBackoff * attempts;
          world_.simulator().call_after(
              backoff, [this, request, stream_start, stream_stop,
                        done = std::move(done)]() mutable {
                dispatch(request, stream_start, stream_stop,
                         std::move(done));
              });
          return;
        }
        unreachable_attempts_.erase(request.app);
        core::SubmitOutcome outcome;
        outcome.compose.admitted = false;
        outcome.compose.error = "all coordinator shards suspect";
        if (done) done(outcome);
        return;
      }
    }
  }
  unreachable_attempts_.erase(request.app);
  auto msg = std::make_shared<core::SubmitShardMsg>();
  msg->request = request;
  msg->stream_start = stream_start;
  msg->stream_stop = stream_stop;
  msg->done = std::move(done);
  const auto size = msg->wire_size();
  world_.network().send(request.source, home, size, std::move(msg));
}

void ShardControlPlane::resolve_pending(runtime::AppId app,
                                        core::SubmitOutcome outcome) {
  // First outcome wins — the original and a re-submitted copy can both
  // resolve, and the caller's callback must fire exactly once.
  const auto it = pending_.find(app);
  if (it == pending_.end()) return;
  auto done = std::move(it->second.done);
  pending_.erase(it);
  if (done) done(outcome);
}

void ShardControlPlane::retry_pending(runtime::AppId app) {
  const auto it = pending_.find(app);
  if (it == pending_.end()) return;  // resolved in time
  auto& pending = it->second;
  if (pending.attempts >= kSubmitRetries) {
    // Out of re-submissions: wait for an outcome of the copies already
    // in flight (the deploy timeout bounds how long that takes).
    return;
  }
  ++pending.attempts;
  lazy_counter("shard.resubmits", resubmits_).add();
  dispatch(pending.request, pending.stream_start, pending.stream_stop,
           [this, app](const core::SubmitOutcome& outcome) {
             resolve_pending(app, outcome);
           });
  world_.simulator().call_after(config_.submit_retry,
                                [this, app] { retry_pending(app); });
}

obs::Counter& ShardControlPlane::lazy_counter(const char* name,
                                              obs::Counter*& slot) {
  if (slot == nullptr) slot = &world_.metrics().counter(name, {});
  return *slot;
}

}  // namespace rasc::exp
