#include "core/coordinator_shard.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/discovery.hpp"
#include "core/plan_math.hpp"
#include "runtime/lease_granter.hpp"
#include "util/logging.hpp"

namespace rasc::core {

namespace {
/// Takeover epoch a standby fences its shard with. One takeover per
/// shard per run (standbys have no standbys), so a single term suffices;
/// the field is an epoch so deeper failover chains stay expressible.
constexpr std::uint64_t kTakeoverEpoch = 1;
}  // namespace

AdmissionPolicy parse_admission_policy(const std::string& name) {
  if (name == "fifo") return AdmissionPolicy::kFifo;
  if (name == "smallest-demand") return AdmissionPolicy::kSmallestDemand;
  if (name == "highest-value") return AdmissionPolicy::kHighestValue;
  throw std::invalid_argument("unknown admission policy: " + name);
}

CoordinatorShard::CoordinatorShard(
    sim::Simulator& simulator, sim::Network& network,
    overlay::PastryNode& pastry, monitor::StatsAgent& stats,
    Coordinator& coordinator, const runtime::ServiceCatalog& catalog,
    std::unique_ptr<Composer> composer, Params params,
    obs::MetricRegistry* registry)
    : simulator_(simulator),
      network_(network),
      registry_(pastry),
      stats_(stats),
      coordinator_(coordinator),
      catalog_(catalog),
      composer_(std::move(composer)),
      params_(params),
      home_(pastry.addr()),
      lease_(simulator, network, pastry.addr(), params.shard, params.nodes,
             params.lease),
      owned_metrics_(registry ? nullptr
                              : std::make_unique<obs::MetricRegistry>()),
      metrics_(registry ? registry : owned_metrics_.get()) {
  // Renewal requests advertise the demand this shard has seen recently;
  // the max-decay keeps the hint alive for a few renewal periods after a
  // burst so the freed shares are not yanked back mid-repair.
  active_ = !params_.standby;
  lease_.set_demand_provider([this] {
    demand_ewma_kbps_ =
        std::max(demand_window_kbps_, 0.5 * demand_ewma_kbps_);
    demand_window_kbps_ = 0;
    return demand_ewma_kbps_;
  });

  obs::Labels labels;
  labels.node = home_;
  submitted_ = &metrics_->counter("shard.submitted", labels);
  admitted_ = &metrics_->counter("shard.admitted", labels);
  rejected_ = &metrics_->counter("shard.rejected", labels);
  batches_ = &metrics_->counter("shard.batches", labels);
  repairs_ = &metrics_->counter("shard.repairs", labels);
  retries_ = &metrics_->counter("shard.retries", labels);
  batch_size_ = &metrics_->histogram("shard.batch_size", labels);
  latency_ms_ = &metrics_->histogram("shard.latency_ms", labels);
  network_.on<SubmitShardMsg, runtime::ShardRecoverReplyMsg>(
      home_, this,
      [](CoordinatorShard& self, const auto& m, const sim::Packet&) {
        self.receive(m);
      });
}

CoordinatorShard::~CoordinatorShard() {
  network_.remove_handlers(home_, this);
}

std::int32_t CoordinatorShard::shard_of(runtime::AppId app, int shards) {
  if (shards <= 1) return 0;
  // SplitMix64 scrambles the (sequential) app ids so consecutive apps
  // spread across shards instead of striping.
  util::SplitMix64 mix(std::uint64_t(app) ^ 0x5eaded5eaded5eadULL);
  return std::int32_t(mix.next() % std::uint64_t(shards));
}

std::vector<std::size_t> CoordinatorShard::admission_order(
    AdmissionPolicy policy,
    const std::vector<std::pair<std::uint64_t, double>>& jobs) {
  std::vector<std::size_t> order(jobs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  // Seq is unique, so every comparator below is a strict total order and
  // the drain sequence is deterministic for any stable batch content.
  switch (policy) {
    case AdmissionPolicy::kFifo:
      std::sort(order.begin(), order.end(),
                [&](std::size_t a, std::size_t b) {
                  return jobs[a].first < jobs[b].first;
                });
      break;
    case AdmissionPolicy::kSmallestDemand:
      std::sort(order.begin(), order.end(),
                [&](std::size_t a, std::size_t b) {
                  if (jobs[a].second != jobs[b].second) {
                    return jobs[a].second < jobs[b].second;
                  }
                  return jobs[a].first < jobs[b].first;
                });
      break;
    case AdmissionPolicy::kHighestValue:
      std::sort(order.begin(), order.end(),
                [&](std::size_t a, std::size_t b) {
                  if (jobs[a].second != jobs[b].second) {
                    return jobs[a].second > jobs[b].second;
                  }
                  return jobs[a].first < jobs[b].first;
                });
      break;
  }
  return order;
}

void CoordinatorShard::start(sim::SimTime at) {
  if (params_.standby) {
    // Dormant: no leases, no batches — just the death watchdog. Every
    // renewal the primary lands on this node resets the suspicion clock,
    // so a healthy primary keeps the standby asleep forever.
    simulator_.call_at(at + params_.standby_check,
                       [this] { standby_watch(); });
    return;
  }
  lease_.start(at);
  simulator_.call_at(at + params_.batch_window, [this] { drain(); });
}

void CoordinatorShard::receive(const runtime::ShardRecoverReplyMsg& reply) {
  if (reply.shard == params_.shard &&
      reply.request_id == recover_request_id_ && !adopted_) {
    recover_replies_.push_back(reply);
  }
}

void CoordinatorShard::receive(const SubmitShardMsg& submit) {
  if (!active_ && !(local_granter_ != nullptr &&
                    local_granter_->holder_suspect(params_.shard))) {
    // A dormant standby only owns the shard once the primary looks dead
    // from here too; a submission routed in on transient suspicion is
    // forwarded to the live primary instead of being held hostage.
    auto fwd = std::make_shared<SubmitShardMsg>(submit);
    const std::int64_t size = fwd->wire_size();
    network_.send(home_, params_.primary_home, size, std::move(fwd));
    return;
  }
  // A dormant-but-suspecting standby queues the submission: discovery
  // runs now, composition starts with the first post-takeover drain.
  enqueue(submit);
}

void CoordinatorShard::enqueue(const SubmitShardMsg& msg) {
  // App ids are unique per request; a duplicate is a routing retry.
  if (!seen_apps_.insert(msg.request.app).second) return;
  submitted_->add();
  demand_window_kbps_ += msg.request.total_rate_kbps();

  auto job = std::make_shared<Job>();
  job->request = msg.request;
  job->stream_start = msg.stream_start;
  job->stream_stop = msg.stream_stop;
  job->enqueued_at = simulator_.now();
  job->seq = ++seq_counter_;
  job->done = msg.done;

  if (auto err = job->request.validate(); !err.empty()) {
    ComposeResult result;
    result.error = std::move(err);
    reject(job, std::move(result));
    return;
  }

  // Discovery through the DHT, exactly like an unsharded submission; the
  // job joins the admission queue once every provider list resolves.
  discover_providers(
      simulator_, registry_, job->request.distinct_services(),
      [this, job](ProviderMap providers, std::string error) {
        if (!error.empty()) {
          ComposeResult result;
          result.error = std::move(error);
          reject(job, std::move(result));
          return;
        }
        job->provider_addrs = std::move(providers);
        ready_.push_back(job);
      });
}

void CoordinatorShard::drain() {
  simulator_.call_after(params_.batch_window, [this] { drain(); });
  if (ready_.empty()) return;
  batches_->add();
  batch_size_->observe(double(ready_.size()));

  std::vector<std::pair<std::uint64_t, double>> demands;
  demands.reserve(ready_.size());
  for (const auto& job : ready_) {
    demands.push_back({job->seq, job->request.total_rate_kbps()});
  }
  const auto order = admission_order(params_.policy, demands);

  std::vector<JobPtr> batch;
  batch.reserve(order.size());
  for (const std::size_t i : order) batch.push_back(ready_[i]);
  ready_.clear();

  // One lease-view snapshot serves the whole batch: each admission spends
  // the view down before the next request composes.
  for (const auto& job : batch) compose_and_dispatch(job);
}

bool CoordinatorShard::retry_capacity(const JobPtr& job) {
  // Failures against the leased view are often transient: a cold or
  // recently-idle shard holds floor-sized (or invalidated) grants, and
  // the demand this request represents only reaches the granters with
  // the next renewal. Renew off-cycle and re-queue a bounded number of
  // times before the failure becomes final.
  if (job->capacity_retries >= kCapacityRetries) return false;
  ++job->capacity_retries;
  retries_->add();
  demand_window_kbps_ += job->request.total_rate_kbps();
  lease_.renew_now();
  simulator_.call_after(kRetryDelay, [this, job] { ready_.push_back(job); });
  return true;
}

void CoordinatorShard::compose_and_dispatch(const JobPtr& job) {
  ComposeInput input;
  input.request = job->request;
  input.catalog = &catalog_;
  for (const auto& [service, addrs] : job->provider_addrs) {
    auto& list = input.providers[service];
    for (const auto addr : addrs) {
      if (lease_.valid(addr)) list.push_back(lease_.leased_stats(addr));
    }
    if (list.empty()) {
      if (retry_capacity(job)) return;
      ComposeResult result;
      result.error = "no leased view of any provider of " + service;
      reject(job, std::move(result));
      return;
    }
  }
  if (!lease_.valid(job->request.source) ||
      !lease_.valid(job->request.destination)) {
    if (retry_capacity(job)) return;
    ComposeResult result;
    result.error = "no leased view of endpoints";
    reject(job, std::move(result));
    return;
  }
  input.source_stats = lease_.leased_stats(job->request.source);
  input.destination_stats = lease_.leased_stats(job->request.destination);

  ComposeResult result = composer_->compose(input);
  if (!result.admitted) {
    if (retry_capacity(job)) return;
    reject(job, std::move(result));
    return;
  }

  // Spend the view so the rest of the batch composes against what is
  // left; the node-side granters re-check (authoritatively) on deploy.
  job->debits = leased_plan_bandwidth(result.plan, catalog_);
  for (const auto& [node, d] : job->debits) {
    lease_.consume(node, d.in_kbps, d.out_kbps);
  }

  Coordinator::PreparedSubmit prepared;
  prepared.request = job->request;
  prepared.compose = std::move(result);
  prepared.providers = job->provider_addrs;
  prepared.stream_start = job->stream_start;
  prepared.stream_stop = job->stream_stop;
  prepared.submitted_at = job->enqueued_at;
  prepared.shard = params_.shard;
  prepared.lease_epoch_of = [this](sim::NodeIndex node) {
    return lease_.epoch_of(node);
  };
  prepared.done = [this, job](const SubmitOutcome& outcome) {
    on_outcome(job, outcome);
  };
  coordinator_.submit_prepared(std::move(prepared));
}

void CoordinatorShard::on_outcome(const JobPtr& job,
                                  const SubmitOutcome& outcome) {
  // Whatever happened, this attempt's debits are resolved: landed as
  // node reservations (visible to the next renewal) or rolled back.
  for (const auto& [node, d] : job->debits) {
    lease_.settle(node, d.in_kbps, d.out_kbps);
  }

  if (outcome.compose.admitted) {
    admitted_->add();
    latency_ms_->observe(double(simulator_.now() - job->enqueued_at) /
                         1000.0);
    if (job->done) {
      SubmitOutcome tagged = outcome;
      tagged.admitted_by = home_;
      job->done(tagged);
    }
    return;
  }

  // The attempt rolled back (or never fully deployed). Its view-side
  // debits are deliberately NOT returned here: nodes whose deploys landed
  // free the bandwidth only when the rollback teardown reaches them, so
  // an inline credit would have the repair composition double-spend it
  // and NACK again. The next renewal grant reflects the freed funds.
  job->debits.clear();

  if (!outcome.nacked.empty() && job->attempts < kRepairAttempts) {
    repair(job, outcome);
    return;
  }
  reject(job, outcome.compose);
}

void CoordinatorShard::repair(const JobPtr& job,
                              const SubmitOutcome& outcome) {
  ++job->attempts;
  repairs_->add();
  RASC_LOG(kInfo) << "shard " << params_.shard << ": repairing app "
                  << job->request.app << " after " << outcome.nacked.size()
                  << " lease NACK(s), attempt " << job->attempts;
  // The NACKing granters hold different (newer or emptier) grants than
  // our view claims; drop those views so the re-composition routes around
  // them rather than re-spending a stale number.
  for (const auto node : outcome.nacked) lease_.invalidate(node);

  // Scoped stats refresh: CPU/drop state of the surviving candidates may
  // have moved since the last renewal piggyback. Short deadline — this
  // sits on the admission latency path.
  std::set<sim::NodeIndex> targets;
  for (const auto& [service, addrs] : job->provider_addrs) {
    (void)service;
    for (const auto a : addrs) {
      if (lease_.valid(a)) targets.insert(a);
    }
  }
  targets.insert(job->request.source);
  targets.insert(job->request.destination);
  stats_.query_many(
      std::vector<sim::NodeIndex>(targets.begin(), targets.end()),
      kRefreshTimeout,
      [this, job](std::vector<monitor::NodeStats> stats) {
        for (const auto& s : stats) lease_.refresh_stats(s);
        compose_and_dispatch(job);
      });
}

void CoordinatorShard::reject(const JobPtr& job, ComposeResult result) {
  rejected_->add();
  SubmitOutcome outcome;
  outcome.compose = std::move(result);
  outcome.compose.admitted = false;
  outcome.composition_latency = simulator_.now() - job->enqueued_at;
  if (job->done) job->done(outcome);
}

// --- Standby takeover: suspect -> fence -> reconstruct -> adopt ---

void CoordinatorShard::standby_watch() {
  if (active_) return;
  if (local_granter_ != nullptr &&
      local_granter_->holder_suspect(params_.shard)) {
    takeover();
    return;
  }
  simulator_.call_after(params_.standby_check,
                        [this] { standby_watch(); });
}

void CoordinatorShard::takeover() {
  active_ = true;
  takeover_at_ = simulator_.now();
  obs::Labels labels;
  labels.node = home_;
  if (rehomes_ == nullptr) {
    rehomes_ = &metrics_->counter("shard.rehomes", labels);
  }
  rehomes_->add();
  RASC_LOG(kInfo) << "shard " << params_.shard << ": standby on node "
                  << home_ << " taking over from dead primary "
                  << params_.primary_home;

  // Fence, then lease: every renewal from this shard now carries the
  // takeover epoch. The first grant a node issues under it drops the
  // zombie's prev-epoch honor window and refuses its future renewals, so
  // the primary's control plane goes dark node by node as the sweep
  // lands.
  lease_.set_takeover_epoch(kTakeoverEpoch);
  lease_.start(simulator_.now());
  simulator_.call_after(params_.batch_window, [this] { drain(); });

  // Reconstruction: ask every node for its slice of the shard's state.
  // Replies are collected until a fixed deadline — a deterministic cut,
  // not a quorum, so replays are byte-identical for a fixed seed.
  ++recover_request_id_;
  for (std::size_t n = 0; n < params_.nodes; ++n) {
    auto req = std::make_shared<runtime::ShardRecoverRequestMsg>();
    req->shard = params_.shard;
    req->requester = home_;
    req->request_id = recover_request_id_;
    network_.send(home_, sim::NodeIndex(n),
                  runtime::ShardRecoverRequestMsg::kBytes, std::move(req));
  }
  simulator_.call_after(kReconstructTimeout, [this] { adopt_collected(); });
}

void CoordinatorShard::adopt_collected() {
  if (adopted_) return;
  adopted_ = true;

  // Adoption set: the union of the fleet's ledger slices for this shard.
  // Ledger debits record which shard *actually deployed* an app (new
  // submissions fail over off dead shards, so the hash home is not
  // authoritative); the runtime dumps alone cover every app in the
  // fleet and cannot be used for membership.
  std::set<runtime::AppId> members;
  std::uint64_t max_epoch = 0;
  for (const auto& reply : recover_replies_) {
    for (const auto& d : reply.debits) members.insert(d.app);
    for (const auto& c : reply.components) {
      max_epoch = std::max(max_epoch, c.app_epoch);
    }
  }
  // The dead primary stamped deploys from its own epoch counter, which
  // was ahead of this node's. Fast-forward so this shard's future
  // attempts supersede its leftovers instead of losing the epoch gate.
  coordinator_.advance_epochs(max_epoch);

  RASC_LOG(kInfo) << "shard " << params_.shard << ": reconstruction found "
                  << members.size() << " app(s) across "
                  << recover_replies_.size() << " replies";
  for (const runtime::AppId app : members) adopt_app(app);
  recover_replies_.clear();
}

void CoordinatorShard::adopt_app(runtime::AppId app) {
  // An app already (re)submitted to this standby is being composed from
  // scratch — adopting the dead primary's copy too would double-track.
  if (seen_apps_.count(app) != 0) return;

  // Assemble the fleet-wide picture from the dumps.
  struct StageState {
    std::string service;
    std::vector<runtime::Placement> placements;
  };
  std::map<std::int32_t, std::map<std::int32_t, StageState>> stages;
  std::map<std::int32_t, runtime::ShardRecoverReplyMsg::SinkState> sinks;
  std::map<std::int32_t, runtime::ShardRecoverReplyMsg::SourceState> sources;
  sim::NodeIndex source_node = sim::kInvalidNode;
  sim::NodeIndex sink_node = sim::kInvalidNode;
  // Every node holding any fragment of the app (state dump or a live
  // lease debit): the teardown recipients if adoption falls through.
  std::set<sim::NodeIndex> holders;
  for (const auto& reply : recover_replies_) {
    for (const auto& c : reply.components) {
      if (c.key.app != app) continue;
      StageState& st = stages[c.key.substream][c.key.stage];
      st.service = c.service;
      st.placements.push_back({reply.node, c.rate_ups});
      holders.insert(reply.node);
    }
    for (const auto& s : reply.sinks) {
      if (s.app != app) continue;
      sinks[s.substream] = s;
      sink_node = reply.node;
      holders.insert(reply.node);
    }
    for (const auto& s : reply.sources) {
      if (s.app != app) continue;
      sources[s.substream] = s;
      source_node = reply.node;
      holders.insert(reply.node);
    }
    for (const auto& d : reply.debits) {
      if (d.app == app) holders.insert(reply.node);
    }
  }

  // Both stream endpoints must have survived; an app that lost one with
  // the primary can only be reclaimed — its surviving fragments (live
  // sources emitting undeliverable units, components holding
  // reservations) are torn down instead.
  if (sinks.empty() || sources.empty()) {
    reclaim_app(app, holders);
    return;
  }

  sim::SimTime stop_at = 0;
  for (const auto& [ss, src] : sources) {
    (void)ss;
    stop_at = std::max(stop_at, src.stop_at);
  }
  if (stop_at <= simulator_.now()) return;  // stream already over

  ServiceRequest request;
  request.app = app;
  request.source = source_node;
  request.destination = sink_node;
  request.deadline_ms = params_.default_deadline_ms;
  runtime::AppPlan plan;
  plan.app = app;
  plan.source = source_node;
  plan.destination = sink_node;
  const std::int32_t num_ss = sinks.rbegin()->first + 1;
  for (std::int32_t ss = 0; ss < num_ss; ++ss) {
    const auto sk = sinks.find(ss);
    const auto sc = sources.find(ss);
    if (sk == sinks.end() || sc == sources.end()) {  // hole: partial
      reclaim_app(app, holders);
      return;
    }
    if (ss == 0) request.unit_bytes = sc->second.unit_bytes;
    Substream sub;
    runtime::SubstreamPlan splan;
    splan.rate_units_per_sec = sk->second.rate_ups;
    splan.unit_bytes = sc->second.unit_bytes;
    if (const auto stg = stages.find(ss); stg != stages.end()) {
      std::int32_t expect = 0;
      for (auto& [stage_idx, st] : stg->second) {
        if (stage_idx != expect++) {  // chain hole: incomplete dump
          reclaim_app(app, holders);
          return;
        }
        std::sort(st.placements.begin(), st.placements.end(),
                  [](const runtime::Placement& a,
                     const runtime::Placement& b) { return a.node < b.node; });
        sub.services.push_back(st.service);
        runtime::StagePlan sp;
        sp.service = st.service;
        sp.placements = std::move(st.placements);
        splan.stages.push_back(std::move(sp));
      }
    }
    sub.rate_kbps =
        payload_kbps(sk->second.rate_ups, double(sk->second.unit_bytes));
    request.substreams.push_back(std::move(sub));
    plan.substreams.push_back(std::move(splan));
  }
  if (auto err = request.validate(); !err.empty()) {
    RASC_LOG(kWarn) << "shard " << params_.shard << ": adopted state of app "
                    << app << " does not validate: " << err;
    reclaim_app(app, holders);
    return;
  }

  // The app is this shard's now: a late resubmission of it dedups.
  seen_apps_.insert(app);
  obs::Labels labels;
  labels.node = home_;
  if (adopted_apps_ == nullptr) {
    adopted_apps_ = &metrics_->counter("shard.adopted_apps", labels);
  }
  adopted_apps_->add();
  if (rehome_time_ == nullptr) {
    rehome_time_ = &metrics_->histogram("rehome.time_ms", labels);
  }
  rehome_time_->observe(double(simulator_.now() - takeover_at_) / 1000.0);
  demand_window_kbps_ += request.total_rate_kbps();
  RASC_LOG(kInfo) << "shard " << params_.shard << ": adopting app " << app
                  << " (" << plan.component_count() << " components, stops at "
                  << stop_at << ")";
  adopt_discover(request, plan, stop_at);
}

void CoordinatorShard::adopt_discover(const ServiceRequest& request,
                                      const runtime::AppPlan& plan,
                                      sim::SimTime stream_stop) {
  // Re-discover the providers so the re-attached adapter has candidate
  // lists to re-solve against. Single attempt per service: a missing
  // list only narrows adaptation, it does not block adoption.
  auto state = std::make_shared<AdoptDiscovery>();
  state->request = request;
  state->plan = plan;
  state->stream_stop = stream_stop;
  const auto services = request.distinct_services();
  state->outstanding = services.size();
  for (const auto& service : services) {
    registry_.lookup(service, [this, state, service](
                                  bool found,
                                  std::vector<sim::NodeIndex> providers) {
      if (found && !providers.empty()) {
        state->providers[service] = std::move(providers);
      }
      if (--state->outstanding == 0 && adopt_handler_) {
        adopt_handler_(home_, state->request, state->plan, state->providers,
                       state->stream_stop);
      }
    });
  }
}

void CoordinatorShard::reclaim_app(runtime::AppId app,
                                   const std::set<sim::NodeIndex>& holders) {
  if (holders.empty()) return;
  RASC_LOG(kInfo) << "shard " << params_.shard << ": reclaiming app " << app
                  << " on " << holders.size()
                  << " node(s) (state too partial to adopt)";
  // Unconditional teardown (epoch 0), like a supervisor recovery: the
  // app is unrecoverable, so racing a stale deploy of it is moot.
  for (const auto target : holders) {
    auto td = std::make_shared<runtime::TeardownAppMsg>();
    td->app = app;
    network_.send(home_, target, runtime::TeardownAppMsg::kBytes,
                  std::move(td));
  }
  obs::Labels labels;
  labels.node = home_;
  if (reclaimed_apps_ == nullptr) {
    reclaimed_apps_ = &metrics_->counter("shard.reclaimed_apps", labels);
  }
  reclaimed_apps_->add();
}

}  // namespace rasc::core
