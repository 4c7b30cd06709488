#include "core/coordinator.hpp"

#include "core/backoff.hpp"
#include "core/discovery.hpp"
#include "runtime/deploy_messages.hpp"
#include "util/logging.hpp"

namespace rasc::core {

Coordinator::Coordinator(sim::Simulator& simulator, sim::Network& network,
                         overlay::PastryNode& pastry,
                         monitor::StatsAgent& stats,
                         const runtime::ServiceCatalog& catalog,
                         obs::MetricRegistry* registry)
    : Coordinator(simulator, network, pastry, stats, catalog, registry,
                  DeployPolicy()) {}

Coordinator::Coordinator(sim::Simulator& simulator, sim::Network& network,
                         overlay::PastryNode& pastry,
                         monitor::StatsAgent& stats,
                         const runtime::ServiceCatalog& catalog,
                         obs::MetricRegistry* registry, DeployPolicy policy)
    : simulator_(simulator),
      network_(network),
      pastry_(pastry),
      registry_(pastry),
      stats_(stats),
      catalog_(catalog),
      node_(pastry.addr()),
      owned_metrics_(registry ? nullptr
                              : std::make_unique<obs::MetricRegistry>()),
      metrics_(registry ? registry : owned_metrics_.get()),
      policy_(policy) {
  obs::Labels labels;
  labels.node = node_;
  submitted_ = &metrics_->counter("compose.submitted", labels);
  admitted_ = &metrics_->counter("compose.admitted", labels);
  rejected_ = &metrics_->counter("compose.rejected", labels);
  latency_ms_ = &metrics_->histogram("compose.latency_ms", labels);
  network_.on<runtime::DeployAck>(
      node_, this,
      [](Coordinator& self, const runtime::DeployAck& ack,
         const sim::Packet& packet) { self.receive(ack, packet.src); });
}

Coordinator::~Coordinator() {
  network_.remove_handlers(node_, this);
  for (auto& [rid, r] : retx_) {
    (void)rid;
    simulator_.cancel(r.timer);
  }
}

obs::Counter& Coordinator::lazy_counter(const char* name,
                                        obs::Counter*& slot) {
  if (slot == nullptr) {
    obs::Labels labels;
    labels.node = node_;
    slot = &metrics_->counter(name, labels);
  }
  return *slot;
}

void Coordinator::submit(const ServiceRequest& request, Composer& composer,
                         sim::SimTime stream_start, sim::SimTime stream_stop,
                         Callback done) {
  auto pending = std::make_shared<Pending>();
  pending->request = request;
  pending->composer = &composer;
  pending->submitted_at = simulator_.now();
  pending->stream_start = stream_start;
  pending->stream_stop = stream_stop;
  pending->done = std::move(done);
  submitted_->add();

  if (auto err = request.validate(); !err.empty()) {
    pending->compose_result.error = err;
    finish(pending, false);
    return;
  }

  // Phase 1: discovery through the DHT (paper §3.1 step 1).
  discover_providers(
      simulator_, registry_, request.distinct_services(),
      [this, pending](ProviderMap providers, std::string error) {
        if (!error.empty()) {
          pending->compose_result.error = std::move(error);
          finish(pending, false);
          return;
        }
        pending->provider_addrs = std::move(providers);
        start_stats_phase(pending);
      });
}

void Coordinator::submit_prepared(PreparedSubmit prepared) {
  auto pending = std::make_shared<Pending>();
  pending->request = std::move(prepared.request);
  pending->submitted_at = prepared.submitted_at > 0 ? prepared.submitted_at
                                                    : simulator_.now();
  pending->stream_start = prepared.stream_start;
  pending->stream_stop = prepared.stream_stop;
  pending->done = std::move(prepared.done);
  pending->provider_addrs = std::move(prepared.providers);
  pending->compose_result = std::move(prepared.compose);
  pending->shard = prepared.shard;
  pending->lease_epoch_of = std::move(prepared.lease_epoch_of);
  submitted_->add();
  if (!pending->compose_result.admitted) {
    finish(pending, false);
    return;
  }
  deploy(pending);
}

void Coordinator::start_stats_phase(const std::shared_ptr<Pending>& pending) {
  // Phase 2: gather utilization from every involved node (§3.1 step 2).
  std::set<sim::NodeIndex> targets;
  for (const auto& [service, addrs] : pending->provider_addrs) {
    (void)service;
    for (auto a : addrs) targets.insert(a);
  }
  targets.insert(pending->request.source);
  targets.insert(pending->request.destination);

  stats_.query_many(
      std::vector<sim::NodeIndex>(targets.begin(), targets.end()),
      [this, pending](std::vector<monitor::NodeStats> stats) {
        compose_and_deploy(pending, stats);
      });
}

void Coordinator::compose_and_deploy(
    const std::shared_ptr<Pending>& pending,
    const std::vector<monitor::NodeStats>& stats) {
  // Phase 3: the composition algorithm itself (§3.1 step 3).
  std::map<sim::NodeIndex, monitor::NodeStats> by_node;
  for (const auto& s : stats) by_node[s.node] = s;

  ComposeInput input;
  input.request = pending->request;
  input.catalog = &catalog_;
  for (const auto& [service, addrs] : pending->provider_addrs) {
    auto& list = input.providers[service];
    for (auto a : addrs) {
      const auto it = by_node.find(a);
      if (it != by_node.end()) list.push_back(it->second);
    }
    if (list.empty()) {
      pending->compose_result.error =
          "no stats from any provider of " + service;
      finish(pending, false);
      return;
    }
  }
  const auto src_it = by_node.find(pending->request.source);
  const auto dst_it = by_node.find(pending->request.destination);
  if (src_it == by_node.end() || dst_it == by_node.end()) {
    pending->compose_result.error = "no stats from endpoints";
    finish(pending, false);
    return;
  }
  input.source_stats = src_it->second;
  input.destination_stats = dst_it->second;

  pending->compose_result = pending->composer->compose(input);
  if (!pending->compose_result.admitted) {
    finish(pending, false);
    return;
  }
  deploy(pending);
}

void Coordinator::arm_retransmit(std::uint64_t rid, sim::NodeIndex target,
                                 sim::MessagePtr msg, std::int64_t size) {
  if (policy_.retransmit_budget <= 0) return;
  Retransmit& r = retx_[rid];
  r.target = target;
  r.msg = std::move(msg);
  r.size = size;
  schedule_retransmit(rid);
}

void Coordinator::schedule_retransmit(std::uint64_t rid) {
  Retransmit& r = retx_.at(rid);
  r.timer = simulator_.call_after(
      capped_backoff(kRetransmitBase, kRetransmitMax, r.attempts),
      [this, rid] {
        const auto it = retx_.find(rid);
        if (it == retx_.end()) return;  // acked meanwhile
        if (it->second.attempts >= policy_.retransmit_budget) {
          // Budget exhausted: stop resending; the deploy deadline (or
          // the receiver-side orphan reaper) decides the fate.
          retx_.erase(it);
          return;
        }
        ++it->second.attempts;
        lazy_counter("deploy.retries", retries_).add();
        network_.send(node_, it->second.target, it->second.size,
                      it->second.msg);
        schedule_retransmit(rid);
      });
}

void Coordinator::clear_retransmit(std::uint64_t rid) {
  const auto it = retx_.find(rid);
  if (it == retx_.end()) return;
  simulator_.cancel(it->second.timer);
  retx_.erase(it);
}

void Coordinator::roll_back(const std::shared_ptr<Pending>& pending) {
  lazy_counter("deploy.rollbacks", rollbacks_).add();
  RASC_LOG(kInfo) << "rolling back deployment of app "
                  << pending->compose_result.plan.app << " (epoch "
                  << pending->epoch << ") on "
                  << pending->deploy_targets.size() << " nodes";
  // Epoch-stamped so a teardown that overtakes (or races) this attempt's
  // retransmitted deploys tombstones them at the receiver. A *lost*
  // teardown leaves an orphan the receiver-side lease reaper collects.
  for (const auto target : pending->deploy_targets) {
    auto td = std::make_shared<runtime::TeardownAppMsg>();
    td->app = pending->compose_result.plan.app;
    td->epoch = pending->epoch;
    network_.send(node_, target, runtime::TeardownAppMsg::kBytes,
                  std::move(td));
  }
}

void Coordinator::deploy(const std::shared_ptr<Pending>& pending) {
  // Phase 4: instantiate components, sinks, then the sources (§3.1 step 4).
  const auto& plan = pending->compose_result.plan;
  pending->epoch = ++epoch_counter_;

  for (std::size_t ss = 0; ss < plan.substreams.size(); ++ss) {
    const auto& sub = plan.substreams[ss];
    double in_bytes = double(sub.unit_bytes);
    for (std::size_t st = 0; st < sub.stages.size(); ++st) {
      const auto& stage = sub.stages[st];
      // Downstream of this stage: next stage's placements or the sink.
      std::vector<runtime::Placement> next;
      if (st + 1 < sub.stages.size()) {
        next = sub.stages[st + 1].placements;
      } else {
        next.push_back(
            runtime::Placement{plan.destination, sub.rate_units_per_sec});
      }
      for (const auto& p : stage.placements) {
        auto msg = std::make_shared<runtime::DeployComponentMsg>();
        msg->key = runtime::ComponentKey{plan.app, std::int32_t(ss),
                                         std::int32_t(st)};
        msg->service = stage.service;
        msg->rate_units_per_sec = p.rate_units_per_sec;
        msg->in_unit_bytes = std::int64_t(in_bytes + 0.5);
        msg->next = next;
        msg->request_id = ++deploy_counter_;
        msg->requester = node_;
        msg->epoch = pending->epoch;
        if (pending->shard >= 0) {
          msg->shard = pending->shard;
          msg->lease_epoch = pending->lease_epoch_of
                                 ? pending->lease_epoch_of(p.node)
                                 : 0;
        }
        pending->awaiting_acks.insert(msg->request_id);
        ack_routing_[msg->request_id] = pending;
        pending->deploy_targets.insert(p.node);
        const auto size = msg->wire_size();
        const auto rid = msg->request_id;
        sim::MessagePtr payload = std::move(msg);
        network_.send(node_, p.node, size, payload);
        arm_retransmit(rid, p.node, std::move(payload), size);
      }
      in_bytes *= catalog_.get(stage.service).output_size_factor;
    }

    // Sink at the destination. `in_bytes` is now the delivered unit size.
    {
      auto msg = std::make_shared<runtime::DeploySinkMsg>();
      msg->app = plan.app;
      msg->substream = std::int32_t(ss);
      msg->rate_units_per_sec = sub.rate_units_per_sec;
      msg->unit_bytes = std::int64_t(in_bytes + 0.5);
      msg->request_id = ++deploy_counter_;
      msg->requester = node_;
      msg->epoch = pending->epoch;
      if (pending->shard >= 0) {
        msg->shard = pending->shard;
        msg->lease_epoch = pending->lease_epoch_of
                               ? pending->lease_epoch_of(plan.destination)
                               : 0;
      }
      pending->awaiting_acks.insert(msg->request_id);
      ack_routing_[msg->request_id] = pending;
      pending->deploy_targets.insert(plan.destination);
      const auto rid = msg->request_id;
      sim::MessagePtr payload = std::move(msg);
      network_.send(node_, plan.destination, runtime::DeploySinkMsg::kBytes,
                    payload);
      arm_retransmit(rid, plan.destination, std::move(payload),
                     runtime::DeploySinkMsg::kBytes);
    }
  }

  pending->deploy_timeout =
      simulator_.call_after(kDeployTimeout, [this, pending] {
        if (pending->awaiting_acks.empty()) return;
        RASC_LOG(kWarn) << "deploy timed out for app "
                        << pending->request.app;
        for (auto rid : pending->awaiting_acks) {
          ack_routing_.erase(rid);
          clear_retransmit(rid);
        }
        pending->awaiting_acks.clear();
        if (policy_.rollback) roll_back(pending);
        pending->compose_result.admitted = false;
        pending->compose_result.error = "deployment timed out";
        finish(pending, false);
      });
}

void Coordinator::receive(const runtime::DeployAck& ack, sim::NodeIndex from) {
  const auto it = ack_routing_.find(ack.request_id);
  if (it == ack_routing_.end()) {
    // Stale: a duplicate ack, or one for a deploy that already timed out.
    // Counted only under an explicit policy so legacy runs (where heavy
    // load can time deploys out too) keep byte-identical snapshots.
    if (policy_.enabled()) lazy_counter("deploy.stale_ack", stale_ack_).add();
    return;
  }
  auto pending = it->second;
  ack_routing_.erase(it);
  clear_retransmit(ack.request_id);
  // Source acks only confirm delivery of the (fire-and-forget) source
  // start; the outcome was already reported when they went out.
  if (pending->sources_started) return;
  pending->awaiting_acks.erase(ack.request_id);
  if (!ack.ok) {
    pending->any_nack = true;
    pending->nacked.push_back(from);
  }

  if (pending->awaiting_acks.empty()) {
    simulator_.cancel(pending->deploy_timeout);
    if (pending->any_nack) {
      if (policy_.rollback) roll_back(pending);
      pending->compose_result.admitted = false;
      pending->compose_result.error = "a deployment was rejected";
      finish(pending, false);
      return;
    }
    // All components and sinks are up: start the sources at the app's
    // source node (fire and forget; the source node is typically us).
    const auto& plan = pending->compose_result.plan;
    for (std::size_t ss = 0; ss < plan.substreams.size(); ++ss) {
      const auto& sub = plan.substreams[ss];
      auto msg = std::make_shared<runtime::DeploySourceMsg>();
      msg->app = plan.app;
      msg->substream = std::int32_t(ss);
      // The source emits stage-0 *input* units.
      msg->rate_units_per_sec = sub.stages.front().total_rate();
      msg->unit_bytes = sub.unit_bytes;
      msg->first_stage = sub.stages.front().placements;
      msg->start_at = pending->stream_start;
      msg->stop_at = pending->stream_stop;
      msg->request_id = ++deploy_counter_;
      msg->requester = node_;
      msg->epoch = pending->epoch;
      pending->deploy_targets.insert(plan.source);
      const auto size = msg->wire_size();
      const auto rid = msg->request_id;
      // Route the source ack so it is absorbed above instead of counting
      // as stale, and so it can stop its own retransmission ladder.
      ack_routing_[rid] = pending;
      sim::MessagePtr payload = std::move(msg);
      network_.send(node_, plan.source, size, payload);
      arm_retransmit(rid, plan.source, std::move(payload), size);
    }
    pending->sources_started = true;
    finish(pending, true);
  }
}

void Coordinator::finish(const std::shared_ptr<Pending>& pending,
                         bool deployed) {
  SubmitOutcome outcome;
  outcome.compose = pending->compose_result;
  outcome.composition_latency = simulator_.now() - pending->submitted_at;
  if (deployed) outcome.providers = pending->provider_addrs;
  outcome.nacked = pending->nacked;
  (deployed ? admitted_ : rejected_)->add();
  latency_ms_->observe(double(outcome.composition_latency) / 1000.0);
  if (pending->done) pending->done(outcome);
}

}  // namespace rasc::core
