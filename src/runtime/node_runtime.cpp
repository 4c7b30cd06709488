#include "runtime/node_runtime.hpp"

#include <algorithm>
#include <cassert>
#include <set>

#include "runtime/lease_granter.hpp"
#include "runtime/rehome_messages.hpp"
#include "util/logging.hpp"

namespace rasc::runtime {

NodeRuntime::NodeRuntime(sim::Simulator& simulator, sim::Network& network,
                         sim::NodeIndex node,
                         monitor::NodeMonitor& node_monitor,
                         const ServiceCatalog& catalog)
    : NodeRuntime(simulator, network, node, node_monitor, catalog,
                  Params()) {}

NodeRuntime::NodeRuntime(sim::Simulator& simulator, sim::Network& network,
                         sim::NodeIndex node,
                         monitor::NodeMonitor& node_monitor,
                         const ServiceCatalog& catalog, Params params,
                         obs::MetricRegistry* registry,
                         obs::UnitTrace* trace)
    : simulator_(simulator),
      network_(network),
      node_(node),
      monitor_(node_monitor),
      catalog_(catalog),
      params_(params),
      scheduler_(params.policy, kMaxReadyQueue),
      exec_rng_(simulator.rng().split(0x65786563u ^ std::uint64_t(node))),
      owned_registry_(registry ? nullptr
                               : std::make_unique<obs::MetricRegistry>()),
      registry_(registry ? registry : owned_registry_.get()),
      trace_(trace) {
  obs::Labels labels;
  labels.node = node_;
  units_received_ = &registry_->counter("runtime.units_received", labels);
  dropped_queue_full_ =
      &registry_->counter("runtime.drops_queue_full", labels);
  dropped_deadline_ = &registry_->counter("runtime.drops_deadline", labels);
  units_processed_ = &registry_->counter("runtime.units_processed", labels);
  units_unroutable_ =
      &registry_->counter("runtime.units_unroutable", labels);
  if (params_.orphan_lease > 0) schedule_reap();
  network_.on<DataUnit>(
      node_, this,
      [](NodeRuntime& self, const DataUnit&, const sim::Packet& packet) {
        self.on_data_unit(
            std::static_pointer_cast<const DataUnit>(packet.payload));
      });
  network_.on<DeployComponentMsg, DeploySinkMsg, DeploySourceMsg,
              UpdateComponentMsg, AddPlacementMsg, RemovePlacementMsg,
              UpdateSourceSplitMsg, TeardownAppMsg, ShardRecoverRequestMsg,
              SinkHealthRequest>(
      node_, this, [](NodeRuntime& self, const auto& m, const sim::Packet&) {
        self.receive(m);
      });
}

NodeRuntime::~NodeRuntime() {
  network_.remove_handlers(node_, this);
  if (reap_event_ != 0) simulator_.cancel(reap_event_);
}

obs::Counter& NodeRuntime::lazy_counter(const char* name,
                                        obs::Counter*& slot) {
  if (slot == nullptr) {
    obs::Labels labels;
    labels.node = node_;
    slot = &registry_->counter(name, labels);
  }
  return *slot;
}

double NodeRuntime::reservation_kbps(double rate_ups,
                                     std::int64_t unit_bytes) const {
  const double wire_bytes =
      double(unit_bytes + sim::Network::kFrameOverheadBytes);
  return rate_ups * wire_bytes * 8.0 / 1000.0;
}

obs::Labels NodeRuntime::endpoint_labels(AppId app, std::int32_t substream,
                                         std::uint32_t incarnation) const {
  obs::Labels labels;
  labels.node = node_;
  labels.app = app;
  labels.component = "ss";
  labels.component += std::to_string(substream);
  if (incarnation > 0) {
    labels.component += '#';
    labels.component += std::to_string(incarnation);
  }
  return labels;
}

std::vector<std::uint64_t> NodeRuntime::sorted_endpoint_keys() const {
  std::vector<std::uint64_t> keys;
  keys.reserve(endpoints_.size());
  for (const auto& [key, endpoint] : endpoints_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

void NodeRuntime::receive(const DeployComponentMsg& dc) {
  if (!admit_deploy(dc.key.app, dc.epoch, dc.requester, dc.request_id)) {
    return;
  }
  bool ok = true;
  try {
    // Lease-stamped deploys spend the sending shard's grant first; the
    // debit amounts mirror exactly what deploy_component will reserve.
    if (dc.shard >= 0 && granter_ != nullptr) {
      const ServiceSpec& spec = catalog_.get(dc.service);
      const std::int64_t out_unit_bytes = std::int64_t(
          double(dc.in_unit_bytes) * spec.output_size_factor + 0.5);
      const double in_kbps =
          reservation_kbps(dc.rate_units_per_sec, dc.in_unit_bytes);
      const double out_kbps = reservation_kbps(
          dc.rate_units_per_sec * spec.rate_ratio, out_unit_bytes);
      ok = granter_->debit(dc.shard, dc.lease_epoch, dc.key.app,
                           in_kbps, out_kbps);
    }
    if (ok) {
      deploy_component(dc.key, dc.service, dc.rate_units_per_sec,
                       dc.in_unit_bytes, dc.next);
    }
  } catch (const std::exception& e) {
    RASC_LOG(kWarn) << "node " << node_
                    << ": component deploy failed: " << e.what();
    ok = false;
  }
  seen_requests_[{dc.requester, dc.request_id}] = ok;
  send_ack(dc.requester, dc.request_id, ok);
}

void NodeRuntime::receive(const DeploySinkMsg& ds) {
  if (!admit_deploy(ds.app, ds.epoch, ds.requester, ds.request_id)) {
    return;
  }
  bool ok = true;
  if (ds.shard >= 0 && granter_ != nullptr) {
    const double in_kbps =
        reservation_kbps(ds.rate_units_per_sec, ds.unit_bytes);
    ok = granter_->debit(ds.shard, ds.lease_epoch, ds.app, in_kbps, 0.0);
  }
  if (ok) {
    deploy_sink(ds.app, ds.substream, ds.rate_units_per_sec,
                ds.unit_bytes);
  }
  seen_requests_[{ds.requester, ds.request_id}] = ok;
  send_ack(ds.requester, ds.request_id, ok);
}

void NodeRuntime::receive(const DeploySourceMsg& src) {
  if (!admit_deploy(src.app, src.epoch, src.requester, src.request_id)) {
    return;
  }
  deploy_source(src.app, src.substream, src.rate_units_per_sec,
                src.unit_bytes, src.first_stage, src.start_at,
                src.stop_at);
  seen_requests_[{src.requester, src.request_id}] = true;
  send_ack(src.requester, src.request_id, true);
}

void NodeRuntime::receive(const UpdateComponentMsg& uc) {
  update_component(uc.key, uc.rate_units_per_sec, uc.in_unit_bytes,
                   uc.next);
}

void NodeRuntime::receive(const AddPlacementMsg& ap) {
  // Fire-and-forget variant of DeployComponentMsg: a failed add leaves
  // the app on its previous split, which the next round repairs.
  try {
    deploy_component(ap.key, ap.service, ap.rate_units_per_sec,
                     ap.in_unit_bytes, ap.next);
  } catch (const std::exception& e) {
    RASC_LOG(kWarn) << "node " << node_
                    << ": add-placement failed: " << e.what();
  }
}

void NodeRuntime::receive(const RemovePlacementMsg& rp) {
  remove_component(rp.key);
}

void NodeRuntime::receive(const UpdateSourceSplitMsg& us) {
  update_source_split(us.app, us.substream, us.rate_units_per_sec,
                      us.first_stage);
}

void NodeRuntime::receive(const TeardownAppMsg& td) {
  if (td.epoch > 0) {
    AppControl& ctl = app_control_[td.app];
    if (td.epoch < ctl.epoch) {
      // A reordered rollback of an older attempt must not kill the
      // newer one.
      lazy_counter("deploy.stale_epoch", stale_epoch_).add();
      return;
    }
    ctl.epoch = td.epoch;
    ctl.retired = true;
  }
  teardown_app(td.app);
}

void NodeRuntime::receive(const SinkHealthRequest& hq) {
  if (params_.orphan_lease > 0) {
    // A live supervisor is watching this app: its probes renew the
    // lease, so only truly unsupervised partial deploys get reaped.
    if (const auto ctl = app_control_.find(hq.app);
        ctl != app_control_.end()) {
      ctl->second.lease_renewed = simulator_.now();
    }
  }
  auto reply = std::make_shared<SinkHealthReply>();
  reply->app = hq.app;
  reply->request_id = hq.request_id;
  std::int64_t delivered = -1;
  for (const std::uint64_t key : sorted_endpoint_keys()) {
    if (AppId(key >> 32) != hq.app) continue;
    const auto& endpoint = endpoints_.at(key);
    if (!endpoint.sink.has_value()) continue;
    if (delivered < 0) delivered = 0;
    delivered += endpoint.sink->delivered();
  }
  reply->delivered = delivered;
  network_.send(node_, hq.requester, SinkHealthReply::kBytes,
                std::move(reply));
}

void NodeRuntime::send_ack(sim::NodeIndex to, std::uint64_t request_id,
                           bool ok) {
  auto ack = std::make_shared<DeployAck>();
  ack->request_id = request_id;
  ack->ok = ok;
  network_.send(node_, to, DeployAck::kBytes, std::move(ack));
}

bool NodeRuntime::admit_deploy(AppId app, std::uint64_t epoch,
                               sim::NodeIndex requester,
                               std::uint64_t request_id) {
  const auto seen = seen_requests_.find({requester, request_id});
  if (seen != seen_requests_.end()) {
    // Retransmission or wire duplicate of a request already applied:
    // re-ack the recorded verdict, never re-instantiate.
    lazy_counter("deploy.dup_acks", dup_acks_).add();
    send_ack(requester, request_id, seen->second);
    return false;
  }
  AppControl& ctl = app_control_[app];
  if (epoch > 0 &&
      (epoch < ctl.epoch || (epoch == ctl.epoch && ctl.retired))) {
    // Late arrival from an attempt that was already rolled back (or
    // superseded): applying it would recreate exactly the orphan the
    // rollback just released. No ack — the sender has moved on.
    lazy_counter("deploy.stale_epoch", stale_epoch_).add();
    return false;
  }
  if (epoch > ctl.epoch) {
    // A newer attempt supersedes whatever this node still holds of an
    // older one. Normally nothing is here (rollback teardown landed
    // first), but a repair-redeploy racing its own rollback must not
    // leak the old attempt's components and reservations.
    if (app_has_state(app)) teardown_app(app);
    ctl.epoch = epoch;
    ctl.retired = false;
  }
  ctl.lease_renewed = simulator_.now();
  return true;
}

bool NodeRuntime::app_has_state(AppId app) const {
  for (const auto& [key, component] : components_) {
    (void)component;
    if (key.app == app) return true;
  }
  for (const auto& [key, endpoint] : endpoints_) {
    (void)endpoint;
    if (AppId(key >> 32) == app) return true;
  }
  return false;
}

void NodeRuntime::schedule_reap() {
  // Half-lease cadence bounds how long past its lease an orphan can
  // survive to 1.5 leases.
  reap_event_ = simulator_.call_after(params_.orphan_lease / 2,
                                      [this] { reap_orphans(); });
}

void NodeRuntime::reap_orphans() {
  // Apps with local state, ascending — deterministic reap order.
  std::set<AppId> apps;
  for (const auto& [key, component] : components_) {
    (void)component;
    apps.insert(key.app);
  }
  for (const auto& [key, endpoint] : endpoints_) {
    (void)endpoint;
    apps.insert(AppId(key >> 32));
  }
  const sim::SimTime now = simulator_.now();
  for (const AppId app : apps) {
    const auto it = app_control_.find(app);
    // Deployed through the local API (tests, oracle experiments): not
    // this protocol's to reap.
    if (it == app_control_.end()) continue;
    AppControl& ctl = it->second;
    // Streaming (or having streamed) means deployment completed; a live
    // local source means this node *is* the stream's origin.
    if (ctl.streamed) continue;
    bool has_source = false;
    for (const auto& [key, endpoint] : endpoints_) {
      if (AppId(key >> 32) == app && endpoint.source != nullptr) {
        has_source = true;
        break;
      }
    }
    if (has_source) continue;
    if (now - ctl.lease_renewed < params_.orphan_lease) continue;
    RASC_LOG(kInfo) << "node " << node_ << ": reaping orphaned app " << app
                    << " (lease lapsed, never streamed)";
    lazy_counter("orphan.reaped", orphans_reaped_).add();
    ctl.retired = true;
    teardown_app(app);
  }
  schedule_reap();
}

double NodeRuntime::reserved_kbps_for_app(AppId app) const {
  // Deterministic summation order (floating point): components by
  // (substream, stage), then endpoints by ascending key.
  std::vector<std::pair<std::pair<std::int32_t, std::int32_t>, double>>
      parts;
  for (const auto& [key, hosted] : components_) {
    if (key.app != app) continue;
    parts.push_back({{key.substream, key.stage},
                     hosted.in_kbps + hosted.out_kbps});
  }
  std::sort(parts.begin(), parts.end());
  double total = 0;
  for (const auto& [pos, kbps] : parts) {
    (void)pos;
    total += kbps;
  }
  for (const std::uint64_t key : sorted_endpoint_keys()) {
    if (AppId(key >> 32) != app) continue;
    const Endpoint& endpoint = endpoints_.at(key);
    total += endpoint.sink_reserved_kbps + endpoint.source_reserved_kbps;
  }
  return total;
}

void NodeRuntime::deploy_component(const ComponentKey& key,
                                   const std::string& service,
                                   double rate_units_per_sec,
                                   std::int64_t in_unit_bytes,
                                   std::vector<Placement> next) {
  const ServiceSpec& spec = catalog_.get(service);
  const std::int64_t out_unit_bytes = std::int64_t(
      double(in_unit_bytes) * spec.output_size_factor + 0.5);
  const double in_kbps = reservation_kbps(rate_units_per_sec, in_unit_bytes);
  const double out_kbps = reservation_kbps(
      rate_units_per_sec * spec.rate_ratio, out_unit_bytes);

  // CPU fraction: rate x mean service time (the requirement vector's
  // second coordinate in the paper's model).
  const double cpu_fraction =
      rate_units_per_sec * sim::to_seconds(spec.cpu_time_per_unit);

  auto component = std::make_unique<Component>(key, spec, rate_units_per_sec,
                                               std::move(next));
  Hosted& hosted = components_[key];
  if (hosted.instance) {
    // A redeploy over a live instance (rate-adapter add, supervisor
    // repair). Units already queued for the old instance still point at
    // it: keep it alive so they dispatch and finish unroutable. Its
    // reservation goes with it.
    forget_running(hosted.instance.get());
    retired_.push_back(std::move(hosted.instance));
    release(hosted);
  }
  hosted = Hosted{std::move(component), in_kbps, out_kbps, cpu_fraction};
  monitor_.add_reservation(in_kbps, out_kbps);
  monitor_.add_cpu_reservation(cpu_fraction);
}

void NodeRuntime::release(const Hosted& hosted) {
  monitor_.add_reservation(-hosted.in_kbps, -hosted.out_kbps);
  monitor_.add_cpu_reservation(-hosted.cpu_fraction);
}

void NodeRuntime::deploy_sink(AppId app, std::int32_t substream,
                              double rate_units_per_sec,
                              std::int64_t unit_bytes) {
  const std::uint64_t key = endpoint_key(app, substream);
  const std::uint32_t incarnation = sink_incarnations_[key]++;
  Endpoint& endpoint = endpoints_[key];
  if (endpoint.sink.has_value()) {
    monitor_.add_reservation(-endpoint.sink_reserved_kbps, 0);
  }
  endpoint.sink.emplace(rate_units_per_sec,
                        /*reorder_tolerance_periods=*/1.0, registry_,
                        endpoint_labels(app, substream, incarnation));
  const double in_kbps = reservation_kbps(rate_units_per_sec, unit_bytes);
  endpoint.sink_reserved_kbps = in_kbps;
  endpoint.sink_rate_ups = rate_units_per_sec;
  endpoint.sink_unit_bytes = unit_bytes;
  monitor_.add_reservation(in_kbps, 0);
}

void NodeRuntime::deploy_source(AppId app, std::int32_t substream,
                                double rate_units_per_sec,
                                std::int64_t unit_bytes,
                                std::vector<Placement> first_stage,
                                sim::SimTime start_at, sim::SimTime stop_at) {
  const std::uint64_t key = endpoint_key(app, substream);
  const std::uint32_t incarnation = source_incarnations_[key]++;
  auto source = std::make_unique<StreamSource>(
      simulator_, network_, node_, app, substream, rate_units_per_sec,
      unit_bytes, std::move(first_stage), registry_,
      endpoint_labels(app, substream, incarnation), trace_);
  source->run(start_at, stop_at);
  const double out_kbps = reservation_kbps(rate_units_per_sec, unit_bytes);
  Endpoint& endpoint = endpoints_[key];
  if (endpoint.source) {
    monitor_.add_reservation(0, -endpoint.source_reserved_kbps);
  }
  endpoint.source = std::move(source);
  endpoint.source_reserved_kbps = out_kbps;
  endpoint.source_rate_ups = rate_units_per_sec;
  endpoint.source_stop_at = stop_at;
  monitor_.add_reservation(0, out_kbps);
}

void NodeRuntime::update_component(const ComponentKey& key,
                                   double rate_units_per_sec,
                                   std::int64_t in_unit_bytes,
                                   std::vector<Placement> next) {
  const auto it = components_.find(key);
  if (it == components_.end()) return;  // stale delta; next round repairs
  Hosted& hosted = it->second;
  const ServiceSpec& spec = hosted.instance->spec();
  const std::int64_t out_unit_bytes = std::int64_t(
      double(in_unit_bytes) * spec.output_size_factor + 0.5);
  const double in_kbps = reservation_kbps(rate_units_per_sec, in_unit_bytes);
  const double out_kbps = reservation_kbps(
      rate_units_per_sec * spec.rate_ratio, out_unit_bytes);
  const double cpu_fraction =
      rate_units_per_sec * sim::to_seconds(spec.cpu_time_per_unit);

  monitor_.add_reservation(in_kbps - hosted.in_kbps,
                           out_kbps - hosted.out_kbps);
  monitor_.add_cpu_reservation(cpu_fraction - hosted.cpu_fraction);
  hosted.in_kbps = in_kbps;
  hosted.out_kbps = out_kbps;
  hosted.cpu_fraction = cpu_fraction;

  hosted.instance->reconfigure(rate_units_per_sec, std::move(next));
}

void NodeRuntime::remove_component(const ComponentKey& key) {
  const auto it = components_.find(key);
  if (it == components_.end()) return;
  release(it->second);
  forget_running(it->second.instance.get());
  components_.erase(it);
  // Queued units of this instance point at the component just destroyed;
  // purge them before the scheduler can touch them (cf. teardown_app).
  const auto purged = scheduler_.purge_component(key);
  std::erase_if(retired_, [&key](const std::unique_ptr<Component>& c) {
    return c->key() == key;
  });
  if (!purged.empty()) {
    for (const auto& p : purged) {
      units_unroutable_->add();
      monitor_.on_unit_dropped();
      RASC_TRACE(trace_, (obs::UnitId{p.unit->app, p.unit->substream,
                                      p.unit->seq}),
                 obs::Hop::kDropped, node_, simulator_.now(),
                 obs::DropReason::kUnroutable);
    }
    monitor_.on_queue_length(std::int64_t(scheduler_.size()));
  }
}

void NodeRuntime::update_source_split(AppId app, std::int32_t substream,
                                      double rate_units_per_sec,
                                      std::vector<Placement> first_stage) {
  const auto it = endpoints_.find(endpoint_key(app, substream));
  if (it == endpoints_.end() || !it->second.source) return;
  Endpoint& endpoint = it->second;
  const double out_kbps = reservation_kbps(rate_units_per_sec,
                                           endpoint.source->unit_bytes());
  monitor_.add_reservation(0, out_kbps - endpoint.source_reserved_kbps);
  endpoint.source_reserved_kbps = out_kbps;
  endpoint.source_rate_ups = rate_units_per_sec;
  endpoint.source->reconfigure(rate_units_per_sec, std::move(first_stage));
}

void NodeRuntime::teardown_app(AppId app) {
  // Return the app's lease debits to the granting shard's balance (no-op
  // when the grant's term already rolled over; see LeaseGranter).
  if (granter_ != nullptr) granter_->release_app(app);
  for (auto it = components_.begin(); it != components_.end();) {
    if (it->first.app == app) {
      release(it->second);
      forget_running(it->second.instance.get());
      it = components_.erase(it);
    } else {
      ++it;
    }
  }
  // Queued units of the app point at the components just destroyed; take
  // them out before the scheduler can dispatch (or expire) them. They
  // count as unroutable: their processing chain no longer exists.
  const auto purged = scheduler_.purge_app(app);
  std::erase_if(retired_, [app](const std::unique_ptr<Component>& c) {
    return c->key().app == app;
  });
  if (!purged.empty()) {
    for (const auto& p : purged) {
      units_unroutable_->add();
      monitor_.on_unit_dropped();
      RASC_TRACE(trace_, (obs::UnitId{p.unit->app, p.unit->substream,
                                      p.unit->seq}),
                 obs::Hop::kDropped, node_, simulator_.now(),
                 obs::DropReason::kUnroutable);
    }
    monitor_.on_queue_length(std::int64_t(scheduler_.size()));
  }
  // The app's endpoints occupy one contiguous key range; release in
  // ascending substream order for deterministic teardown.
  for (const std::uint64_t key : sorted_endpoint_keys()) {
    if (AppId(key >> 32) != app) continue;
    auto it = endpoints_.find(key);
    Endpoint& endpoint = it->second;
    if (endpoint.sink.has_value()) {
      monitor_.add_reservation(-endpoint.sink_reserved_kbps, 0);
    }
    if (endpoint.source) {
      endpoint.source->stop();
      monitor_.add_reservation(0, -endpoint.source_reserved_kbps);
    }
    endpoints_.erase(it);
  }
}

std::int64_t NodeRuntime::total_emitted() const {
  std::int64_t total = 0;
  for (const auto& [key, endpoint] : endpoints_) {
    if (endpoint.source) total += endpoint.source->emitted();
  }
  return total;
}

SinkStats NodeRuntime::aggregate_sink_stats() const {
  SinkStats total;
  for (const std::uint64_t key : sorted_endpoint_keys()) {
    const auto& endpoint = endpoints_.at(key);
    if (endpoint.sink.has_value()) total.merge(endpoint.sink->stats());
  }
  return total;
}

const Component* NodeRuntime::find_component(const ComponentKey& key) const {
  const auto it = components_.find(key);
  return it == components_.end() ? nullptr : it->second.instance.get();
}

const StreamSink* NodeRuntime::find_sink(AppId app,
                                         std::int32_t substream) const {
  const auto it = endpoints_.find(endpoint_key(app, substream));
  if (it == endpoints_.end() || !it->second.sink.has_value()) return nullptr;
  return &*it->second.sink;
}

const StreamSource* NodeRuntime::find_source(AppId app,
                                             std::int32_t substream) const {
  const auto it = endpoints_.find(endpoint_key(app, substream));
  return it == endpoints_.end() ? nullptr : it->second.source.get();
}

void NodeRuntime::on_data_unit(
    const std::shared_ptr<const DataUnit>& unit) {
  units_received_->add();
  if (params_.orphan_lease > 0) {
    // Data flowing marks the app as streaming (never an orphan) and
    // renews its lease; gated so the default hot path pays one branch.
    AppControl& ctl = app_control_[unit->app];
    ctl.streamed = true;
    ctl.lease_renewed = simulator_.now();
  }
  const obs::UnitId unit_id{unit->app, unit->substream, unit->seq};

  // Destined for a sink hosted here?
  const auto endpoint_it =
      endpoints_.find(endpoint_key(unit->app, unit->substream));
  const StreamSink* sink =
      endpoint_it != endpoints_.end() && endpoint_it->second.sink.has_value()
          ? &*endpoint_it->second.sink
          : nullptr;
  const ComponentKey key{unit->app, unit->substream, unit->stage};
  const auto comp_it = components_.find(key);

  if (comp_it == components_.end()) {
    if (sink != nullptr) {
      endpoint_it->second.sink->on_unit(*unit, simulator_.now());
      RASC_TRACE(trace_, unit_id, obs::Hop::kDelivered, node_,
                 simulator_.now());
    } else {
      units_unroutable_->add();
      monitor_.on_unit_dropped();
      RASC_TRACE(trace_, unit_id, obs::Hop::kDropped, node_,
                 simulator_.now(), obs::DropReason::kUnroutable);
    }
    return;
  }

  Component& component = *comp_it->second.instance;
  ScheduledUnit scheduled;
  scheduled.unit = unit;
  scheduled.component = &component;
  scheduled.arrival = simulator_.now();
  scheduled.deadline = component.on_arrival(simulator_.now());
  // Laxity uses the *observed* average running time (paper §3.2), not
  // the nominal service cost.
  scheduled.exec_time = component.expected_exec_time();

  if (!scheduler_.enqueue(std::move(scheduled))) {
    dropped_queue_full_->add();
    component.count_drop();
    monitor_.on_unit_dropped();
    RASC_TRACE(trace_, unit_id, obs::Hop::kDropped, node_, simulator_.now(),
               obs::DropReason::kQueueFull);
    return;
  }
  RASC_TRACE(trace_, unit_id, obs::Hop::kScheduled, node_,
             simulator_.now());
  monitor_.on_queue_length(std::int64_t(scheduler_.size()));
  maybe_dispatch();
}

void NodeRuntime::maybe_dispatch() {
  if (cpu_busy_) return;
  std::vector<ScheduledUnit> expired;
  auto next = scheduler_.dispatch(simulator_.now(), expired);
  for (auto& e : expired) {
    dropped_deadline_->add();
    e.component->count_drop();
    monitor_.on_unit_dropped();
    RASC_TRACE(trace_,
               (obs::UnitId{e.unit->app, e.unit->substream, e.unit->seq}),
               obs::Hop::kDropped, node_, simulator_.now(),
               obs::DropReason::kLaxityExpired);
  }
  monitor_.on_queue_length(std::int64_t(scheduler_.size()));
  if (!next) return;
  cpu_busy_ = true;
  // The actual execution time varies around the nominal service cost.
  const auto& spec = next->component->spec();
  sim::SimDuration actual = spec.cpu_time_per_unit;
  if (spec.cpu_time_jitter > 0) {
    actual = sim::SimDuration(
        double(actual) *
        exec_rng_.uniform_double(1.0 - spec.cpu_time_jitter,
                                 1.0 + spec.cpu_time_jitter));
  }
  if (actual < 1) actual = 1;
  running_ = std::move(*next);
  for (const auto& retired : retired_) forget_running(retired.get());
  simulator_.call_after(actual, [this, actual] { finish_unit(actual); });
}

void NodeRuntime::forget_running(const Component* component) {
  if (cpu_busy_ && running_.component == component) {
    running_.component = nullptr;
  }
}

void NodeRuntime::finish_unit(sim::SimDuration actual) {
  cpu_busy_ = false;
  const ScheduledUnit scheduled = std::exchange(running_, ScheduledUnit{});
  // The unit's component was torn down while it held the CPU
  // (forget_running). The CPU time was still spent.
  if (scheduled.component == nullptr) {
    monitor_.on_cpu_busy(actual);
    units_unroutable_->add();
    monitor_.on_unit_dropped();
    RASC_TRACE(trace_,
               (obs::UnitId{scheduled.unit->app, scheduled.unit->substream,
                            scheduled.unit->seq}),
               obs::Hop::kDropped, node_, simulator_.now(),
               obs::DropReason::kUnroutable);
    maybe_dispatch();
    return;
  }
  units_processed_->add();
  monitor_.on_unit_processed();
  monitor_.on_cpu_busy(actual);
  scheduled.component->on_executed(actual);
  RASC_TRACE(trace_,
             (obs::UnitId{scheduled.unit->app, scheduled.unit->substream,
                          scheduled.unit->seq}),
             obs::Hop::kExecuted, node_, simulator_.now());

  auto outputs = scheduled.component->process(*scheduled.unit);
  for (auto& out : outputs) {
    auto msg = std::make_shared<DataUnit>(out.unit);
    const auto size = msg->size_bytes;
    network_.send(node_, out.target, size, std::move(msg));
  }
  maybe_dispatch();
}

void NodeRuntime::receive(const ShardRecoverRequestMsg& req) {
  auto reply = std::make_shared<ShardRecoverReplyMsg>();
  reply->shard = req.shard;
  reply->node = node_;
  reply->request_id = req.request_id;

  // Ledger slice: the apps this node's granter debited against the
  // queried shard's lease — the membership proof the standby intersects
  // the runtime dumps with.
  if (granter_ != nullptr) {
    for (const auto& [app, in_kbps, out_kbps] :
         granter_->ledger_for_shard(req.shard)) {
      reply->debits.push_back({app, in_kbps, out_kbps});
    }
  }

  // Runtime dumps cover *every* app: adapter-shipped placements and
  // source deploys never touch the ledger, so shard membership cannot be
  // decided node-locally. Sorted iteration keeps replies deterministic.
  std::vector<ComponentKey> keys;
  keys.reserve(components_.size());
  for (const auto& [key, component] : components_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  for (const ComponentKey& key : keys) {
    const Component& c = *components_.at(key).instance;
    ShardRecoverReplyMsg::ComponentState state;
    state.key = key;
    state.service = c.spec().name;
    state.rate_ups = c.planned_rate();
    if (const auto ctl = app_control_.find(key.app);
        ctl != app_control_.end()) {
      state.app_epoch = ctl->second.epoch;
    }
    reply->components.push_back(std::move(state));
  }
  for (const std::uint64_t key : sorted_endpoint_keys()) {
    const Endpoint& endpoint = endpoints_.at(key);
    const auto app = AppId(key >> 32);
    const auto substream = std::int32_t(std::uint32_t(key));
    if (endpoint.sink.has_value()) {
      reply->sinks.push_back({app, substream, endpoint.sink_rate_ups,
                              endpoint.sink_unit_bytes});
    }
    if (endpoint.source != nullptr) {
      reply->sources.push_back({app, substream, endpoint.source_rate_ups,
                                endpoint.source->unit_bytes(),
                                endpoint.source_stop_at});
    }
  }

  const std::int64_t size = reply->wire_size();
  network_.send(node_, req.requester, size, std::move(reply));
}

}  // namespace rasc::runtime
