#include "sim/network.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "util/logging.hpp"

namespace rasc::sim {

namespace {

obs::Labels node_labels(std::size_t node) {
  obs::Labels labels;
  labels.node = std::int32_t(node);
  return labels;
}

// Chaos re-entry guard for send(): delayed/duplicated copies skip the
// interceptor. thread_local rather than a plain static so that worlds run
// side by side on a thread pool never share one depth counter.
thread_local int tl_intercept_depth = 0;

}  // namespace

Network::Network(Simulator& simulator, Topology topology,
                 obs::MetricRegistry* registry, obs::UnitTrace* trace)
    : simulator_(simulator),
      topology_(std::move(topology)),
      owned_registry_(registry ? nullptr
                               : std::make_unique<obs::MetricRegistry>()),
      registry_(registry ? registry : owned_registry_.get()),
      trace_(trace),
      kind_handlers_(topology_.size()),
      handlers_(topology_.size()),
      drop_handlers_(topology_.size()),
      out_free_at_(topology_.size(), 0),
      in_free_at_(topology_.size(), 0),
      sent_by_kind_(topology_.size()),
      received_by_kind_(topology_.size()),
      up_(topology_.size(), true),
      loss_rng_(simulator.rng().split(0x6e657477 /* "netw" */)),
      bw_scale_(topology_.size(), 1.0),
      extra_latency_(topology_.size(), 0),
      injected_loss_(topology_.size(), 0.0) {
  const std::size_t n = topology_.size();
  bytes_sent_.reserve(n);
  bytes_received_.reserve(n);
  out_queue_drops_.reserve(n);
  in_queue_drops_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    bytes_sent_.push_back(&registry_->counter("net.bytes_sent",
                                              node_labels(i)));
    bytes_received_.push_back(
        &registry_->counter("net.bytes_received", node_labels(i)));
    out_queue_drops_.push_back(
        &registry_->counter("net.port_drops_out", node_labels(i)));
    in_queue_drops_.push_back(
        &registry_->counter("net.port_drops_in", node_labels(i)));
  }
  packets_sent_ = &registry_->counter("net.packets_sent");
  packets_dropped_ = &registry_->counter("net.packets_dropped");
  // Pre-size the per-kind columns so they never reallocate while a reader
  // holds a cell pointer. Null slots mean "kind not interned yet".
  for (std::size_t i = 0; i < n; ++i) {
    sent_by_kind_[i].assign(kMaxKinds, nullptr);
    received_by_kind_[i].assign(kMaxKinds, nullptr);
  }
}

void Network::set_handler(NodeIndex node, Handler handler) {
  handlers_.at(std::size_t(node)) = std::move(handler);
}

void Network::set_kind_handler(NodeIndex node, const char* kind,
                               KindHandler handler) {
  auto& row = kind_handlers_.at(std::size_t(node));
  const KindId id = kind_id(kind);
  if (row.size() <= id) {
    // Every node ends up registering about the same kinds: size the row
    // for all kinds interned so far rather than growing it one by one.
    row.reserve(std::max<std::size_t>(id + 1, kind_names_.size()));
    row.resize(id + 1);
  }
  row[id] = handler;
}

void Network::remove_handlers(NodeIndex node, const void* owner) {
  for (KindHandler& entry : kind_handlers_.at(std::size_t(node))) {
    if (entry.owner == owner) entry = KindHandler{};
  }
}

const void* Network::deliver_now(Packet packet) {
  packet.kind = kind_id(packet.payload ? packet.payload->kind() : nullptr);
  return dispatch(packet);
}

void Network::set_drop_handler(NodeIndex node, DropHandler handler) {
  drop_handlers_.at(std::size_t(node)) = std::move(handler);
}

void Network::fail_node(NodeIndex node) {
  auto up = up_.at(std::size_t(node));
  if (!up) return;
  up_[std::size_t(node)] = false;
  registry_->counter("net.node_failures", node_labels(std::size_t(node)))
      .add();
}

void Network::restore_node(NodeIndex node) {
  auto up = up_.at(std::size_t(node));
  if (up) return;
  up_[std::size_t(node)] = true;
  // The restarted node's port queues are empty: packets that were mid-
  // serialization at failure time are gone, not waiting.
  out_free_at_[std::size_t(node)] = simulator_.now();
  in_free_at_[std::size_t(node)] = simulator_.now();
  registry_->counter("net.node_restores", node_labels(std::size_t(node)))
      .add();
}

std::int64_t Network::node_failures(NodeIndex node) const {
  const auto* c = registry_->find_counter("net.node_failures",
                                          node_labels(std::size_t(node)));
  return c ? c->value() : 0;
}

std::int64_t Network::node_restores(NodeIndex node) const {
  const auto* c = registry_->find_counter("net.node_restores",
                                          node_labels(std::size_t(node)));
  return c ? c->value() : 0;
}

void Network::set_bandwidth_scale(NodeIndex node, double scale) {
  bw_scale_.at(std::size_t(node)) = scale < 0.001 ? 0.001 : scale;
}

void Network::set_extra_latency(NodeIndex node, SimDuration extra) {
  extra_latency_.at(std::size_t(node)) = extra < 0 ? 0 : extra;
}

void Network::set_injected_loss(NodeIndex node, double rate) {
  injected_loss_.at(std::size_t(node)) =
      rate < 0 ? 0 : (rate > 1 ? 1.0 : rate);
}

void Network::set_send_interceptor(SendInterceptor interceptor) {
  send_interceptor_ = std::move(interceptor);
}

KindId Network::kind_id(const char* kind) {
  static const char* const kNullKind = "null";
  if (kind == nullptr) kind = kNullKind;

  // Hot path: lock-free probe of the fixed pointer table. The key is
  // release-published only after the id is in place, so an acquire hit
  // may use the id immediately.
  const auto hash = std::hash<const char*>{}(kind);
  for (std::size_t i = 0; i < kKindTableSize; ++i) {
    auto& slot = kind_table_[(hash + i) & (kKindTableSize - 1)];
    const char* key = slot.key.load(std::memory_order_acquire);
    if (key == kind) return slot.id.load(std::memory_order_relaxed);
    if (key == nullptr) break;
  }

  // Slow path: intern under the lock. The same string may already be
  // interned via a different literal, so look it up by content first.
  std::lock_guard<std::mutex> lk(kind_mu_);
  const auto [it, inserted] =
      kind_ids_.emplace(kind, KindId(kind_names_.size()));
  if (inserted) {
    if (kind_names_.size() >= kMaxKinds) {
      kind_ids_.erase(it);
      throw std::length_error("Network: more than kMaxKinds message kinds");
    }
    kind_names_.emplace_back(kind);
  }
  // Publish the pointer->id mapping: claim the first free slot in the
  // probe sequence (id first, key last with release). A full table is not
  // an error — later calls just keep taking the slow path.
  for (std::size_t i = 0; i < kKindTableSize; ++i) {
    auto& slot = kind_table_[(hash + i) & (kKindTableSize - 1)];
    const char* key = slot.key.load(std::memory_order_relaxed);
    if (key == kind) break;  // another call site published it already
    if (key == nullptr) {
      slot.id.store(it->second, std::memory_order_relaxed);
      slot.key.store(kind, std::memory_order_release);
      break;
    }
  }
  return it->second;
}

void Network::add_kind_cells(KindId kind) {
  std::lock_guard<std::mutex> lk(kind_mu_);
  for (std::size_t n = 0; n < topology_.size(); ++n) {
    obs::Labels labels = node_labels(n);
    labels.component = kind_names_[kind];
    sent_by_kind_[n][kind] =
        &registry_->counter("net.sent_bytes_by_kind", labels);
    received_by_kind_[n][kind] =
        &registry_->counter("net.received_bytes_by_kind", labels);
  }
}

std::int64_t Network::received_bytes_of_kind(NodeIndex node,
                                             KindId kind) const {
  const auto& column = received_by_kind_[std::size_t(node)];
  return kind < column.size() && column[kind] ? column[kind]->value() : 0;
}

std::int64_t Network::sent_bytes_of_kind(NodeIndex node, KindId kind) const {
  const auto& column = sent_by_kind_[std::size_t(node)];
  return kind < column.size() && column[kind] ? column[kind]->value() : 0;
}

std::map<std::string, std::int64_t> Network::received_by_kind(
    NodeIndex node) const {
  std::map<std::string, std::int64_t> view;
  const auto& column = received_by_kind_[std::size_t(node)];
  std::lock_guard<std::mutex> lk(kind_mu_);
  for (std::size_t k = 0; k < kind_names_.size(); ++k) {
    if (column[k] && column[k]->value() > 0) {
      view[kind_names_[k]] = column[k]->value();
    }
  }
  return view;
}

std::map<std::string, std::int64_t> Network::sent_by_kind(
    NodeIndex node) const {
  std::map<std::string, std::int64_t> view;
  const auto& column = sent_by_kind_[std::size_t(node)];
  std::lock_guard<std::mutex> lk(kind_mu_);
  for (std::size_t k = 0; k < kind_names_.size(); ++k) {
    if (column[k] && column[k]->value() > 0) {
      view[kind_names_[k]] = column[k]->value();
    }
  }
  return view;
}

void Network::count_lost(const Packet& packet, obs::DropReason reason) {
  packets_dropped_->add();
#if RASC_OBS_TRACING
  if (trace_ && trace_->enabled() && packet.payload) {
    if (const auto id = packet.payload->unit_id()) {
      const NodeIndex at = reason == obs::DropReason::kPortTailDrop
                               ? packet.src
                               : packet.dst;
      trace_->record(*id, obs::Hop::kDropped, at, simulator_.now(), reason);
    }
  }
#else
  (void)packet;
  (void)reason;
#endif
}

void Network::notify_drop(NodeIndex node, const Packet& packet,
                          bool outgoing) {
  packets_dropped_->add();
  auto& counter = outgoing ? out_queue_drops_ : in_queue_drops_;
  counter[std::size_t(node)]->add();
#if RASC_OBS_TRACING
  if (trace_ && trace_->enabled() && packet.payload) {
    if (const auto id = packet.payload->unit_id()) {
      trace_->record(*id, obs::Hop::kDropped, node, simulator_.now(),
                     obs::DropReason::kPortTailDrop);
    }
  }
#endif
  const auto& handler = drop_handlers_[std::size_t(node)];
  if (handler) handler(packet, outgoing);
}

SimDuration Network::serialization_time(std::int64_t size_bytes,
                                        double kbps) {
  assert(kbps > 0);
  // bits / (kbps * 1000 bits/s), in microseconds: bytes*8000/kbps.
  return SimDuration(std::ceil(double(size_bytes) * 8000.0 / kbps));
}

void Network::send(NodeIndex src, NodeIndex dst, std::int64_t size_bytes,
                   MessagePtr payload) {
  assert(src >= 0 && std::size_t(src) < size());
  assert(dst >= 0 && std::size_t(dst) < size());

  // Chaos interception happens before any accounting so a delayed packet
  // is counted once, when it actually enters the port queue. Copies it
  // spawns re-enter send() with the depth guard up and are not
  // re-intercepted.
  if (send_interceptor_ && tl_intercept_depth == 0) {
    const SendPerturbation p = send_interceptor_(src, dst, payload.get());
    for (int i = 0; i < p.duplicates; ++i) {
      MessagePtr copy = payload;
      simulator_.call_after(0, [this, src, dst, size_bytes,
                                c = std::move(copy)]() mutable {
        ++tl_intercept_depth;
        send(src, dst, size_bytes, std::move(c));
        --tl_intercept_depth;
      });
    }
    if (p.drop) {
      Packet lost;
      lost.src = src;
      lost.dst = dst;
      lost.size_bytes = size_bytes;
      lost.payload = std::move(payload);
      lost.sent_at = simulator_.now();
      packets_sent_->add();
      count_lost(lost, obs::DropReason::kLinkLoss);
      return;
    }
    if (p.extra_delay > 0) {
      simulator_.call_after(p.extra_delay, [this, src, dst, size_bytes,
                                            pl = std::move(payload)]() mutable {
        ++tl_intercept_depth;
        send(src, dst, size_bytes, std::move(pl));
        --tl_intercept_depth;
      });
      return;
    }
  }

  Packet packet;
  packet.src = src;
  packet.dst = dst;
  packet.size_bytes = size_bytes;
  packet.kind = kind_id(payload ? payload->kind() : nullptr);
  packet.payload = std::move(payload);
  packet.sent_at = simulator_.now();
  packets_sent_->add();

  if (!up_[std::size_t(src)] || !up_[std::size_t(dst)]) {
    count_lost(packet, obs::DropReason::kNodeFailed);
    return;
  }

  if (src == dst) {
    const std::uint32_t slot = park(std::move(packet));
    simulator_.call_after(kLoopbackDelay, [this, slot] { deliver(slot); });
    return;
  }

  const std::int64_t wire_bytes = size_bytes + kFrameOverheadBytes;

  // Output-port FIFO with tail drop: refuse the packet when the queue
  // already represents more than max_port_backlog of serialization time.
  const double bw_out = topology_.nodes[std::size_t(src)].bw_out_kbps *
                        bw_scale_[std::size_t(src)];
  const SimTime start =
      std::max(simulator_.now(), out_free_at_[std::size_t(src)]);
  if (start - simulator_.now() > topology_.max_port_backlog) {
    notify_drop(src, packet, /*outgoing=*/true);
    return;
  }
  bytes_sent_[std::size_t(src)]->add(wire_bytes);
  obs::Counter* kind_sent = sent_by_kind_[std::size_t(src)][packet.kind];
  if (kind_sent == nullptr) {
    add_kind_cells(packet.kind);
    kind_sent = sent_by_kind_[std::size_t(src)][packet.kind];
  }
  kind_sent->add(wire_bytes);
#if RASC_OBS_TRACING
  if (trace_ && trace_->enabled() && packet.payload) {
    if (const auto id = packet.payload->unit_id()) {
      trace_->record(*id, obs::Hop::kPortQueued, src, simulator_.now());
    }
  }
#endif
  const SimTime departed = start + serialization_time(wire_bytes, bw_out);
  out_free_at_[std::size_t(src)] = departed;

  SimDuration latency =
      topology_.latency_us[std::size_t(src)][std::size_t(dst)] +
      extra_latency_[std::size_t(src)] + extra_latency_[std::size_t(dst)];
  if (topology_.latency_jitter > 0) {
    latency = SimDuration(double(latency) *
                          loss_rng_.uniform_double(
                              1.0 - topology_.latency_jitter,
                              1.0 + topology_.latency_jitter));
  }
  const SimTime arrival = departed + latency;
  const std::uint32_t slot = park(std::move(packet));
  simulator_.call_at(arrival, [this, slot] { arrive(slot); });
}

std::uint32_t Network::park(Packet&& packet) {
  if (free_slots_.empty()) {
    in_flight_.push_back(std::move(packet));
    return std::uint32_t(in_flight_.size() - 1);
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  in_flight_[slot] = std::move(packet);
  return slot;
}

Packet Network::unpark(std::uint32_t slot) {
  Packet packet = std::move(in_flight_[slot]);
  free_slots_.push_back(slot);
  return packet;
}

void Network::arrive(std::uint32_t slot) {
  // Stays in its slot unless it is lost here; nothing below sends, so the
  // reference cannot dangle.
  const Packet& packet = in_flight_[slot];
  if (!up_[std::size_t(packet.dst)]) {
    count_lost(unpark(slot), obs::DropReason::kNodeFailed);
    return;
  }
  // Wire loss: topology-wide rate, combined with any chaos-injected loss
  // at the destination. The combine happens only when injection is
  // active so a chaos-free run draws the exact same RNG sequence.
  double loss_rate = topology_.loss_rate;
  const double injected = injected_loss_[std::size_t(packet.dst)];
  if (injected > 0) {
    loss_rate = 1.0 - (1.0 - loss_rate) * (1.0 - injected);
  }
  if (loss_rate > 0 && loss_rng_.bernoulli(loss_rate)) {
    count_lost(unpark(slot), obs::DropReason::kLinkLoss);
    return;
  }
  // Input-port serialization, contended in true arrival order because this
  // runs at the propagation-arrival event. Tail drop when the receive
  // queue is over budget.
  const std::int64_t wire_bytes = packet.size_bytes + kFrameOverheadBytes;
  const double bw_in = topology_.nodes[std::size_t(packet.dst)].bw_in_kbps *
                       bw_scale_[std::size_t(packet.dst)];
  const SimTime start =
      std::max(simulator_.now(), in_free_at_[std::size_t(packet.dst)]);
  if (start - simulator_.now() > topology_.max_port_backlog) {
    // The drop handler may send: the packet leaves the slab first.
    const Packet dropped = unpark(slot);
    notify_drop(dropped.dst, dropped, /*outgoing=*/false);
    return;
  }
  const SimTime done = start + serialization_time(wire_bytes, bw_in);
  in_free_at_[std::size_t(packet.dst)] = done;
  simulator_.call_at(done, [this, slot] { deliver(slot); });
}

void Network::deliver(std::uint32_t slot) {
  // Out of the slab before any handler runs: a handler may send.
  const Packet packet = unpark(slot);
  if (!up_[std::size_t(packet.dst)]) {
    count_lost(packet, obs::DropReason::kNodeFailed);
    return;
  }
  // Loopback traffic never touches the access link: it must not count
  // toward measured bandwidth use, or co-located pipeline stages would
  // look like congestion to the monitor.
  if (packet.src != packet.dst) {
    const std::int64_t wire_bytes =
        packet.size_bytes + kFrameOverheadBytes;
    bytes_received_[std::size_t(packet.dst)]->add(wire_bytes);
    received_by_kind_[std::size_t(packet.dst)][packet.kind]->add(wire_bytes);
  }
  dispatch(packet);
}

const void* Network::dispatch(const Packet& packet) {
  const auto& row = kind_handlers_[std::size_t(packet.dst)];
  if (packet.kind < row.size() && row[packet.kind].fn != nullptr) {
    const KindHandler entry = row[packet.kind];
    entry.fn(entry.owner, packet);
    return entry.owner;
  }
  const auto& handler = handlers_[std::size_t(packet.dst)];
  if (handler) {
    handler(packet);
  } else {
    RASC_LOG(kWarn) << "packet to node " << packet.dst
                    << " dropped: no handler (kind="
                    << (packet.payload ? packet.payload->kind() : "null")
                    << ")";
    count_lost(packet, obs::DropReason::kUnroutable);
  }
  return nullptr;
}

}  // namespace rasc::sim
