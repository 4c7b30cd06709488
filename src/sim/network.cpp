#include "sim/network.hpp"

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

void Network::set_node_up(NodeIndex node, bool up) {
  up_.at(std::size_t(node)) = up;
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

Network::KindId Network::kind_id(const Message* payload) {
  static const char* const kNullKind = "null";
  const char* kind = payload ? payload->kind() : kNullKind;

  // Hot path: lock-free probe of the fixed pointer table. The key is
  // release-published only after the id and every per-node counter column
  // entry are in place, so an acquire hit may use the id immediately.
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
      throw std::length_error("Network: more than kMaxKinds message kinds");
    }
    // New kind: fill one counter column slot per node. Columns are
    // pre-sized, so readers of *other* kinds never see a resize.
    kind_names_.emplace_back(kind);
    for (std::size_t n = 0; n < topology_.size(); ++n) {
      obs::Labels labels = node_labels(n);
      labels.component = kind;
      sent_by_kind_[n][it->second] =
          &registry_->counter("net.sent_bytes_by_kind", labels);
      received_by_kind_[n][it->second] =
          &registry_->counter("net.received_bytes_by_kind", labels);
    }
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
  packet.payload = std::move(payload);
  packet.sent_at = simulator_.now();
  packets_sent_->add();

  if (!up_[std::size_t(src)] || !up_[std::size_t(dst)]) {
    count_lost(packet, obs::DropReason::kNodeFailed);
    return;
  }

  if (src == dst) {
    simulator_.call_after(kLoopbackDelay,
                          [this, p = std::move(packet)] { deliver(p); });
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
  const KindId kind = kind_id(packet.payload.get());
  sent_by_kind_[std::size_t(src)][kind]->add(wire_bytes);
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
  simulator_.call_at(arrival, [this, p = std::move(packet)]() mutable {
    arrive(std::move(p));
  });
}

void Network::arrive(Packet packet) {
  if (!up_[std::size_t(packet.dst)]) {
    count_lost(packet, obs::DropReason::kNodeFailed);
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
    count_lost(packet, obs::DropReason::kLinkLoss);
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
    notify_drop(packet.dst, packet, /*outgoing=*/false);
    return;
  }
  const SimTime done = start + serialization_time(wire_bytes, bw_in);
  in_free_at_[std::size_t(packet.dst)] = done;
  simulator_.call_at(done, [this, p = std::move(packet)] { deliver(p); });
}

void Network::deliver(const Packet& packet) {
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
    const KindId kind = kind_id(packet.payload.get());
    received_by_kind_[std::size_t(packet.dst)][kind]->add(wire_bytes);
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
}

}  // namespace rasc::sim
