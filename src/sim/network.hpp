// Simulated network: access-link serialization at both endpoints plus
// wide-area propagation latency.
//
// A packet from src to dst experiences, in order:
//   1. src output-port serialization: the out port is a FIFO; transmission
//      takes size / bw_out and starts when the port frees up;
//   2. propagation latency (from the topology matrix);
//   3. dst input-port serialization: computed *at arrival time* so that
//      packets from different senders contend in true arrival order;
//   4. delivery to the destination node's handler for the packet's kind.
//
// Both serialization steps are what make RASC's b_in/b_out constraints
// (paper §3.2) physically binding: overload a node and queueing delay —
// hence deadline misses, drops and jitter — emerges here.
//
// Traffic accounting lives in an obs::MetricRegistry (one shared with the
// rest of the deployment, or a private one when none is supplied):
// per-node byte/packet/drop counters plus per-(node, kind) wire bytes.
// Message kinds are interned to dense ids on first sight, so the per-send
// bookkeeping is flat vector indexing, not a string-keyed map lookup.
//
// Packet path (see DESIGN.md "Packet path"): send() interns the payload's
// kind once and stores it on the Packet; accounting and dispatch reuse it.
// Delivery indexes a per-(node, kind) handler table that subsystems fill
// through the typed on<M...>() helper, so no handler ever probes the
// payload's type. Packets in flight live in a Network-owned slab; the
// scheduled arrival/delivery closures hold only {this, slot}, which fits
// std::function's inline storage. A packet leaves its slot before any
// handler sees it, because a handler may send and grow the slab.
#pragma once

#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <typeinfo>
#include <vector>

#include "obs/metric_registry.hpp"
#include "obs/unit_trace.hpp"
#include "sim/message.hpp"
#include "sim/simulator.hpp"
#include "sim/topology.hpp"

namespace rasc::sim {

class Network {
 public:
  using Handler = std::function<void(const Packet&)>;
  /// Invoked when a packet is tail-dropped at one of `node`'s ports
  /// (outgoing = true for the send-side queue). Lets upper layers feed
  /// the loss into their monitoring.
  using DropHandler = std::function<void(const Packet&, bool outgoing)>;

  /// `registry` receives the traffic accounting; when null the network
  /// owns a private registry (tests, standalone use). `trace`, when
  /// non-null, gets port-drop / node-failure hops for data units.
  Network(Simulator& simulator, Topology topology,
          obs::MetricRegistry* registry = nullptr,
          obs::UnitTrace* trace = nullptr);

  /// Registers `owner` for packets of each kind in `Ms...` delivered to
  /// `node`. The captureless callable `F` is invoked as
  /// `F{}(*owner, const M&, const Packet&)`, with the payload already
  /// downcast (debug builds assert its type). A later registration of the
  /// same (node, kind) replaces the earlier one.
  template <class... Ms, class T, class F>
  void on(NodeIndex node, T* owner, F) {
    static_assert(std::is_empty_v<F> && std::is_default_constructible_v<F>,
                  "a packet handler reaches its state through the owner");
    (set_kind_handler(node, Ms::kKind,
                      KindHandler{
                          [](void* self, const Packet& packet) {
                            assert(packet.payload != nullptr &&
                                   typeid(*packet.payload) == typeid(Ms));
                            F{}(*static_cast<T*>(self),
                                static_cast<const Ms&>(*packet.payload),
                                packet);
                          },
                          owner}),
     ...);
  }

  /// Drops every per-kind handler `owner` registered at `node` (called by
  /// a subsystem's destructor).
  void remove_handlers(NodeIndex node, const void* owner);

  /// Registers `node`'s catch-all: it receives packets of every kind that
  /// has no per-kind handler there. Without one, such a packet is logged
  /// and counted as lost (unroutable).
  void set_handler(NodeIndex node, Handler handler);

  /// Hands `packet` to its destination's handler at once: no ports, no
  /// latency, no traffic accounting. Returns the owner of the per-kind
  /// handler that took it, or nullptr when none did (the catch-all or the
  /// unroutable path then ran, as for a real delivery). Tests use it to
  /// drive one protocol step without the wire.
  const void* deliver_now(Packet packet);

  /// Interns `kind` (a message class's kKind) and returns its dense id.
  /// Interning creates no metric cells: per-kind byte counters appear
  /// when a kind is first transmitted.
  KindId kind_id(const char* kind);

  /// Registers the tail-drop observer for `node`.
  void set_drop_handler(NodeIndex node, DropHandler handler);

  /// Sends `payload` of `size_bytes` from src to dst. Loopback (src == dst)
  /// delivers after a fixed small local delay without consuming bandwidth.
  void send(NodeIndex src, NodeIndex dst, std::int64_t size_bytes,
            MessagePtr payload);

  std::size_t size() const { return topology_.size(); }
  const Topology& topology() const { return topology_; }

  /// False while a node is failed (fail_node): all traffic to/from it is
  /// silently dropped.
  bool node_up(NodeIndex node) const { return up_[std::size_t(node)]; }

  // --- Chaos hooks (no-ops until used: the baseline packet path is
  // byte-identical while every scale is 1.0 and every rate is 0) ---

  /// Takes the node down and counts the transition under
  /// net.node_failures{node}. No-op if already down.
  void fail_node(NodeIndex node);
  /// Counterpart to fail_node: brings the node back with *empty* port
  /// queues — whatever was serializing at failure time died with the
  /// node — and counts it under net.node_restores{node}. No-op if up.
  void restore_node(NodeIndex node);
  std::int64_t node_failures(NodeIndex node) const;
  std::int64_t node_restores(NodeIndex node) const;

  /// Scales `node`'s access bandwidth (both directions); 1.0 = nominal.
  /// Clamped below to 0.001 so serialization time stays finite.
  void set_bandwidth_scale(NodeIndex node, double scale);
  double bandwidth_scale(NodeIndex node) const {
    return bw_scale_[std::size_t(node)];
  }

  /// Extra one-way propagation latency added to every packet `node`
  /// sends or receives (degraded / rerouted link).
  void set_extra_latency(NodeIndex node, SimDuration extra);

  /// Independent per-packet loss probability applied to arrivals at
  /// `node`, on top of the topology-wide loss_rate.
  void set_injected_loss(NodeIndex node, double rate);

  /// What a send interceptor may do to one packet before it touches the
  /// port queues. Duplicates re-enter send() immediately; a delayed
  /// packet re-enters after `extra_delay`. Neither is re-intercepted.
  struct SendPerturbation {
    bool drop = false;
    SimDuration extra_delay = 0;
    int duplicates = 0;
  };
  using SendInterceptor =
      std::function<SendPerturbation(NodeIndex src, NodeIndex dst,
                                     const Message* payload)>;
  /// Installs (or, with nullptr, removes) the chaos send interceptor.
  /// Consulted once per original send() call.
  void set_send_interceptor(SendInterceptor interceptor);

  // --- Traffic accounting (ground truth for the resource monitor) ---

  /// Cumulative payload+frame bytes that have *started* transmission from
  /// `node` (counted at departure start).
  std::int64_t bytes_sent(NodeIndex node) const {
    return bytes_sent_[std::size_t(node)]->value();
  }
  /// Cumulative bytes delivered to `node` (counted at delivery).
  std::int64_t bytes_received(NodeIndex node) const {
    return bytes_received_[std::size_t(node)]->value();
  }
  std::int64_t packets_sent() const { return packets_sent_->value(); }
  std::int64_t packets_dropped() const { return packets_dropped_->value(); }
  /// Tail drops at `node`'s port queues.
  std::int64_t out_queue_drops(NodeIndex node) const {
    return out_queue_drops_[std::size_t(node)]->value();
  }
  std::int64_t in_queue_drops(NodeIndex node) const {
    return in_queue_drops_[std::size_t(node)]->value();
  }

  /// Packets between send() and their last event (delivery or loss).
  std::size_t packets_in_flight() const {
    return in_flight_.size() - free_slots_.size();
  }
  /// Slots the in-flight slab has grown to (high-water mark).
  std::size_t in_flight_slots() const { return in_flight_.size(); }

  // --- Per-kind accounting (interned kinds, flat storage) ---

  /// Interned message kinds, in id order. Index with a KindId.
  const std::vector<std::string>& kind_names() const { return kind_names_; }
  /// Received wire bytes of one interned kind at `node` (0 for an id this
  /// network has not seen).
  std::int64_t received_bytes_of_kind(NodeIndex node, KindId kind) const;
  std::int64_t sent_bytes_of_kind(NodeIndex node, KindId kind) const;

  /// Diagnostic compatibility views: per-kind wire bytes as name-keyed
  /// maps (excludes loopback; only kinds with nonzero totals appear).
  std::map<std::string, std::int64_t> received_by_kind(NodeIndex node) const;
  std::map<std::string, std::int64_t> sent_by_kind(NodeIndex node) const;

  /// Earliest time the out port of `node` is free (for tests).
  SimTime out_port_free_at(NodeIndex node) const {
    return out_free_at_[std::size_t(node)];
  }
  SimTime in_port_free_at(NodeIndex node) const {
    return in_free_at_[std::size_t(node)];
  }

  /// Serialization time of `size_bytes` at `kbps` (exposed for tests and
  /// for the composer's capacity math).
  static SimDuration serialization_time(std::int64_t size_bytes, double kbps);

  /// Per-packet framing overhead added to every transmission (headers).
  static constexpr std::int64_t kFrameOverheadBytes = 48;

  /// Fixed loopback delivery delay.
  static constexpr SimDuration kLoopbackDelay = usec(20);

  /// Hard cap on distinct interned message kinds. Per-(node, kind) counter
  /// columns are pre-sized to this so indexing them never races a resize;
  /// interning a kind beyond the cap throws. The simulator's own
  /// subsystems define 32 kinds.
  static constexpr std::size_t kMaxKinds = 64;

 private:
  /// One dispatch-table entry: a plain function and the object it acts
  /// on, 16 bytes per (node, kind).
  struct KindHandler {
    void (*fn)(void* owner, const Packet& packet) = nullptr;
    void* owner = nullptr;
  };

  void set_kind_handler(NodeIndex node, const char* kind,
                        KindHandler handler);

  // The in-flight slab: park() moves a packet into a free slot, unpark()
  // moves it out and frees the slot.
  std::uint32_t park(Packet&& packet);
  Packet unpark(std::uint32_t slot);

  void arrive(std::uint32_t slot);
  void deliver(std::uint32_t slot);
  /// Runs the handler for `packet`'s kind at its destination (or the
  /// catch-all / unroutable path); returns the per-kind owner or nullptr.
  const void* dispatch(const Packet& packet);

  void notify_drop(NodeIndex node, const Packet& packet, bool outgoing);
  void count_lost(const Packet& packet, obs::DropReason reason);

  /// Creates the per-node sent/received byte cells of `kind`.
  void add_kind_cells(KindId kind);

  Simulator& simulator_;
  Topology topology_;

  std::unique_ptr<obs::MetricRegistry> owned_registry_;
  obs::MetricRegistry* registry_;
  obs::UnitTrace* trace_;

  std::vector<std::vector<KindHandler>> kind_handlers_;  // [node][kind]
  std::vector<Handler> handlers_;                        // catch-alls
  std::vector<DropHandler> drop_handlers_;
  std::vector<Packet> in_flight_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<SimTime> out_free_at_;
  std::vector<SimTime> in_free_at_;

  // Registry-backed cells, cached as raw pointers for flat indexing.
  std::vector<obs::Counter*> bytes_sent_;
  std::vector<obs::Counter*> bytes_received_;
  std::vector<obs::Counter*> out_queue_drops_;
  std::vector<obs::Counter*> in_queue_drops_;
  obs::Counter* packets_sent_;
  obs::Counter* packets_dropped_;

  // Kind interning: `kind()` returns a class's kKind literal, so a
  // pointer probe short-circuits the by-content lookup after a literal's
  // first sight. The probe table is a fixed open-addressed array of
  // (atomic key, id) pairs, read lock-free; `kind_mu_` guards the slow
  // path that interns a new kind (string dedupe + slot publish, key
  // released last). Per-kind byte cells are indexed [node][kind id] and
  // stay null until the kind is first transmitted; columns are pre-sized
  // to kMaxKinds so indexing never observes a vector resize.
  struct KindSlot {
    std::atomic<const char*> key{nullptr};
    std::atomic<KindId> id{0};
  };
  static constexpr std::size_t kKindTableSize = 256;  // power of two
  std::array<KindSlot, kKindTableSize> kind_table_;
  mutable std::mutex kind_mu_;
  std::map<std::string, KindId> kind_ids_;
  std::vector<std::string> kind_names_;
  std::vector<std::vector<obs::Counter*>> sent_by_kind_;
  std::vector<std::vector<obs::Counter*>> received_by_kind_;

  std::vector<bool> up_;
  util::Xoshiro256 loss_rng_;

  // Chaos state. Defaults leave the packet path bit-identical to a
  // chaos-free build: scale 1.0 multiplies exactly, extra latency 0 adds
  // exactly, loss 0 draws nothing, null interceptor tests one pointer.
  std::vector<double> bw_scale_;
  std::vector<SimDuration> extra_latency_;
  std::vector<double> injected_loss_;
  SendInterceptor send_interceptor_;
  // The re-intercept depth guard lives in a thread_local in network.cpp,
  // so worlds running on different threads never share it.
};

}  // namespace rasc::sim
