#include "overlay/pastry_node.hpp"

#include <algorithm>
#include <cassert>
#include <set>

#include "util/logging.hpp"

namespace rasc::overlay {

PastryNode::PastryNode(sim::Simulator& simulator, sim::Network& network,
                       sim::NodeIndex addr, NodeId128 id)
    : simulator_(simulator),
      network_(network),
      addr_(addr),
      id_(id),
      leaves_(id),
      table_(id) {
  network_.on<RoutedMessage, JoinStateInfo, Announce, LeafSetExchange,
              DhtAck, DhtGetReply, DhtReplicate>(
      addr_, this, [](PastryNode& self, const auto& m, const sim::Packet&) {
        self.receive(m);
      });
}

PastryNode::~PastryNode() {
  network_.remove_handlers(addr_, this);
  simulator_.cancel(maintenance_event_);
  simulator_.cancel(join_timeout_event_);
}

void PastryNode::bootstrap_as_first() {
  ready_ = true;
  start_maintenance();
}

void PastryNode::start_maintenance() {
  // Small per-node phase offset so the fleet does not exchange in
  // lock-step bursts.
  maintenance_event_ = simulator_.call_after(
      kLeafMaintenanceFast + sim::usec(137) * (addr_ % 64),
      [this] { run_maintenance(); });
}

void PastryNode::run_maintenance() {
  const auto leaves = leaves_.all();
  if (!leaves.empty()) {
    auto msg = std::make_shared<LeafSetExchange>();
    msg->sender = self();
    msg->leaves = leaves;
    const auto size = msg->wire_size();
    for (const PeerRef& leaf : leaves) {
      send_direct(leaf.addr, size, msg);
    }
  }
  // Probe aggressively while the ring is converging, then back off: a
  // healthy node's probe is a no-op round trip, so steady state only
  // needs enough probes to catch drift after churn.
  if (maintenance_rounds_ < kFastMaintenanceRounds ||
      maintenance_rounds_ % kSlowProbeEvery == 0) {
    send_neighbor_probe();
  }
  ++maintenance_rounds_;
  const auto interval = maintenance_rounds_ < kFastMaintenanceRounds
                            ? kLeafMaintenanceFast
                            : kLeafMaintenanceSlow;
  maintenance_event_ =
      simulator_.call_after(interval, [this] { run_maintenance(); });
}

void PastryNode::send_direct(sim::NodeIndex to, std::int64_t size,
                             sim::MessagePtr msg) {
  network_.send(addr_, to, size, std::move(msg));
}

void PastryNode::send_neighbor_probe() {
  // Hand a probe keyed by our own id to a rotating known peer; it routes
  // to whichever node currently believes it is root for our id. When our
  // state is consistent that is us (the probe comes straight back); when
  // it is not, the false root learns us and replies with its leaf set,
  // pulling us toward our true ring neighborhood.
  const auto peers = known_peers();
  if (peers.empty()) return;
  const PeerRef& via = peers[maintenance_rounds_ % peers.size()];
  auto m = std::make_shared<RoutedMessage>();
  m->key = id_;
  m->origin = self();
  m->inner = std::make_shared<NeighborProbe>();
  m->inner_size = NeighborProbe::kBytes;
  const auto size = m->wire_size();
  send_direct(via.addr, size, std::move(m));
}

void PastryNode::learn(const PeerRef& peer) {
  if (peer.addr == addr_) return;
  const bool new_leaf = leaves_.insert(peer);
  table_.insert(peer);
  // A newly accepted leaf is a ring neighbor that may not know us (the
  // "I see you, you don't see me" asymmetry that strands joiners seeded
  // with a stale neighborhood). Push our leaf set so discovery is
  // bidirectional; acceptance strictly shrinks a side's span, so the
  // cascade terminates.
  if (new_leaf && ready_) {
    auto msg = std::make_shared<LeafSetExchange>();
    msg->sender = self();
    msg->leaves = leaves_.all();
    const auto size = msg->wire_size();
    send_direct(peer.addr, size, std::move(msg));
  }
}

std::vector<PeerRef> PastryNode::known_peers() const {
  std::vector<PeerRef> out = leaves_.all();
  for (const PeerRef& p : table_.all()) {
    if (!std::any_of(out.begin(), out.end(), [&p](const PeerRef& q) {
          return q.addr == p.addr;
        })) {
      out.push_back(p);
    }
  }
  return out;
}

PeerRef PastryNode::next_hop(const NodeId128& key) const {
  // Case 1: key within leaf-set range -> numerically closest leaf or self.
  if (leaves_.covers(key)) {
    return leaves_.closest(key, addr_);
  }
  // Case 2: routing table entry for the next digit.
  const int row = id_.shared_prefix_len(key);
  const int col = key.digit(row);
  if (const auto e = table_.entry(row, col)) {
    return *e;
  }
  // Case 3 (rare): any known node with at least as long a shared prefix
  // that is numerically closer to the key than self.
  PeerRef best = self();
  for (const PeerRef& p : known_peers()) {
    if (p.id.shared_prefix_len(key) >= row && p.id.closer_to(key, best.id)) {
      best = p;
    }
  }
  return best;
}

void PastryNode::route(const NodeId128& key, sim::MessagePtr inner,
                       std::int64_t inner_size) {
  auto m = std::make_shared<RoutedMessage>();
  m->key = key;
  m->origin = self();
  m->hops = 0;
  m->inner = std::move(inner);
  m->inner_size = inner_size;
  handle_routed(*m);
}

void PastryNode::forward(const RoutedMessage& m) {
  const PeerRef next = next_hop(m.key);
  if (next.addr == addr_) {
    deliver_at_root(m);
    return;
  }
  if (m.hops >= RoutedMessage::kMaxHops) {
    RASC_LOG(kWarn) << "node " << addr_ << ": dropping routed "
                    << (m.inner ? m.inner->kind() : "null") << " for key "
                    << m.key.to_hex() << " after " << m.hops << " hops";
    return;
  }
  auto fwd = std::make_shared<RoutedMessage>(m);
  fwd->hops = m.hops + 1;
  const auto size = fwd->wire_size();
  send_direct(next.addr, size, std::move(fwd));
}

void PastryNode::handle_routed(const RoutedMessage& m) {
  // A routed join triggers state transfer from every node on the path.
  if (const auto* join = sim::message_as<JoinRequest>(m.inner.get())) {
    const PeerRef next = next_hop(m.key);
    const bool is_root = (next.addr == addr_);
    send_join_state(join->joiner, is_root);
    learn(join->joiner);
    if (!is_root) forward(m);
    return;
  }
  forward(m);
}

void PastryNode::deliver_at_root(const RoutedMessage& m) {
  const auto& inner = m.inner;
  if (sim::message_as<NeighborProbe>(inner.get()) != nullptr) {
    if (m.origin.addr != addr_) {
      learn(m.origin);
      auto reply = std::make_shared<LeafSetExchange>();
      reply->sender = self();
      reply->leaves = leaves_.all();
      const auto size = reply->wire_size();
      send_direct(m.origin.addr, size, std::move(reply));
    }
    return;
  }
  if (const auto* put = sim::message_as<DhtPut>(inner.get())) {
    auto& values = store_[put->key];
    if (!put->append) values.clear();
    if (std::find(values.begin(), values.end(), put->value) ==
        values.end()) {
      values.push_back(put->value);
    }
    replicate_to_leaves(put->key);
    auto ack = std::make_shared<DhtAck>();
    ack->request_id = put->request_id;
    send_direct(put->requester.addr, DhtAck::kBytes, std::move(ack));
    return;
  }
  if (const auto* get = sim::message_as<DhtGet>(inner.get())) {
    auto reply = std::make_shared<DhtGetReply>();
    reply->request_id = get->request_id;
    const auto it = store_.find(get->key);
    reply->found = (it != store_.end());
    if (reply->found) reply->values = it->second;
    const auto size = reply->wire_size();
    send_direct(get->requester.addr, size, std::move(reply));
    return;
  }
  if (deliver_handler_) {
    deliver_handler_(m.key, m.inner, m.origin, m.hops);
  } else {
    RASC_LOG(kWarn) << "node " << addr_ << ": routed payload "
                    << (inner ? inner->kind() : "null")
                    << " delivered at root but no handler installed";
  }
}

void PastryNode::send_join_state(const PeerRef& joiner, bool as_root) {
  auto info = std::make_shared<JoinStateInfo>();
  info->sender = self();
  info->routing_entries = table_.all();
  if (as_root) {
    info->leaf_entries = leaves_.all();
    info->from_root = true;
  }
  const auto size = info->wire_size();
  send_direct(joiner.addr, size, std::move(info));
}

void PastryNode::join_via(sim::NodeIndex seed,
                          std::function<void(bool)> done) {
  assert(!ready_);
  join_done_ = std::move(done);
  join_timeout_event_ = simulator_.call_after(kRpcTimeout, [this] {
    if (ready_ || !join_done_) return;
    auto cb = std::move(join_done_);
    join_done_ = nullptr;
    cb(false);
  });

  auto join = std::make_shared<JoinRequest>();
  join->joiner = self();
  auto m = std::make_shared<RoutedMessage>();
  m->key = id_;
  m->origin = self();
  m->inner = std::move(join);
  m->inner_size = JoinRequest::kBytes;
  const auto size = m->wire_size();
  send_direct(seed, size, std::move(m));
}

void PastryNode::replicate_to_leaves(const NodeId128& key) {
  const auto it = store_.find(key);
  if (it == store_.end()) return;
  auto repl = std::make_shared<DhtReplicate>();
  repl->key = key;
  repl->values = it->second;
  const auto size = repl->wire_size();
  for (const PeerRef& leaf : leaves_.all()) {
    send_direct(leaf.addr, size, repl);
  }
}

void PastryNode::dht_put(const NodeId128& key, std::string value,
                         bool append, PutCallback done) {
  const RequestId rid = next_request_id();
  auto put = std::make_shared<DhtPut>();
  put->key = key;
  put->value = std::move(value);
  put->append = append;
  put->request_id = rid;
  put->requester = self();
  const auto inner_size = put->wire_size();

  PendingPut pending;
  pending.done = std::move(done);
  pending.timeout_event = simulator_.call_after(kRpcTimeout, [this, rid] {
    const auto it = pending_puts_.find(rid);
    if (it == pending_puts_.end()) return;
    auto cb = std::move(it->second.done);
    pending_puts_.erase(it);
    if (cb) cb(false);
  });
  pending_puts_.emplace(rid, std::move(pending));

  route(key, std::move(put), inner_size);
}

void PastryNode::dht_get(const NodeId128& key, GetCallback done) {
  const RequestId rid = next_request_id();
  auto get = std::make_shared<DhtGet>();
  get->key = key;
  get->request_id = rid;
  get->requester = self();

  PendingGet pending;
  pending.done = std::move(done);
  pending.timeout_event = simulator_.call_after(kRpcTimeout, [this, rid] {
    const auto it = pending_gets_.find(rid);
    if (it == pending_gets_.end()) return;
    auto cb = std::move(it->second.done);
    pending_gets_.erase(it);
    if (cb) cb(false, {});
  });
  pending_gets_.emplace(rid, std::move(pending));

  route(key, std::move(get), DhtGet::kBytes);
}

void PastryNode::receive(const RoutedMessage& m) {
  learn(m.origin);
  handle_routed(m);
}

void PastryNode::receive(const JoinStateInfo& info) {
  learn(info.sender);
  for (const PeerRef& p : info.routing_entries) learn(p);
  for (const PeerRef& p : info.leaf_entries) learn(p);
  if (info.from_root && !ready_) {
    ready_ = true;
    simulator_.cancel(join_timeout_event_);
    start_maintenance();
    // Announce ourselves to everyone we learned about so their state
    // includes us.
    auto ann = std::make_shared<Announce>();
    ann->who = self();
    for (const PeerRef& p : known_peers()) {
      send_direct(p.addr, Announce::kBytes, ann);
    }
    if (join_done_) {
      auto cb = std::move(join_done_);
      join_done_ = nullptr;
      cb(true);
    }
  }
}

void PastryNode::receive(const Announce& ann) { learn(ann.who); }

void PastryNode::receive(const LeafSetExchange& lx) {
  learn(lx.sender);
  for (const PeerRef& p : lx.leaves) learn(p);
}

void PastryNode::receive(const DhtAck& ack) {
  const auto it = pending_puts_.find(ack.request_id);
  if (it != pending_puts_.end()) {
    simulator_.cancel(it->second.timeout_event);
    auto cb = std::move(it->second.done);
    pending_puts_.erase(it);
    if (cb) cb(true);
  }
}

void PastryNode::receive(const DhtGetReply& reply) {
  const auto it = pending_gets_.find(reply.request_id);
  if (it != pending_gets_.end()) {
    simulator_.cancel(it->second.timeout_event);
    auto cb = std::move(it->second.done);
    pending_gets_.erase(it);
    if (cb) cb(reply.found, reply.values);
  }
}

void PastryNode::receive(const DhtReplicate& repl) {
  auto& values = store_[repl.key];
  for (const auto& v : repl.values) {
    if (std::find(values.begin(), values.end(), v) == values.end()) {
      values.push_back(v);
    }
  }
}

void PastryNode::purge_peer(sim::NodeIndex peer_addr) {
  leaves_.remove(peer_addr);
  table_.remove(peer_addr);
}

}  // namespace rasc::overlay
