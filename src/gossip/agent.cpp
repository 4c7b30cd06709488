#include "gossip/agent.hpp"

#include <algorithm>
#include <cassert>

namespace rasc::gossip {

namespace {

obs::Labels node_labels(sim::NodeIndex node) {
  obs::Labels labels;
  labels.node = node;
  return labels;
}

}  // namespace

Agent::Agent(sim::Simulator& simulator, sim::Network& network,
             sim::NodeIndex node, std::size_t fleet_size, Params params,
             SummaryFn summary_fn, obs::MetricRegistry& registry)
    : simulator_(simulator),
      network_(network),
      node_(node),
      params_(params),
      summary_fn_(std::move(summary_fn)),
      rng_(params.seed),
      sends_(&registry.counter("gossip.sends", node_labels(node))),
      sent_bytes_(&registry.counter("gossip.sent_bytes", node_labels(node))),
      merges_fresh_(
          &registry.counter("gossip.merges_fresh", node_labels(node))),
      merges_stale_(
          &registry.counter("gossip.merges_stale", node_labels(node))),
      prunes_(&registry.counter("gossip.prunes", node_labels(node))),
      suspects_(&registry.counter("gossip.suspects", node_labels(node))),
      round_bytes_(&registry.gauge("gossip.round_bytes", node_labels(node))),
      view_size_(&registry.gauge("gossip.view_size", node_labels(node))) {
  assert(params_.fanout > 0);
  assert(params_.interval > 0);
  rotation_.reserve(fleet_size > 0 ? fleet_size - 1 : 0);
  for (std::size_t i = 0; i < fleet_size; ++i) {
    if (sim::NodeIndex(i) != node_) rotation_.push_back(sim::NodeIndex(i));
  }
  rng_.shuffle(rotation_);
  network_.on<GossipDigestMsg>(
      node_, this,
      [](Agent& self, const GossipDigestMsg& digest, const sim::Packet&) {
        self.receive(digest);
      });
}

Agent::~Agent() {
  network_.remove_handlers(node_, this);
  if (round_event_ != 0) simulator_.cancel(round_event_);
}

void Agent::start(sim::SimTime at) {
  // Deterministic per-node phase offset keeps agents from ticking at one
  // instant (which would serialize an unrealistic control-traffic burst
  // through every out port simultaneously).
  const sim::SimDuration phase =
      (params_.interval * (std::uint64_t(node_) % 97)) / 97;
  const sim::SimTime first = at + phase;
  round_event_ = simulator_.call_at(first, [this] { run_round(); });
}

void Agent::refresh_self() {
  LoadSummary s = summary_fn_ ? summary_fn_() : LoadSummary{};
  s.origin = node_;
  s.version = ++self_version_;
  view_[node_] = Entry{s, round_};
}

std::vector<LoadSummary> Agent::build_digest() const {
  const std::int64_t per_peer =
      params_.budget_bytes / std::max(1, params_.fanout);
  const std::int64_t capacity =
      (per_peer - GossipDigestMsg::kHeaderBytes) / LoadSummary::kWireBytes;
  std::vector<LoadSummary> entries;
  if (capacity <= 0) return entries;
  entries.reserve(std::size_t(capacity));

  // Self first: the agent is the sole authority for its own summary, so
  // it must be on the wire every round.
  const auto self_it = view_.find(node_);
  if (self_it != view_.end()) entries.push_back(self_it->second.summary);

  // Remaining slots walk the view in ring order from a rotating start, so
  // a view larger than one digest is fully covered every
  // ceil(view / slots) rounds instead of starving its tail.
  std::vector<const Entry*> others;
  others.reserve(view_.size());
  for (const auto& [origin, entry] : view_) {
    if (origin != node_) others.push_back(&entry);
  }
  if (others.empty()) return entries;
  const std::size_t slots =
      std::size_t(capacity) - std::min<std::size_t>(entries.size(), 1);
  const std::size_t start = std::size_t(round_ * slots) % others.size();
  for (std::size_t i = 0; i < others.size() && entries.size() - 1 < slots;
       ++i) {
    entries.push_back(others[(start + i) % others.size()]->summary);
  }
  return entries;
}

void Agent::run_round() {
  round_event_ = 0;
  refresh_self();

  // Deterministic staleness aging: anything not refreshed within the
  // window is dropped before it can be re-advertised.
  for (auto it = view_.begin(); it != view_.end();) {
    if (it->first != node_ &&
        round_ >= it->second.heard_round + std::uint64_t(params_.stale_rounds)) {
      tombstones_[it->first] = it->second.summary.version;
      it = view_.erase(it);
      prunes_->add();
    } else {
      ++it;
    }
  }
  view_size_->set(double(view_.size()));

  const auto entries = build_digest();
  std::int64_t round_bytes = 0;
  if (!entries.empty() && !rotation_.empty()) {
    const int fanout =
        int(std::min<std::size_t>(std::size_t(params_.fanout),
                                  rotation_.size()));
    for (int i = 0; i < fanout; ++i) {
      if (cursor_ >= rotation_.size()) {
        cursor_ = 0;
        rng_.shuffle(rotation_);
      }
      const sim::NodeIndex peer = rotation_[cursor_++];
      auto msg = std::make_shared<GossipDigestMsg>();
      msg->sender = node_;
      msg->entries = entries;
      const std::int64_t size = msg->wire_size();
      round_bytes += size;
      network_.send(node_, peer, size, std::move(msg));
      sends_->add();
    }
  }
  assert(round_bytes <= params_.budget_bytes);
  sent_bytes_->add(round_bytes);
  round_bytes_->set(double(round_bytes));

  ++round_;
  round_event_ =
      simulator_.call_after(params_.interval, [this] { run_round(); });
}

void Agent::receive(const GossipDigestMsg& digest) {
  for (const LoadSummary& incoming : digest.entries) {
    if (incoming.origin == node_) continue;  // sole authority for self
    const auto it = view_.find(incoming.origin);
    std::uint64_t floor = 0;
    if (it != view_.end()) {
      floor = it->second.summary.version;
    } else if (const auto ts = tombstones_.find(incoming.origin);
               ts != tombstones_.end()) {
      floor = ts->second;
    }
    if (incoming.version > floor) {
      view_[incoming.origin] = Entry{incoming, round_};
      tombstones_.erase(incoming.origin);
      merges_fresh_->add();
    } else {
      merges_stale_->add();
    }
  }
}

void Agent::mark_suspect(sim::NodeIndex origin) {
  if (origin == node_) return;
  const auto it = view_.find(origin);
  if (it == view_.end()) return;
  tombstones_[origin] = it->second.summary.version;
  view_.erase(it);
  suspects_->add();
}

}  // namespace rasc::gossip
