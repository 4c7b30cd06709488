#include "monitor/stats_protocol.hpp"

#include <memory>

namespace rasc::monitor {

StatsAgent::StatsAgent(sim::Simulator& simulator, sim::Network& network,
                       sim::NodeIndex node, const NodeMonitor& local_monitor)
    : simulator_(simulator),
      network_(network),
      node_(node),
      monitor_(local_monitor) {
  network_.on<StatsRequest, StatsReply>(
      node_, this, [](StatsAgent& self, const auto& m, const sim::Packet&) {
        self.receive(m);
      });
}

StatsAgent::~StatsAgent() { network_.remove_handlers(node_, this); }

void StatsAgent::receive(const StatsRequest& req) {
  auto reply = std::make_shared<StatsReply>();
  reply->request_id = req.request_id;
  reply->stats = monitor_.snapshot();
  network_.send(node_, req.requester, StatsReply::kBytes, std::move(reply));
}

void StatsAgent::receive(const StatsReply& reply) {
  const auto it = pending_.find(reply.request_id);
  if (it != pending_.end()) {
    simulator_.cancel(it->second.timeout_event);
    auto cb = std::move(it->second.done);
    pending_.erase(it);
    if (cb) cb(true, reply.stats);
  }
}

void StatsAgent::query(sim::NodeIndex target, QueryCallback done) {
  query(target, kTimeout, std::move(done));
}

void StatsAgent::query(sim::NodeIndex target, sim::SimDuration timeout,
                       QueryCallback done) {
  const std::uint64_t rid = ++counter_;
  auto req = std::make_shared<StatsRequest>();
  req->request_id = rid;
  req->requester = node_;

  Pending pending;
  pending.done = std::move(done);
  pending.timeout_event = simulator_.call_after(timeout, [this, rid] {
    const auto it = pending_.find(rid);
    if (it == pending_.end()) return;
    auto cb = std::move(it->second.done);
    pending_.erase(it);
    if (cb) cb(false, NodeStats{});
  });
  pending_.emplace(rid, std::move(pending));

  network_.send(node_, target, StatsRequest::kBytes, std::move(req));
}

void StatsAgent::query_many(const std::vector<sim::NodeIndex>& targets,
                            MultiQueryCallback done) {
  query_many(targets, kTimeout, std::move(done));
}

void StatsAgent::query_many(const std::vector<sim::NodeIndex>& targets,
                            sim::SimDuration timeout,
                            MultiQueryCallback done) {
  if (targets.empty()) {
    done({});
    return;
  }
  struct Gather {
    std::vector<NodeStats> results;
    std::size_t outstanding;
    MultiQueryCallback done;
  };
  auto gather = std::make_shared<Gather>();
  gather->outstanding = targets.size();
  gather->done = std::move(done);
  for (sim::NodeIndex t : targets) {
    query(t, timeout, [gather](bool ok, const NodeStats& stats) {
      if (ok) gather->results.push_back(stats);
      if (--gather->outstanding == 0) gather->done(std::move(gather->results));
    });
  }
}

}  // namespace rasc::monitor
