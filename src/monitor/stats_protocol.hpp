// Stats query protocol: "Performance metadata is retrieved by requesting
// it directly from each host" (paper §3.3).
//
// A StatsAgent lives on every node: it answers StatsRequest packets with
// the local monitor's snapshot, and lets a coordinator query a set of
// remote nodes with timeouts. These exchanges ride the simulated network,
// so gathering statistics costs real time and bandwidth during
// composition, exactly as on PlanetLab.
#pragma once

#include <functional>
#include <unordered_map>
#include <vector>

#include "monitor/node_monitor.hpp"
#include "monitor/node_stats.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace rasc::monitor {

struct StatsRequest final : sim::Message {
  static constexpr char kKind[] = "monitor.stats_request";
  const char* kind() const override { return kKind; }
  std::uint64_t request_id = 0;
  sim::NodeIndex requester = sim::kInvalidNode;
  static constexpr std::int64_t kBytes = 24;
};

struct StatsReply final : sim::Message {
  static constexpr char kKind[] = "monitor.stats_reply";
  const char* kind() const override { return kKind; }
  std::uint64_t request_id = 0;
  NodeStats stats;
  static constexpr std::int64_t kBytes = 96;
};

class StatsAgent {
 public:
  using QueryCallback =
      std::function<void(bool ok, const NodeStats& stats)>;
  using MultiQueryCallback =
      std::function<void(std::vector<NodeStats> stats)>;

  static constexpr sim::SimDuration kTimeout = sim::msec(1500);

  /// Registers for StatsRequest and StatsReply packets at `node`.
  StatsAgent(sim::Simulator& simulator, sim::Network& network,
             sim::NodeIndex node, const NodeMonitor& local_monitor);
  ~StatsAgent();

  StatsAgent(const StatsAgent&) = delete;
  StatsAgent& operator=(const StatsAgent&) = delete;

  /// Queries one remote node's stats.
  void query(sim::NodeIndex target, QueryCallback done);
  /// Same, with an explicit reply deadline (scoped refreshes on a repair
  /// path that cannot afford the full default timeout).
  void query(sim::NodeIndex target, sim::SimDuration timeout,
             QueryCallback done);

  /// Queries many nodes in parallel; `done` fires once every query has
  /// replied or timed out, with the successful snapshots (order follows
  /// `targets`, failures omitted).
  void query_many(const std::vector<sim::NodeIndex>& targets,
                  MultiQueryCallback done);
  void query_many(const std::vector<sim::NodeIndex>& targets,
                  sim::SimDuration timeout, MultiQueryCallback done);

 private:
  struct Pending {
    QueryCallback done;
    sim::EventId timeout_event;
  };

  void receive(const StatsRequest& req);
  void receive(const StatsReply& reply);

  sim::Simulator& simulator_;
  sim::Network& network_;
  sim::NodeIndex node_;
  const NodeMonitor& monitor_;
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::uint64_t counter_ = 0;
};

}  // namespace rasc::monitor
