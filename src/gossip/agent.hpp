// Epidemic load-summary disseminator with a hard per-round byte budget.
//
// Every `interval` the agent (one per node, pinned to its node's logical
// process) refreshes its own LoadSummary via the provider callback, ages
// out entries it has not heard fresh news about for `stale_rounds` local
// rounds, and pushes one digest to `fanout` rotating peers. The digest is
// filled under the hard budget: self first, then view entries in rotating
// ring order, so consecutive rounds cover consecutive chunks of the view
// and every entry is on the wire once per coverage cycle regardless of
// fleet size. Per-node control bandwidth is therefore O(budget / interval)
// — independent of N — which bench/gossip_quality demonstrates.
//
// Merge is freshness-versioned: an incoming entry replaces the held one
// only when its origin version is strictly newer, so replicas converge to
// the newest summary under any delivery order. Pruning (and NACK-driven
// suspicion) leaves a version tombstone behind: re-admission requires a
// version strictly newer than the one the entry died with, so stale
// copies still circulating among peers cannot resurrect a dead node's
// entry forever — once the origin stops refreshing, its frozen version
// ages out of every view within stale_rounds of each holder's last
// acceptance, while a live origin (which bumps its version every round)
// sails past its own tombstone on the next digest.
//
// Determinism: the peer rotation is a seeded permutation private to this
// agent, rounds are timers with a node-indexed phase offset (so no two
// agents tick at the same instant), and both the view and the digest fill
// iterate ordered containers. Same (seed, fleet) => byte-identical gossip
// traffic.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "gossip/load_summary.hpp"
#include "gossip/messages.hpp"
#include "obs/metric_registry.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace rasc::gossip {

class Agent {
 public:
  struct Params {
    /// Peers contacted per round (--gossip-fanout).
    int fanout = 3;
    /// Round cadence (--gossip-interval-ms).
    sim::SimDuration interval = sim::msec(500);
    /// Hard cap on digest wire bytes sent per round, across all fanout
    /// targets (--gossip-budget-bytes). Frame overhead not included: the
    /// budget bounds what the protocol chooses to say, the network adds
    /// its framing on top as for any other traffic.
    std::int64_t budget_bytes = 3200;
    /// Entries not refreshed for this many local rounds age out
    /// (--gossip-stale-rounds).
    int stale_rounds = 30;
    /// Seed for this agent's private rotation stream; the plane derives
    /// it per node from the world RNG.
    std::uint64_t seed = 1;
  };

  /// Provider callback: snapshots the local node's current load. The
  /// agent stamps origin and version itself.
  using SummaryFn = std::function<LoadSummary()>;

  /// A held view entry: the summary plus the local round at which it was
  /// last accepted (refreshed), which drives staleness aging.
  struct Entry {
    LoadSummary summary;
    std::uint64_t heard_round = 0;
  };

  Agent(sim::Simulator& simulator, sim::Network& network, sim::NodeIndex node,
        std::size_t fleet_size, Params params, SummaryFn summary_fn,
        obs::MetricRegistry& registry);
  ~Agent();

  Agent(const Agent&) = delete;
  Agent& operator=(const Agent&) = delete;

  /// Starts the round timer. The first round fires at `at` plus a small
  /// deterministic node-indexed phase offset.
  void start(sim::SimTime at);

  /// Drops `origin` from the view (deploy NACK feedback: its advertised
  /// headroom was wrong, stop composing onto it until fresh news).
  void mark_suspect(sim::NodeIndex origin);

  /// The partial view, self included, keyed by origin.
  const std::map<sim::NodeIndex, Entry>& view() const { return view_; }
  std::uint64_t round() const { return round_; }
  sim::NodeIndex node() const { return node_; }
  const Params& params() const { return params_; }

  /// Digest entries the next round would send (exposed for budget tests).
  std::vector<LoadSummary> build_digest() const;

 private:
  /// Merges a peer's digest (registered per kind at construction).
  void receive(const GossipDigestMsg& digest);
  void run_round();
  void refresh_self();

  sim::Simulator& simulator_;
  sim::Network& network_;
  const sim::NodeIndex node_;
  const Params params_;
  const SummaryFn summary_fn_;

  std::map<sim::NodeIndex, Entry> view_;
  /// Last version an entry was pruned or suspected at; merges re-admit
  /// the origin only with something strictly newer. Bounded by fleet
  /// size; cleared per origin on re-admission.
  std::map<sim::NodeIndex, std::uint64_t> tombstones_;
  std::uint64_t round_ = 0;
  std::uint64_t self_version_ = 0;

  /// Rotating peer permutation; reshuffled (privately seeded) at each
  /// wrap so long runs do not lock into one dissemination pattern.
  std::vector<sim::NodeIndex> rotation_;
  std::size_t cursor_ = 0;
  util::Xoshiro256 rng_;

  sim::EventId round_event_ = 0;

  // Telemetry (lazily created per node; absent runs stay byte-neutral).
  obs::Counter* sends_;
  obs::Counter* sent_bytes_;
  obs::Counter* merges_fresh_;
  obs::Counter* merges_stale_;
  obs::Counter* prunes_;
  obs::Counter* suspects_;
  obs::Gauge* round_bytes_;
  obs::Gauge* view_size_;
};

}  // namespace rasc::gossip
