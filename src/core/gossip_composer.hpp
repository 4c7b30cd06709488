// Hop-by-hop composer over a gossip partial view (decentralized control
// plane; after Asaduzzaman & Maheswaran's hop-by-hop composition).
//
// Where MinCostComposer solves a global min-cost flow over the full
// discovery snapshot, this composer walks each substream's service chain
// stage by stage: at every stage it scores the capable providers by
// next-hop cost — propagation latency from the previous hop (plus the
// final hop to the destination at the last stage), observed drop ratio,
// and a soft load penalty from the gossip demand hints — and takes the
// cheapest, with bounded backtracking when a greedy prefix strands a
// later stage without capacity. Capacity accounting reuses the shared
// ResidualTracker, so multi-substream requests see their own earlier
// placements exactly as the centralized composers do.
//
// The composer itself is deterministic (ties break by node index); all
// placement variety comes from the view it is given.
#pragma once

#include <functional>
#include <map>

#include "core/composer.hpp"

namespace rasc::core {

class LatencyModel;

class GossipComposer : public Composer {
 public:
  /// One-way propagation latency between two nodes, in milliseconds.
  /// Null = latency-blind (cost degrades to drops + load only).
  using LatencyFn = std::function<double(sim::NodeIndex, sim::NodeIndex)>;

  /// Extra candidate expansions allowed per substream beyond the pure
  /// greedy walk.
  static constexpr int kBacktrackBudget = 8;
  /// Cost weights. Latency is in ms; drop ratio and load fraction are
  /// unitless in [0, 1], so their weights also set the exchange rate into
  /// milliseconds.
  static constexpr double kLatencyWeight = 1.0;
  static constexpr double kDropWeight = 200.0;
  static constexpr double kLoadWeight = 50.0;
  /// Drop prior for nodes whose snapshot held no drop outcomes.
  static constexpr double kDropPrior = 0.02;

  struct Options {
    LatencyFn latency_ms;
    /// Latency SLO admission (only consulted when the request carries a
    /// nonzero deadline_ms): CPU-saturated candidates are skipped during
    /// the walk and chains whose predicted end-to-end latency exceeds the
    /// deadline are rejected. Null disables both checks.
    const LatencyModel* latency_model = nullptr;
  };

  explicit GossipComposer(Options options) : options_(std::move(options)) {}

  const char* name() const override { return "gossip"; }

  /// Outbound demand already committed per node (from the gossip view's
  /// demand hints); feeds the load penalty. Cleared state persists until
  /// the next call, so the control plane refreshes it before every
  /// compose.
  void set_load_hints(std::map<sim::NodeIndex, double> demand_kbps) {
    hints_ = std::move(demand_kbps);
  }

  ComposeResult compose(const ComposeInput& input) override;

  /// Candidate expansions beyond the greedy walk in the last compose()
  /// (tests: proves backtracking engaged / stayed within budget).
  int last_backtracks() const { return last_backtracks_; }

 private:
  double hop_cost(sim::NodeIndex from, sim::NodeIndex candidate,
                  sim::NodeIndex destination, bool last_stage,
                  const ResidualTracker& tracker) const;

  Options options_;
  std::map<sim::NodeIndex, double> hints_;
  int last_backtracks_ = 0;
};

}  // namespace rasc::core
