// Online rate re-allocation (the "dynamic" in Dynamic Rate Allocation).
//
// The paper adjusts rates "based on the available processing capacity of
// the nodes" (§1, §3.4); until this subsystem the repo's only runtime
// response was the supervisor's all-or-nothing teardown-and-recompose. The
// RateAdapter instead runs a periodic per-application loop:
//
//   1. pull fresh windowed NodeStats from every provider + both endpoints,
//   2. credit the app's own current usage back to those statistics (its
//      deployed rates occupy capacity the re-plan is free to re-assign),
//   3. re-solve each substream on a *persistent* CompositionGraph whose
//      capacities and costs are rewritten in place from the fresh
//      statistics, through the composer's own SubstreamSolver (warm-started
//      solve, capacity-repair loop, Algorithm 1 residual update), and
//   4. diff the solved plan against the deployed one, shipping *delta*
//      deploy messages (rate-update / add-placement / remove-placement /
//      source-split) so components change rate in place; no teardown.
//
// Hysteresis (minimum relative improvement in expected drop cost, plus a
// per-app cooldown after shipping) keeps the loop from oscillating between
// near-equal plans. The supervisor uses attempt_now() as its first-line
// response to a starving app and escalates to teardown only when the delta
// repair cannot help (note_teardown() keeps score).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/composition_graph.hpp"
#include "core/mincost_composer.hpp"
#include "core/request.hpp"
#include "monitor/stats_protocol.hpp"
#include "obs/metric_registry.hpp"
#include "runtime/plan.hpp"
#include "runtime/service.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace rasc::core {

class RateAdapter {
 public:
  /// Delay before retired placements are removed: in-flight units drain
  /// while the (idle) component still exists.
  static constexpr sim::SimDuration kRemoveGrace = sim::msec(500);
  /// Per-node aggregate CPU utilization budget for latency-aware
  /// re-solves (base load plus the candidate plan's own planned CPU).
  /// The M/G/1 wait explodes as rho -> 1, so a triggered round's repair
  /// loop tightens any node the candidate would push past this — the
  /// flow spreads across providers instead of stacking stages on the
  /// bandwidth-cheapest node (which is how a purely reactive round can
  /// cook its own CPU hotspot).
  static constexpr double kPredictiveRhoTarget = 0.7;

  /// No cost-model knobs: re-solves price candidates like a default
  /// MinCostComposer (CPU-aware, never-measured nodes drop-free).
  struct Params {
    /// Period of the per-app adaptation loop.
    sim::SimDuration interval = sim::sec(2);
    /// Minimum relative improvement in expected drop cost required before
    /// deltas are shipped (0.05 = new plan must be >= 5% cheaper).
    double hysteresis = 0.05;
    /// Per-app quiet period after a shipped delta round.
    sim::SimDuration cooldown = sim::sec(4);
    /// Predictive trigger: when true (and latency_model is set), every
    /// attempt also predicts the deployed plan's end-to-end latency from
    /// the round's credited statistics. A prediction past the request's
    /// deadline_ms bypasses the cost-improvement hysteresis — the adapter
    /// acts on the drift *before* drops appear — while the cooldown still
    /// bounds the ship rate. Off by default: no prediction, no predict.*
    /// registry cells, byte-identical runs.
    bool predictive = false;
    const LatencyModel* latency_model = nullptr;
  };

  /// Pluggable statistics source: invoked with the deduplicated target
  /// node set and a completion callback. Unset, the adapter round-trips
  /// to the central StatsAgent; the gossip control plane substitutes a
  /// synchronous read of the node-local partial view so adaptation stops
  /// defeating the decentralized plane.
  using StatsProvider = std::function<void(
      const std::vector<sim::NodeIndex>&,
      std::function<void(std::vector<monitor::NodeStats>)>)>;

  /// `done(shipped)` — whether the attempt shipped any delta.
  using AttemptCallback = std::function<void(bool shipped)>;

  RateAdapter(sim::Simulator& simulator, sim::Network& network,
              monitor::StatsAgent& stats,
              const runtime::ServiceCatalog& catalog, sim::NodeIndex node,
              Params params, obs::MetricRegistry* registry = nullptr);
  ~RateAdapter();

  RateAdapter(const RateAdapter&) = delete;
  RateAdapter& operator=(const RateAdapter&) = delete;

  /// Starts the periodic loop for an admitted application. `providers`
  /// holds the discovery result (service -> provider addresses) — the
  /// candidate set is pinned here; adaptation re-rates over it and never
  /// re-runs discovery.
  void track(const ServiceRequest& request, const runtime::AppPlan& plan,
             std::map<std::string, std::vector<sim::NodeIndex>> providers,
             sim::SimTime stream_stop);

  /// Stops adapting `app` (teardown / recovery under a new id).
  void forget(runtime::AppId app);

  /// One immediate attempt outside the periodic grid, bypassing the
  /// cooldown (supervisor first-line response to starvation).
  void attempt_now(runtime::AppId app, AttemptCallback done);

  /// Supervisor escalation bookkeeping: a tracked app was torn down
  /// because delta repair could not help.
  void note_teardown();

  /// Replaces the central stats round-trip (empty resets to the default).
  void set_stats_provider(StatsProvider provider) {
    stats_provider_ = std::move(provider);
  }

  std::size_t tracked_count() const { return tracked_.size(); }
  /// The plan the adapter believes is deployed (tests).
  const runtime::AppPlan* current_plan(runtime::AppId app) const;

  const Params& params() const { return params_; }

 private:
  /// Fixed candidate universe of one substream, pinned at track() time,
  /// plus its persistent flow network.
  struct SubstreamState {
    /// Candidate per (stage, index), in graph order; each round rewrites
    /// the capacity, drop ratio and utilization from fresh statistics.
    std::vector<std::vector<CandidateCap>> stages;
    std::unique_ptr<CompositionGraph> graph;
  };

  struct Tracked {
    ServiceRequest request;
    runtime::AppPlan plan;
    std::map<std::string, std::vector<sim::NodeIndex>> providers;
    sim::SimTime stream_stop = 0;
    sim::SimTime cooldown_until = 0;
    sim::EventId timer = 0;
    bool busy = false;  // a stats round-trip is in flight
    std::vector<SubstreamState> substreams;
    /// Last predicted latency of the deployed plan (predictive mode only;
    /// cell created lazily on the first predictive round).
    obs::Gauge* predict_gauge = nullptr;
  };

  void schedule_tick(runtime::AppId app);
  void attempt(runtime::AppId app, bool bypass_cooldown,
               AttemptCallback done);
  void on_stats(runtime::AppId app, std::vector<monitor::NodeStats> stats,
                AttemptCallback done);
  /// Re-solve every substream against credited-back fresh stats. Returns
  /// false (infeasible) when any substream cannot route its demand; on
  /// success fills `shares` (delivered ups per substream/stage/node) and
  /// the integer costs of the new and currently-deployed plans. With
  /// `latency_aware` set (a predicted deadline violation this round) the
  /// cost model folds each candidate's base CPU utilization into the
  /// utilization term and prices saturated nodes unusable, so the solver
  /// spreads rate onto cool CPUs instead of regenerating the hot plan;
  /// both plans are priced with the same modified costs.
  bool resolve(Tracked& t,
               const std::map<sim::NodeIndex, monitor::NodeStats>& by_node,
               std::vector<std::vector<std::vector<runtime::Placement>>>*
                   shares,
               std::int64_t* new_cost, std::int64_t* current_cost,
               bool latency_aware = false);
  /// Diff old vs new plan and ship delta messages; returns how many were
  /// sent (0 = plans identical).
  int ship_deltas(Tracked& t, const runtime::AppPlan& new_plan);

  sim::Simulator& simulator_;
  sim::Network& network_;
  monitor::StatsAgent& stats_;
  const runtime::ServiceCatalog& catalog_;
  sim::NodeIndex node_;
  Params params_;

  std::unique_ptr<obs::MetricRegistry> owned_metrics_;
  obs::MetricRegistry* metrics_;
  obs::Counter* attempts_;
  obs::Counter* deltas_shipped_;
  obs::Counter* skipped_;
  obs::Counter* infeasible_;
  obs::Counter* teardowns_;
  obs::Histogram* solve_us_;
  /// Attempts where the predictive trigger fired (lazily created — the
  /// cell exists only in predictive runs).
  obs::Counter* predict_triggers_ = nullptr;

  StatsProvider stats_provider_;

  std::map<runtime::AppId, std::unique_ptr<Tracked>> tracked_;
  /// Reusable warm-started solve (workspaces survive across apps,
  /// substreams and repair iterations).
  SubstreamSolver solver_;
  /// Outstanding-callback guard: stats replies may arrive after *this is
  /// gone; callbacks hold a weak_ptr to this token.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace rasc::core
