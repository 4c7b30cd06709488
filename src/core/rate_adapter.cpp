#include "core/rate_adapter.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "core/composer.hpp"
#include "core/latency_model.hpp"
#include "core/plan_math.hpp"
#include "runtime/deploy_messages.hpp"
#include "util/logging.hpp"

namespace rasc::core {

namespace {

void finish(const RateAdapter::AttemptCallback& done, bool shipped) {
  if (done) done(shipped);
}

/// Rate-equality tolerance when diffing plans: anything below one flow
/// unit (milli-ups) cannot change a solved allocation.
constexpr double kRateEps = 1.0 / CompositionGraph::kScale;

bool same_placements(const std::vector<runtime::Placement>& a,
                     const std::vector<runtime::Placement>& b) {
  if (a.size() != b.size()) return false;
  for (const auto& pa : a) {
    bool matched = false;
    for (const auto& pb : b) {
      if (pb.node != pa.node) continue;
      matched =
          std::abs(pb.rate_units_per_sec - pa.rate_units_per_sec) < kRateEps;
      break;
    }
    if (!matched) return false;
  }
  return true;
}

}  // namespace

RateAdapter::RateAdapter(sim::Simulator& simulator, sim::Network& network,
                         monitor::StatsAgent& stats,
                         const runtime::ServiceCatalog& catalog,
                         sim::NodeIndex node, Params params,
                         obs::MetricRegistry* registry)
    : simulator_(simulator),
      network_(network),
      stats_(stats),
      catalog_(catalog),
      node_(node),
      params_(params),
      owned_metrics_(registry == nullptr
                         ? std::make_unique<obs::MetricRegistry>()
                         : nullptr),
      metrics_(registry != nullptr ? registry : owned_metrics_.get()) {
  obs::Labels labels;
  labels.node = node_;
  attempts_ = &metrics_->counter("adapt.attempts", labels);
  deltas_shipped_ = &metrics_->counter("adapt.deltas_shipped", labels);
  skipped_ = &metrics_->counter("adapt.skipped", labels);
  infeasible_ = &metrics_->counter("adapt.infeasible", labels);
  teardowns_ = &metrics_->counter("adapt.teardowns", labels);
  solve_us_ = &metrics_->histogram("adapt.solve_us", labels);
}

RateAdapter::~RateAdapter() {
  for (auto& [app, t] : tracked_) {
    if (t->timer != 0) simulator_.cancel(t->timer);
  }
}

void RateAdapter::track(
    const ServiceRequest& request, const runtime::AppPlan& plan,
    std::map<std::string, std::vector<sim::NodeIndex>> providers,
    sim::SimTime stream_stop) {
  auto t = std::make_unique<Tracked>();
  t->request = request;
  t->plan = plan;
  t->providers = std::move(providers);
  t->stream_stop = stream_stop;

  // Pin the candidate universe and build one persistent flow network per
  // substream. Capacities and costs are placeholders — every attempt
  // rewrites them from fresh statistics before solving.
  for (const auto& sub : request.substreams) {
    SubstreamState state;
    const int k = int(sub.services.size());
    state.stages.resize(std::size_t(k));
    for (int st = 0; st < k; ++st) {
      const auto it = t->providers.find(sub.services[std::size_t(st)]);
      if (it == t->providers.end() || it->second.empty()) {
        RASC_LOG(kWarn) << "adapter: no providers recorded for service "
                        << sub.services[std::size_t(st)] << "; app "
                        << plan.app << " not tracked";
        return;
      }
      for (const sim::NodeIndex node : it->second) {
        state.stages[std::size_t(st)].push_back(CandidateCap{node, 0, 0, 0});
      }
    }
    const SubstreamMath math(sub, catalog_, request.unit_bytes);
    state.graph = std::make_unique<CompositionGraph>(
        state.stages, 0, 0, math.delivered_ups(sub.rate_kbps));
    t->substreams.push_back(std::move(state));
  }

  const runtime::AppId app = plan.app;
  tracked_[app] = std::move(t);
  schedule_tick(app);
}

void RateAdapter::forget(runtime::AppId app) {
  const auto it = tracked_.find(app);
  if (it == tracked_.end()) return;
  if (it->second->timer != 0) simulator_.cancel(it->second->timer);
  tracked_.erase(it);
}

void RateAdapter::note_teardown() { teardowns_->add(); }

const runtime::AppPlan* RateAdapter::current_plan(runtime::AppId app) const {
  const auto it = tracked_.find(app);
  return it == tracked_.end() ? nullptr : &it->second->plan;
}

void RateAdapter::attempt_now(runtime::AppId app, AttemptCallback done) {
  attempt(app, /*bypass_cooldown=*/true, std::move(done));
}

void RateAdapter::schedule_tick(runtime::AppId app) {
  const auto it = tracked_.find(app);
  if (it == tracked_.end()) return;
  Tracked& t = *it->second;
  t.timer = 0;
  // Stop adapting when the next tick would land at or past the stream's
  // end: a delta shipped then could never take effect.
  if (simulator_.now() + params_.interval >= t.stream_stop) {
    tracked_.erase(it);
    return;
  }
  std::weak_ptr<bool> alive = alive_;
  t.timer = simulator_.call_after(params_.interval, [this, app, alive] {
    if (alive.expired()) return;
    attempt(app, /*bypass_cooldown=*/false, [this, app, alive](bool) {
      if (alive.expired()) return;
      schedule_tick(app);
    });
  });
}

void RateAdapter::attempt(runtime::AppId app, bool bypass_cooldown,
                          AttemptCallback done) {
  const auto it = tracked_.find(app);
  if (it == tracked_.end()) {
    finish(done, false);
    return;
  }
  Tracked& t = *it->second;
  if (t.busy || (!bypass_cooldown && simulator_.now() < t.cooldown_until)) {
    skipped_->add();
    finish(done, false);
    return;
  }
  attempts_->add();
  t.busy = true;

  std::vector<sim::NodeIndex> targets;
  for (const auto& [service, nodes] : t.providers) {
    (void)service;
    targets.insert(targets.end(), nodes.begin(), nodes.end());
  }
  targets.push_back(t.request.source);
  targets.push_back(t.request.destination);
  std::sort(targets.begin(), targets.end());
  targets.erase(std::unique(targets.begin(), targets.end()), targets.end());

  std::weak_ptr<bool> alive = alive_;
  auto deliver = [this, app, alive, done = std::move(done)](
                     std::vector<monitor::NodeStats> stats) mutable {
    if (alive.expired()) return;
    on_stats(app, std::move(stats), std::move(done));
  };
  if (stats_provider_) {
    stats_provider_(targets, std::move(deliver));
  } else {
    stats_.query_many(targets, std::move(deliver));
  }
}

void RateAdapter::on_stats(runtime::AppId app,
                           std::vector<monitor::NodeStats> stats,
                           AttemptCallback done) {
  const auto it = tracked_.find(app);
  if (it == tracked_.end()) {  // forgotten while the query was in flight
    finish(done, false);
    return;
  }
  Tracked& t = *it->second;
  t.busy = false;

  std::map<sim::NodeIndex, monitor::NodeStats> by_node;
  for (auto& s : stats) by_node[s.node] = s;
  if (by_node.find(t.request.source) == by_node.end() ||
      by_node.find(t.request.destination) == by_node.end()) {
    // Without endpoint snapshots the gate capacities are unknowable.
    infeasible_->add();
    finish(done, false);
    return;
  }

  // Credit the app's own deployed usage back to the snapshots: the rates
  // it currently holds are capacity the re-plan may freely re-assign.
  // Both the measured and the reserved figure are credited — availability
  // accounting takes max(measured, reserved) of what remains.
  const auto credit = [&by_node](sim::NodeIndex node, double in_kbps,
                                 double out_kbps, double cpu_fraction) {
    const auto bit = by_node.find(node);
    if (bit == by_node.end()) return;
    monitor::NodeStats& s = bit->second;
    s.used_in_kbps = std::max(0.0, s.used_in_kbps - in_kbps);
    s.reserved_in_kbps = std::max(0.0, s.reserved_in_kbps - in_kbps);
    s.used_out_kbps = std::max(0.0, s.used_out_kbps - out_kbps);
    s.reserved_out_kbps = std::max(0.0, s.reserved_out_kbps - out_kbps);
    s.cpu_used_fraction = std::max(0.0, s.cpu_used_fraction - cpu_fraction);
    s.cpu_reserved_fraction =
        std::max(0.0, s.cpu_reserved_fraction - cpu_fraction);
  };
  for (std::size_t ss = 0; ss < t.plan.substreams.size(); ++ss) {
    const auto& plan_sub = t.plan.substreams[ss];
    const SubstreamMath math(t.request.substreams[ss], catalog_,
                             t.request.unit_bytes);
    const int k = int(plan_sub.stages.size());
    for (int st = 0; st < k; ++st) {
      for (const auto& p : plan_sub.stages[std::size_t(st)].placements) {
        // Placements carry per-instance *input* ups; the math speaks
        // delivered ups.
        const double delivered =
            p.rate_units_per_sec / math.in_units_per_delivered(st);
        credit(p.node, math.wire_in_kbps(st, delivered),
               math.wire_out_kbps(st, delivered),
               math.in_ups(st, delivered) * math.cpu_secs_per_in_unit(st));
      }
    }
    const double delivered_total = plan_sub.rate_units_per_sec;
    credit(t.plan.source, 0, math.wire_in_kbps(0, delivered_total), 0);
    credit(t.plan.destination, math.wire_in_kbps(k, delivered_total), 0, 0);
  }

  // Predictive trigger: model the deployed plan's end-to-end latency on
  // the credited snapshots (base load of everyone else + this plan's own
  // planned rates — the same accounting admission used). A predicted
  // deadline violation is acted on below even when the cost hysteresis
  // would wait, catching load drift before drops materialize.
  const bool predictive = params_.predictive &&
                          params_.latency_model != nullptr &&
                          t.request.deadline_ms > 0;
  const auto stats_of =
      [&by_node](sim::NodeIndex n) -> const monitor::NodeStats* {
    const auto sit = by_node.find(n);
    return sit == by_node.end() ? nullptr : &sit->second;
  };
  bool predicted_violation = false;
  double predicted_ms = 0;
  if (predictive) {
    predicted_ms = params_.latency_model->predict_ms(t.plan, stats_of);
    if (t.predict_gauge == nullptr) {
      obs::Labels labels;
      labels.node = node_;
      labels.app = app;
      t.predict_gauge = &metrics_->gauge("predict.latency_ms", labels);
    }
    t.predict_gauge->set(std::isfinite(predicted_ms) ? predicted_ms
                                                     : -1.0);
    predicted_violation = !(predicted_ms <= t.request.deadline_ms);
    if (predicted_violation) {
      if (predict_triggers_ == nullptr) {
        obs::Labels labels;
        labels.node = node_;
        predict_triggers_ = &metrics_->counter("adapt.predict_triggers",
                                               labels);
      }
      predict_triggers_->add();
    }
  }

  std::vector<std::vector<std::vector<runtime::Placement>>> shares;
  std::int64_t new_cost = 0;
  std::int64_t current_cost = 0;
  bool latency_aware = predicted_violation;
  bool solved = resolve(t, by_node, &shares, &new_cost, &current_cost,
                        latency_aware);
  if (!solved && latency_aware) {
    // Latency-aware pricing zeroes every saturated candidate, which can
    // leave a stage with no capacity at all exactly when the fleet is
    // hottest. Freezing there would be strictly worse than reactive
    // behavior — fall back to plain pricing and let the normal cost
    // hysteresis decide.
    latency_aware = false;
    shares.clear();
    solved = resolve(t, by_node, &shares, &new_cost, &current_cost, false);
  }
  if (!solved) {
    infeasible_->add();
    finish(done, false);
    return;
  }

  // Hysteresis: only act on a clear improvement — chasing sub-threshold
  // cost wiggles would thrash placements for nothing.
  bool improves =
      current_cost > new_cost &&
      double(current_cost - new_cost) >=
          params_.hysteresis * double(current_cost);
  runtime::AppPlan new_plan;
  bool plan_built = false;
  if (!improves && predicted_violation) {
    // An SLO violation is already predicted: waiting for the cost
    // hysteresis means paying it first. But the bypass is earned only by
    // a candidate the model predicts *meets* the deadline. SLO windows
    // are binary — a plan that merely shaves latency (or cost) while
    // staying above the deadline fixes nothing, and the migration's
    // transient disruption can itself starve a window. If no candidate
    // crosses below, holding still is strictly better than churning.
    new_plan = build_app_plan(t.request, catalog_, shares);
    plan_built = true;
    const double candidate_ms =
        params_.latency_model->predict_ms(new_plan, stats_of);
    improves = candidate_ms <= t.request.deadline_ms;
  }
  if (!improves) {
    skipped_->add();
    finish(done, false);
    return;
  }

  if (!plan_built) new_plan = build_app_plan(t.request, catalog_, shares);
  const int sent = ship_deltas(t, new_plan);
  if (sent == 0) {
    skipped_->add();
    finish(done, false);
    return;
  }
  deltas_shipped_->add(sent);
  t.plan = std::move(new_plan);
  t.cooldown_until = simulator_.now() + params_.cooldown;
  RASC_LOG(kDebug) << "adapter: app " << app << " shipped " << sent
                   << " deltas (cost " << current_cost << " -> " << new_cost
                   << ")";
  finish(done, true);
}

bool RateAdapter::resolve(
    Tracked& t, const std::map<sim::NodeIndex, monitor::NodeStats>& by_node,
    std::vector<std::vector<std::vector<runtime::Placement>>>* shares,
    std::int64_t* new_cost, std::int64_t* current_cost,
    bool latency_aware) {
  // A local ComposeInput feeds the shared ResidualTracker so availability
  // semantics (headroom, max(measured, reserved)) match composition.
  ComposeInput input;
  input.request = t.request;
  input.catalog = &catalog_;
  input.source_stats = by_node.at(t.request.source);
  input.destination_stats = by_node.at(t.request.destination);
  for (const auto& [service, nodes] : t.providers) {
    auto& list = input.providers[service];
    for (const sim::NodeIndex node : nodes) {
      const auto bit = by_node.find(node);
      if (bit != by_node.end()) list.push_back(bit->second);
    }
  }
  ResidualTracker tracker(input);

  // Latency-aware rounds also repair aggregate CPU: the bandwidth-only
  // repair happily stacks several stages of this very app on one node,
  // and an M/G/1 wait at the stacked rho is exactly the predicted
  // violation that triggered this round. Budget: rho target less base.
  SubstreamSolver::CpuBudget cpu_budget;
  if (latency_aware) {
    cpu_budget = [&by_node](sim::NodeIndex node) {
      const auto bit = by_node.find(node);
      const double base_rho =
          bit == by_node.end() ? 0.0
                               : std::max(bit->second.cpu_used_fraction,
                                          bit->second.cpu_reserved_fraction);
      return std::max(0.0, kPredictiveRhoTarget - base_rho);
    };
  }

  const auto start = std::chrono::steady_clock::now();
  for (std::size_t ss = 0; ss < t.request.substreams.size(); ++ss) {
    const auto& sub = t.request.substreams[ss];
    SubstreamState& state = t.substreams[ss];
    CompositionGraph& cg = *state.graph;
    const SubstreamMath math(sub, catalog_, t.request.unit_bytes);
    const double demand = math.delivered_ups(sub.rate_kbps);
    const int k = math.num_stages();

    // Fresh capacities and costs on the persistent graph. A candidate
    // whose stats query failed is priced as unusable, not unknown.
    cg.reset_flow();
    for (int st = 0; st < k; ++st) {
      auto& cands = state.stages[std::size_t(st)];
      for (std::size_t j = 0; j < cands.size(); ++j) {
        const sim::NodeIndex node = cands[j].node;
        const auto bit = by_node.find(node);
        double cap = 0, drop = 1.0, util = 1.0;
        if (bit != by_node.end()) {
          cap = math.max_delivered_ups(st, tracker.avail_in_kbps(node),
                                       tracker.avail_out_kbps(node),
                                       tracker.avail_cpu_fraction(node));
          drop = tracker.priced_drop_ratio(node);
          const double cap_total = bit->second.capacity_in_kbps +
                                   bit->second.capacity_out_kbps;
          util = cap_total > 0
                     ? 1.0 - (tracker.avail_in_kbps(node) +
                              tracker.avail_out_kbps(node)) /
                                 cap_total
                     : 1.0;
          if (latency_aware) {
            // A deadline violation is predicted: queueing delay, not wire
            // utilization, is what the re-solve must flee. Fold the
            // node's base CPU utilization (other tenants, after this
            // app's credit-back) into the cost's utilization term and
            // price saturated nodes unusable — the solver then spreads
            // rate onto cool CPUs instead of regenerating the hot plan.
            const monitor::NodeStats& s = bit->second;
            util = std::max(util, std::max(s.cpu_used_fraction,
                                           s.cpu_reserved_fraction));
            if (params_.latency_model != nullptr &&
                params_.latency_model->saturated(&s, 0.0)) {
              cap = 0;
            }
          }
        }
        cands[j] = CandidateCap{node, cap, drop, util};
        cg.set_candidate_cap(st, int(j), cap);
        cg.set_candidate_cost(st, int(j), drop, util);
      }
    }
    cg.set_source_cap(tracker.avail_out_kbps(t.request.source) /
                      math.wire_in_kbps(0, 1.0));
    cg.set_dest_cap(tracker.avail_in_kbps(t.request.destination) /
                    math.wire_in_kbps(k, 1.0));

    auto solved = solver_.solve(cg, state.stages, math, t.request, demand,
                                tracker, cpu_budget);
    if (solved.status != SubstreamSolver::Status::kSolved) return false;
    *new_cost += solved.last.cost;

    // Price the deployed plan's placements with this round's unit costs:
    // the hysteresis comparison must use one consistent cost model.
    const auto& plan_sub = t.plan.substreams[ss];
    for (std::size_t st = 0; st < plan_sub.stages.size(); ++st) {
      const auto& cands = state.stages[st];
      for (const auto& p : plan_sub.stages[st].placements) {
        const double delivered =
            p.rate_units_per_sec / math.in_units_per_delivered(int(st));
        const auto cit = std::find_if(
            cands.begin(), cands.end(),
            [&p](const CandidateCap& c) { return c.node == p.node; });
        // A deployed node outside the candidate set (cannot normally
        // happen) is priced as fully dropping.
        const flow::Cost unit =
            cit != cands.end()
                ? CompositionGraph::unit_cost(cit->drop_ratio,
                                              cit->utilization)
                : CompositionGraph::unit_cost(1.0, 1.0);
        *current_cost += unit * CompositionGraph::flow_units(delivered);
      }
    }
    shares->push_back(std::move(solved.shares));
  }
  solve_us_->observe(double(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count()));
  return true;
}

int RateAdapter::ship_deltas(Tracked& t, const runtime::AppPlan& new_plan) {
  int sent = 0;
  for (std::size_t ss = 0; ss < new_plan.substreams.size(); ++ss) {
    const auto& old_sub = t.plan.substreams[ss];
    const auto& new_sub = new_plan.substreams[ss];
    const SubstreamMath math(t.request.substreams[ss], catalog_,
                             t.request.unit_bytes);
    const int k = int(new_sub.stages.size());

    // A stage's components must be updated when their own allocation
    // changed OR the downstream split they feed changed.
    auto changed = std::vector<bool>(std::size_t(k));
    for (int st = 0; st < k; ++st) {
      changed[std::size_t(st)] =
          !same_placements(old_sub.stages[std::size_t(st)].placements,
                           new_sub.stages[std::size_t(st)].placements);
    }

    for (int st = 0; st < k; ++st) {
      const bool next_changed = st + 1 < k && changed[std::size_t(st + 1)];
      if (!changed[std::size_t(st)] && !next_changed) continue;
      const auto& old_pl = old_sub.stages[std::size_t(st)].placements;
      const auto& new_pl = new_sub.stages[std::size_t(st)].placements;
      const std::string& service = new_sub.stages[std::size_t(st)].service;
      const std::int64_t in_bytes = std::llround(math.in_unit_bytes(st));
      std::vector<runtime::Placement> next;
      if (st + 1 < k) {
        next = new_sub.stages[std::size_t(st + 1)].placements;
      } else {
        next.push_back(runtime::Placement{new_plan.destination,
                                          new_sub.rate_units_per_sec});
      }
      const runtime::ComponentKey key{new_plan.app, std::int32_t(ss),
                                      std::int32_t(st)};

      for (const auto& p : new_pl) {
        const bool survivor =
            std::any_of(old_pl.begin(), old_pl.end(),
                        [&](const runtime::Placement& o) {
                          return o.node == p.node;
                        });
        if (survivor) {
          auto msg = std::make_shared<runtime::UpdateComponentMsg>();
          msg->key = key;
          msg->rate_units_per_sec = p.rate_units_per_sec;
          msg->in_unit_bytes = in_bytes;
          msg->next = next;
          const auto size = msg->wire_size();
          network_.send(node_, p.node, size, std::move(msg));
        } else {
          auto msg = std::make_shared<runtime::AddPlacementMsg>();
          msg->key = key;
          msg->service = service;
          msg->rate_units_per_sec = p.rate_units_per_sec;
          msg->in_unit_bytes = in_bytes;
          msg->next = next;
          const auto size = msg->wire_size();
          network_.send(node_, p.node, size, std::move(msg));
        }
        ++sent;
      }

      for (const auto& o : old_pl) {
        const bool retired =
            std::none_of(new_pl.begin(), new_pl.end(),
                         [&](const runtime::Placement& p) {
                           return p.node == o.node;
                         });
        if (!retired) continue;
        // Retire after a grace period so in-flight units addressed to the
        // old instance drain instead of counting unroutable.
        std::weak_ptr<bool> alive = alive_;
        const sim::NodeIndex target = o.node;
        simulator_.call_after(kRemoveGrace,
                              [this, alive, target, key] {
                                if (alive.expired()) return;
                                auto msg = std::make_shared<
                                    runtime::RemovePlacementMsg>();
                                msg->key = key;
                                network_.send(
                                    node_, target,
                                    runtime::RemovePlacementMsg::kBytes,
                                    std::move(msg));
                              });
        ++sent;
      }
    }

    // The source's stage-0 split follows any first-stage change.
    if (changed[0]) {
      auto msg = std::make_shared<runtime::UpdateSourceSplitMsg>();
      msg->app = new_plan.app;
      msg->substream = std::int32_t(ss);
      msg->rate_units_per_sec = new_sub.stages[0].total_rate();
      msg->first_stage = new_sub.stages[0].placements;
      const auto size = msg->wire_size();
      network_.send(node_, new_plan.source, size, std::move(msg));
      ++sent;
    }
  }
  return sent;
}

}  // namespace rasc::core
