#include "core/mincost_composer.hpp"

#include <algorithm>
#include <sstream>
#include <utility>
#include <vector>

#include "core/latency_model.hpp"
#include "core/plan_math.hpp"

namespace rasc::core {

void SubstreamSolver::accumulate(
    const std::vector<std::vector<runtime::Placement>>& shares,
    const SubstreamMath& math) {
  for (const auto node : touched_) usage_[std::size_t(node)] = {};
  touched_.clear();
  for (std::size_t st = 0; st < shares.size(); ++st) {
    for (const auto& p : shares[st]) {
      const auto i = std::size_t(p.node);
      if (i >= usage_.size()) usage_.resize(i + 1);
      NodeUsage& u = usage_[i];
      if (!u.touched) {
        u.touched = true;
        touched_.push_back(p.node);
      }
      u.in_kbps += math.wire_in_kbps(int(st), p.rate_units_per_sec);
      u.out_kbps += math.wire_out_kbps(int(st), p.rate_units_per_sec);
      u.cpu_fraction += math.in_ups(int(st), p.rate_units_per_sec) *
                        math.cpu_secs_per_in_unit(int(st));
    }
  }
}

void SubstreamSolver::consume(
    const std::vector<std::vector<runtime::Placement>>& shares,
    const SubstreamMath& math, const ServiceRequest& request, double demand,
    ResidualTracker& tracker) {
  accumulate(shares, math);
  for (const auto node : touched_) {
    const NodeUsage& u = usage_[std::size_t(node)];
    tracker.consume(node, u.in_kbps, u.out_kbps, u.cpu_fraction);
  }
  tracker.consume(request.source, 0, math.wire_in_kbps(0, demand));
  tracker.consume(request.destination,
                  math.wire_in_kbps(math.num_stages(), demand), 0);
}

SubstreamSolver::Result SubstreamSolver::solve(
    CompositionGraph& graph,
    const std::vector<std::vector<CandidateCap>>& stages,
    const SubstreamMath& math, const ServiceRequest& request, double demand,
    ResidualTracker& tracker, const CpuBudget& cpu_budget) {
  Result result;
  const int k = math.num_stages();
  // Per (stage, candidate) multiplicative tightening factor.
  std::vector<std::vector<double>> tighten;
  for (const auto& cands : stages) tighten.emplace_back(cands.size(), 1.0);
  // Candidates whose tighten factor changed since the last solve.
  std::vector<std::pair<int, int>> dirty;

  // The graph is never rebuilt: repair iterations tighten splitting-arc
  // capacities in place and re-solve with warm-started potentials.
  for (int iter = 0; iter < kMaxRepairIterations; ++iter) {
    if (iter > 0) {
      graph.reset_flow();
      for (const auto& [st, j] : dirty) {
        graph.set_candidate_cap(
            st, j,
            stages[std::size_t(st)][std::size_t(j)].max_delivered_ups *
                tighten[std::size_t(st)][std::size_t(j)]);
      }
      dirty.clear();
    }
    result.last = ssp_.solve(graph.graph(), graph.source(), graph.sink(),
                             graph.demand());
    if (!result.last.feasible) {
      result.status = Status::kInfeasible;
      return result;
    }
    // Repair runs on the raw (unfolded) flow decomposition: folding
    // slivers first would shuffle rate between candidates and keep the
    // loop from converging. Folding is applied once a solution passes.
    const auto raw_shares = graph.extract_shares(0.0);

    // Repair: does any physical node exceed its residual budget because
    // it hosts instances at several stages of this substream?
    accumulate(raw_shares, math);
    bool violated = false;
    for (const auto node : touched_) {
      const NodeUsage& u = usage_[std::size_t(node)];
      const double ai = tracker.avail_in_kbps(node);
      const double ao = tracker.avail_out_kbps(node);
      double factor = 1.0;
      if (u.in_kbps > ai * kRepairTolerance) {
        factor = std::min(factor, ai / u.in_kbps);
      }
      if (u.out_kbps > ao * kRepairTolerance) {
        factor = std::min(factor, ao / u.out_kbps);
      }
      if (cpu_budget && u.cpu_fraction > 0) {
        const double allowed = cpu_budget(node);
        if (u.cpu_fraction > allowed * kRepairTolerance) {
          factor = std::min(factor, allowed / u.cpu_fraction);
        }
      }
      if (factor >= 1.0) continue;
      violated = true;
      // Tighten each of the node's *used* instances to its current share
      // scaled by the factor — this pins the node's total next round to
      // <= its budget, so the loop converges in O(1) iterations instead
      // of geometrically.
      for (int st = 0; st < k; ++st) {
        // Shares are in delivered ups, same units as candidate caps.
        double share_delivered = 0;
        for (const auto& p : raw_shares[std::size_t(st)]) {
          if (p.node == node) share_delivered = p.rate_units_per_sec;
        }
        if (share_delivered <= 0) continue;
        const auto& cands = stages[std::size_t(st)];
        auto& factors = tighten[std::size_t(st)];
        for (std::size_t j = 0; j < cands.size(); ++j) {
          if (cands[j].node != node) continue;
          const double original = cands[j].max_delivered_ups;
          if (original <= 0) continue;
          const double target = share_delivered * factor;
          const double tightened = std::min(factors[j], target / original);
          if (tightened < factors[j]) {
            factors[j] = tightened;
            dirty.emplace_back(st, int(j));
          }
        }
      }
    }
    if (!violated) {
      result.status = Status::kSolved;
      result.shares = graph.extract_shares(kMinShareFraction);
      consume(result.shares, math, request, demand, tracker);
      return result;
    }
  }
  result.status = Status::kRepairFailed;
  return result;
}

ComposeResult MinCostComposer::compose(const ComposeInput& input) {
  ComposeResult result;
  if (auto err = input.request.validate(); !err.empty()) {
    result.error = err;
    return result;
  }
  if (input.catalog == nullptr) {
    result.error = "no service catalog";
    return result;
  }

  ResidualTracker tracker(input);
  const auto& req = input.request;
  std::vector<std::vector<std::vector<runtime::Placement>>> all_shares;
  all_shares.reserve(req.substreams.size());

  for (std::size_t ss = 0; ss < req.substreams.size(); ++ss) {
    const auto& sub = req.substreams[ss];
    const SubstreamMath math(sub, *input.catalog, req.unit_bytes);
    const double demand = math.delivered_ups(sub.rate_kbps);
    const int k = math.num_stages();

    // Candidate capacities from residual availability.
    auto stages = std::vector<std::vector<CandidateCap>>(std::size_t(k));
    for (int st = 0; st < k; ++st) {
      const auto it = input.providers.find(sub.services[std::size_t(st)]);
      if (it == input.providers.end() || it->second.empty()) {
        result.error = "no providers for service " +
                       sub.services[std::size_t(st)];
        return result;
      }
      for (const auto& stats : it->second) {
        CandidateCap cand;
        cand.node = stats.node;
        cand.max_delivered_ups = math.max_delivered_ups(
            st, tracker.avail_in_kbps(stats.node),
            tracker.avail_out_kbps(stats.node),
            options_.consider_cpu ? tracker.avail_cpu_fraction(stats.node)
                                  : -1.0);
        // Latency SLO: a CPU-saturated node has no steady-state queue, so
        // its predicted delay is unbounded — price it as unusable.
        if (req.deadline_ms > 0 && options_.latency_model != nullptr &&
            options_.latency_model->saturated(&stats, 0.0)) {
          cand.max_delivered_ups = 0;
        }
        cand.drop_ratio = tracker.priced_drop_ratio(stats.node);
        const double cap_total =
            stats.capacity_in_kbps + stats.capacity_out_kbps;
        if (cap_total > 0) {
          cand.utilization = 1.0 - (tracker.avail_in_kbps(stats.node) +
                                    tracker.avail_out_kbps(stats.node)) /
                                       cap_total;
        }
        stages[std::size_t(st)].push_back(cand);
      }
    }

    const double src_cap =
        tracker.avail_out_kbps(req.source) / math.wire_in_kbps(0, 1.0);
    const double dest_cap =
        tracker.avail_in_kbps(req.destination) / math.wire_in_kbps(k, 1.0);

    if (options_.single_instance_per_stage) {
      // Ablation mode: same cost model, but each stage must fit on one
      // node (cheapest candidate able to carry the full demand).
      if (src_cap < demand || dest_cap < demand) {
        result.error = "endpoint capacity short (no-split mode)";
        return result;
      }
      auto shares =
          std::vector<std::vector<runtime::Placement>>(std::size_t(k));
      for (int st = 0; st < k; ++st) {
        const CandidateCap* best = nullptr;
        for (const auto& cand : stages[std::size_t(st)]) {
          if (cand.max_delivered_ups < demand) continue;
          if (best == nullptr ||
              std::make_pair(cand.drop_ratio, cand.utilization) <
                  std::make_pair(best->drop_ratio, best->utilization)) {
            best = &cand;
          }
        }
        if (best == nullptr) {
          result.error = "no single node can carry stage " +
                         std::to_string(st) + " (no-split mode)";
          return result;
        }
        shares[std::size_t(st)].push_back(
            runtime::Placement{best->node, demand});
      }
      solver_.consume(shares, math, req, demand, tracker);
      all_shares.push_back(std::move(shares));
      continue;
    }

    CompositionGraph cg(stages, src_cap, dest_cap, demand);
    auto solved = solver_.solve(cg, stages, math, req, demand, tracker);
    if (solved.status == SubstreamSolver::Status::kInfeasible) {
      std::ostringstream os;
      os << "insufficient capacity for substream " << ss << ": routed "
         << solved.last.flow << "/" << demand * CompositionGraph::kScale
         << " (src_cap=" << src_cap << " dest_cap=" << dest_cap << ")";
      result.error = os.str();
      return result;
    }
    if (solved.status == SubstreamSolver::Status::kRepairFailed) {
      result.error = "capacity repair failed for substream " +
                     std::to_string(ss);
      return result;
    }
    result.objective += solved.last.cost;
    all_shares.push_back(std::move(solved.shares));
  }

  result.plan = build_app_plan(req, *input.catalog, all_shares);
  // Latency SLO admission: base utilization comes from the snapshots.
  if (!admit_predicted_latency(input, options_.latency_model, &result)) {
    return result;
  }
  result.admitted = true;
  return result;
}

}  // namespace rasc::core
