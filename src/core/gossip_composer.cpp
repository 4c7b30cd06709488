#include "core/gossip_composer.hpp"

#include <algorithm>
#include <vector>

#include "core/latency_model.hpp"
#include "core/plan_math.hpp"

namespace rasc::core {

double GossipComposer::hop_cost(sim::NodeIndex from, sim::NodeIndex candidate,
                                sim::NodeIndex destination, bool last_stage,
                                const ResidualTracker& tracker) const {
  double cost = 0;
  if (options_.latency_ms) {
    cost += kLatencyWeight * options_.latency_ms(from, candidate);
    if (last_stage) {
      cost += kLatencyWeight * options_.latency_ms(candidate, destination);
    }
  }
  const double drop = tracker.drop_known(candidate)
                          ? tracker.drop_ratio(candidate)
                          : kDropPrior;
  cost += kDropWeight * drop;
  const auto hint = hints_.find(candidate);
  if (hint != hints_.end() && hint->second > 0) {
    const double avail = std::max(0.0, tracker.avail_out_kbps(candidate));
    cost += kLoadWeight * hint->second / (hint->second + avail + 1.0);
  }
  return cost;
}

ComposeResult GossipComposer::compose(const ComposeInput& input) {
  ComposeResult result;
  last_backtracks_ = 0;
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

  for (std::size_t ss = 0; ss < req.substreams.size(); ++ss) {
    const auto& sub = req.substreams[ss];
    const SubstreamMath math(sub, *input.catalog, req.unit_bytes);
    const double demand = math.delivered_ups(sub.rate_kbps);
    const int k = math.num_stages();

    if (tracker.avail_out_kbps(req.source) < math.wire_in_kbps(0, demand)) {
      result.error = "source lacks output bandwidth";
      return result;
    }
    if (tracker.avail_in_kbps(req.destination) <
        math.wire_in_kbps(k, demand)) {
      result.error = "destination lacks input bandwidth";
      return result;
    }

    // Depth-first walk over the stages. Each frame holds the candidates
    // for its stage, cost-sorted against the hop actually chosen at the
    // previous frame, and the index of the next one to try; stepping a
    // frame past its first candidate spends backtrack budget.
    struct Frame {
      std::vector<sim::NodeIndex> candidates;  // cost-sorted
      std::size_t next = 0;                    // next candidate to try
      // Tracker state *before* this stage consumed anything, so
      // re-trying the stage starts from a clean ledger.
      ResidualTracker before;
    };

    auto sorted_candidates = [&](int st, sim::NodeIndex prev,
                                 const ResidualTracker& t) {
      std::vector<sim::NodeIndex> out;
      const auto it = input.providers.find(sub.services[std::size_t(st)]);
      if (it == input.providers.end()) return out;
      const double need_in = math.wire_in_kbps(st, demand);
      const double need_out = math.wire_out_kbps(st, demand);
      const double need_cpu =
          math.in_ups(st, demand) * math.cpu_secs_per_in_unit(st);
      std::vector<std::pair<double, sim::NodeIndex>> scored;
      for (const auto& stats : it->second) {
        if (t.avail_in_kbps(stats.node) < need_in) continue;
        if (t.avail_out_kbps(stats.node) < need_out) continue;
        if (t.avail_cpu_fraction(stats.node) < need_cpu) continue;
        // Latency SLO: a saturated node predicts unbounded delay — skip.
        if (req.deadline_ms > 0 && options_.latency_model != nullptr &&
            options_.latency_model->saturated(&stats, need_cpu)) {
          continue;
        }
        scored.emplace_back(hop_cost(prev, stats.node, req.destination,
                                     st == k - 1, t),
                            stats.node);
      }
      std::sort(scored.begin(), scored.end());
      out.reserve(scored.size());
      for (const auto& [cost, node] : scored) out.push_back(node);
      return out;
    };

    std::vector<Frame> stack;
    std::vector<sim::NodeIndex> chosen(std::size_t(k), sim::kInvalidNode);
    int backtracks_left = kBacktrackBudget;
    stack.push_back(Frame{sorted_candidates(0, req.source, tracker), 0,
                          tracker});
    bool composed = false;
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const int st = int(stack.size()) - 1;
      if (frame.next >= frame.candidates.size()) {
        // Stage exhausted: unwind and re-try the previous stage with its
        // next candidate (that step is the backtrack).
        stack.pop_back();
        if (stack.empty()) break;
        if (backtracks_left-- <= 0) {
          stack.clear();
          break;
        }
        ++last_backtracks_;
        continue;
      }
      // Trying any candidate other than a frame's cheapest is also a
      // deviation from the greedy walk; the unwind above already charged
      // it, so nothing extra here.
      const sim::NodeIndex pick = frame.candidates[frame.next++];
      chosen[std::size_t(st)] = pick;
      tracker = frame.before;
      tracker.consume(pick, math.wire_in_kbps(st, demand),
                      math.wire_out_kbps(st, demand),
                      math.in_ups(st, demand) *
                          math.cpu_secs_per_in_unit(st));
      if (st == k - 1) {
        composed = true;
        break;
      }
      stack.push_back(
          Frame{sorted_candidates(st + 1, pick, tracker), 0, tracker});
    }
    if (!composed) {
      result.error =
          "no capable provider chain in partial view for substream " +
          std::to_string(ss);
      return result;
    }

    auto shares = std::vector<std::vector<runtime::Placement>>(std::size_t(k));
    for (int st = 0; st < k; ++st) {
      shares[std::size_t(st)].push_back(
          runtime::Placement{chosen[std::size_t(st)], demand});
    }
    tracker.consume(req.source, 0, math.wire_in_kbps(0, demand));
    tracker.consume(req.destination, math.wire_in_kbps(k, demand), 0);
    all_shares.push_back(std::move(shares));
  }

  result.plan = build_app_plan(req, *input.catalog, all_shares);

  // Latency SLO admission over the finished chain (same semantics as
  // MinCostComposer: the candidate plan is not in the snapshots yet).
  if (!admit_predicted_latency(input, options_.latency_model, &result)) {
    return result;
  }

  result.admitted = true;
  return result;
}

}  // namespace rasc::core
