// RASC's minimum-cost composition algorithm (paper §3.5, Algorithm 1).
//
// Per substream: build the layered flow network from discovered providers
// and monitored residual capacities, solve min-cost flow for exactly the
// required rate, read component selection AND per-component rate split off
// the flow, then update residual capacities before the next substream.
// A bounded repair loop tightens per-node capacity when one physical node
// serves several stages of the same substream (see DESIGN.md §8).
//
// SubstreamSolver is that per-substream solve. MinCostComposer runs it to
// admit a request; RateAdapter runs the same routine to re-allocate an
// admitted request's rates (paper §3.4).
#pragma once

#include <functional>
#include <vector>

#include "core/composer.hpp"
#include "core/composition_graph.hpp"
#include "flow/ssp.hpp"

namespace rasc::core {

class SubstreamMath;

class SubstreamSolver {
 public:
  /// The capacity-repair loop accepts plans that overfill a node by up to
  /// this factor (scaling every violator to exactly its budget would
  /// oscillate). Capacity sources that must never be exceeded — e.g. a
  /// lease remainder backed by a hard node-side debit — should divide
  /// their advertised availability by this factor.
  static constexpr double kRepairTolerance = 1.02;
  /// Solves per substream, repair rounds included.
  static constexpr int kMaxRepairIterations = 10;
  /// Shares below this fraction of the substream demand are folded into
  /// the largest placement of the stage.
  static constexpr double kMinShareFraction = 0.02;

  /// CPU fraction of a node that one substream may use there.
  using CpuBudget = std::function<double(sim::NodeIndex)>;

  enum class Status { kSolved, kInfeasible, kRepairFailed };

  struct Result {
    Status status = Status::kInfeasible;
    flow::SolveResult last;  // the last solve: flow routed, its cost
    /// Delivered ups per (stage, node), slivers folded; set when solved.
    std::vector<std::vector<runtime::Placement>> shares;
  };

  /// Solves `graph`, whose candidates are `stages` in graph order with
  /// their untightened capacities, for its demand. While the flow puts
  /// more wire bandwidth on a node than `tracker` has left for it — or,
  /// with a `cpu_budget`, more CPU than the budget — the node's splitting
  /// arcs are tightened in place and the graph re-solved warm-started.
  /// A solved substream is charged to `tracker` (consume()) at `demand`
  /// delivered ups before this returns.
  Result solve(CompositionGraph& graph,
               const std::vector<std::vector<CandidateCap>>& stages,
               const SubstreamMath& math, const ServiceRequest& request,
               double demand, ResidualTracker& tracker,
               const CpuBudget& cpu_budget = {});

  /// Algorithm 1's "Update the node capacities": charges `shares`
  /// (delivered ups), the source's egress and the destination's ingress
  /// at `demand` delivered ups to `tracker`.
  void consume(const std::vector<std::vector<runtime::Placement>>& shares,
               const SubstreamMath& math, const ServiceRequest& request,
               double demand, ResidualTracker& tracker);

 private:
  /// Wire and CPU use of one node by one substream's shares.
  struct NodeUsage {
    double in_kbps = 0;
    double out_kbps = 0;
    double cpu_fraction = 0;
    bool touched = false;
  };

  /// Rebuilds usage_ from `shares`; touched_ lists the used nodes in
  /// first-touch order (deterministic).
  void accumulate(const std::vector<std::vector<runtime::Placement>>& shares,
                  const SubstreamMath& math);

  /// Workspaces and adjacency snapshot survive across repair iterations,
  /// substreams and calls.
  flow::SspSolver ssp_;
  /// Indexed by node: node indices are dense world slots, and the repair
  /// loop rebuilds usage on every iteration.
  std::vector<NodeUsage> usage_;
  std::vector<sim::NodeIndex> touched_;
};

class MinCostComposer final : public Composer {
 public:
  struct Options {
    /// Ablation switch: restrict every stage to a single component
    /// instance (still cost-driven placement, but no rate splitting).
    /// Isolates the contribution of the paper's distinguishing feature.
    bool single_instance_per_stage = false;
    /// Multi-resource composition (the paper's §6 future work): also
    /// constrain candidate rates by the hosting node's CPU availability.
    bool consider_cpu = true;
    /// Latency SLO admission (only consulted when the request carries a
    /// nonzero deadline_ms): CPU-saturated candidates are priced as
    /// unusable and plans whose predicted end-to-end latency exceeds the
    /// deadline are rejected. Null disables both checks.
    const LatencyModel* latency_model = nullptr;
  };

  MinCostComposer() = default;
  explicit MinCostComposer(Options options) : options_(options) {}

  const char* name() const override { return "mincost"; }
  ComposeResult compose(const ComposeInput& input) override;

 private:
  Options options_;
  SubstreamSolver solver_;
};

}  // namespace rasc::core
