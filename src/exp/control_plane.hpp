// Sharded control plane assembly: K coordinator shards over one World.
//
// Enables a capacity-lease granter on every host (each partitioning its
// bandwidth among the K shards), homes shard s on node floor(s*N/K), and
// gives each shard its own composer instance and lease view. Requests
// route to hash-owned shards with SubmitShardMsg; admission then runs as
// batched composition against the shard's leased view (see
// core/coordinator_shard.hpp).
//
// Constructed only when a run asks for more than one coordinator: an
// unsharded run never instantiates granters, shards or their registry
// cells and stays byte-identical to builds without this subsystem.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/coordinator_shard.hpp"
#include "exp/world.hpp"

namespace rasc::exp {

/// Builds the composition algorithm by name ("mincost", "greedy", ...;
/// shared by the runner and the shard control plane). `options` seeds the
/// min-cost cost model (the "mincost-nosplit"/"mincost-nocpu" variants
/// overlay their ablation switch on top); baselines ignore it.
std::unique_ptr<core::Composer> make_composer(
    const std::string& name, util::Xoshiro256 rng,
    core::MinCostComposer::Options options = {});

class ShardControlPlane {
 public:
  struct Config {
    int coordinators = 2;
    /// "fifo", "smallest-demand" or "highest-value".
    std::string admission_policy = "fifo";
    sim::SimDuration batch_window = sim::msec(100);
    /// Node-side grant lifetime and shard-side renewal cadence.
    sim::SimDuration lease_duration = sim::sec(12);
    sim::SimDuration lease_renew = sim::sec(5);
    /// Composition algorithm every shard runs (its own instance).
    std::string algorithm = "mincost";
    /// Cost-model knobs handed to every shard's composer (latency SLO
    /// admission rides in here; defaults change nothing).
    core::MinCostComposer::Options composer_options;

    // --- Shard re-homing (all off by default: byte-inert) ---
    /// Give every shard a dormant standby coordinator on another node
    /// (requires nodes >= 2K; silently disabled otherwise). The standby
    /// detects the primary's death through its local granter, fences it
    /// with a takeover epoch, reconstructs the shard state from the
    /// fleet and adopts the orphaned apps.
    bool standby = false;
    sim::SimDuration standby_check = sim::msec(500);
    /// Deadline stamped on adopted requests (the original SLO is not
    /// recoverable from runtime state).
    double default_deadline_ms = 0;
    /// Source-side submission journal: when > 0, a submission whose
    /// outcome has not arrived after this long is re-submitted (the
    /// routing re-checks shard suspicion), up to kSubmitRetries times —
    /// covering requests that died in a crashed primary's batch window.
    /// 0 (default) keeps the journal off and the plane byte-inert.
    sim::SimDuration submit_retry = 0;
  };

  /// Bound on journal re-submissions and on the backoff retries of the
  /// all-shards-suspect path.
  static constexpr int kSubmitRetries = 2;

  /// Wires granters and shards into `world`'s hosts. `rng` seeds the
  /// per-shard composer randomness (split per shard).
  ShardControlPlane(World& world, Config config, util::Xoshiro256 rng);

  ShardControlPlane(const ShardControlPlane&) = delete;
  ShardControlPlane& operator=(const ShardControlPlane&) = delete;

  /// Starts every shard's lease renewals and batch cadence at `at`.
  void start(sim::SimTime at);

  /// Time from start() until every node holds a first-grant request:
  /// submissions before this see empty lease views and reject.
  sim::SimDuration warmup() const;

  int shards() const { return int(shards_.size()); }
  std::int32_t shard_of(runtime::AppId app) const {
    return core::CoordinatorShard::shard_of(app, shards());
  }
  sim::NodeIndex home_of(std::int32_t shard) const {
    return shards_[std::size_t(shard)]->home();
  }
  core::CoordinatorShard& shard(std::int32_t s) {
    return *shards_[std::size_t(s)];
  }
  /// Standby home of `shard`, or kInvalidNode when it has none.
  sim::NodeIndex standby_home(std::int32_t shard) const {
    return std::size_t(shard) < standby_homes_.size()
               ? standby_homes_[std::size_t(shard)]
               : sim::kInvalidNode;
  }
  /// The standby instance of `shard` (null when standbys are off).
  core::CoordinatorShard* standby(std::int32_t s) {
    return std::size_t(s) < standbys_.size() ? standbys_[std::size_t(s)].get()
                                             : nullptr;
  }

  /// Installs the adoption callout on every standby (see
  /// CoordinatorShard::AdoptHandler).
  void set_adopt_handler(core::CoordinatorShard::AdoptHandler handler);

  /// Routes `request` from its source node to its owning shard's
  /// admission queue. Call from a simulation event (the routing message
  /// costs wire time like any control packet).
  void submit(const core::ServiceRequest& request, sim::SimTime stream_start,
              sim::SimTime stream_stop, core::Coordinator::Callback done);

 private:
  /// Journal entry of a submission whose outcome is still pending
  /// (config.submit_retry > 0 only).
  struct Pending {
    core::ServiceRequest request;
    sim::SimTime stream_start = 0;
    sim::SimTime stream_stop = 0;
    core::Coordinator::Callback done;
    int attempts = 0;
  };

  /// One routing decision + send. Re-entered by the journal and by the
  /// all-suspect backoff path.
  void dispatch(const core::ServiceRequest& request,
                sim::SimTime stream_start, sim::SimTime stream_stop,
                core::Coordinator::Callback done);
  /// Exactly-once resolution of a journaled submission: the original and
  /// a re-submitted copy can both produce outcomes; the first one wins.
  void resolve_pending(runtime::AppId app, core::SubmitOutcome outcome);
  void retry_pending(runtime::AppId app);
  obs::Counter& lazy_counter(const char* name, obs::Counter*& slot);

  World& world_;
  Config config_;
  std::vector<std::unique_ptr<core::CoordinatorShard>> shards_;
  std::vector<std::unique_ptr<core::CoordinatorShard>> standbys_;
  /// Standby home per shard (empty when standbys are off).
  std::vector<sim::NodeIndex> standby_homes_;
  /// Journaled submissions awaiting an outcome, by app.
  std::map<runtime::AppId, Pending> pending_;
  /// Backoff attempts of the all-shards-suspect path, by app.
  std::map<runtime::AppId, int> unreachable_attempts_;
  /// Submissions rerouted away from a dead shard (cell created lazily on
  /// the first failover: healthy runs stay byte-identical).
  obs::Counter* failovers_ = nullptr;
  obs::Counter* resubmits_ = nullptr;
  obs::Counter* submit_retries_ = nullptr;
};

}  // namespace rasc::exp
