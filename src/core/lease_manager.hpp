// Shard-side view of the fleet's capacity leases.
//
// One LeaseManager lives on each coordinator shard's home node. It renews
// the shard's lease on every node with a staggered periodic sweep, keeps
// the granted (and not yet spent) in/out bandwidth per node, and
// synthesizes NodeStats for the composer so the whole composition stack
// runs unchanged against the leased partial view instead of fresh
// per-request stats queries.
//
// View lifecycle per node: a LeaseGrantMsg with a newer lease epoch
// replaces the view (remaining = granted); LeaseRevokeMsg or deadline
// passage invalidates it until the next renewal lands. Batch composition
// spends the view down with consume() as it admits requests; debits of
// attempts that NACK or time out come back via the next renewal grant.
//
// Determinism: the sweep timers are simulator events and all other
// mutations happen on packet arrival, so sharded runs replay
// byte-identically for a fixed seed.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "monitor/node_stats.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace rasc::runtime {
struct LeaseGrantMsg;
struct LeaseRevokeMsg;
}  // namespace rasc::runtime

namespace rasc::core {

class LeaseManager {
 public:
  /// Spacing between consecutive per-node requests inside one sweep, so a
  /// large fleet's renewals do not land as one burst.
  static constexpr sim::SimDuration kStagger = sim::msec(1);
  /// Minimum spacing of off-cycle renew_now() sweeps. Under overload every
  /// failed composition asks for one; without this cap the resulting
  /// renewal storm churns lease epochs faster than deploys can settle
  /// against them.
  static constexpr sim::SimDuration kOffcycleMinGap = sim::msec(1500);

  struct Params {
    /// Renewal sweep period. Must stay comfortably below the granter's
    /// lease_duration or views expire between renewals.
    sim::SimDuration renew_period = sim::sec(5);
  };

  /// Registers for LeaseGrantMsg and LeaseRevokeMsg packets at `home`.
  LeaseManager(sim::Simulator& simulator, sim::Network& network,
               sim::NodeIndex home, std::int32_t shard, std::size_t nodes,
               Params params);
  ~LeaseManager();

  LeaseManager(const LeaseManager&) = delete;
  LeaseManager& operator=(const LeaseManager&) = delete;

  /// Schedules the first renewal sweep at `at` (subsequent sweeps follow
  /// every renew_period).
  void start(sim::SimTime at);

  /// Source of the demand hint (kbps) piggybacked on every renewal
  /// request, polled once per sweep; the granters rebalance shard shares
  /// around it. Without a provider the requests carry "no hint" and the
  /// nodes fall back to the static equal split.
  void set_demand_provider(std::function<double()> provider) {
    demand_provider_ = std::move(provider);
  }

  /// Fires one off-cycle renewal sweep immediately (the periodic cadence
  /// is unchanged). Used when a composition failed against the current
  /// view: the refreshed demand hint lets the granters enlarge this
  /// shard's shares before the request retries.
  void renew_now();

  /// Takeover epoch stamped on every renewal request from now on. A
  /// standby that takes over a dead primary sets a higher epoch before
  /// its first sweep; the granters then fence off the old holder. The
  /// default 0 keeps requests byte-identical to pre-rehoming runs.
  void set_takeover_epoch(std::uint64_t epoch) { takeover_epoch_ = epoch; }

  /// A grant for `node` is held and has not passed its deadline.
  bool valid(sim::NodeIndex node) const;

  /// Stats snapshot the composer sees for `node`: bandwidth capacity is
  /// the lease remainder scaled so the composer's own headroom cancels
  /// out (available * kDefaultHeadroom == lease remainder), usage and
  /// reservations zero (the lease already nets them), CPU and drop state
  /// from the snapshot piggybacked on the last grant.
  monitor::NodeStats leased_stats(sim::NodeIndex node) const;

  /// Spends view-side bandwidth during batch composition. Debits of a
  /// failed attempt are *not* returned inline: nodes whose deploys landed
  /// only free the bandwidth when the rollback teardown reaches them, so
  /// an inline credit would let the next composition double-spend it. The
  /// funds re-enter through the next renewal grant, which observes the
  /// freed reservations.
  void consume(sim::NodeIndex node, double in_kbps, double out_kbps);

  /// Marks a consumed debit as resolved (deploy acked or rolled back):
  /// it no longer races a renewal in flight to/from the node. Every
  /// consume() must eventually be settled exactly once.
  void settle(sim::NodeIndex node, double in_kbps, double out_kbps);

  /// Drops the view of a node whose granter NACKed us — the next sweep
  /// (or an explicit stats refresh) rebuilds it.
  void invalidate(sim::NodeIndex node);

  /// Refreshes only the piggybacked stats half of the view (scoped
  /// re-query on the repair path; the lease balance is untouched).
  void refresh_stats(const monitor::NodeStats& stats);

  /// Lease epoch deploy messages for `node` must be stamped with.
  std::uint64_t epoch_of(sim::NodeIndex node) const;

  double remaining_in_kbps(sim::NodeIndex node) const;
  double remaining_out_kbps(sim::NodeIndex node) const;

 private:
  void receive(const runtime::LeaseGrantMsg& grant);
  void receive(const runtime::LeaseRevokeMsg& revoke);

  struct View {
    double in_kbps = 0;   // granted minus view-side spends
    double out_kbps = 0;
    std::uint64_t epoch = 0;
    sim::SimTime expires_at = 0;
    bool has_grant = false;
    /// Debits consumed whose deploy outcome has not resolved yet. The
    /// node honors in-flight deploys against its *renewed* remainder
    /// (previous-epoch debits), so a share computed before they landed
    /// cannot cover them: an arriving grant is reduced by this pending
    /// exposure, and settle() retires it once the outcome is known.
    double pending_in = 0;
    double pending_out = 0;
    monitor::NodeStats stats;
  };

  void sweep();
  /// Sends one renewal request to every node (shared by the periodic
  /// sweep and rate-limited off-cycle renewals).
  void request_all();

  sim::Simulator& simulator_;
  sim::Network& network_;
  sim::NodeIndex home_;
  std::int32_t shard_;
  Params params_;
  std::vector<View> views_;
  std::uint64_t request_counter_ = 0;
  std::uint64_t takeover_epoch_ = 0;
  std::function<double()> demand_provider_;
  sim::SimTime last_renew_ = -1;
};

}  // namespace rasc::core
