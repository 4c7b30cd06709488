// Node-side capacity-lease authority (sharded control plane).
//
// Each node partitions its headroomed bandwidth availability among the K
// coordinator shards: a LeaseRequestMsg is answered with a grant of a
// demand-rebalanced share of whatever the monitor says is still free
// (equal split without hints; idle shards shrink toward a floor and busy
// shards absorb the freed surplus otherwise), stamped with a
// fresh lease epoch and a deterministic expiry deadline. Deploy messages
// that spend a grant are *debited* here before the runtime instantiates
// anything; a debit that does not match the current epoch, arrives after
// expiry, or overdraws the remaining grant is refused and the deploy
// NACKs — the node is authoritative, so two shards racing for the same
// bandwidth can never double-reserve it (the loser repairs its plan
// against its remaining lease instead of tearing the app down).
//
// Determinism: everything here is driven by packet arrivals and
// simulator timers, so sharded runs replay byte-identically for a fixed
// seed.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "monitor/node_monitor.hpp"
#include "obs/metric_registry.hpp"
#include "runtime/data_unit.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace rasc::runtime {

class LeaseGranter {
 public:
  /// Fraction of the monitored availability the node is willing to
  /// promise across all shards (control-traffic headroom).
  static constexpr double kHeadroom = 0.95;

  struct Params {
    /// Lifetime of one grant; a shard that stops renewing loses its
    /// share this long after the last grant.
    sim::SimDuration lease_duration = sim::sec(12);
    /// Fleet size: each (re)grant hands out free/`shards` so the shares
    /// converge to an equal split as renewals sweep.
    int shards = 1;
  };

  /// Sentinel shard id for leaseless debits (gossip control plane): the
  /// debit is checked against the node's *live* grantable pool — current
  /// availability minus what is still promised to real shards — instead
  /// of a pre-negotiated grant, and the lease epoch is ignored. The node
  /// stays the authoritative admission point: two gossip composers racing
  /// for the same bandwidth serialize through their debits here, and the
  /// loser NACKs exactly as a sharded overdraw would.
  static constexpr std::int32_t kPoolShard = 1 << 20;

  /// `registry` is the deployment-wide metric registry; the granter owns
  /// a private one when null. Emits under lease.* with this node's label.
  /// Registers for LeaseRequestMsg packets at `node`.
  LeaseGranter(sim::Simulator& simulator, sim::Network& network,
               sim::NodeIndex node, const monitor::NodeMonitor& monitor,
               Params params, obs::MetricRegistry* registry = nullptr);
  ~LeaseGranter();

  LeaseGranter(const LeaseGranter&) = delete;
  LeaseGranter& operator=(const LeaseGranter&) = delete;

  /// Spends `in/out` kbps of shard `shard`'s grant for one deploy message
  /// of `app`. False (NACK the deploy) when the epoch is not current, the
  /// grant expired, or the remaining grant cannot cover the reservation.
  bool debit(std::int32_t shard, std::uint64_t lease_epoch, AppId app,
             double in_kbps, double out_kbps);

  /// Returns everything `app` debited back to the granting shard's
  /// remaining allowance, provided its lease term is still current (funds
  /// from expired or re-granted terms return via the next renewal's pool
  /// instead — crediting them now would double-count).
  void release_app(AppId app);

  /// Live grantable pool per direction: headroomed availability minus the
  /// unspent remainders still promised to real shards. What a kPoolShard
  /// debit is checked against, and what the gossip agent advertises as
  /// this node's lease headroom.
  void pool_remaining_kbps(double& in_kbps, double& out_kbps) const;

  // --- Introspection (tests / bench invariants) ---
  double remaining_in_kbps(std::int32_t shard) const;
  double remaining_out_kbps(std::int32_t shard) const;
  std::uint64_t epoch(std::int32_t shard) const;
  /// True when shard's coordinator looks dead from this node: it held a
  /// grant here but let it lapse unrenewed (healthy shards renew every
  /// lease_renew << lease_duration, so an expired grant means several
  /// consecutive renewals were missed). Nodes that never granted to the
  /// shard report false — absence of evidence is not suspicion.
  bool holder_suspect(std::int32_t shard) const;
  /// Current holder (coordinator home node) of `shard`'s live grant
  /// here, or kInvalidNode when the grant lapsed or never existed.
  /// Tracks takeovers: once a standby renews, it is the holder — source
  /// nodes route submissions to it instead of the dead hash home.
  sim::NodeIndex holder_of(std::int32_t shard) const;
  /// Live debits of `shard`'s lease on this node, sorted by app: the
  /// authoritative record of which apps the shard deployed here, dumped
  /// into ShardRecoverReplyMsg during standby reconstruction.
  std::vector<std::tuple<AppId, double, double>> ledger_for_shard(
      std::int32_t shard) const;
  /// High-water mark of (sum of outstanding grants) - (grantable pool),
  /// in kbps; stays 0 when no grant ever over-promised capacity.
  double overgrant_high_water_kbps() const { return overgrant_high_water_; }

 private:
  struct Grant {
    double in_kbps = 0;   // remaining (undebited) allowance
    double out_kbps = 0;
    std::uint64_t epoch = 0;
    /// Epoch this grant replaced (0 = none): deploys composed against the
    /// replaced term and still in flight debit the current remainder.
    std::uint64_t prev_epoch = 0;
    sim::SimTime expires_at = 0;
    sim::NodeIndex holder = sim::kInvalidNode;  // shard home node
    bool expired = false;
    sim::EventId expiry = 0;
    /// Highest takeover epoch a request for this shard has carried (0 =
    /// the original primary term). Requests below it are fenced off.
    std::uint64_t fence = 0;
    /// First lease epoch issued under the current fence term: debits
    /// stamped with an older lease epoch were composed by the fenced-out
    /// holder, so the epoch NACK counts as a fenced message.
    std::uint64_t fence_floor_epoch = 0;
  };
  struct AppDebit {
    std::int32_t shard = -1;
    std::uint64_t epoch = 0;
    double in_kbps = 0;
    double out_kbps = 0;
  };

  void grant(std::int32_t shard, sim::NodeIndex requester,
             std::uint64_t request_id, double demand_kbps,
             std::uint64_t takeover_epoch);
  void expire(std::int32_t shard, std::uint64_t epoch);
  /// Rebalanced share of `pool` for `shard` given its reported demand:
  /// pool/K when the hint is unknown (<0), the idle floor pool/2K at
  /// zero demand, otherwise demand (with margin) clamped between the
  /// floor and the fair split among recently-active shards.
  double target_share(std::int32_t shard, double pool, double demand) const;
  /// Headroomed availability per direction from the live monitor view
  /// (reservation-aware even when snapshots do not advertise them).
  void pool_kbps(double& in_kbps, double& out_kbps) const;
  /// Bumps shard.fenced_msgs, creating the cell on first use.
  void count_fenced();

  sim::Simulator& simulator_;
  sim::Network& network_;
  sim::NodeIndex node_;
  const monitor::NodeMonitor& monitor_;
  Params params_;

  std::unique_ptr<obs::MetricRegistry> owned_registry_;

  /// Ordered by shard id: deterministic iteration for the free-pool sum.
  std::map<std::int32_t, Grant> grants_;
  /// Last demand hint per shard (erased when the grant expires); feeds
  /// the active-shard count of the rebalanced share.
  std::map<std::int32_t, double> hints_;
  std::unordered_map<AppId, AppDebit> ledger_;
  std::uint64_t epoch_counter_ = 0;
  /// Sum of live ledger debits: bandwidth the leases already converted
  /// into node reservations (drops back out at app teardown).
  double lease_reserved_in_ = 0;
  double lease_reserved_out_ = 0;
  double overgrant_high_water_ = 0;

  obs::MetricRegistry* registry_;
  obs::Counter* granted_;
  obs::Counter* expired_count_;
  obs::Counter* debits_;
  obs::Counter* nacks_;
  obs::Counter* nacks_epoch_;    // stale/expired lease term
  obs::Counter* nacks_overdraw_; // live term, remainder too small
  /// Messages refused because they carried a stale takeover epoch
  /// (zombie primary after a standby takeover). Lazily created so runs
  /// without standbys export byte-identical snapshots.
  obs::Counter* fenced_ = nullptr;
  obs::Gauge* overgrant_gauge_;
};

}  // namespace rasc::runtime
