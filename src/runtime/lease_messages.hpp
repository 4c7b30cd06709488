// Capacity-lease protocol messages (sharded control plane).
//
// A coordinator shard does not compose against fresh per-request stats
// queries; it holds a *lease* on a slice of every node's bandwidth and
// composes against that bounded-staleness view (cf. DRS's explicit
// resource view, PAPERS.md). The node is authoritative: it grants each
// shard a revocable share of its headroomed availability, re-balances the
// shares as monitoring stats move, and lets every grant expire
// deterministically if the shard stops renewing.
//
//  - LeaseRequestMsg: shard home -> node. Asks for a (re)grant; a renewal
//    is the same message — the node replaces the shard's grant and bumps
//    the lease epoch.
//  - LeaseGrantMsg: node -> shard home. Carries the granted in/out kbps,
//    the lease epoch deploy messages must be stamped with, the expiry
//    deadline, and a piggybacked NodeStats snapshot (so the shard's
//    CPU/drop view refreshes with every renewal and no separate stats
//    round-trip is needed on the admission path).
//  - LeaseRevokeMsg: node -> shard home. The node expired (or revoked) a
//    grant; the shard must zero its view until the next renewal.
//
// Wire sizes model the serialized forms; the grant's embedded stats
// snapshot is the same payload a monitor.stats_reply carries.
#pragma once

#include <cstdint>

#include "monitor/node_stats.hpp"
#include "sim/message.hpp"

namespace rasc::runtime {

struct LeaseRequestMsg final : sim::Message {
  static constexpr char kKind[] = "runtime.lease_request";
  const char* kind() const override { return kKind; }
  std::int32_t shard = -1;
  /// Shard home node the grant (and any revoke) must be sent to.
  sim::NodeIndex requester = sim::kInvalidNode;
  std::uint64_t request_id = 0;
  /// Admission demand the shard has seen over its last renewal window,
  /// in source kbps. The granter rebalances shares around it: 0 shrinks
  /// the shard toward the idle floor (pool/2K), a positive hint lets it
  /// claim freed surplus up to its active-fair share. Negative = no hint;
  /// the node falls back to the static equal split (pool/K).
  double demand_kbps = -1;
  /// Fencing term for shard re-homing: a standby that takes over a dead
  /// primary requests with a higher takeover epoch, after which the
  /// granter refuses (and revokes) any request carrying a lower one —
  /// the zombie primary can "recover" but can never renew its way back
  /// into the shard's capacity. 0 = the original primary term, so the
  /// wire format is unchanged for runs without standbys.
  std::uint64_t takeover_epoch = 0;
  static constexpr std::int64_t kBytes = 40;
};

struct LeaseGrantMsg final : sim::Message {
  static constexpr char kKind[] = "runtime.lease_grant";
  const char* kind() const override { return kKind; }
  std::int32_t shard = -1;
  sim::NodeIndex node = sim::kInvalidNode;
  std::uint64_t request_id = 0;
  /// Monotone per node; deploy messages spending this grant carry it and
  /// the node NACKs any stamp that is not the *current* epoch.
  std::uint64_t lease_epoch = 0;
  double in_kbps = 0;
  double out_kbps = 0;
  sim::SimTime expires_at = 0;
  /// Snapshot taken when the grant was issued (CPU, drop ratio, ...).
  monitor::NodeStats stats;
  static constexpr std::int64_t kBytes = 128;
};

struct LeaseRevokeMsg final : sim::Message {
  static constexpr char kKind[] = "runtime.lease_revoke";
  const char* kind() const override { return kKind; }
  std::int32_t shard = -1;
  sim::NodeIndex node = sim::kInvalidNode;
  std::uint64_t lease_epoch = 0;
  static constexpr std::int64_t kBytes = 24;
};

}  // namespace rasc::runtime
