// Shard re-homing reconstruction protocol (standby takeover).
//
// When a standby coordinator takes over a dead shard it has no batch
// queue, no view and no record of which apps the dead primary deployed.
// It rebuilds that state from the only durable copies in the system —
// the fleet's node runtimes and lease granters:
//
//  - ShardRecoverRequestMsg: standby home -> every node. "Dump what you
//    know about shard S": the granter's per-app debit ledger for S (the
//    authoritative record of which apps S deployed through its lease)
//    plus the runtime's full component/sink/source state.
//  - ShardRecoverReplyMsg: node -> standby home. The dump. Runtime state
//    is reported for *all* apps, not just S's: adapter-shipped placements
//    and source deploys never debit the granter, so no single node can
//    filter by shard — the standby intersects the union of the ledgers
//    with the union of the runtime state instead.
//
// The standby collects replies until a fixed deadline (reconstruct
// timeout), then adopts: for every ledger app with a complete
// source->stages->sink picture it rebuilds the ServiceRequest and
// AppPlan and re-attaches supervision/adaptation. Everything here rides
// simulated packets and simulator timers, so takeover replays
// byte-identically for a fixed seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/component.hpp"
#include "runtime/plan.hpp"
#include "sim/message.hpp"

namespace rasc::runtime {

struct ShardRecoverRequestMsg final : sim::Message {
  static constexpr char kKind[] = "runtime.shard_recover_request";
  const char* kind() const override { return kKind; }
  std::int32_t shard = -1;
  /// Standby home node the reply must be sent to.
  sim::NodeIndex requester = sim::kInvalidNode;
  std::uint64_t request_id = 0;
  static constexpr std::int64_t kBytes = 32;
};

struct ShardRecoverReplyMsg final : sim::Message {
  static constexpr char kKind[] = "runtime.shard_recover_reply";
  const char* kind() const override { return kKind; }

  /// One live ledger debit of the queried shard: `app` spent this much of
  /// the shard's lease on this node. Membership proof — the app was
  /// deployed *by* the dead shard, not merely failed over through it.
  struct DebitEntry {
    AppId app = 0;
    double in_kbps = 0;
    double out_kbps = 0;
  };
  /// One deployed component instance on this node (any app).
  struct ComponentState {
    ComponentKey key;
    std::string service;
    /// Planned input rate of this instance, units/second.
    double rate_ups = 0;
    /// Highest deploy epoch this node has recorded for key.app (0 when
    /// unknown): the standby's coordinator fast-forwards past the max so
    /// its own deploys are never mistaken for the dead primary's stale
    /// retransmissions.
    std::uint64_t app_epoch = 0;
  };
  /// One delivery endpoint on this node, with the exact planned rates
  /// (the runtime's StreamSink/StreamSource keep only derived state, so
  /// the node records these at deploy time for reconstruction).
  struct SinkState {
    AppId app = 0;
    std::int32_t substream = 0;
    double rate_ups = 0;
    std::int64_t unit_bytes = 0;  // delivered unit size
  };
  struct SourceState {
    AppId app = 0;
    std::int32_t substream = 0;
    double rate_ups = 0;
    std::int64_t unit_bytes = 0;  // emitted unit size
    sim::SimTime stop_at = 0;
  };

  std::int32_t shard = -1;
  sim::NodeIndex node = sim::kInvalidNode;
  std::uint64_t request_id = 0;
  std::vector<DebitEntry> debits;
  std::vector<ComponentState> components;
  std::vector<SinkState> sinks;
  std::vector<SourceState> sources;

  /// Serialized size: header + fixed-size records (component service
  /// names modeled at 16 bytes, the catalog's longest).
  std::int64_t wire_size() const {
    return 48 + std::int64_t(debits.size()) * 24 +
           std::int64_t(components.size()) * 48 +
           std::int64_t(sinks.size()) * 28 +
           std::int64_t(sources.size()) * 36;
  }
};

}  // namespace rasc::runtime
