// Deployment protocol messages.
//
// After composing an execution graph, the coordinator instantiates it by
// messaging every involved node (paper §3.1 step 4: "Instantiate the
// respective components and run the stream processing application").
// Deployment costs real simulated time and bandwidth.
//
// Exactly-once-effective semantics over a lossy control plane rest on two
// fields carried by every deploy/teardown message:
//
//  - (requester, request_id) identifies one logical instantiation. The
//    receiving runtime dedups on it, so a retransmitted or duplicated
//    deploy re-acks the recorded verdict instead of re-applying.
//  - (app, epoch) orders whole deployment attempts. The coordinator stamps
//    each attempt with a fresh epoch; a rollback teardown carries the same
//    epoch and tombstones it at the receiver, so deploy messages of a
//    rolled-back attempt that arrive late (reordered behind their own
//    teardown) are dropped as stale instead of re-instantiating orphans.
//    Epoch 0 is the legacy wildcard: an epoch-0 teardown applies
//    unconditionally (supervisor recovery), and epoch-0 deploys skip the
//    staleness check.
//
// Sharded control planes additionally stamp component/sink deploys with
// the (shard, lease_epoch) of the capacity lease they spend; the receiving
// runtime debits its lease granter before instantiating and NACKs when
// the grant is stale or overdrawn (see runtime/lease_granter.hpp).
//
// The new fields ride inside the existing wire-size constants (they model
// header room already budgeted), so stamped runs serialize identically.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/component.hpp"
#include "runtime/plan.hpp"
#include "sim/message.hpp"

namespace rasc::runtime {

struct DeployComponentMsg final : sim::Message {
  static constexpr char kKind[] = "runtime.deploy_component";
  const char* kind() const override { return kKind; }
  ComponentKey key;
  std::string service;
  double rate_units_per_sec = 0;   // allocation for this instance
  std::int64_t in_unit_bytes = 0;  // input unit size at this stage
  std::vector<Placement> next;     // stage+1 instances or the sink
  std::uint64_t request_id = 0;
  sim::NodeIndex requester = sim::kInvalidNode;
  /// Deployment attempt this message belongs to (see file header).
  std::uint64_t epoch = 0;
  /// Coordinator shard spending a capacity lease for this reservation
  /// (-1: unsharded legacy deploy, no lease debit). With a shard set the
  /// receiving runtime debits (shard, lease_epoch) at its granter before
  /// instantiating, and NACKs when the lease cannot cover it.
  std::int32_t shard = -1;
  std::uint64_t lease_epoch = 0;

  std::int64_t wire_size() const {
    return 96 + std::int64_t(next.size()) * 16;
  }
};

struct DeploySinkMsg final : sim::Message {
  static constexpr char kKind[] = "runtime.deploy_sink";
  const char* kind() const override { return kKind; }
  AppId app = 0;
  std::int32_t substream = 0;
  double rate_units_per_sec = 0;
  std::int64_t unit_bytes = 0;
  std::uint64_t request_id = 0;
  sim::NodeIndex requester = sim::kInvalidNode;
  /// Deployment attempt this message belongs to (see file header).
  std::uint64_t epoch = 0;
  /// Lease-spending stamp; see DeployComponentMsg.
  std::int32_t shard = -1;
  std::uint64_t lease_epoch = 0;
  static constexpr std::int64_t kBytes = 64;
};

struct DeploySourceMsg final : sim::Message {
  static constexpr char kKind[] = "runtime.deploy_source";
  const char* kind() const override { return kKind; }
  AppId app = 0;
  std::int32_t substream = 0;
  double rate_units_per_sec = 0;
  std::int64_t unit_bytes = 0;
  std::vector<Placement> first_stage;
  sim::SimTime start_at = 0;
  sim::SimTime stop_at = 0;
  std::uint64_t request_id = 0;
  sim::NodeIndex requester = sim::kInvalidNode;
  /// Deployment attempt this message belongs to (see file header).
  std::uint64_t epoch = 0;

  std::int64_t wire_size() const {
    return 96 + std::int64_t(first_stage.size()) * 16;
  }
};

struct DeployAck final : sim::Message {
  static constexpr char kKind[] = "runtime.deploy_ack";
  const char* kind() const override { return kKind; }
  std::uint64_t request_id = 0;
  bool ok = false;
  static constexpr std::int64_t kBytes = 16;
};

// --- Delta re-allocation protocol (rate adapter) ---
//
// The adapter adjusts a running application in place instead of tearing
// it down: components get new rates and downstream splits, placements are
// added or retired individually, and the source's stage-0 split is
// rewritten. Updates are fire-and-forget (no acks): a lost delta leaves
// the app on its previous — still functional — allocation, and the next
// adaptation round repairs it.

/// Re-rates an existing component in place and rewrites its downstream
/// split. No-op if the component is not deployed on the receiving node.
struct UpdateComponentMsg final : sim::Message {
  static constexpr char kKind[] = "runtime.update_component";
  const char* kind() const override { return kKind; }
  ComponentKey key;
  double rate_units_per_sec = 0;   // new allocation for this instance
  std::int64_t in_unit_bytes = 0;  // input unit size (re-reservation)
  std::vector<Placement> next;     // new stage+1 split (or the sink)

  std::int64_t wire_size() const {
    return 56 + std::int64_t(next.size()) * 16;
  }
};

/// Deploys one additional instance of an already-running stage (same
/// payload as DeployComponentMsg minus the ack round-trip).
struct AddPlacementMsg final : sim::Message {
  static constexpr char kKind[] = "runtime.add_placement";
  const char* kind() const override { return kKind; }
  ComponentKey key;
  std::string service;
  double rate_units_per_sec = 0;
  std::int64_t in_unit_bytes = 0;
  std::vector<Placement> next;

  std::int64_t wire_size() const {
    return 96 + std::int64_t(next.size()) * 16;
  }
};

/// Retires a single component instance (one stage of one substream on the
/// receiving node), releasing its reservations. Unlike TeardownAppMsg the
/// rest of the application keeps running.
struct RemovePlacementMsg final : sim::Message {
  static constexpr char kKind[] = "runtime.remove_placement";
  const char* kind() const override { return kKind; }
  ComponentKey key;
  static constexpr std::int64_t kBytes = 24;
};

/// Rewrites a running source's stage-0 split (and emission rate) after
/// the adapter re-balanced the first stage.
struct UpdateSourceSplitMsg final : sim::Message {
  static constexpr char kKind[] = "runtime.update_source_split";
  const char* kind() const override { return kKind; }
  AppId app = 0;
  std::int32_t substream = 0;
  double rate_units_per_sec = 0;  // new stage-0 *input* ups
  std::vector<Placement> first_stage;

  std::int64_t wire_size() const {
    return 48 + std::int64_t(first_stage.size()) * 16;
  }
};

/// Tears down every component/sink/source of an application on the
/// receiving node (failure recovery and re-composition).
struct TeardownAppMsg final : sim::Message {
  static constexpr char kKind[] = "runtime.teardown_app";
  const char* kind() const override { return kKind; }
  AppId app = 0;
  /// 0 = unconditional teardown (supervisor recovery, legacy senders).
  /// Nonzero = rollback of exactly this deployment attempt: the receiver
  /// tombstones the epoch so late-arriving deploys of it are dropped, and
  /// older epochs are ignored (a reordered stale teardown must not kill a
  /// newer attempt).
  std::uint64_t epoch = 0;
  static constexpr std::int64_t kBytes = 16;
};

/// Queries the destination node for an application's delivery progress
/// (used by the supervisor's liveness checks).
struct SinkHealthRequest final : sim::Message {
  static constexpr char kKind[] = "runtime.sink_health_req";
  const char* kind() const override { return kKind; }
  AppId app = 0;
  std::uint64_t request_id = 0;
  sim::NodeIndex requester = sim::kInvalidNode;
  static constexpr std::int64_t kBytes = 24;
};

struct SinkHealthReply final : sim::Message {
  static constexpr char kKind[] = "runtime.sink_health_reply";
  const char* kind() const override { return kKind; }
  AppId app = 0;
  std::uint64_t request_id = 0;
  /// Units delivered so far across the app's substreams at this node;
  /// -1 when no sink for the app exists here.
  std::int64_t delivered = -1;
  static constexpr std::int64_t kBytes = 32;
};

}  // namespace rasc::runtime
