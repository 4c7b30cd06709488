// Overlay wire messages.
//
// All overlay control traffic flows through the simulated network as typed
// immutable payloads. Sizes are modelled explicitly (bytes on the wire) so
// control traffic consumes real bandwidth in the simulation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "overlay/state.hpp"
#include "sim/message.hpp"

namespace rasc::overlay {

using RequestId = std::uint64_t;

/// Envelope for prefix-routed traffic. Forwarded hop by hop toward the
/// node whose id is numerically closest to `key` (the "root").
struct RoutedMessage final : sim::Message {
  static constexpr char kKind[] = "overlay.routed";
  const char* kind() const override { return kKind; }

  NodeId128 key;
  PeerRef origin;            // initiating node
  int hops = 0;              // incremented per forward
  /// Defense against transient routing loops while state converges: a
  /// message exceeding this hop count is dropped (the requester's RPC
  /// timeout turns it into a retry).
  static constexpr int kMaxHops = 32;
  sim::MessagePtr inner;     // payload delivered at the root
  std::int64_t inner_size = 0;

  static constexpr std::int64_t kEnvelopeBytes = 48;
  std::int64_t wire_size() const { return kEnvelopeBytes + inner_size; }
};

/// Inner payload of a routed join: announces `joiner` and triggers state
/// transfer from every node along the route.
struct JoinRequest final : sim::Message {
  static constexpr char kKind[] = "overlay.join_request";
  const char* kind() const override { return kKind; }
  PeerRef joiner;
  static constexpr std::int64_t kBytes = 24;
};

/// State transfer to a joining node, sent directly by each node on the
/// join route. The root also includes its leaf set and sets `from_root`.
struct JoinStateInfo final : sim::Message {
  static constexpr char kKind[] = "overlay.join_state";
  const char* kind() const override { return kKind; }
  PeerRef sender;
  std::vector<PeerRef> routing_entries;
  std::vector<PeerRef> leaf_entries;  // only from the root
  bool from_root = false;

  std::int64_t wire_size() const {
    return 32 + std::int64_t(routing_entries.size() + leaf_entries.size()) *
                    24;
  }
};

/// Periodic leaf-set exchange (Pastry leaf maintenance): each node sends
/// its leaf set to its leaves so ring neighborhoods converge even when a
/// join's state transfer was incomplete, and stale entries get refreshed.
struct LeafSetExchange final : sim::Message {
  static constexpr char kKind[] = "overlay.leaf_exchange";
  const char* kind() const override { return kKind; }
  PeerRef sender;
  std::vector<PeerRef> leaves;

  std::int64_t wire_size() const {
    return 24 + std::int64_t(leaves.size()) * 24;
  }
};

/// Routed neighborhood repair probe (inner payload; the prober is the
/// envelope's origin). A node periodically routes a probe keyed by its own
/// id via a rotating known peer; whichever node delivers it as root learns
/// the prober and replies with its leaf set. Unlike the push-only leaf
/// exchange this has global reach through prefix routing, so a node whose
/// join seeded the wrong neighborhood still converges to its true ring
/// position instead of staying invisible to its real neighbors.
struct NeighborProbe final : sim::Message {
  static constexpr char kKind[] = "overlay.neighbor_probe";
  const char* kind() const override { return kKind; }
  static constexpr std::int64_t kBytes = 8;
};

/// A node announcing itself to a peer it learned about while joining.
struct Announce final : sim::Message {
  static constexpr char kKind[] = "overlay.announce";
  const char* kind() const override { return kKind; }
  PeerRef who;
  static constexpr std::int64_t kBytes = 24;
};

/// DHT write (routed). `append` selects append-to-list vs replace
/// semantics; the service registry appends provider addresses.
struct DhtPut final : sim::Message {
  static constexpr char kKind[] = "overlay.dht_put";
  const char* kind() const override { return kKind; }
  NodeId128 key;
  std::string value;
  bool append = true;
  RequestId request_id = 0;
  PeerRef requester;

  std::int64_t wire_size() const { return 48 + std::int64_t(value.size()); }
};

/// Replication of stored values to leaf-set neighbours (fire and forget).
struct DhtReplicate final : sim::Message {
  static constexpr char kKind[] = "overlay.dht_replicate";
  const char* kind() const override { return kKind; }
  NodeId128 key;
  std::vector<std::string> values;

  std::int64_t wire_size() const {
    std::int64_t n = 32;
    for (const auto& v : values) n += std::int64_t(v.size()) + 4;
    return n;
  }
};

/// Acknowledgement of a DhtPut, sent directly to the requester.
struct DhtAck final : sim::Message {
  static constexpr char kKind[] = "overlay.dht_ack";
  const char* kind() const override { return kKind; }
  RequestId request_id = 0;
  static constexpr std::int64_t kBytes = 16;
};

/// DHT read (routed).
struct DhtGet final : sim::Message {
  static constexpr char kKind[] = "overlay.dht_get";
  const char* kind() const override { return kKind; }
  NodeId128 key;
  RequestId request_id = 0;
  PeerRef requester;
  static constexpr std::int64_t kBytes = 48;
};

/// Reply to a DhtGet, sent directly to the requester.
struct DhtGetReply final : sim::Message {
  static constexpr char kKind[] = "overlay.dht_get_reply";
  const char* kind() const override { return kKind; }
  RequestId request_id = 0;
  bool found = false;
  std::vector<std::string> values;

  std::int64_t wire_size() const {
    std::int64_t n = 24;
    for (const auto& v : values) n += std::int64_t(v.size()) + 4;
    return n;
  }
};

}  // namespace rasc::overlay
