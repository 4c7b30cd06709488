// Message and packet types exchanged over the simulated network.
//
// Payloads are immutable and shared: a packet "on the wire" carries a
// shared_ptr<const Message>, so forwarding never copies payload bytes and a
// handler can never mutate a message another node still holds.
//
// Every concrete message declares its kind once, as a static literal:
//
//   struct Ping final : sim::Message {
//     static constexpr char kKind[] = "test.ping";
//     const char* kind() const override { return kKind; }
//   };
//
// A static data member is an inline variable, so `kKind` has one address
// program-wide: the kind pointer is an identity, good for a pointer
// compare (message_as) and for the network's per-kind dispatch table.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "obs/unit_trace.hpp"
#include "sim/time.hpp"

namespace rasc::sim {

/// Index of a node in the topology (dense, 0-based).
using NodeIndex = std::int32_t;
constexpr NodeIndex kInvalidNode = -1;

/// Dense id of an interned message kind (per-Network scope).
using KindId = std::uint32_t;

/// Base class for all application-level messages (overlay control traffic,
/// stats queries, stream data units, ...).
struct Message {
  virtual ~Message() = default;
  /// The subclass's static `kKind` literal (logging, accounting and
  /// dispatch key).
  virtual const char* kind() const = 0;
  /// Lifecycle-trace identity for payloads that are stream data units;
  /// nullopt for control traffic. Lets the network attribute port drops
  /// and node-failure losses to the exact unit without knowing the
  /// runtime's types.
  virtual std::optional<obs::UnitId> unit_id() const { return std::nullopt; }
};

using MessagePtr = std::shared_ptr<const Message>;

/// `message` as an `M` when its kind is M's, else nullptr: one virtual
/// call and one pointer compare, no type_info walk.
template <class M>
const M* message_as(const Message* message) {
  return message != nullptr && message->kind() == M::kKind
             ? static_cast<const M*>(message)
             : nullptr;
}

/// A framed packet in flight.
struct Packet {
  NodeIndex src = kInvalidNode;
  NodeIndex dst = kInvalidNode;
  std::int64_t size_bytes = 0;
  MessagePtr payload;
  SimTime sent_at = 0;  // time send() was called
  KindId kind = 0;      // payload kind, interned once by Network::send
};

}  // namespace rasc::sim
