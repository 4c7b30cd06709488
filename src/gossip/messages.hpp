// Wire message for the gossip subsystem: a bounded digest of load
// summaries. One kind only — "gossip.digest" — so the per-(node, kind)
// network counters give the exact control-bandwidth footprint of the
// subsystem for free (bench/gossip_quality reads them).
#pragma once

#include <cstdint>
#include <vector>

#include "gossip/load_summary.hpp"
#include "sim/message.hpp"

namespace rasc::gossip {

struct GossipDigestMsg final : sim::Message {
  static constexpr char kKind[] = "gossip.digest";
  const char* kind() const override { return kKind; }

  sim::NodeIndex sender = sim::kInvalidNode;
  std::vector<LoadSummary> entries;

  /// Fixed header: sender + round stamp + entry count.
  static constexpr std::int64_t kHeaderBytes = 16;

  std::int64_t wire_size() const {
    return kHeaderBytes +
           std::int64_t(entries.size()) * LoadSummary::kWireBytes;
  }
};

}  // namespace rasc::gossip
