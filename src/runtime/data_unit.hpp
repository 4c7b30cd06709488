// Data units: the chunks of stream data components operate on
// (paper §2.1 — picture/audio frame sequences, sets of sensor readings).
#pragma once

#include <cstdint>

#include "sim/message.hpp"

namespace rasc::runtime {

/// Identifies one composed stream-processing application.
using AppId = std::int64_t;

struct DataUnit final : sim::Message {
  static constexpr char kKind[] = "runtime.data_unit";
  const char* kind() const override { return kKind; }
  std::optional<obs::UnitId> unit_id() const override {
    return obs::UnitId{app, substream, seq};
  }

  AppId app = 0;
  std::int32_t substream = 0;
  /// Sequence number within the substream, assigned at the source;
  /// preserved through rate-ratio-1 components so the sink can detect
  /// reordering.
  std::int64_t seq = 0;
  /// Index of the stage (service layer) this unit is heading to;
  /// == number of stages means it is heading to the destination sink.
  std::int32_t stage = 0;
  std::int64_t size_bytes = 0;
  /// Source emission time (end-to-end delay reference).
  sim::SimTime created_at = 0;
};

}  // namespace rasc::runtime
