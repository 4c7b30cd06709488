// Pending-event set for the discrete-event simulator.
//
// Events at equal timestamps fire in insertion order; without this, pop
// order would depend on allocation details and runs would not be
// reproducible. Cancellation is lazy: cancelled entries stay in their
// bucket and are dropped when it is next scanned.
//
// The pending set is a monotone radix heap (Ahuja, Mehlhorn, Orlin &
// Tarjan 1990) keyed on time alone. Popped times never decrease, so every
// pending time is at or above the *floor* (the last popped time). Bucket b
// holds the entries whose time first differs from the floor in bit b-1;
// bucket 0 holds the entries at the floor itself and is consumed FIFO.
// When bucket 0 runs dry, the lowest non-empty bucket is scanned for its
// earliest live time, which becomes the new floor, and its entries are
// redistributed in order into lower buckets. All entries of one timestamp
// always sit in one bucket, appended in insertion order and moved
// together by a stable redistribution, so ties pop FIFO without a
// sequence number.
//
// Handlers live in a flat slot array owned by the queue — no per-event
// node allocation or hash lookup. An EventId packs (generation << 32 |
// slot); the generation bumps every time a slot is vacated, so a stale id
// (already fired or cancelled) can never cancel the slot's next tenant,
// and stale bucket entries are recognized by a generation mismatch. The
// generations sit in their own dense array, which bucket scans read.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "sim/time.hpp"

namespace rasc::sim {

/// Identifies a scheduled event; usable to cancel it.
using EventId = std::uint64_t;

class EventQueue {
 public:
  /// Schedules `fn` at absolute time `t`. Returns an id for cancellation.
  /// Requires `t` ≥ the time of the last popped event (and ≥ 0).
  EventId schedule(SimTime t, std::function<void()> fn);

  /// Cancels a pending event. Returns false if the event already fired or
  /// was already cancelled.
  bool cancel(EventId id);

  bool empty() const { return live_count_ == 0; }
  std::size_t size() const { return live_count_; }

  /// Time of the earliest pending event; undefined when empty().
  SimTime next_time() const;

  struct Fired {
    SimTime time = 0;
    EventId id = 0;
    std::function<void()> fn;
  };

  /// Pops and returns the earliest event. Requires !empty().
  Fired pop();

  /// Pops the earliest event into `out` if one is pending at or before
  /// `end`; returns whether it did. A refusal leaves the floor where it
  /// was, so events may still be scheduled anywhere from the last popped
  /// time on.
  bool pop_until(SimTime end, Fired& out);

 private:
  struct Entry {
    SimTime time;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  /// A slot's generation matches only its current tenant's entry: it
  /// bumps as the tenant fires or is cancelled.
  bool entry_live(const Entry& e) const { return gens_[e.slot] == e.gen; }

  /// Frees `slot` for reuse, retiring its tenant's id and entry.
  void vacate(std::uint32_t slot);

  /// Bucket of time `t` relative to the current floor.
  std::size_t bucket_of(SimTime t) const;

  /// Makes bucket 0's cursor point at a live entry no later than `end`,
  /// refilling bucket 0 from the lowest non-empty bucket if needed.
  /// Returns false, floor unchanged, when no live entry is at or before
  /// `end`.
  bool settle_head(SimTime end);

  static constexpr std::size_t kBuckets = 65;
  /// Above every schedulable time; marks "no live entry" in scans.
  static constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

  std::array<std::vector<Entry>, kBuckets> buckets_;
  std::size_t head_ = 0;  // read cursor into buckets_[0]
  SimTime floor_ = 0;     // time of the last popped event
  std::vector<std::function<void()>> fns_;  // handler per slot
  std::vector<std::uint32_t> gens_;         // generation per slot
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_count_ = 0;
};

}  // namespace rasc::sim
