// Event queue: time ordering, FIFO tie-break (determinism), cancellation,
// and a randomized equivalence check against the pre-radix heap.
#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cassert>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace rasc::sim {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFireInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(100, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[std::size_t(i)], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  const auto id = q.schedule(5, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceReturnsFalse) {
  EventQueue q;
  const auto id = q.schedule(5, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAfterFireReturnsFalse) {
  EventQueue q;
  const auto id = q.schedule(5, [] {});
  q.pop().fn();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelledHeadIsSkipped) {
  EventQueue q;
  std::vector<int> order;
  const auto first = q.schedule(1, [&] { order.push_back(1); });
  q.schedule(2, [&] { order.push_back(2); });
  q.cancel(first);
  EXPECT_EQ(q.next_time(), 2);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{2}));
}

TEST(EventQueue, SizeCountsLiveEventsOnly) {
  EventQueue q;
  const auto a = q.schedule(1, [] {});
  q.schedule(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, FiredCarriesTimeAndId) {
  EventQueue q;
  const auto id = q.schedule(77, [] {});
  const auto fired = q.pop();
  EXPECT_EQ(fired.time, 77);
  EXPECT_EQ(fired.id, id);
}

TEST(EventQueue, ManyInterleavedOperations) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(q.schedule(i % 10, [] {}));
  }
  for (std::size_t i = 0; i < ids.size(); i += 2) q.cancel(ids[i]);
  std::size_t fired = 0;
  SimTime last = -1;
  while (!q.empty()) {
    auto f = q.pop();
    EXPECT_GE(f.time, last);
    last = f.time;
    ++fired;
  }
  EXPECT_EQ(fired, 50u);
}

TEST(EventQueue, PopUntilRefusesPastEndAndKeepsTheFloor) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(10, [&] { order.push_back(10); });
  q.schedule(1000, [&] { order.push_back(1000); });
  EventQueue::Fired fired;
  ASSERT_TRUE(q.pop_until(500, fired));
  fired.fn();
  EXPECT_FALSE(q.pop_until(500, fired));
  // The refusal must not have moved the floor to 1000: an event between
  // the last pop and the refused minimum still fires first.
  q.schedule(600, [&] { order.push_back(600); });
  while (q.pop_until(2000, fired)) fired.fn();
  EXPECT_EQ(order, (std::vector<int>{10, 600, 1000}));
  EXPECT_TRUE(q.empty());
}

// --- Equivalence sweep: radix buckets vs the pre-radix heap ---

/// The original 4-ary (time, seq) heap, kept verbatim as the test oracle.
/// Its slot and generation scheme is the same, so ids must match too.
class ReferenceHeapQueue {
 public:
  EventId schedule(SimTime t, std::function<void()> fn) {
    std::uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slot = std::uint32_t(slots_.size());
      slots_.emplace_back();
      free_slots_.reserve(slots_.capacity());
    }
    Slot& s = slots_[slot];
    s.fn = std::move(fn);
    s.live = true;

    heap_push(Entry{t, next_seq_++, slot, s.gen});
    ++live_count_;
    return make_id(s.gen, slot);
  }

  bool cancel(EventId id) {
    if (id == 0) return false;
    const EventId raw = id - 1;
    const auto slot = std::uint32_t(raw & 0xffffffffu);
    const auto gen = std::uint32_t(raw >> 32);
    if (slot >= slots_.size()) return false;
    Slot& s = slots_[slot];
    if (!s.live || s.gen != gen) return false;
    s.fn = nullptr;
    s.live = false;
    ++s.gen;
    free_slots_.push_back(slot);
    --live_count_;
    return true;
  }

  bool empty() const { return live_count_ == 0; }
  std::size_t size() const { return live_count_; }

  SimTime next_time() const {
    drop_cancelled_head();
    assert(!heap_.empty());
    return heap_.front().time;
  }

  /// Id of the earliest pending event; requires !empty().
  EventId next_id() const {
    drop_cancelled_head();
    return make_id(heap_.front().gen, heap_.front().slot);
  }

  EventQueue::Fired pop() {
    drop_cancelled_head();
    assert(!heap_.empty());
    const Entry e = heap_.front();
    heap_pop();

    Slot& s = slots_[e.slot];
    EventQueue::Fired fired{e.time, make_id(e.gen, e.slot), std::move(s.fn)};
    s.fn = nullptr;
    s.live = false;
    ++s.gen;
    free_slots_.push_back(e.slot);
    --live_count_;
    return fired;
  }

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  struct Slot {
    std::function<void()> fn;
    std::uint32_t gen = 0;
    bool live = false;
  };

  static EventId make_id(std::uint32_t gen, std::uint32_t slot) {
    return ((EventId(gen) << 32) | slot) + 1;
  }

  bool entry_live(const Entry& e) const {
    const Slot& s = slots_[e.slot];
    return s.live && s.gen == e.gen;
  }

  static bool entry_before(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  void heap_push(Entry entry) const {
    heap_.push_back(entry);
    std::size_t i = heap_.size() - 1;
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!entry_before(heap_[i], heap_[parent])) break;
      std::swap(heap_[i], heap_[parent]);
      i = parent;
    }
  }

  void heap_pop() const {
    const Entry x = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0) return;
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      const std::size_t stop = std::min(first + 4, n);
      std::size_t best = first;
      for (std::size_t c = first + 1; c < stop; ++c) {
        if (entry_before(heap_[c], heap_[best])) best = c;
      }
      if (!entry_before(heap_[best], x)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = x;
  }

  void drop_cancelled_head() const {
    while (!heap_.empty() && !entry_live(heap_.front())) heap_pop();
  }

  mutable std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
  std::size_t live_count_ = 0;
};

TEST(EventQueue, RadixBucketsMatchReferenceHeap) {
  for (std::uint64_t seed = 1; seed <= 48; ++seed) {
    util::Xoshiro256 rng(seed);
    EventQueue q;
    ReferenceHeapQueue ref;
    std::vector<EventId> ids;  // every id ever issued, fired or not
    std::vector<int> got, want;
    int tag = 0;
    SimTime floor = 0;  // last popped time: schedules may not go below it

    // Times cluster on a few values so equal timestamps (FIFO ties) are
    // common, with occasional far-future entries in high buckets.
    const auto draw_time = [&](SimTime lo) {
      switch (rng.uniform_int(0, 5)) {
        case 0: return lo;
        case 1: return lo + rng.uniform_int(0, 3);
        case 2: return lo + 16 * rng.uniform_int(0, 4);
        case 3: return lo + rng.uniform_int(0, 5000);
        case 4: return lo + rng.uniform_int(0, 1'000'000);
        default: return lo + (SimTime(1) << rng.uniform_int(20, 40));
      }
    };
    const auto schedule = [&](SimTime t) {
      const int mine = tag++;
      const EventId id = q.schedule(t, [&got, mine] { got.push_back(mine); });
      const EventId ref_id =
          ref.schedule(t, [&want, mine] { want.push_back(mine); });
      ASSERT_EQ(id, ref_id) << "seed " << seed;
      ids.push_back(id);
    };
    const auto check_fired = [&](const EventQueue::Fired& f,
                                 const EventQueue::Fired& r) {
      EXPECT_EQ(f.time, r.time) << "seed " << seed;
      EXPECT_EQ(f.id, r.id) << "seed " << seed;
      f.fn();
      r.fn();
      ASSERT_EQ(got, want) << "seed " << seed;
      floor = f.time;
    };

    for (int step = 0; step < 1500; ++step) {
      const std::int64_t op = rng.uniform_int(0, 99);
      if (op < 40) {
        schedule(draw_time(floor));
      } else if (op < 50 && !ids.empty()) {
        // Any id: pending, fired or already cancelled.
        const EventId id = ids[std::size_t(
            rng.uniform_int(0, std::int64_t(ids.size()) - 1))];
        EXPECT_EQ(q.cancel(id), ref.cancel(id)) << "seed " << seed;
      } else if (op < 58 && !ref.empty()) {
        // Cancel the head, possibly while it sits at the read cursor.
        const EventId head = ref.next_id();
        EXPECT_TRUE(q.cancel(head)) << "seed " << seed;
        EXPECT_TRUE(ref.cancel(head));
      } else if (op < 75 && !ref.empty()) {
        auto f = q.pop();
        auto r = ref.pop();
        check_fired(f, r);
      } else {
        // Guarded pop with an end on either side of the next time, now
        // and then below the last popped time (a slice ending before the
        // clock).
        const SimTime end = rng.bernoulli(0.1)
                                ? floor - rng.uniform_int(1, 3)
                                : draw_time(floor);
        const bool ref_takes = !ref.empty() && ref.next_time() <= end;
        EventQueue::Fired f;
        ASSERT_EQ(q.pop_until(end, f), ref_takes) << "seed " << seed;
        if (ref_takes) {
          auto r = ref.pop();
          check_fired(f, r);
        } else if (!ref.empty()) {
          // What a driver does between run_until slices: schedule at or
          // after the clock, below the refused minimum.
          const SimTime refused = ref.next_time();
          const SimTime now = std::max(end, floor);
          for (int k = int(rng.uniform_int(1, 3)); k > 0 && now < refused;
               --k) {
            schedule(rng.uniform_int(now, refused - 1));
          }
        }
      }
      ASSERT_EQ(q.size(), ref.size()) << "seed " << seed;
      ASSERT_EQ(q.empty(), ref.empty()) << "seed " << seed;
      if (!ref.empty()) {
        ASSERT_EQ(q.next_time(), ref.next_time()) << "seed " << seed;
      }
    }
    // Drain both completely.
    while (!ref.empty()) {
      ASSERT_FALSE(q.empty());
      auto f = q.pop();
      auto r = ref.pop();
      check_fired(f, r);
    }
    EXPECT_TRUE(q.empty());
    EventQueue::Fired f;
    EXPECT_FALSE(q.pop_until(std::numeric_limits<SimTime>::max(), f));
  }
}

}  // namespace
}  // namespace rasc::sim
