#include "sim/event_queue.hpp"

#include <bit>
#include <cassert>
#include <utility>

namespace rasc::sim {

namespace {

/// Ids are offset by 1 so that 0 stays free for callers' "no event"
/// sentinel (several subsystems initialize EventId members to 0).
EventId make_id(std::uint32_t gen, std::uint32_t slot) {
  return ((EventId(gen) << 32) | slot) + 1;
}

}  // namespace

std::size_t EventQueue::bucket_of(SimTime t) const {
  return std::size_t(
      std::bit_width(std::uint64_t(t) ^ std::uint64_t(floor_)));
}

EventId EventQueue::schedule(SimTime t, std::function<void()> fn) {
  assert(t >= floor_);
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = std::uint32_t(fns_.size());
    fns_.emplace_back();
    gens_.push_back(0);
    free_slots_.reserve(fns_.capacity());
  }
  fns_[slot] = std::move(fn);
  buckets_[bucket_of(t)].push_back(Entry{t, slot, gens_[slot]});
  ++live_count_;
  return make_id(gens_[slot], slot);
}

void EventQueue::vacate(std::uint32_t slot) {
  fns_[slot] = nullptr;  // release captured state eagerly
  ++gens_[slot];
  free_slots_.push_back(slot);
  --live_count_;
}

bool EventQueue::cancel(EventId id) {
  if (id == 0) return false;
  const EventId raw = id - 1;
  const auto slot = std::uint32_t(raw & 0xffffffffu);
  const auto gen = std::uint32_t(raw >> 32);
  if (slot >= gens_.size() || gens_[slot] != gen) return false;
  vacate(slot);
  return true;
  // The bucket entry stays; scans skip it by gen mismatch.
}

bool EventQueue::settle_head(SimTime end) {
  std::vector<Entry>& head = buckets_[0];
  for (;;) {
    for (; head_ < head.size(); ++head_) {
      // Bucket 0 holds only the floor time, and ties pop FIFO.
      if (entry_live(head[head_])) return head[head_].time <= end;
    }
    head.clear();
    head_ = 0;

    std::size_t b = 1;
    while (b < kBuckets && buckets_[b].empty()) ++b;
    if (b == kBuckets) return false;
    std::vector<Entry>& lowest = buckets_[b];
    SimTime min = kNever;
    for (const Entry& e : lowest) {
      if (e.time < min && entry_live(e)) min = e.time;
    }
    if (min != kNever) {
      // Refusing here keeps the floor: the caller may still schedule
      // between it and `end` before the next call.
      if (min > end) return false;
      floor_ = min;
      // In order, so same-time entries keep their insertion order. Every
      // entry lands in a bucket below `b`; the dead ones are dropped.
      for (const Entry& e : lowest) {
        if (entry_live(e)) buckets_[bucket_of(e.time)].push_back(e);
      }
    }
    lowest.clear();
  }
}

SimTime EventQueue::next_time() const {
  const std::vector<Entry>& head = buckets_[0];
  for (std::size_t i = head_; i < head.size(); ++i) {
    if (entry_live(head[i])) return head[i].time;
  }
  for (std::size_t b = 1; b < kBuckets; ++b) {
    SimTime min = kNever;
    for (const Entry& e : buckets_[b]) {
      if (e.time < min && entry_live(e)) min = e.time;
    }
    if (min != kNever) return min;
  }
  assert(false && "next_time() on an empty queue");
  return kNever;
}

EventQueue::Fired EventQueue::pop() {
  Fired fired;
  [[maybe_unused]] const bool found = pop_until(kNever, fired);
  assert(found);
  return fired;
}

bool EventQueue::pop_until(SimTime end, Fired& out) {
  if (!settle_head(end)) return false;
  const Entry e = buckets_[0][head_++];
  out.time = e.time;
  out.id = make_id(e.gen, e.slot);
  out.fn = std::move(fns_[e.slot]);
  vacate(e.slot);
  return true;
}

}  // namespace rasc::sim
