// Deterministic fault-injection engine.
//
// An Injector turns a declarative chaos::Scenario into concrete faults
// applied to one simulated deployment. The contract that makes chaos runs
// regression-testable:
//
//  1. Pre-expansion. arm() expands the scenario into a concrete timeline
//     (every repetition unrolled, every random target drawn) *before*
//     anything runs, using an RNG seeded only by Scenario::seed and the
//     topology. The same (scenario, seed) pair therefore produces the
//     same timeline in every run — the system under test cannot perturb
//     target choice, and the timeline can be exported and diffed.
//  2. Event-queue scheduling. Each timeline entry is an ordinary
//     sim::EventQueue event, so faults interleave with workload traffic
//     in a reproducible total order.
//  3. Isolation. The injector never touches the simulator's root RNG and
//     installs only the Network chaos hooks, which are exact no-ops while
//     unused — constructing no Injector leaves a run byte-identical to a
//     build without this subsystem.
//
// Per-packet randomness for the control-plane faults (delay/duplicate)
// comes from a child of the scenario RNG split *after* expansion, so the
// timeline and the packet perturbations are independent streams.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "chaos/scenario.hpp"
#include "obs/metric_registry.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace rasc::chaos {

/// Deployment-side reactions the injector cannot perform through the
/// Network alone. All optional.
struct Hooks {
  /// Applied right after a node is failed — e.g. purge the peer from
  /// every overlay routing table (the failure detector's role).
  std::function<void(sim::NodeIndex)> on_crash;
  /// Applied right after a node is restored.
  std::function<void(sim::NodeIndex)> on_restore;
  /// Freeze (true) / thaw (false) a node's resource monitor so its stats
  /// replies go stale without stopping.
  std::function<void(sim::NodeIndex, bool)> set_monitor_blackout;
  /// First disruptive fault onset (starts the SLO recovery clock).
  std::function<void(sim::SimTime)> on_first_fault;
};

class Injector {
 public:
  /// One planned (and, once fired, applied) action.
  struct TimelineEntry {
    sim::SimTime at = 0;  // absolute simulated time
    FaultKind kind = FaultKind::kCrash;
    bool onset = true;  // false = the matching clear/restore
    sim::NodeIndex node = sim::kInvalidNode;
    double magnitude = 0;
    double probability = 1.0;
  };

  /// `registry` receives chaos.* accounting (null: none kept beyond the
  /// timeline itself).
  Injector(sim::Simulator& simulator, sim::Network& network,
           Scenario scenario, Hooks hooks = {},
           obs::MetricRegistry* registry = nullptr);
  ~Injector();

  Injector(const Injector&) = delete;
  Injector& operator=(const Injector&) = delete;

  /// Expands the scenario over [start, end) and schedules every entry.
  /// Call exactly once. Entries whose onset falls at or past `end` are
  /// dropped; a clear that would land past `end` is dropped too (the run
  /// is over by then).
  void arm(sim::SimTime start, sim::SimTime end);

  const Scenario& scenario() const { return scenario_; }
  /// The full planned timeline, in firing order (valid after arm()).
  const std::vector<TimelineEntry>& timeline() const { return timeline_; }
  /// Entries actually applied so far.
  std::size_t applied() const { return applied_; }
  /// Onset time of the first applied disruptive fault; -1 if none yet.
  sim::SimTime first_fault_at() const { return first_fault_at_; }

  /// Timeline exports (deterministic ordering and formatting).
  void write_timeline_csv(const std::string& path) const;
  std::string timeline_json() const;

 private:
  void apply(std::size_t index);
  std::vector<sim::NodeIndex> pick_targets(const Fault& fault,
                                           util::Xoshiro256& rng) const;
  void update_interceptor();

  sim::Simulator& simulator_;
  sim::Network& network_;
  Scenario scenario_;
  Hooks hooks_;
  obs::MetricRegistry* registry_;

  std::vector<TimelineEntry> timeline_;
  std::vector<sim::EventId> scheduled_;
  std::size_t applied_ = 0;
  sim::SimTime first_fault_at_ = -1;
  bool armed_ = false;

  // Control-plane perturbation state (counts of active windows so
  // overlapping faults compose; the interceptor is installed only while
  // at least one window is active).
  int delay_windows_ = 0;
  int dup_windows_ = 0;
  int loss_windows_ = 0;
  double delay_ms_ = 0;
  double delay_prob_ = 0;
  double dup_prob_ = 0;
  double ctrl_loss_prob_ = 0;
  util::Xoshiro256 packet_rng_;

  obs::Counter* faults_applied_ = nullptr;
  obs::Counter* crashes_ = nullptr;
  obs::Counter* restores_ = nullptr;
};

}  // namespace rasc::chaos
