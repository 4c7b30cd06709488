// Per-node resource monitor (paper §3.2).
//
// Tracks, over sliding windows: input/output bandwidth actually used
// (sampled from the network's byte counters on a fixed period), the
// fraction of data units dropped, and per-component service-time and
// arrival-rate statistics fed in by the stream runtime.
//
// Each sample tick also publishes the window means to monitor.* gauges
// in the attached obs::MetricRegistry (a private one when none is
// attached), so registry snapshots show what the stats protocol would
// currently advertise.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "monitor/node_stats.hpp"
#include "monitor/rate_meter.hpp"
#include "monitor/window.hpp"
#include "obs/metric_registry.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace rasc::monitor {

class NodeMonitor {
 public:
  /// Bandwidth sampling period.
  static constexpr sim::SimDuration kSamplePeriod = sim::msec(100);
  /// Number of bandwidth samples averaged. Queue drains upstream make
  /// arrivals clumpy; a ~3 s window keeps one burst from spuriously
  /// zeroing a node's reported availability.
  static constexpr std::size_t kBandwidthWindow = 30;

  struct Params {
    /// Number of unit outcomes in the drop-ratio window (the paper's h).
    std::size_t outcome_window = 200;
    /// When true, snapshots advertise bandwidth reservations so admission
    /// becomes reservation-aware. The paper's system is purely
    /// measurement-driven (availability = capacity - observed usage), so
    /// this defaults to off; the admission ablation flips it.
    bool advertise_reservations = false;
  };

  /// Starts periodic bandwidth sampling immediately. `registry` is the
  /// deployment-wide metric registry (null: a private one is owned).
  NodeMonitor(sim::Simulator& simulator, sim::Network& network,
              sim::NodeIndex node, Params params,
              obs::MetricRegistry* registry = nullptr);
  NodeMonitor(sim::Simulator& simulator, sim::Network& network,
              sim::NodeIndex node);
  ~NodeMonitor();

  NodeMonitor(const NodeMonitor&) = delete;
  NodeMonitor& operator=(const NodeMonitor&) = delete;

  // --- Runtime feedback hooks ---

  /// A data unit finished processing successfully at this node.
  void on_unit_processed();
  /// A data unit was dropped (deadline miss or queue overflow).
  void on_unit_dropped();
  /// Scheduler reports its current ready-queue length (piggybacked on
  /// processing events).
  void on_queue_length(std::int64_t length) { queue_length_ = length; }

  /// Bandwidth committed to an admitted stream at deployment time; may be
  /// negative to release a reservation at teardown.
  void add_reservation(double in_kbps, double out_kbps) {
    reserved_in_kbps_ += in_kbps;
    reserved_out_kbps_ += out_kbps;
    if (reserved_in_kbps_ < 0) reserved_in_kbps_ = 0;
    if (reserved_out_kbps_ < 0) reserved_out_kbps_ = 0;
  }

  /// CPU busy time contributed by a completed unit (multi-resource
  /// monitoring; the paper's general model has k rate-based resources).
  void on_cpu_busy(sim::SimDuration busy) { cpu_busy_accum_ += busy; }

  /// CPU fraction committed to admitted streams (rate x t_ci), possibly
  /// negative to release.
  void add_cpu_reservation(double fraction) {
    reserved_cpu_fraction_ += fraction;
    if (reserved_cpu_fraction_ < 0) reserved_cpu_fraction_ = 0;
  }

  /// Live reservation totals (independent of advertise_reservations —
  /// the node-local lease granter is always reservation-aware even when
  /// remote snapshots are purely measurement-driven).
  double reserved_in_kbps() const { return reserved_in_kbps_; }
  double reserved_out_kbps() const { return reserved_out_kbps_; }

  /// Chaos hook: while blacked out, sample ticks keep their cadence but
  /// neither update windows nor publish gauges, so the stats protocol
  /// keeps advertising the last pre-blackout snapshot (stale reports).
  void set_blackout(bool on);
  bool blackout() const { return blackout_; }

  /// Current snapshot for the stats protocol / oracle composition.
  NodeStats snapshot() const;

  double drop_ratio() const { return outcomes_.ratio(); }

 private:
  void sample_bandwidth();

  sim::Simulator& simulator_;
  sim::Network& network_;
  sim::NodeIndex node_;
  Params params_;

  SlidingWindow in_kbps_window_;
  SlidingWindow out_kbps_window_;
  SlidingWindow cpu_window_;
  std::int64_t last_bytes_in_ = 0;
  std::int64_t last_bytes_out_ = 0;
  sim::SimDuration cpu_busy_accum_ = 0;

  OutcomeWindow outcomes_;
  std::int64_t queue_length_ = 0;
  double reserved_in_kbps_ = 0;
  double reserved_out_kbps_ = 0;
  double reserved_cpu_fraction_ = 0;

  std::unique_ptr<obs::MetricRegistry> owned_registry_;
  obs::MetricRegistry* registry_;
  obs::Gauge* in_kbps_gauge_;
  obs::Gauge* out_kbps_gauge_;
  obs::Gauge* cpu_fraction_gauge_;
  obs::Gauge* drop_ratio_gauge_;
  obs::Gauge* queue_length_gauge_;

  sim::EventId sample_event_ = 0;
  bool stopped_ = false;
  bool blackout_ = false;
};

}  // namespace rasc::monitor
