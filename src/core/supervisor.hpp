// Application supervisor: the "dynamic" in dynamic rate allocation.
//
// The paper's system "allocates and adjusts the rates of the streams based
// on the available processing capacity of the nodes" (§1). Composition
// reacts to current conditions; the supervisor closes the loop *after*
// admission: it periodically probes the destination's delivery progress
// and, when a stream starves (component host failed, or placements became
// hopelessly congested), tears the application down everywhere and
// re-composes it from fresh statistics — typically landing on different,
// healthier nodes.
#pragma once

#include <functional>
#include <map>
#include <memory>

#include "core/coordinator.hpp"
#include "util/rng.hpp"

namespace rasc::core {

class RateAdapter;

class AppSupervisor {
 public:
  /// Health-probe period.
  static constexpr sim::SimDuration kCheckInterval = sim::sec(2);
  /// A check is a strike when delivery progress since the previous check
  /// is below this fraction of the expected unit count.
  static constexpr double kMinProgressFraction = 0.3;
  /// Consecutive strikes (or probe timeouts) before recovery.
  static constexpr int kStrikesToRecover = 2;
  /// Probe timeout.
  static constexpr sim::SimDuration kProbeTimeout = sim::msec(1500);
  /// Maximum recovery attempts per application. Failed re-compositions
  /// count against the budget too.
  static constexpr int kMaxRecoveries = 3;
  /// Settle delay before the first re-composition (teardowns must land
  /// before fresh stats are gathered); also the base of the exponential
  /// backoff applied to retries after a failed re-composition.
  static constexpr sim::SimDuration kRecoveryBackoff = sim::msec(300);
  /// Cap on the backed-off retry delay.
  static constexpr sim::SimDuration kRecoveryBackoffMax = sim::sec(15);
  /// Retry delays are scaled by uniform(1 +/- jitter) so supervisors on
  /// different nodes do not re-probe a congested deployment in lockstep.
  /// Drawn from a private seeded RNG — deterministic per (kJitterSeed,
  /// node), and never touching the simulation's root stream.
  static constexpr double kRecoveryJitter = 0.2;
  /// "RASC_SUP".
  static constexpr std::uint64_t kJitterSeed = 0x524153435F535550ull;

  /// Events reported to the owner.
  struct Event {
    enum class Kind { kRecovering, kRecovered, kRecoveryFailed, kGaveUp };
    Kind kind;
    runtime::AppId old_app = 0;
    runtime::AppId new_app = 0;
  };
  using EventCallback = std::function<void(const Event&)>;

  /// `registry` is the deployment-wide metric registry (null: a private
  /// one is owned). Probe, strike and recovery outcomes are published
  /// under supervisor.* with this node's label.
  AppSupervisor(sim::Simulator& simulator, sim::Network& network,
                Coordinator& coordinator, Composer& composer,
                obs::MetricRegistry* registry = nullptr);
  ~AppSupervisor();

  AppSupervisor(const AppSupervisor&) = delete;
  AppSupervisor& operator=(const AppSupervisor&) = delete;

  /// Starts supervising an admitted application. `request` is the original
  /// request (re-submitted under a fresh app id on recovery); `plan` the
  /// deployed execution graph (its nodes receive the teardown);
  /// `stream_stop` the time the stream is expected to end (supervision
  /// stops then).
  void watch(const ServiceRequest& request, const runtime::AppPlan& plan,
             sim::SimTime stream_stop, EventCallback events);

  /// Stops supervising (e.g., the owner tore the app down itself).
  void forget(runtime::AppId app);

  /// Wires in the node's rate adapter (may be null to unwire). With an
  /// adapter present, a starving app first gets one in-place delta
  /// re-allocation attempt; teardown-and-recompose only runs when that
  /// attempt cannot improve the plan. Recovered apps are re-tracked with
  /// the adapter under their fresh id.
  void set_adapter(RateAdapter* adapter) { adapter_ = adapter; }

  std::size_t watched_count() const { return watched_.size(); }

 private:
  /// Registered per kind at construction.
  void receive(const runtime::SinkHealthReply& reply);

  struct Watched {
    ServiceRequest request;
    runtime::AppPlan plan;
    sim::SimTime stream_stop = 0;
    EventCallback events;
    double expected_ups = 0;  // total delivered units/sec across substreams
    std::int64_t last_delivered = 0;
    int strikes = 0;
    int recoveries = 0;
    /// Whether the rate adapter already got its first-line shot at the
    /// current starvation episode (reset when a probe looks healthy).
    bool adapt_tried = false;
    sim::EventId timer = 0;
    std::uint64_t pending_probe = 0;  // request id awaiting reply
    sim::EventId probe_timeout_event = 0;
  };

  /// One in-flight recovery episode: the original request being retried
  /// under fresh app ids until composition succeeds or the attempt
  /// budget runs out.
  struct RecoveryState {
    ServiceRequest request;
    sim::SimTime stream_stop = 0;
    EventCallback events;
    runtime::AppId original_app = 0;
    int attempts_done = 0;  // prior recoveries + failed retries so far
  };

  void schedule_check(runtime::AppId app);
  void run_check(runtime::AppId app);
  void on_probe_result(runtime::AppId app, std::int64_t delivered);
  void strike(runtime::AppId app);
  void recover(runtime::AppId app);
  void schedule_recompose(std::shared_ptr<RecoveryState> state,
                          sim::SimDuration delay);
  sim::SimDuration backoff_delay(int failed_attempts);
  void teardown_everywhere(const Watched& w, runtime::AppId app);

  sim::Simulator& simulator_;
  sim::Network& network_;
  Coordinator& coordinator_;
  Composer& composer_;
  sim::NodeIndex node_;
  RateAdapter* adapter_ = nullptr;

  std::unique_ptr<obs::MetricRegistry> owned_metrics_;
  obs::MetricRegistry* metrics_;
  obs::Counter* probes_sent_;
  obs::Counter* probe_timeouts_;
  obs::Counter* strikes_;
  obs::Counter* recoveries_started_;
  obs::Counter* recoveries_succeeded_;
  obs::Counter* recoveries_failed_;
  obs::Counter* gave_up_;

  std::map<runtime::AppId, std::unique_ptr<Watched>> watched_;
  std::map<std::uint64_t, runtime::AppId> probe_routing_;
  /// Pending re-composition timers, keyed by the original app id.
  std::map<runtime::AppId, sim::EventId> pending_retries_;
  std::uint64_t probe_counter_ = 0;
  runtime::AppId next_recovered_app_ = 1'000'000;  // fresh id space
  util::Xoshiro256 backoff_rng_;
};

}  // namespace rasc::core
