#include "chaos/injector.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "util/logging.hpp"

namespace rasc::chaos {

namespace {

/// Does this fault kind, at onset, disturb the running system enough to
/// start the SLO recovery clock? (Everything except an explicit restore.)
bool disruptive(FaultKind kind) { return kind != FaultKind::kRestore; }

/// Does this kind have a meaningful clear action after `duration`?
bool clearable(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash:
    case FaultKind::kBandwidth:
    case FaultKind::kLatency:
    case FaultKind::kLoss:
    case FaultKind::kMonitorBlackout:
    case FaultKind::kControlDelay:
    case FaultKind::kControlDuplicate:
    case FaultKind::kControlLoss:
      return true;
    case FaultKind::kRestore:
      return false;
  }
  return false;
}

/// kControlLoss drops only the deployment plane (deploy/ack/teardown).
/// Stats queries have a hard phase timeout and no retry, so full
/// control-plane loss would reject requests before deployment even
/// starts — the scenario isolates the protocol under test instead.
bool deploy_plane(const sim::Message& payload) {
  const std::string_view kind = payload.kind();
  return kind.substr(0, 15) == "runtime.deploy_" ||
         kind == "runtime.teardown_app";
}

}  // namespace

Injector::Injector(sim::Simulator& simulator, sim::Network& network,
                   Scenario scenario, Hooks hooks,
                   obs::MetricRegistry* registry)
    : simulator_(simulator),
      network_(network),
      scenario_(std::move(scenario)),
      hooks_(std::move(hooks)),
      registry_(registry),
      packet_rng_(0) {
  if (registry_ != nullptr) {
    faults_applied_ = &registry_->counter("chaos.faults_applied");
    crashes_ = &registry_->counter("chaos.crashes");
    restores_ = &registry_->counter("chaos.restores");
  }
}

Injector::~Injector() {
  for (const auto id : scheduled_) simulator_.cancel(id);
  if (delay_windows_ > 0 || dup_windows_ > 0 || loss_windows_ > 0) {
    network_.set_send_interceptor(nullptr);
  }
}

std::vector<sim::NodeIndex> Injector::pick_targets(
    const Fault& fault, util::Xoshiro256& rng) const {
  const std::size_t n = network_.size();
  std::vector<sim::NodeIndex> targets;
  const int count = std::max(1, fault.count);
  switch (fault.target.kind) {
    case TargetKind::kExplicit: {
      if (fault.target.node < 0 || std::size_t(fault.target.node) >= n) {
        throw std::invalid_argument("chaos: explicit target node " +
                                    std::to_string(fault.target.node) +
                                    " outside topology");
      }
      targets.push_back(fault.target.node);
      break;
    }
    case TargetKind::kRandom: {
      // Distinct picks; counts beyond the topology are clamped.
      std::vector<sim::NodeIndex> all(n);
      for (std::size_t i = 0; i < n; ++i) all[i] = sim::NodeIndex(i);
      rng.shuffle(all);
      for (int k = 0; k < count && std::size_t(k) < n; ++k) {
        targets.push_back(all[std::size_t(k)]);
      }
      break;
    }
    case TargetKind::kLowestBw: {
      const auto order = sim::nodes_by_ascending_bandwidth(
          network_.topology());
      for (int k = 0; k < count; ++k) {
        const std::size_t rank = std::size_t(fault.target.rank + k);
        if (rank >= order.size()) break;
        targets.push_back(sim::NodeIndex(order[rank]));
      }
      break;
    }
  }
  return targets;
}

void Injector::arm(sim::SimTime start, sim::SimTime end) {
  if (armed_) throw std::logic_error("chaos::Injector::arm called twice");
  armed_ = true;

  // Expansion RNG: a pure function of the scenario seed. Target draws
  // happen here, in fault-list order, never during the run.
  util::Xoshiro256 rng(scenario_.seed ^ 0x63AA05C1D3E7F219ull);

  for (const Fault& fault : scenario_.faults) {
    const int reps = fault.period > 0 ? std::max(1, fault.repeats) : 1;
    for (int rep = 0; rep < reps; ++rep) {
      const sim::SimTime onset =
          start + fault.at + sim::SimDuration(rep) * fault.period;
      // Targets are re-drawn per repetition: churn hits a different
      // victim each round.
      const auto targets = pick_targets(fault, rng);
      if (onset >= end) continue;
      for (const auto node : targets) {
        TimelineEntry entry;
        entry.at = onset;
        entry.kind = fault.kind;
        entry.onset = true;
        entry.node = node;
        entry.magnitude = fault.magnitude;
        entry.probability = fault.probability;
        timeline_.push_back(entry);
        if (fault.duration > 0 && clearable(fault.kind) &&
            onset + fault.duration < end) {
          TimelineEntry clear = entry;
          clear.at = onset + fault.duration;
          clear.onset = false;
          timeline_.push_back(clear);
        }
      }
    }
  }

  // Firing order: by time, stable within a timestamp (insertion order is
  // the scenario's fault order — deterministic).
  std::stable_sort(timeline_.begin(), timeline_.end(),
                   [](const TimelineEntry& a, const TimelineEntry& b) {
                     return a.at < b.at;
                   });

  // Per-packet draws are a child stream so adding/removing timeline
  // entries never changes what a control-jitter window does to packets.
  packet_rng_ = rng.split(0x7061636b /* "pack" */);

  scheduled_.reserve(timeline_.size());
  for (std::size_t i = 0; i < timeline_.size(); ++i) {
    scheduled_.push_back(
        simulator_.call_at(timeline_[i].at, [this, i] { apply(i); }));
  }
}

void Injector::update_interceptor() {
  if (delay_windows_ <= 0 && dup_windows_ <= 0 && loss_windows_ <= 0) {
    network_.set_send_interceptor(nullptr);
    return;
  }
  network_.set_send_interceptor(
      [this](sim::NodeIndex, sim::NodeIndex, const sim::Message* payload)
          -> sim::Network::SendPerturbation {
        sim::Network::SendPerturbation p;
        // Data units carry a unit id; everything else is control plane.
        if (payload != nullptr && payload->unit_id().has_value()) return p;
        // Loss draws first: a dropped packet consumes no delay/dup draws,
        // so a loss window composes with jitter without reshuffling the
        // jitter stream for surviving packets of loss-free runs.
        if (loss_windows_ > 0 && ctrl_loss_prob_ > 0 && payload != nullptr &&
            deploy_plane(*payload) &&
            packet_rng_.bernoulli(ctrl_loss_prob_)) {
          p.drop = true;
          return p;
        }
        if (delay_windows_ > 0 && delay_prob_ > 0 &&
            packet_rng_.bernoulli(delay_prob_)) {
          p.extra_delay = sim::from_seconds(delay_ms_ / 1000.0);
        }
        if (dup_windows_ > 0 && dup_prob_ > 0 &&
            packet_rng_.bernoulli(dup_prob_)) {
          p.duplicates = 1;
        }
        return p;
      });
}

void Injector::apply(std::size_t index) {
  const TimelineEntry& e = timeline_[index];
  ++applied_;
  if (faults_applied_ != nullptr) faults_applied_->add();
  if (e.onset && disruptive(e.kind) && first_fault_at_ < 0) {
    first_fault_at_ = simulator_.now();
    if (hooks_.on_first_fault) hooks_.on_first_fault(first_fault_at_);
  }

  switch (e.kind) {
    case FaultKind::kCrash:
      if (e.onset) {
        if (network_.node_up(e.node)) {
          RASC_LOG(kInfo) << "chaos: crash node " << e.node;
          network_.fail_node(e.node);
          if (crashes_ != nullptr) crashes_->add();
          if (hooks_.on_crash) hooks_.on_crash(e.node);
        }
      } else if (!network_.node_up(e.node)) {
        RASC_LOG(kInfo) << "chaos: restart node " << e.node;
        network_.restore_node(e.node);
        if (restores_ != nullptr) restores_->add();
        if (hooks_.on_restore) hooks_.on_restore(e.node);
      }
      break;
    case FaultKind::kRestore:
      if (!network_.node_up(e.node)) {
        network_.restore_node(e.node);
        if (restores_ != nullptr) restores_->add();
        if (hooks_.on_restore) hooks_.on_restore(e.node);
      }
      break;
    case FaultKind::kBandwidth:
      network_.set_bandwidth_scale(e.node, e.onset ? e.magnitude : 1.0);
      break;
    case FaultKind::kLatency:
      network_.set_extra_latency(
          e.node, e.onset ? sim::from_seconds(e.magnitude / 1000.0) : 0);
      break;
    case FaultKind::kLoss:
      network_.set_injected_loss(e.node, e.onset ? e.magnitude : 0.0);
      break;
    case FaultKind::kMonitorBlackout:
      if (hooks_.set_monitor_blackout) {
        hooks_.set_monitor_blackout(e.node, e.onset);
      }
      break;
    case FaultKind::kControlDelay:
      delay_windows_ += e.onset ? 1 : -1;
      if (e.onset) {
        delay_ms_ = e.magnitude;
        delay_prob_ = e.probability;
      }
      update_interceptor();
      break;
    case FaultKind::kControlDuplicate:
      dup_windows_ += e.onset ? 1 : -1;
      if (e.onset) dup_prob_ = e.probability;
      update_interceptor();
      break;
    case FaultKind::kControlLoss:
      loss_windows_ += e.onset ? 1 : -1;
      if (e.onset) ctrl_loss_prob_ = e.probability;
      update_interceptor();
      break;
  }
}

void Injector::write_timeline_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("chaos: cannot write timeline: " + path);
  }
  out << "at_us,kind,phase,node,magnitude,probability\n";
  for (const auto& e : timeline_) {
    out << e.at << "," << to_string(e.kind) << ","
        << (e.onset ? "onset" : "clear") << "," << e.node << ","
        << e.magnitude << "," << e.probability << "\n";
  }
}

std::string Injector::timeline_json() const {
  std::ostringstream os;
  os << "{\"scenario\":\"" << scenario_.name
     << "\",\"seed\":" << scenario_.seed << ",\"entries\":[";
  for (std::size_t i = 0; i < timeline_.size(); ++i) {
    const auto& e = timeline_[i];
    if (i) os << ",";
    os << "{\"at_us\":" << e.at << ",\"kind\":\"" << to_string(e.kind)
       << "\",\"phase\":\"" << (e.onset ? "onset" : "clear")
       << "\",\"node\":" << e.node << ",\"magnitude\":" << e.magnitude
       << ",\"probability\":" << e.probability << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace rasc::chaos
