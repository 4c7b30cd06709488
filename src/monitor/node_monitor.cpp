#include "monitor/node_monitor.hpp"

namespace rasc::monitor {

NodeMonitor::NodeMonitor(sim::Simulator& simulator, sim::Network& network,
                         sim::NodeIndex node)
    : NodeMonitor(simulator, network, node, Params()) {}

NodeMonitor::NodeMonitor(sim::Simulator& simulator, sim::Network& network,
                         sim::NodeIndex node, Params params,
                         obs::MetricRegistry* registry)
    : simulator_(simulator),
      network_(network),
      node_(node),
      params_(params),
      in_kbps_window_(kBandwidthWindow),
      out_kbps_window_(kBandwidthWindow),
      cpu_window_(kBandwidthWindow),
      outcomes_(params.outcome_window),
      owned_registry_(registry ? nullptr
                               : std::make_unique<obs::MetricRegistry>()),
      registry_(registry ? registry : owned_registry_.get()) {
  obs::Labels labels;
  labels.node = node_;
  in_kbps_gauge_ = &registry_->gauge("monitor.in_kbps", labels);
  out_kbps_gauge_ = &registry_->gauge("monitor.out_kbps", labels);
  cpu_fraction_gauge_ = &registry_->gauge("monitor.cpu_fraction", labels);
  drop_ratio_gauge_ = &registry_->gauge("monitor.drop_ratio", labels);
  queue_length_gauge_ = &registry_->gauge("monitor.queue_length", labels);
  last_bytes_in_ = network_.bytes_received(node_);
  last_bytes_out_ = network_.bytes_sent(node_);
  sample_event_ =
      simulator_.call_after(kSamplePeriod, [this] { sample_bandwidth(); });
}

NodeMonitor::~NodeMonitor() {
  stopped_ = true;
  simulator_.cancel(sample_event_);
}

void NodeMonitor::set_blackout(bool on) {
  if (on == blackout_) return;
  blackout_ = on;
  if (!on) {
    // Re-base the byte counters: the traffic that flowed during the
    // blackout must not be misread as one giant burst on the first
    // post-blackout sample.
    last_bytes_in_ = network_.bytes_received(node_);
    last_bytes_out_ = network_.bytes_sent(node_);
    cpu_busy_accum_ = 0;
  }
}

void NodeMonitor::sample_bandwidth() {
  if (stopped_) return;
  if (blackout_) {
    sample_event_ =
        simulator_.call_after(kSamplePeriod, [this] { sample_bandwidth(); });
    return;
  }
  const std::int64_t in_now = network_.bytes_received(node_);
  const std::int64_t out_now = network_.bytes_sent(node_);
  const double secs = sim::to_seconds(kSamplePeriod);
  // bytes -> kilobits: *8/1000.
  in_kbps_window_.add(double(in_now - last_bytes_in_) * 8.0 / 1000.0 / secs);
  out_kbps_window_.add(double(out_now - last_bytes_out_) * 8.0 / 1000.0 /
                       secs);
  cpu_window_.add(sim::to_seconds(cpu_busy_accum_) / secs);
  cpu_busy_accum_ = 0;
  last_bytes_in_ = in_now;
  last_bytes_out_ = out_now;
  in_kbps_gauge_->set(in_kbps_window_.mean());
  out_kbps_gauge_->set(out_kbps_window_.mean());
  cpu_fraction_gauge_->set(cpu_window_.mean());
  drop_ratio_gauge_->set(outcomes_.ratio());
  queue_length_gauge_->set(double(queue_length_));
  sample_event_ =
      simulator_.call_after(kSamplePeriod, [this] { sample_bandwidth(); });
}

void NodeMonitor::on_unit_processed() { outcomes_.record(false); }

void NodeMonitor::on_unit_dropped() { outcomes_.record(true); }

NodeStats NodeMonitor::snapshot() const {
  NodeStats s;
  s.node = node_;
  // Effective capacity, not nominal: a degraded access link (chaos
  // bandwidth fault) must show in the snapshot, or every stats-driven
  // consumer — composition costs, adapter re-solves, latency prediction —
  // plans against bandwidth that does not exist and only finds out
  // through drops.
  const auto& cap = network_.topology().nodes[std::size_t(node_)];
  const double scale = network_.bandwidth_scale(node_);
  s.capacity_in_kbps = cap.bw_in_kbps * scale;
  s.capacity_out_kbps = cap.bw_out_kbps * scale;
  s.used_in_kbps = in_kbps_window_.mean();
  s.used_out_kbps = out_kbps_window_.mean();
  s.cpu_used_fraction = cpu_window_.mean();
  s.drop_ratio = outcomes_.ratio();
  s.drop_samples = std::int64_t(outcomes_.count());
  if (params_.advertise_reservations) {
    s.reserved_in_kbps = reserved_in_kbps_;
    s.reserved_out_kbps = reserved_out_kbps_;
    s.cpu_reserved_fraction = reserved_cpu_fraction_;
  }
  s.ready_queue_length = queue_length_;
  s.taken_at = simulator_.now();
  return s;
}

}  // namespace rasc::monitor
