#include "core/supervisor.hpp"

#include <algorithm>
#include <set>

#include "core/backoff.hpp"
#include "core/rate_adapter.hpp"
#include "runtime/deploy_messages.hpp"
#include "util/logging.hpp"

namespace rasc::core {

AppSupervisor::AppSupervisor(sim::Simulator& simulator,
                             sim::Network& network, Coordinator& coordinator,
                             Composer& composer,
                             obs::MetricRegistry* registry)
    : simulator_(simulator),
      network_(network),
      coordinator_(coordinator),
      composer_(composer),
      node_(coordinator.node()),
      owned_metrics_(registry ? nullptr
                              : std::make_unique<obs::MetricRegistry>()),
      metrics_(registry ? registry : owned_metrics_.get()),
      // Deterministic per (kJitterSeed, node); independent of the
      // simulation's root RNG so supervised and unsupervised runs stay
      // event-for-event comparable.
      backoff_rng_(kJitterSeed ^
                   (std::uint64_t(coordinator.node()) *
                    0xD1B54A32D192ED03ull)) {
  obs::Labels labels;
  labels.node = node_;
  probes_sent_ = &metrics_->counter("supervisor.probes_sent", labels);
  probe_timeouts_ = &metrics_->counter("supervisor.probe_timeouts", labels);
  strikes_ = &metrics_->counter("supervisor.strikes", labels);
  recoveries_started_ =
      &metrics_->counter("supervisor.recoveries_started", labels);
  recoveries_succeeded_ =
      &metrics_->counter("supervisor.recoveries_succeeded", labels);
  recoveries_failed_ =
      &metrics_->counter("supervisor.recoveries_failed", labels);
  gave_up_ = &metrics_->counter("supervisor.gave_up", labels);
  network_.on<runtime::SinkHealthReply>(
      node_, this,
      [](AppSupervisor& self, const runtime::SinkHealthReply& reply,
         const sim::Packet&) { self.receive(reply); });
}

AppSupervisor::~AppSupervisor() {
  network_.remove_handlers(node_, this);
  for (auto& [app, w] : watched_) {
    (void)app;
    simulator_.cancel(w->timer);
    simulator_.cancel(w->probe_timeout_event);
  }
  for (auto& [app, event] : pending_retries_) {
    (void)app;
    simulator_.cancel(event);
  }
}

void AppSupervisor::watch(const ServiceRequest& request,
                          const runtime::AppPlan& plan,
                          sim::SimTime stream_stop, EventCallback events) {
  auto w = std::make_unique<Watched>();
  w->request = request;
  w->plan = plan;
  w->stream_stop = stream_stop;
  w->events = std::move(events);
  for (const auto& sub : plan.substreams) {
    w->expected_ups += sub.rate_units_per_sec;
  }
  const auto app = plan.app;
  watched_[app] = std::move(w);
  schedule_check(app);
}

void AppSupervisor::forget(runtime::AppId app) {
  if (const auto retry = pending_retries_.find(app);
      retry != pending_retries_.end()) {
    simulator_.cancel(retry->second);
    pending_retries_.erase(retry);
  }
  const auto it = watched_.find(app);
  if (it == watched_.end()) return;
  simulator_.cancel(it->second->timer);
  simulator_.cancel(it->second->probe_timeout_event);
  watched_.erase(it);
}

void AppSupervisor::schedule_check(runtime::AppId app) {
  const auto it = watched_.find(app);
  if (it == watched_.end()) return;
  if (simulator_.now() + kCheckInterval >= it->second->stream_stop) {
    // The stream is about to end naturally; stop supervising.
    watched_.erase(it);
    return;
  }
  it->second->timer = simulator_.call_after(kCheckInterval,
                                            [this, app] { run_check(app); });
}

void AppSupervisor::run_check(runtime::AppId app) {
  const auto it = watched_.find(app);
  if (it == watched_.end()) return;
  Watched& w = *it->second;

  const std::uint64_t rid = ++probe_counter_;
  probes_sent_->add();
  w.pending_probe = rid;
  probe_routing_[rid] = app;
  auto probe = std::make_shared<runtime::SinkHealthRequest>();
  probe->app = app;
  probe->request_id = rid;
  probe->requester = node_;
  network_.send(node_, w.plan.destination,
                runtime::SinkHealthRequest::kBytes, std::move(probe));

  w.probe_timeout_event =
      simulator_.call_after(kProbeTimeout, [this, app, rid] {
        const auto wit = watched_.find(app);
        if (wit == watched_.end() || wit->second->pending_probe != rid) {
          return;
        }
        probe_routing_.erase(rid);
        wit->second->pending_probe = 0;
        probe_timeouts_->add();
        // An unreachable destination is at least as bad as starvation.
        strike(app);
      });
}

void AppSupervisor::receive(const runtime::SinkHealthReply& reply) {
  const auto route = probe_routing_.find(reply.request_id);
  if (route == probe_routing_.end()) return;  // stale
  const auto app = route->second;
  probe_routing_.erase(route);
  const auto it = watched_.find(app);
  if (it == watched_.end()) return;
  Watched& w = *it->second;
  if (w.pending_probe != reply.request_id) return;
  simulator_.cancel(w.probe_timeout_event);
  w.pending_probe = 0;
  on_probe_result(app, reply.delivered);
}

void AppSupervisor::on_probe_result(runtime::AppId app,
                                    std::int64_t delivered) {
  const auto it = watched_.find(app);
  if (it == watched_.end()) return;
  Watched& w = *it->second;
  if (delivered < 0) {
    // No sink at the destination (teardown raced us): treat as starved.
    strike(app);
    return;
  }
  const double expected_units =
      w.expected_ups * sim::to_seconds(kCheckInterval);
  const auto progress = double(delivered - w.last_delivered);
  w.last_delivered = delivered;
  if (progress < kMinProgressFraction * expected_units) {
    strike(app);
    return;
  }
  w.strikes = 0;
  w.adapt_tried = false;
  schedule_check(app);
}

void AppSupervisor::strike(runtime::AppId app) {
  const auto it = watched_.find(app);
  if (it == watched_.end()) return;
  Watched& w = *it->second;
  strikes_->add();
  if (++w.strikes < kStrikesToRecover) {
    schedule_check(app);
    return;
  }
  // First-line response: one in-place rate re-allocation attempt before
  // the teardown hammer. A shipped delta earns the app a fresh round of
  // probes; anything else escalates immediately.
  if (adapter_ != nullptr && !w.adapt_tried) {
    w.adapt_tried = true;
    RASC_LOG(kInfo) << "supervisor: app " << app
                    << " starving; trying delta re-allocation";
    adapter_->attempt_now(app, [this, app](bool shipped) {
      const auto wit = watched_.find(app);
      if (wit == watched_.end()) return;
      if (shipped) {
        wit->second->strikes = 0;
        schedule_check(app);
        return;
      }
      recover(app);
    });
    return;
  }
  recover(app);
}

void AppSupervisor::teardown_everywhere(const Watched& w,
                                        runtime::AppId app) {
  std::set<sim::NodeIndex> nodes{w.plan.source, w.plan.destination};
  for (const auto& sub : w.plan.substreams) {
    for (const auto& stage : sub.stages) {
      for (const auto& p : stage.placements) nodes.insert(p.node);
    }
  }
  for (const auto n : nodes) {
    auto td = std::make_shared<runtime::TeardownAppMsg>();
    td->app = app;
    // epoch stays 0: recovery teardown applies unconditionally — it must
    // clear the app regardless of which deployment attempt placed it.
    network_.send(node_, n, runtime::TeardownAppMsg::kBytes, std::move(td));
  }
}

sim::SimDuration AppSupervisor::backoff_delay(int failed_attempts) {
  // Capped exponential: base * 2^k for the k-th retry after a failure.
  double delay = sim::to_seconds(
      capped_backoff(kRecoveryBackoff, kRecoveryBackoffMax, failed_attempts));
  delay *= 1.0 - kRecoveryJitter +
           2.0 * kRecoveryJitter * backoff_rng_.uniform01();
  return sim::from_seconds(delay);
}

void AppSupervisor::recover(runtime::AppId app) {
  const auto it = watched_.find(app);
  if (it == watched_.end()) return;
  // Move the record out: the watch for the old id ends here.
  auto w = std::move(it->second);
  watched_.erase(it);

  if (w->recoveries >= kMaxRecoveries) {
    gave_up_->add();
    if (w->events) {
      w->events(Event{Event::Kind::kGaveUp, app, 0});
    }
    return;
  }

  RASC_LOG(kInfo) << "supervisor: app " << app
                  << " starving; tearing down and re-composing";
  if (adapter_ != nullptr) {
    if (adapter_->current_plan(app) != nullptr) adapter_->note_teardown();
    adapter_->forget(app);
  }
  teardown_everywhere(*w, app);
  if (w->events) {
    w->events(Event{Event::Kind::kRecovering, app, 0});
  }

  auto state = std::make_shared<RecoveryState>();
  state->request = w->request;
  state->stream_stop = w->stream_stop;
  state->events = w->events;
  state->original_app = app;
  state->attempts_done = w->recoveries;

  // Un-jittered settle delay so teardowns land before fresh stats are
  // gathered; jitter only kicks in for retries after a failure.
  schedule_recompose(std::move(state), kRecoveryBackoff);
}

void AppSupervisor::schedule_recompose(std::shared_ptr<RecoveryState> state,
                                       sim::SimDuration delay) {
  const auto original = state->original_app;
  pending_retries_[original] =
      simulator_.call_after(delay, [this, state = std::move(state)] {
        pending_retries_.erase(state->original_app);
        if (simulator_.now() >= state->stream_stop) {
          // The stream would already be over; nothing left to recover.
          return;
        }
        ServiceRequest retry = state->request;
        retry.app = next_recovered_app_++;
        recoveries_started_->add();
        coordinator_.submit(
            retry, composer_, /*stream_start=*/0, state->stream_stop,
            [this, state, retry](const SubmitOutcome& outcome) {
              if (!outcome.compose.admitted) {
                recoveries_failed_->add();
                ++state->attempts_done;
                if (state->events) {
                  state->events(Event{Event::Kind::kRecoveryFailed,
                                      state->original_app, retry.app});
                }
                if (state->attempts_done >= kMaxRecoveries) {
                  gave_up_->add();
                  if (state->events) {
                    state->events(
                        Event{Event::Kind::kGaveUp, state->original_app, 0});
                  }
                  return;
                }
                schedule_recompose(state,
                                   backoff_delay(state->attempts_done));
                return;
              }
              recoveries_succeeded_->add();
              if (state->events) {
                state->events(Event{Event::Kind::kRecovered,
                                    state->original_app, retry.app});
              }
              // Keep watching under the new identity; the whole episode
              // counts as one more recovery against the budget. watch()
              // may decline (stream about to end), so look the entry up
              // rather than assuming it stuck.
              watch(retry, outcome.compose.plan, state->stream_stop,
                    state->events);
              if (const auto w = watched_.find(retry.app);
                  w != watched_.end()) {
                w->second->recoveries = state->attempts_done + 1;
              }
              if (adapter_ != nullptr) {
                adapter_->track(retry, outcome.compose.plan,
                                outcome.providers, state->stream_stop);
              }
            });
      });
}

}  // namespace rasc::core
