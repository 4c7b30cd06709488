#include "runtime/lease_granter.hpp"

#include <algorithm>

#include "runtime/lease_messages.hpp"
#include "util/logging.hpp"

namespace rasc::runtime {

namespace {
/// Slack for float-order differences between the coordinator's view-side
/// accounting and the node's per-message debit sequence: sums over the
/// same plan may differ in the last bits depending on arrival order.
constexpr double kDebitSlackKbps = 1e-6;
/// Grant this multiple of the reported demand so wire overhead and
/// placement granularity fit inside the share.
constexpr double kDemandMargin = 2.0;
}  // namespace

LeaseGranter::LeaseGranter(sim::Simulator& simulator, sim::Network& network,
                           sim::NodeIndex node,
                           const monitor::NodeMonitor& monitor,
                           Params params, obs::MetricRegistry* registry)
    : simulator_(simulator),
      network_(network),
      node_(node),
      monitor_(monitor),
      params_(params),
      owned_registry_(registry ? nullptr
                               : std::make_unique<obs::MetricRegistry>()) {
  obs::MetricRegistry* r = registry ? registry : owned_registry_.get();
  registry_ = r;
  obs::Labels labels;
  labels.node = node_;
  granted_ = &r->counter("lease.granted", labels);
  expired_count_ = &r->counter("lease.expired", labels);
  debits_ = &r->counter("lease.debits", labels);
  nacks_ = &r->counter("lease.nacks", labels);
  nacks_epoch_ = &r->counter("lease.nacks_epoch", labels);
  nacks_overdraw_ = &r->counter("lease.nacks_overdraw", labels);
  overgrant_gauge_ = &r->gauge("lease.overgrant_kbps", labels);
  network_.on<LeaseRequestMsg>(
      node_, this,
      [](LeaseGranter& self, const LeaseRequestMsg& req, const sim::Packet&) {
        self.grant(req.shard, req.requester, req.request_id,
                   req.demand_kbps, req.takeover_epoch);
      });
}

LeaseGranter::~LeaseGranter() {
  network_.remove_handlers(node_, this);
  for (auto& [shard, g] : grants_) {
    (void)shard;
    if (g.expiry != 0) simulator_.cancel(g.expiry);
  }
}

void LeaseGranter::pool_kbps(double& in_kbps, double& out_kbps) const {
  // Headroom applies to the (static) capacity; usage and reservations are
  // subtracted at full weight. This makes the no-double-booking invariant
  // exact: share + promised_others + reserved <= headroom * capacity at
  // every grant, and debits/releases only move quantity between the
  // "promised" and "reserved" sides of that sum.
  const monitor::NodeStats s = monitor_.snapshot();
  const double used_in =
      std::max(s.used_in_kbps, monitor_.reserved_in_kbps());
  const double used_out =
      std::max(s.used_out_kbps, monitor_.reserved_out_kbps());
  in_kbps = std::max(0.0, kHeadroom * s.capacity_in_kbps - used_in);
  out_kbps = std::max(0.0, kHeadroom * s.capacity_out_kbps - used_out);
}

double LeaseGranter::target_share(std::int32_t shard, double pool,
                                  double demand) const {
  const int shards = std::max(1, params_.shards);
  // Legacy path (no hint): static equal split.
  if (demand < 0) return pool / double(shards);
  // Idle shards shrink to a floor instead of zero so a burst after a
  // quiet window still finds capacity without waiting a renewal period.
  const double floor = pool / double(2 * shards);
  if (demand == 0) return floor;
  // Active-fair share: the pool divided among the shards that reported
  // demand recently (unknown hints count as active). A lone busy shard
  // can claim almost the whole pool; under full contention this reduces
  // to the static pool/K split.
  int active = 0;
  for (const auto& [s, h] : hints_) {
    if (s == shard) continue;
    if (h != 0) ++active;
  }
  const double fair = pool / double(std::clamp(active + 1, 1, shards));
  // A busy shard never drops below the static equal split (the reported
  // aggregate rate under-states per-node placement concentration, so the
  // hint must only ever *add* capacity); the margin leaves room for wire
  // overhead on top of the reported source rate when claiming surplus.
  return std::clamp(kDemandMargin * demand, pool / double(shards), fair);
}

void LeaseGranter::grant(std::int32_t shard, sim::NodeIndex requester,
                         std::uint64_t request_id, double demand_kbps,
                         std::uint64_t takeover_epoch) {
  // Fencing (shard re-homing): once a standby has requested under a
  // higher takeover epoch, requests from the replaced holder are refused
  // outright and answered with a revoke of the *current* term, so a
  // zombie primary zeroes its view instead of composing against capacity
  // it no longer owns.
  const auto fit = grants_.find(shard);
  if (fit != grants_.end() && takeover_epoch < fit->second.fence) {
    count_fenced();
    RASC_LOG(kDebug) << "node " << node_ << ": fenced lease request for "
                     << "shard " << shard << " from " << requester
                     << " (takeover epoch " << takeover_epoch << " < "
                     << fit->second.fence << ")";
    auto revoke = std::make_shared<LeaseRevokeMsg>();
    revoke->shard = shard;
    revoke->node = node_;
    revoke->lease_epoch = fit->second.epoch;
    network_.send(node_, requester, LeaseRevokeMsg::kBytes,
                  std::move(revoke));
    return;
  }

  double pool_in = 0, pool_out = 0;
  pool_kbps(pool_in, pool_out);

  // Free pool: whatever is not already promised to *other* shards. The
  // requesting shard's old grant is replaced, so it does not count.
  double promised_in = 0, promised_out = 0;
  for (const auto& [s, g] : grants_) {
    if (s == shard || g.expired) continue;
    promised_in += g.in_kbps;
    promised_out += g.out_kbps;
  }
  // Demand-aware rebalanced share, capped by what is actually free — the
  // cap is what keeps the sum of live grants inside the pool whatever the
  // hints claim (stale holders shrink at their own next renewal).
  hints_[shard] = demand_kbps;
  const double share_in =
      std::min(target_share(shard, pool_in, demand_kbps),
               std::max(0.0, pool_in - promised_in));
  const double share_out =
      std::min(target_share(shard, pool_out, demand_kbps),
               std::max(0.0, pool_out - promised_out));

  Grant& g = grants_[shard];
  if (g.expiry != 0) simulator_.cancel(g.expiry);
  // Deploys composed against the term being replaced may still be in
  // flight; they spend the *new* remainder (see debit), so honoring the
  // previous epoch of a live grant cannot over-book anything.
  g.prev_epoch = g.expired ? 0 : g.epoch;
  const bool fence_bumped = takeover_epoch > g.fence;
  if (fence_bumped) {
    // A takeover replaces the holder wholesale: the fenced-out
    // coordinator's in-flight deploys must NACK, so the previous term
    // loses its usual honor window.
    g.fence = takeover_epoch;
    g.prev_epoch = 0;
  }
  g.in_kbps = share_in;
  g.out_kbps = share_out;
  g.epoch = ++epoch_counter_;
  if (fence_bumped) g.fence_floor_epoch = g.epoch;
  g.expires_at = simulator_.now() + params_.lease_duration;
  g.holder = requester;
  g.expired = false;
  const std::uint64_t epoch = g.epoch;
  g.expiry = simulator_.call_after(params_.lease_duration,
                                   [this, shard, epoch] {
                                     expire(shard, epoch);
                                   });
  granted_->add();

  // No-double-booking invariant: what the leases already turned into
  // reservations plus every live grant's unspent remainder never exceeds
  // the headroomed capacity — i.e. even if every shard spent its whole
  // grant, the node would not be over-reserved. Tracked as a high-water
  // gauge so the bench and the contention tests can assert zero
  // double-reserved bandwidth. (Static capacity baseline: unlike the free
  // pool, it does not fluctuate with traffic, so a violation here is
  // always a genuine over-promise.)
  double total_in = lease_reserved_in_, total_out = lease_reserved_out_;
  for (const auto& [s, live] : grants_) {
    (void)s;
    if (live.expired) continue;
    total_in += live.in_kbps;
    total_out += live.out_kbps;
  }
  const monitor::NodeStats caps = monitor_.snapshot();
  const double over = std::max(total_in - kHeadroom * caps.capacity_in_kbps,
                               total_out - kHeadroom * caps.capacity_out_kbps);
  if (over > overgrant_high_water_ + kDebitSlackKbps) {
    overgrant_high_water_ = over;
    overgrant_gauge_->set(overgrant_high_water_);
  }

  auto reply = std::make_shared<LeaseGrantMsg>();
  reply->shard = shard;
  reply->node = node_;
  reply->request_id = request_id;
  reply->lease_epoch = g.epoch;
  reply->in_kbps = g.in_kbps;
  reply->out_kbps = g.out_kbps;
  reply->expires_at = g.expires_at;
  reply->stats = monitor_.snapshot();
  network_.send(node_, requester, LeaseGrantMsg::kBytes, std::move(reply));
}

void LeaseGranter::expire(std::int32_t shard, std::uint64_t epoch) {
  const auto it = grants_.find(shard);
  if (it == grants_.end() || it->second.epoch != epoch) return;
  Grant& g = it->second;
  g.expired = true;
  g.in_kbps = 0;
  g.out_kbps = 0;
  g.expiry = 0;
  // A shard that stopped renewing is gone (crashed or re-homed): its
  // demand no longer counts against the active-fair split.
  hints_.erase(shard);
  expired_count_->add();
  RASC_LOG(kDebug) << "node " << node_ << ": lease of shard " << shard
                   << " (epoch " << epoch << ") expired";
  auto revoke = std::make_shared<LeaseRevokeMsg>();
  revoke->shard = shard;
  revoke->node = node_;
  revoke->lease_epoch = epoch;
  network_.send(node_, g.holder, LeaseRevokeMsg::kBytes, std::move(revoke));
}

void LeaseGranter::pool_remaining_kbps(double& in_kbps,
                                       double& out_kbps) const {
  pool_kbps(in_kbps, out_kbps);
  for (const auto& [s, g] : grants_) {
    (void)s;
    if (g.expired) continue;
    in_kbps -= g.in_kbps;
    out_kbps -= g.out_kbps;
  }
  in_kbps = std::max(0.0, in_kbps);
  out_kbps = std::max(0.0, out_kbps);
}

bool LeaseGranter::debit(std::int32_t shard, std::uint64_t lease_epoch,
                         AppId app, double in_kbps, double out_kbps) {
  if (shard == kPoolShard) {
    // Leaseless pool debit: checked against the live pool at arrival
    // order. No ledger entry — the reservation the runtime registers
    // right after this debit *is* the durable accounting, so release
    // flows back through the monitor at teardown.
    (void)lease_epoch;
    double pool_in = 0, pool_out = 0;
    pool_remaining_kbps(pool_in, pool_out);
    if (in_kbps > pool_in + kDebitSlackKbps ||
        out_kbps > pool_out + kDebitSlackKbps) {
      nacks_->add();
      nacks_overdraw_->add();
      return false;
    }
    debits_->add();
    return true;
  }
  const auto it = grants_.find(shard);
  const bool current_term =
      it != grants_.end() && !it->second.expired &&
      (it->second.epoch == lease_epoch ||
       (it->second.prev_epoch != 0 && it->second.prev_epoch == lease_epoch));
  if (!current_term) {
    nacks_->add();
    nacks_epoch_->add();
    // Debits stamped with a lease epoch older than the current fence
    // term were composed by a fenced-out coordinator — count them so
    // takeover tests can assert the zombie's deploy plane went dark.
    if (it != grants_.end() && it->second.fence > 0 &&
        lease_epoch < it->second.fence_floor_epoch) {
      count_fenced();
    }
    return false;
  }
  if (in_kbps > it->second.in_kbps + kDebitSlackKbps ||
      out_kbps > it->second.out_kbps + kDebitSlackKbps) {
    nacks_->add();
    nacks_overdraw_->add();
    return false;
  }
  Grant& g = it->second;
  g.in_kbps = std::max(0.0, g.in_kbps - in_kbps);
  g.out_kbps = std::max(0.0, g.out_kbps - out_kbps);
  lease_reserved_in_ += in_kbps;
  lease_reserved_out_ += out_kbps;
  AppDebit& d = ledger_[app];
  d.shard = shard;
  d.epoch = lease_epoch;
  d.in_kbps += in_kbps;
  d.out_kbps += out_kbps;
  debits_->add();
  return true;
}

void LeaseGranter::release_app(AppId app) {
  const auto it = ledger_.find(app);
  if (it == ledger_.end()) return;
  const AppDebit d = it->second;
  ledger_.erase(it);
  // The runtime is releasing the app's reservations right now, whatever
  // lease term they were debited under.
  lease_reserved_in_ = std::max(0.0, lease_reserved_in_ - d.in_kbps);
  lease_reserved_out_ = std::max(0.0, lease_reserved_out_ - d.out_kbps);
  const auto g = grants_.find(d.shard);
  // Live terms only (current or the one it replaced): funds from an
  // expired or older term come back through the monitor instead (the
  // teardown just released the reservations, so the next renewal's pool
  // grows by exactly this amount).
  if (g == grants_.end() || g->second.expired ||
      (g->second.epoch != d.epoch && g->second.prev_epoch != d.epoch)) {
    return;
  }
  g->second.in_kbps += d.in_kbps;
  g->second.out_kbps += d.out_kbps;
}

double LeaseGranter::remaining_in_kbps(std::int32_t shard) const {
  const auto it = grants_.find(shard);
  return it == grants_.end() ? 0 : it->second.in_kbps;
}

double LeaseGranter::remaining_out_kbps(std::int32_t shard) const {
  const auto it = grants_.find(shard);
  return it == grants_.end() ? 0 : it->second.out_kbps;
}

std::uint64_t LeaseGranter::epoch(std::int32_t shard) const {
  const auto it = grants_.find(shard);
  return it == grants_.end() ? 0 : it->second.epoch;
}

bool LeaseGranter::holder_suspect(std::int32_t shard) const {
  const auto it = grants_.find(shard);
  return it != grants_.end() && it->second.expired;
}

sim::NodeIndex LeaseGranter::holder_of(std::int32_t shard) const {
  const auto it = grants_.find(shard);
  if (it == grants_.end() || it->second.expired) return sim::kInvalidNode;
  return it->second.holder;
}

void LeaseGranter::count_fenced() {
  if (fenced_ == nullptr) {
    obs::Labels labels;
    labels.node = node_;
    fenced_ = &registry_->counter("shard.fenced_msgs", labels);
  }
  fenced_->add();
}

std::vector<std::tuple<AppId, double, double>> LeaseGranter::ledger_for_shard(
    std::int32_t shard) const {
  std::vector<std::tuple<AppId, double, double>> out;
  for (const auto& [app, d] : ledger_) {
    if (d.shard == shard) out.emplace_back(app, d.in_kbps, d.out_kbps);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace rasc::runtime
