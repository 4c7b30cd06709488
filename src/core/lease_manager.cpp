#include "core/lease_manager.hpp"

#include <algorithm>

#include "core/composer.hpp"
#include "core/mincost_composer.hpp"
#include "runtime/lease_messages.hpp"

namespace rasc::core {

LeaseManager::LeaseManager(sim::Simulator& simulator, sim::Network& network,
                           sim::NodeIndex home, std::int32_t shard,
                           std::size_t nodes, Params params)
    : simulator_(simulator),
      network_(network),
      home_(home),
      shard_(shard),
      params_(params),
      views_(nodes) {
  network_.on<runtime::LeaseGrantMsg, runtime::LeaseRevokeMsg>(
      home_, this, [](LeaseManager& self, const auto& m, const sim::Packet&) {
        self.receive(m);
      });
}

LeaseManager::~LeaseManager() { network_.remove_handlers(home_, this); }

void LeaseManager::start(sim::SimTime at) {
  simulator_.call_at(at, [this] { sweep(); });
}

void LeaseManager::sweep() {
  request_all();
  simulator_.call_after(params_.renew_period, [this] { sweep(); });
}

void LeaseManager::renew_now() {
  if (last_renew_ >= 0 && simulator_.now() < last_renew_ + kOffcycleMinGap) {
    return;
  }
  request_all();
}

void LeaseManager::request_all() {
  last_renew_ = simulator_.now();
  // One demand reading serves the whole sweep so every node rebalances
  // against the same number.
  const double demand =
      demand_provider_ ? demand_provider_() : -1.0;
  // Staggered so a large fleet's renewals do not hit the home node's
  // access link as one burst.
  for (std::size_t i = 0; i < views_.size(); ++i) {
    const auto target = sim::NodeIndex(i);
    simulator_.call_after(
        kStagger * std::int64_t(i), [this, target, demand] {
          auto req = std::make_shared<runtime::LeaseRequestMsg>();
          req->shard = shard_;
          req->requester = home_;
          req->request_id = ++request_counter_;
          req->demand_kbps = demand;
          req->takeover_epoch = takeover_epoch_;
          network_.send(home_, target, runtime::LeaseRequestMsg::kBytes,
                        std::move(req));
        });
  }
}

void LeaseManager::receive(const runtime::LeaseGrantMsg& grant) {
  if (grant.shard != shard_) return;
  if (grant.node < 0 || std::size_t(grant.node) >= views_.size()) return;
  View& v = views_[std::size_t(grant.node)];
  // A reordered stale grant (older epoch) must not roll the view back.
  if (grant.lease_epoch <= v.epoch) return;
  // Unresolved deploys spend the node's *new* remainder when they land
  // (previous-term debits are honored there), and the share it just
  // computed could not have counted them — so the fresh grant must
  // carry that pending exposure before the view plans against it.
  v.in_kbps = std::max(0.0, grant.in_kbps - v.pending_in);
  v.out_kbps = std::max(0.0, grant.out_kbps - v.pending_out);
  v.epoch = grant.lease_epoch;
  v.expires_at = grant.expires_at;
  v.has_grant = true;
  v.stats = grant.stats;
}

void LeaseManager::receive(const runtime::LeaseRevokeMsg& revoke) {
  if (revoke.shard != shard_) return;
  if (revoke.node < 0 || std::size_t(revoke.node) >= views_.size()) return;
  View& v = views_[std::size_t(revoke.node)];
  if (revoke.lease_epoch >= v.epoch) {
    v.in_kbps = 0;
    v.out_kbps = 0;
    v.has_grant = false;
  }
}

bool LeaseManager::valid(sim::NodeIndex node) const {
  if (node < 0 || std::size_t(node) >= views_.size()) return false;
  const View& v = views_[std::size_t(node)];
  return v.has_grant && simulator_.now() < v.expires_at;
}

monitor::NodeStats LeaseManager::leased_stats(sim::NodeIndex node) const {
  const View& v = views_[std::size_t(node)];
  monitor::NodeStats s;
  s.node = node;
  // available() * composer-headroom must equal the lease remainder, so
  // the composition stack's own safety margin does not shrink the grant
  // a second time (the granter already applied its margin). The repair
  // tolerance is divided out because the node-side debit is a hard limit:
  // a plan that overfills by the tolerated 2% would compose fine and then
  // NACK at the granter.
  const double slack =
      ResidualTracker::kDefaultHeadroom * SubstreamSolver::kRepairTolerance;
  s.capacity_in_kbps = v.in_kbps / slack;
  s.capacity_out_kbps = v.out_kbps / slack;
  s.used_in_kbps = 0;
  s.used_out_kbps = 0;
  s.reserved_in_kbps = 0;
  s.reserved_out_kbps = 0;
  s.cpu_used_fraction = v.stats.cpu_used_fraction;
  s.cpu_reserved_fraction = v.stats.cpu_reserved_fraction;
  s.drop_ratio = v.stats.drop_ratio;
  s.drop_samples = v.stats.drop_samples;
  s.ready_queue_length = v.stats.ready_queue_length;
  s.taken_at = v.stats.taken_at;
  return s;
}

void LeaseManager::consume(sim::NodeIndex node, double in_kbps,
                           double out_kbps) {
  View& v = views_[std::size_t(node)];
  v.in_kbps = std::max(0.0, v.in_kbps - in_kbps);
  v.out_kbps = std::max(0.0, v.out_kbps - out_kbps);
  v.pending_in += in_kbps;
  v.pending_out += out_kbps;
}

void LeaseManager::settle(sim::NodeIndex node, double in_kbps,
                          double out_kbps) {
  if (node < 0 || std::size_t(node) >= views_.size()) return;
  View& v = views_[std::size_t(node)];
  v.pending_in = std::max(0.0, v.pending_in - in_kbps);
  v.pending_out = std::max(0.0, v.pending_out - out_kbps);
}

void LeaseManager::invalidate(sim::NodeIndex node) {
  if (node < 0 || std::size_t(node) >= views_.size()) return;
  views_[std::size_t(node)].has_grant = false;
}

void LeaseManager::refresh_stats(const monitor::NodeStats& stats) {
  if (stats.node < 0 || std::size_t(stats.node) >= views_.size()) return;
  views_[std::size_t(stats.node)].stats = stats;
}

std::uint64_t LeaseManager::epoch_of(sim::NodeIndex node) const {
  if (node < 0 || std::size_t(node) >= views_.size()) return 0;
  return views_[std::size_t(node)].epoch;
}

double LeaseManager::remaining_in_kbps(sim::NodeIndex node) const {
  if (node < 0 || std::size_t(node) >= views_.size()) return 0;
  return views_[std::size_t(node)].in_kbps;
}

double LeaseManager::remaining_out_kbps(sim::NodeIndex node) const {
  if (node < 0 || std::size_t(node) >= views_.size()) return 0;
  return views_[std::size_t(node)].out_kbps;
}

}  // namespace rasc::core
