// Deployment reliability under a lossy control plane: what fraction of
// requests is admitted, and how much bandwidth reservation leaks on the
// nodes, as deploy/teardown packets are independently dropped with
// probability p? Compares the legacy single-shot deploy protocol against
// the reliable one (retransmission + rollback + orphan reaper).
//
//   ./build/bench/deploy_reliability [--rel-reps 3] [--loss-probs=0,.1,.2,.3]
//       [--rel-nodes 16] [--rel-requests 10] [--csv out.csv]
//
// Leak metric: after every stream ended, rollbacks landed and the orphan
// lease lapsed, the bandwidth still reserved for every NON-admitted app
// is summed across all nodes (bytes/s). Single-shot deployments strand
// partial reservations whenever one deploy message (or its ack) is lost;
// the reliable protocol must show zero. Determinism: each
// (config, p, rep) cell is a pure function of its seeds.
#include <cstdint>
#include <cstdio>
#include <memory>
#include <sstream>
#include <vector>

#include "chaos/injector.hpp"
#include "chaos/scenario.hpp"
#include "core/mincost_composer.hpp"
#include "exp/table.hpp"
#include "exp/world.hpp"
#include "util/flags.hpp"
#include "util/thread_pool.hpp"

namespace {

struct TrialResult {
  int requests = 0;
  int admitted = 0;
  double leaked_bytes_per_sec = 0;  // non-admitted apps, end of run
  std::int64_t retries = 0;
  std::int64_t rollbacks = 0;
  std::int64_t orphans_reaped = 0;
};

TrialResult run_trial(bool reliable, double loss_prob, int requests,
                      std::size_t nodes, std::uint64_t world_seed,
                      std::uint64_t chaos_seed) {
  using namespace rasc;

  exp::WorldConfig wc;
  wc.nodes = nodes;
  wc.num_services = 6;
  wc.services_per_node = 3;
  wc.seed = world_seed;
  // Generous links: admission is protocol-bound, not capacity-bound, so
  // every composition succeeds and only deploy losses reject requests.
  wc.net.bw_min_kbps = 4000;
  wc.net.bw_max_kbps = 8000;
  if (reliable) {
    wc.deploy_policy.retransmit_budget = 3;
    wc.deploy_policy.rollback = true;
    wc.runtime_params.orphan_lease = sim::sec(4);
  }
  exp::World world(wc);
  auto& sim = world.simulator();

  std::unique_ptr<chaos::Injector> injector;
  if (loss_prob > 0) {
    std::ostringstream spec;
    spec << "control-loss:prob=" << loss_prob << ",seed=" << chaos_seed;
    injector = std::make_unique<chaos::Injector>(
        sim, world.network(), chaos::parse_scenario(spec.str()));
    injector->arm(sim.now(), sim.now() + sim::sec(60));
  }

  core::MinCostComposer composer;
  std::vector<int> verdict(std::size_t(requests), -1);  // -1 = pending
  for (int i = 0; i < requests; ++i) {
    core::ServiceRequest req;
    req.app = i + 1;
    req.source = sim::NodeIndex(std::size_t(i) % nodes);
    req.destination = sim::NodeIndex((std::size_t(i) + nodes / 2) % nodes);
    req.unit_bytes = 1250;
    std::ostringstream a, b;
    a << "svc" << (i % 4);
    b << "svc" << ((i + 1) % 4);
    req.substreams = {{{a.str(), b.str()}, 80.0}};
    const auto submit_at = sim.now() + sim::SimDuration(i) * sim::msec(400);
    auto& coord = world.host(std::size_t(req.source)).coordinator();
    sim.call_at(submit_at, [&coord, &composer, &sim, req, &verdict, i] {
      coord.submit(req, composer, sim.now() + sim::sec(1),
                   sim.now() + sim::sec(6),
                   [&verdict, i](const core::SubmitOutcome& o) {
                     verdict[std::size_t(i)] = o.compose.admitted ? 1 : 0;
                   });
    });
  }

  // Streams end by ~+11s, the 5s deploy deadline and rollbacks by ~+10s,
  // and a 4s orphan lease lapses well before +30s.
  sim.run_until(sim.now() + sim::sec(30));

  TrialResult r;
  r.requests = requests;
  for (int i = 0; i < requests; ++i) {
    if (verdict[std::size_t(i)] == 1) {
      ++r.admitted;
      continue;
    }
    // Rejected (or never-resolved) app: anything still reserved for it
    // anywhere is a leak. 1 kbps = 125 bytes/s.
    for (std::size_t n = 0; n < world.size(); ++n) {
      r.leaked_bytes_per_sec +=
          world.host(n).runtime().reserved_kbps_for_app(i + 1) * 125.0;
    }
  }
  r.retries = world.metrics().counter_total("deploy.retries");
  r.rollbacks = world.metrics().counter_total("deploy.rollbacks");
  r.orphans_reaped = world.metrics().counter_total("orphan.reaped");
  return r;
}

int run(int argc, char** argv) {
  using namespace rasc;
  util::Flags flags(argc, argv);
  const int reps = int(flags.get_int("rel-reps", 3));
  const int requests = int(flags.get_int("rel-requests", 10));
  const std::size_t nodes = std::size_t(flags.get_int("rel-nodes", 16));
  const auto probs = flags.get_double_list("loss-probs", {0, 0.1, 0.2, 0.3});
  const std::uint64_t base_seed = std::uint64_t(flags.get_int("seed", 42));
  const std::size_t threads = std::size_t(flags.get_int("threads", 0));
  const std::string csv_path = flags.get_string("csv", "");
  flags.finish();

  exp::SeriesTable table;
  table.title = "Deployment reliability vs control-plane loss "
                "(single-shot vs retransmit+rollback+reaper)";
  table.row_header = "metric";
  table.col_header = "deploy-plane loss probability";
  for (double p : probs) {
    std::ostringstream os;
    os << p;
    table.col_labels.push_back(os.str());
  }

  // config 0 = single-shot, config 1 = reliable; all trials independent.
  std::vector<std::vector<TrialResult>> results(
      2 * probs.size(), std::vector<TrialResult>(std::size_t(reps)));
  util::ThreadPool pool(threads);
  pool.parallel_for(results.size() * std::size_t(reps), [&](std::size_t i) {
    const std::size_t cell = i / std::size_t(reps);
    const std::size_t rep = i % std::size_t(reps);
    const bool reliable = cell >= probs.size();
    const double p = probs[cell % probs.size()];
    results[cell][rep] =
        run_trial(reliable, p, requests, nodes,
                  base_seed + rep * 7919, base_seed + rep * 104729);
  });

  const auto mean = [&](std::size_t cell, auto&& get) {
    double sum = 0;
    for (const auto& r : results[cell]) sum += double(get(r));
    return sum / double(results[cell].size());
  };
  std::vector<double> adm_ss, adm_rel, leak_ss, leak_rel, retries, rollbacks,
      reaped;
  for (std::size_t p = 0; p < probs.size(); ++p) {
    const std::size_t ss = p, rel = probs.size() + p;
    adm_ss.push_back(mean(ss, [](const TrialResult& r) {
      return double(r.admitted) / double(r.requests);
    }));
    adm_rel.push_back(mean(rel, [](const TrialResult& r) {
      return double(r.admitted) / double(r.requests);
    }));
    leak_ss.push_back(
        mean(ss, [](const TrialResult& r) { return r.leaked_bytes_per_sec; }));
    leak_rel.push_back(mean(
        rel, [](const TrialResult& r) { return r.leaked_bytes_per_sec; }));
    retries.push_back(
        mean(rel, [](const TrialResult& r) { return double(r.retries); }));
    rollbacks.push_back(
        mean(rel, [](const TrialResult& r) { return double(r.rollbacks); }));
    reaped.push_back(mean(
        rel, [](const TrialResult& r) { return double(r.orphans_reaped); }));
  }
  table.row_labels = {
      "admitted fraction (single-shot)", "admitted fraction (reliable)",
      "leaked reservation B/s (single-shot)",
      "leaked reservation B/s (reliable)", "retries (reliable, mean)",
      "rollbacks (reliable, mean)",       "orphans reaped (reliable, mean)"};
  table.values = {adm_ss, adm_rel, leak_ss, leak_rel,
                  retries, rollbacks, reaped};
  table.precision = 3;
  exp::print_table(table);
  std::printf(
      "\nexpectation: single-shot admission decays with p and strands "
      "reserved bandwidth on partially-deployed nodes; the reliable "
      "protocol holds admission near 1 until p is severe and leaks "
      "exactly zero bytes (rollback releases NACK/timeout remnants, the "
      "lease reaper collects anything a lost teardown left behind).\n");
  if (!csv_path.empty()) {
    exp::write_csv(table, csv_path);
    std::printf("csv written to %s\n", csv_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return rasc::util::run_main(argc, argv, run);
}
