// Failure recovery: a node hosting a component crashes mid-stream. Part 1
// performs the recovery manually (teardown messages + re-submission) to
// show the mechanics; part 2 lets the AppSupervisor detect the starving
// stream and re-compose automatically.
//
//   ./build/examples/failure_recovery [--rate 150]
#include <cstdio>

#include "core/mincost_composer.hpp"
#include "core/supervisor.hpp"
#include "exp/world.hpp"
#include "runtime/deploy_messages.hpp"
#include "util/flags.hpp"

using namespace rasc;

namespace {

/// Submits `req` and reports the admitted plan through `done`.
void submit(exp::World& world, core::Composer& composer,
            const core::ServiceRequest& req, sim::SimTime stop,
            std::function<void(const core::SubmitOutcome&)> done) {
  world.host(std::size_t(req.source))
      .coordinator()
      .submit(req, composer, 0, stop, std::move(done));
}

int run(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const double rate = flags.get_double("rate", 150);
  flags.finish();

  exp::WorldConfig wc;
  wc.nodes = 16;
  wc.services_per_node = 4;
  wc.seed = 17;
  wc.net.bw_min_kbps = 1500;
  wc.net.bw_max_kbps = 4000;
  exp::World world(wc);
  auto& simulator = world.simulator();
  auto& network = world.network();
  core::MinCostComposer composer;

  core::ServiceRequest req;
  req.app = 1;
  req.source = 0;
  req.destination = sim::NodeIndex(world.size() - 1);
  req.unit_bytes = 1250;
  req.substreams = {{{"svc0", "svc1", "svc2"}, rate}};

  const sim::SimTime stop = simulator.now() + sim::sec(60);
  runtime::AppPlan plan;
  bool admitted = false;
  submit(world, composer, req, stop, [&](const core::SubmitOutcome& o) {
    admitted = o.compose.admitted;
    if (admitted) plan = o.compose.plan;
  });
  simulator.run_until(simulator.now() + sim::sec(10));
  if (!admitted) {
    std::printf("initial composition failed\n");
    return 1;
  }

  // Pick a victim: the node hosting the first component of the chain.
  const sim::NodeIndex victim = plan.substreams[0].stages[0].placements[0].node;
  const auto* sink_before =
      world.host(std::size_t(req.destination)).runtime().find_sink(1, 0);
  const auto delivered_before = sink_before->stats().delivered;
  std::printf("stream up: %lld units delivered in 10 s; killing node %d "
              "(hosts stage 0)\n",
              (long long)delivered_before, victim);
  network.fail_node(victim);

  // Let the outage bite: deliveries stall.
  simulator.run_until(simulator.now() + sim::sec(5));
  const auto delivered_stalled = sink_before->stats().delivered;
  std::printf("after 5 s of outage: %lld more units arrived (stream is "
              "starving)\n",
              (long long)(delivered_stalled - delivered_before));

  // Recovery: purge the dead peer from every node's overlay state (the
  // failure detector's role), tear the app down everywhere, re-compose
  // under a new app id from fresh statistics.
  for (std::size_t n = 0; n < world.size(); ++n) {
    if (sim::NodeIndex(n) == victim) continue;
    world.overlay().at(n).purge_peer(victim);
    auto td = std::make_shared<runtime::TeardownAppMsg>();
    td->app = 1;
    network.send(req.source, sim::NodeIndex(n),
                 runtime::TeardownAppMsg::kBytes, td);
  }
  simulator.run_until(simulator.now() + sim::sec(1));

  core::ServiceRequest retry = req;
  retry.app = 2;
  bool recovered = false;
  runtime::AppPlan new_plan;
  submit(world, composer, retry, stop, [&](const core::SubmitOutcome& o) {
    recovered = o.compose.admitted;
    if (recovered) new_plan = o.compose.plan;
    if (!recovered) {
      std::printf("re-composition failed: %s\n", o.compose.error.c_str());
    }
  });
  simulator.run_until(simulator.now() + sim::sec(10));
  if (!recovered) return 1;

  bool avoids_victim = true;
  for (const auto& sub : new_plan.substreams) {
    for (const auto& stage : sub.stages) {
      for (const auto& p : stage.placements) {
        if (p.node == victim) avoids_victim = false;
      }
    }
  }
  const auto* sink_after =
      world.host(std::size_t(req.destination)).runtime().find_sink(2, 0);
  std::printf(
      "re-composed as app 2 (%s the failed node); %lld units delivered "
      "in the 10 s after recovery, mean delay %.0f ms\n",
      avoids_victim ? "avoiding" : "STILL USING",
      sink_after ? (long long)sink_after->stats().delivered : 0,
      sink_after ? sink_after->stats().delay_ms.mean() : 0.0);

  // ---- Part 2: automatic recovery via the AppSupervisor ----
  // Bring the first victim back first: restore_node resurrects the node
  // with empty port queues (a rebooted box, not a paused one).
  network.restore_node(victim);
  std::printf("\nnode %d restored (failures so far: %lld, restores: %lld)\n",
              victim, (long long)network.node_failures(victim),
              (long long)network.node_restores(victim));
  std::printf("part 2: supervised stream, automatic recovery\n");
  core::ServiceRequest req3 = req;
  req3.app = 3;
  bool admitted3 = false;
  runtime::AppPlan plan3;
  submit(world, composer, req3, stop, [&](const core::SubmitOutcome& o) {
    admitted3 = o.compose.admitted;
    if (admitted3) plan3 = o.compose.plan;
  });
  simulator.run_until(simulator.now() + sim::sec(8));
  if (!admitted3) {
    std::printf("supervised submission failed\n");
    return 1;
  }
  auto& supervisor = world.host(0).supervisor();
  supervisor.watch(req3, plan3, stop,
                   [](const core::AppSupervisor::Event& e) {
                     using K = core::AppSupervisor::Event::Kind;
                     switch (e.kind) {
                       case K::kRecovering:
                         std::printf("  supervisor: app %lld starving, "
                                     "recomposing...\n",
                                     (long long)e.old_app);
                         break;
                       case K::kRecovered:
                         std::printf("  supervisor: recovered as app "
                                     "%lld\n",
                                     (long long)e.new_app);
                         break;
                       default:
                         std::printf("  supervisor: recovery problem\n");
                     }
                   });
  const auto victim3 = plan3.substreams[0].stages[0].placements[0].node;
  std::printf("  killing node %d (hosts app 3 stage 0)\n", victim3);
  network.fail_node(victim3);
  for (std::size_t n = 0; n < world.size(); ++n) {
    if (sim::NodeIndex(n) != victim3) {
      world.overlay().at(n).purge_peer(victim3);
    }
  }
  simulator.run_until(simulator.now() + sim::sec(25));
  const auto dest_total = world.host(std::size_t(req.destination))
                              .runtime()
                              .aggregate_sink_stats();
  std::printf("  destination has now seen %lld units across all apps\n",
              (long long)dest_total.delivered);
  return (recovered && avoids_victim) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return rasc::util::run_main(argc, argv, run);
}
