// Quickstart: build a small RASC deployment, submit one stream-processing
// request, and inspect the composed execution graph and delivery quality.
//
//   ./build/examples/quickstart [--nodes 16] [--rate 120] [--algorithm mincost]
#include <cstdio>

#include "core/greedy_composer.hpp"
#include "core/mincost_composer.hpp"
#include "core/random_composer.hpp"
#include "exp/runner.hpp"
#include "exp/world.hpp"
#include "util/flags.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace rasc;
  util::Flags flags(argc, argv);
  const auto nodes = std::size_t(flags.get_int("nodes", 16));
  const double rate = flags.get_double("rate", 120);
  const std::string algorithm = flags.get_string("algorithm", "mincost");
  flags.finish();

  // 1. Build the world: topology, Pastry overlay, per-node monitors,
  //    runtimes and coordinators; services registered in the DHT.
  exp::WorldConfig wc;
  wc.nodes = nodes;
  wc.seed = 7;
  exp::World world(wc);
  std::printf("world ready: %zu nodes, %d services, sim time %.1f ms\n",
              world.size(), wc.num_services,
              sim::to_ms(world.simulator().now()));

  // 2. Describe the application: two substreams like the paper's example
  //    request graph (Figure 2): s1 -> s2 on one, s3 on the other.
  core::ServiceRequest request;
  request.app = 1;
  request.source = 0;
  request.destination = sim::NodeIndex(world.size() - 1);
  request.unit_bytes = 1250;
  request.substreams = {
      core::Substream{{"svc1", "svc2"}, rate},
      core::Substream{{"svc3"}, rate},
  };

  // 3. Submit through the source node's coordinator. Discovery, stats
  //    gathering, composition and deployment all happen as simulated
  //    message exchanges.
  auto& simulator = world.simulator();
  core::MinCostComposer mincost;
  core::GreedyComposer greedy;
  core::RandomComposer random_composer(simulator.rng().split(1));
  core::Composer* composer = &mincost;
  if (algorithm == "greedy") composer = &greedy;
  if (algorithm == "random") composer = &random_composer;

  const sim::SimTime stop = simulator.now() + sim::sec(30);
  bool finished = false;
  world.host(0).coordinator().submit(
      request, *composer, /*stream_start=*/0, stop,
      [&](const core::SubmitOutcome& outcome) {
        finished = true;
        if (!outcome.compose.admitted) {
          std::printf("request rejected: %s\n",
                      outcome.compose.error.c_str());
          return;
        }
        std::printf("composed in %.1f ms using %s:\n",
                    sim::to_ms(outcome.composition_latency),
                    composer->name());
        const auto& plan = outcome.compose.plan;
        for (std::size_t ss = 0; ss < plan.substreams.size(); ++ss) {
          const auto& sub = plan.substreams[ss];
          std::printf("  substream %zu (%.1f units/s delivered):\n", ss,
                      sub.rate_units_per_sec);
          for (const auto& stage : sub.stages) {
            std::printf("    %s ->", stage.service.c_str());
            for (const auto& p : stage.placements) {
              std::printf(" [node %d @ %.1f u/s]", p.node,
                          p.rate_units_per_sec);
            }
            std::printf("\n");
          }
        }
      });

  // 4. Run the stream and report delivery quality at the destination.
  simulator.run_until(stop + sim::sec(2));
  if (!finished) {
    std::printf("composition never completed\n");
    return 1;
  }
  const auto& dest_runtime = world.host(world.size() - 1).runtime();
  const auto sink = dest_runtime.aggregate_sink_stats();
  const auto emitted = world.host(0).runtime().total_emitted();
  std::printf(
      "\nemitted %lld units, delivered %lld (%.1f%%), timely %.1f%%, "
      "mean delay %.1f ms, mean jitter %.2f ms, out-of-order %lld\n",
      (long long)emitted, (long long)sink.delivered,
      emitted ? 100.0 * double(sink.delivered) / double(emitted) : 0.0,
      sink.delivered ? 100.0 * double(sink.timely) / double(sink.delivered)
                     : 0.0,
      sink.delay_ms.mean(), sink.jitter_ms.mean(),
      (long long)sink.out_of_order);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return rasc::util::run_main(argc, argv, run);
}
