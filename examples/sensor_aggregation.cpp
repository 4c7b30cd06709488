// Sensor network monitoring: the paper's other motivating domain (§1 —
// "sensor streaming in which sensor data are processed and analyzed in
// real-time"). Many low-rate streams compete for the same overlay:
//
//   calibrate -> aggregate (10:1 reduction) -> threshold-filter
//
// demonstrating how the system accommodates a fleet of small requests and
// how rate-reducing services cut downstream bandwidth demand.
//
//   ./build/examples/sensor_aggregation [--sensors 20] [--rate 40]
#include <cstdio>

#include "core/mincost_composer.hpp"
#include "exp/world.hpp"
#include "util/flags.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace rasc;
  util::Flags flags(argc, argv);
  const int sensors = int(flags.get_int("sensors", 20));
  const double rate = flags.get_double("rate", 40);
  flags.finish();

  exp::WorldConfig wc;
  wc.nodes = 16;
  wc.services_per_node = 2;
  wc.seed = 5;
  wc.net.bw_min_kbps = 500;
  wc.net.bw_max_kbps = 2000;
  wc.custom_services = {
      {"calibrate", sim::msec(1), 1.0, 1.0},
      // 10 readings merge into one summary unit of the same size.
      {"aggregate", sim::msec(2), 0.1, 1.0},
      {"threshold", sim::msec(1), 1.0, 0.25},
  };
  exp::World world(wc);
  auto& simulator = world.simulator();
  core::MinCostComposer composer;

  const sim::NodeIndex control_room = sim::NodeIndex(world.size() - 1);
  const sim::SimTime stop = simulator.now() + sim::sec(40);
  int admitted = 0, rejected = 0;

  for (int s = 0; s < sensors; ++s) {
    core::ServiceRequest req;
    req.app = s + 1;
    req.source = sim::NodeIndex(s % (world.size() - 1));  // field gateways
    req.destination = control_room;
    req.unit_bytes = 250;  // a batch of readings
    // Delivery requirement: rate/10 after aggregation (in Kbps of the
    // quarter-size summary units).
    req.substreams = {
        {{"calibrate", "aggregate", "threshold"}, rate / 40},
    };
    world.host(std::size_t(req.source))
        .coordinator()
        .submit(req, composer, 0, stop,
                [&admitted, &rejected](const core::SubmitOutcome& o) {
                  o.compose.admitted ? ++admitted : ++rejected;
                });
    simulator.run_until(simulator.now() + sim::msec(300));
  }
  simulator.run_until(stop + sim::sec(2));

  std::printf("sensors admitted: %d, rejected: %d\n", admitted, rejected);

  // Control-room view: everything lands on one destination node.
  const auto sink = world.host(std::size_t(control_room))
                        .runtime()
                        .aggregate_sink_stats();
  std::int64_t emitted = 0;
  for (std::size_t n = 0; n < world.size(); ++n) {
    emitted += world.host(n).runtime().total_emitted();
  }
  std::printf(
      "field units emitted: %lld; summaries delivered: %lld "
      "(aggregation ratio ~%.1f:1), mean delay %.0f ms, timely %.1f%%\n",
      (long long)emitted, (long long)sink.delivered,
      sink.delivered ? double(emitted) / double(sink.delivered) : 0.0,
      sink.delay_ms.mean(),
      sink.delivered ? 100.0 * double(sink.timely) / double(sink.delivered)
                     : 0.0);

  // The aggregate service's bandwidth economics: input vs output rate.
  std::printf(
      "note: each admitted stream enters 'aggregate' at 10x the rate it "
      "leaves — the composer sized upstream instances accordingly "
      "(normalized min-cost flow, DESIGN.md).\n");
  return admitted > 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return rasc::util::run_main(argc, argv, run);
}
