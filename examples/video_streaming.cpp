// Video streaming: the paper's motivating scenario (§1 — "in a video
// streaming application, data needs to arrive to the destination at a
// rate high enough for the video to be properly presented and with small
// jitter").
//
// A media provider composes a two-substream application like Figure 2:
//   video: decrypt -> transcode -> watermark   (transcode halves bytes)
//   audio: downmix                             (downmix drops every other
//                                               unit: rate ratio 0.5)
// exercising rate ratios != 1 and output size factors — the general case
// §2.2 sketches via linear programming, which this library reduces to
// plain min-cost flow by normalizing to delivered units (DESIGN.md).
//
//   ./build/examples/video_streaming [--viewers 4] [--rate 400]
#include <cstdio>

#include "core/mincost_composer.hpp"
#include "exp/world.hpp"
#include "util/flags.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace rasc;
  util::Flags flags(argc, argv);
  const int viewers = int(flags.get_int("viewers", 4));
  const double rate = flags.get_double("rate", 400);
  flags.finish();

  exp::WorldConfig wc;
  wc.nodes = 24;
  wc.services_per_node = 3;
  wc.seed = 11;
  wc.net.bw_min_kbps = 1500;
  wc.net.bw_max_kbps = 6000;
  wc.custom_services = {
      // name, cpu per unit, rate ratio, output size factor
      {"decrypt", sim::msec(2), 1.0, 1.0},
      {"transcode", sim::msec(8), 1.0, 0.5},  // re-encode at half bitrate
      {"watermark", sim::msec(3), 1.0, 1.0},
      {"downmix", sim::msec(1), 0.5, 1.0},    // 2 channels -> 1 unit
      {"subtitle", sim::msec(1), 1.0, 1.0},
  };
  exp::World world(wc);
  auto& simulator = world.simulator();
  core::MinCostComposer composer;

  const sim::SimTime stop = simulator.now() + sim::sec(30);
  int admitted = 0;
  for (int v = 0; v < viewers; ++v) {
    core::ServiceRequest req;
    req.app = v + 1;
    req.source = sim::NodeIndex(v % 4);  // a few content servers
    req.destination = sim::NodeIndex(world.size() - 1 - std::size_t(v));
    req.unit_bytes = 4000;  // ~one GOP slice per unit
    req.substreams = {
        {{"decrypt", "transcode", "watermark"}, rate},
        {{"downmix"}, rate / 8},
    };
    world.host(std::size_t(req.source))
        .coordinator()
        .submit(req, composer, 0, stop,
                [v](const core::SubmitOutcome& o) {
                  if (o.compose.admitted) {
                    std::printf("viewer %d admitted (%zu components, "
                                "composed in %.0f ms)\n",
                                v, o.compose.plan.component_count(),
                                sim::to_ms(o.composition_latency));
                  } else {
                    std::printf("viewer %d rejected: %s\n", v,
                                o.compose.error.c_str());
                  }
                });
    simulator.run_until(simulator.now() + sim::msec(800));
  }

  simulator.run_until(stop + sim::sec(2));

  std::printf("\nper-viewer delivery quality at the set-top box:\n");
  for (int v = 0; v < viewers; ++v) {
    const auto dest = std::size_t(world.size() - 1 - std::size_t(v));
    const auto& rt = world.host(dest).runtime();
    const auto* video = rt.find_sink(v + 1, 0);
    const auto* audio = rt.find_sink(v + 1, 1);
    if (video == nullptr) continue;
    ++admitted;
    std::printf(
        "  viewer %d: video %lld units, delay %.0f ms, jitter %.1f ms | "
        "audio %lld units, jitter %.1f ms\n",
        v, (long long)video->stats().delivered,
        video->stats().delay_ms.mean(), video->stats().jitter_ms.mean(),
        audio ? (long long)audio->stats().delivered : 0,
        audio ? audio->stats().jitter_ms.mean() : 0.0);
  }
  std::printf("%d/%d viewers served\n", admitted, viewers);
  return admitted > 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return rasc::util::run_main(argc, argv, run);
}
