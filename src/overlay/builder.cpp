#include "overlay/builder.hpp"

#include <stdexcept>
#include <string>

#include "util/logging.hpp"

namespace rasc::overlay {

Overlay build_overlay(sim::Simulator& simulator, sim::Network& network,
                      std::size_t count) {
  if (count == 0 || count > network.size()) {
    throw std::runtime_error("build_overlay: bad node count");
  }
  Overlay overlay;
  overlay.nodes_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto id = NodeId128::hash_of("overlay-node-" + std::to_string(i));
    overlay.nodes_.push_back(std::make_unique<PastryNode>(
        simulator, network, sim::NodeIndex(i), id));
  }

  overlay.nodes_[0]->bootstrap_as_first();
  for (std::size_t i = 1; i < count; ++i) {
    bool done = false;
    bool ok = false;
    overlay.nodes_[i]->join_via(sim::NodeIndex(i - 1),
                                [&done, &ok](bool success) {
                                  done = true;
                                  ok = success;
                                });
    // Drive the simulation until this join settles.
    while (!done && simulator.step()) {
    }
    if (!done || !ok) {
      throw std::runtime_error("build_overlay: join failed for node " +
                               std::to_string(i));
    }
  }
  // Let trailing announcements drain and give leaf-set maintenance a few
  // rounds to converge ring neighborhoods before the caller starts
  // issuing traffic.
  simulator.run_until(simulator.now() + sim::msec(4000));
  return overlay;
}

}  // namespace rasc::overlay
