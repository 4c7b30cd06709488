// Convenience construction of a whole overlay inside one simulation.
//
// Nodes join sequentially (the experiment scenarios build the overlay
// before any stream traffic starts, as the paper's deployment does); each
// join runs to completion before the next begins, so joins always see a
// consistent ring.
#pragma once

#include <memory>
#include <vector>

#include "overlay/pastry_node.hpp"

namespace rasc::overlay {

/// The built overlay: one PastryNode per simulated host, each registered
/// for the overlay's packet kinds at its host.
class Overlay {
 public:
  PastryNode& at(std::size_t i) { return *nodes_[i]; }
  const PastryNode& at(std::size_t i) const { return *nodes_[i]; }
  std::size_t size() const { return nodes_.size(); }

 private:
  friend Overlay build_overlay(sim::Simulator&, sim::Network&, std::size_t);

  std::vector<std::unique_ptr<PastryNode>> nodes_;
};

/// Builds and joins an overlay of `count` nodes over `network` (which must
/// have at least `count` hosts). Runs the simulator until all joins
/// complete; throws std::runtime_error if a join times out.
Overlay build_overlay(sim::Simulator& simulator, sim::Network& network,
                      std::size_t count);

}  // namespace rasc::overlay
