#pragma once
// Load computation: load(G,P,e) per arc and pi(G,P) — the paper's lower
// bound on the number of wavelengths.

#include <vector>

#include "paths/family.hpp"

namespace wdag::paths {

/// load(G,P,e) for every arc e, indexed by ArcId.
std::vector<std::size_t> arc_loads(const DipathFamily& family);

/// pi(G,P): the maximum arc load (0 for an empty family). Counts into
/// thread-local storage (as do the two queries below), so a warm call
/// makes no heap allocation.
std::size_t max_load(const DipathFamily& family);

/// An arc attaining the maximum load, or kNoArc for an empty family.
graph::ArcId max_load_arc(const DipathFamily& family);

/// Maximum load restricted to the given arcs (0 when the list is empty);
/// also reports an attaining arc. Used by Theorem 6 to pick the split arc
/// on the internal cycle.
struct RestrictedLoad {
  std::size_t load = 0;
  graph::ArcId arc = graph::kNoArc;
};
RestrictedLoad max_load_on(const DipathFamily& family,
                           const std::vector<graph::ArcId>& arcs);

}  // namespace wdag::paths
