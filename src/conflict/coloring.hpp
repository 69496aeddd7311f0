#pragma once
// Wavelength assignments (proper colorings of the conflict graph) and the
// heuristic baselines the benches compare against the paper's constructive
// algorithms.

#include <cstdint>
#include <vector>

#include "conflict/conflict_graph.hpp"
#include "paths/family.hpp"

namespace wdag::conflict {

/// A color (wavelength) per path id.
using Coloring = std::vector<std::uint32_t>;

/// Number of distinct colors used (assumes colors are arbitrary ids).
std::size_t num_colors(const Coloring& c);

/// Renumbers colors to 0..k-1 preserving classes; returns k.
std::size_t normalize_colors(Coloring& c);

/// True when no conflict-graph edge is monochromatic.
bool is_valid_coloring(const ConflictGraph& cg, const Coloring& c);

/// Independent validity check straight from the family: for every arc, all
/// dipaths through it have pairwise distinct colors. Used to cross-check
/// the conflict-graph path.
bool is_valid_assignment(const paths::DipathFamily& family, const Coloring& c);

/// First-fit greedy in the given vertex order.
Coloring greedy_coloring(const ConflictGraph& cg,
                         const std::vector<std::size_t>& order);

/// First-fit greedy in natural order 0..n-1.
Coloring greedy_coloring(const ConflictGraph& cg);

/// DSATUR heuristic (Brélaz): repeatedly color the vertex with the highest
/// color-saturation, breaking ties by degree then index, with the lowest
/// color absent from its neighbors.
///
/// The vertices are ranked once by (degree desc, id asc). Each saturation
/// level keeps a bitset over ranks of its uncolored vertices, so the next
/// vertex is the lowest set rank of the highest non-empty level, and a
/// saturation increase moves one bit up one level. That takes
/// O(n * ceil(n/64) + m) word operations, the cost of reading the
/// adjacency rows once, with no priority queue. The levels take at most
/// colors * ceil(n/64) words, beside n * ceil((max_degree + 1)/64) words
/// of saturation masks; all of it is per-thread scratch, so a warm call
/// allocates only the returned coloring.
Coloring dsatur_coloring(const ConflictGraph& cg);

}  // namespace wdag::conflict
