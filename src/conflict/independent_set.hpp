#pragma once
// Exact maximum independent set on conflict graphs.
//
// Independent sets of the conflict graph are groups of pairwise
// arc-disjoint dipaths — i.e. sets of requests one wavelength can carry.
// The independence number yields the replication lower bound used by
// Theorem 7: h-fold replication of a family needs at least
// ceil(|P| * h / alpha) wavelengths.

#include <vector>

#include "conflict/conflict_graph.hpp"

namespace wdag::conflict {

/// Exact maximum independent set, computed as a maximum clique over the
/// complemented adjacency rows (conflict::CliqueSearcher). Intended for
/// the gadget-sized graphs the exact certifier and the tests use.
std::vector<std::size_t> max_independent_set(const ConflictGraph& cg);

/// Size of a maximum independent set.
std::size_t independence_number(const ConflictGraph& cg);

/// True when vs is pairwise non-adjacent in cg.
bool is_independent_set(const ConflictGraph& cg,
                        const std::vector<std::size_t>& vs);

/// The complement conflict graph (same vertices, inverted adjacency).
ConflictGraph complement(const ConflictGraph& cg);

/// Lower bound on the wavelength number of the h-fold replicated family
/// whose conflict graph is cg: ceil(n * h / alpha(cg)). This is the
/// counting argument behind Theorem 7's tightness.
std::size_t replication_lower_bound(const ConflictGraph& cg, std::size_t h);

}  // namespace wdag::conflict
