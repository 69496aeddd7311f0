#pragma once
// Internal-cycle detection — the paper's central structural criterion.
//
// An *internal cycle* of a DAG G is an oriented cycle all of whose vertices
// are internal (indegree > 0 and outdegree > 0 in G). The Main Theorem
// states: w(G,P) == pi(G,P) for every family P iff G has no internal cycle.
//
// Detection reduces to acyclicity of the underlying undirected multigraph
// restricted to arcs between internal vertices: any undirected cycle there
// is an oriented cycle of G visiting only internal vertices, and
// conversely. We use union–find for the yes/no and count queries and a DFS
// for explicit extraction.

#include <optional>
#include <span>
#include <vector>

#include "dag/oriented_cycle.hpp"
#include "graph/digraph.hpp"

namespace wdag::dag {

/// True when g (assumed a DAG) contains an internal cycle.
bool has_internal_cycle(const graph::Digraph& g);

/// Number of independent internal cycles: the cyclomatic number
/// m' - n' + c' of the underlying sub-multigraph induced by internal
/// vertices. 0 means "no internal cycle" (Theorem 1 applies); 1 means
/// "exactly one" (Theorem 6 applies to UPP-DAGs).
std::size_t internal_cycle_count(const graph::Digraph& g);

/// internal_cycle_count() over a caller-supplied list of g's internal
/// arcs (as internal_arcs_into() computes them); its union-find lives in
/// per-thread storage.
std::size_t internal_cycle_count(const graph::Digraph& g,
                                 std::span<const graph::ArcId> internal_arcs);

/// Extracts one internal cycle, or nullopt when none exists.
/// The returned cycle is a valid OrientedCycle of g visiting only internal
/// vertices; the result is deterministic for a given graph.
std::optional<OrientedCycle> find_internal_cycle(const graph::Digraph& g);

/// The arcs of g whose endpoints are both internal, ascending, written
/// into `out` (storage reused).
void internal_arcs_into(const graph::Digraph& g,
                        std::vector<graph::ArcId>& out);

/// find_internal_cycle() over a caller-supplied list of g's internal arcs
/// (as internal_arcs_into() computes them). Writes the cycle into `out`,
/// reusing its storage, and returns false when there is none. Same DFS,
/// so the same cycle, as the one-argument form. The split-merge recursion
/// carries the list down its levels instead of recomputing it: splitting
/// an internal arc leaves every other arc's internality unchanged.
bool find_internal_cycle(const graph::Digraph& g,
                         std::span<const graph::ArcId> internal_arcs,
                         OrientedCycle& out);

/// True when `c` is a valid oriented cycle of g whose vertices are all
/// internal in g.
bool is_internal_cycle(const graph::Digraph& g, const OrientedCycle& c);

}  // namespace wdag::dag
