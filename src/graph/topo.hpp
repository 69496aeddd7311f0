#pragma once
// Topological ordering and acyclicity tests.
//
// The Theorem-1 colorer relies on a specific property of Kahn's algorithm:
// arcs emitted in topological order of their *tails* leave any dipath
// strictly from the front (see core/theorem1.cpp).

#include <optional>
#include <span>
#include <vector>

#include "graph/digraph.hpp"

namespace wdag::graph {

/// Kahn's algorithm into caller-owned buffers (storage reused): writes a
/// topological order of g into `order` and returns true, or returns false
/// when g has a directed cycle (`order` then holds only the vertices the
/// peeling reached). `indeg` is scratch. The one Kahn implementation:
/// every other ordering below derives from it.
bool topological_sort_into(const Digraph& g, std::vector<VertexId>& order,
                           std::vector<std::uint32_t>& indeg);

/// Kahn's algorithm. Returns the vertices in a topological order, or
/// nullopt when the digraph has a directed cycle.
std::optional<std::vector<VertexId>> topological_sort(const Digraph& g);

/// True when g has no directed cycle.
bool is_dag(const Digraph& g);

/// Position of each vertex in `order` (inverse permutation).
/// order must be a permutation of the vertex ids of g.
std::vector<std::uint32_t> topo_positions(const Digraph& g,
                                          const std::vector<VertexId>& order);

/// Arcs of g sorted by topological position of their tail (ties by arc id).
/// Throws InvalidArgument when g is not a DAG.
///
/// This is exactly the arc *removal* sequence of the Theorem-1 induction:
/// removing arcs in this order, the tail of each removed arc is a source of
/// the remaining graph.
std::vector<ArcId> arcs_in_tail_topo_order(const Digraph& g);

/// arcs_in_tail_topo_order() for a topological order of g the caller
/// already holds (dag::classify() keeps one), written into a caller-owned
/// buffer so hot loops (the Theorem-1 replay runs once per batch
/// instance) reuse it.
void arcs_in_tail_topo_order_into(const Digraph& g,
                                  std::span<const VertexId> order,
                                  std::vector<ArcId>& out);

}  // namespace wdag::graph
