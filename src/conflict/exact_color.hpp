#pragma once
// Exact chromatic number of a conflict graph.
//
// w(G,P) is NP-hard in general (paper §1), so "w equals ..." claims in the
// benches are certified by this exact solver on instance sizes where it is
// fast. chromatic_number() brackets chi between a lower bound and the
// DSATUR upper bound ub, and only searches the gap. The lower bounds are
// taken cheapest first, each one only while it is still below ub:
//
//   1. pi(G,P) from the caller (ExactBounds). On UPP hosts pi equals the
//      clique number (Property 3, Helly), so the max-clique search is
//      skipped there; elsewhere the bound is max(pi, omega).
//   2. chi >= 3 when the graph is not bipartite: one BFS 2-coloring over
//      the adjacency rows, O(n + m).
//   3. chi >= ceil(n / alpha): Theorem 7's counting argument, with alpha
//      from a max-clique search over complemented rows. That search stops
//      once it finds an independent set of ceil(n / lb) vertices (the
//      bound could no longer beat lb) or spends the node budget, and a
//      stopped search contributes no bound; on a sparse graph the dense
//      complement would otherwise make it exponential.
//
// When a bound meets ub, DSATUR's coloring is the optimum and no search
// runs. Otherwise each k from the bound up to ub - 1 gets a fresh
// backtracking search; the first satisfiable k is chi. Skipping only the
// k a valid bound rules out leaves that first k, and its coloring, as a
// search from the clique number would find them.
//
// The k-search is DSATUR-ordered backtracking with a clique seed (its
// vertices are pre-colored, fixing color symmetry; the seed is computed
// once per call) and the usual "at most one new color per step" symmetry
// break. Saturation is counted: each vertex keeps how many neighbors hold
// each color plus the number of distinct such colors, so assigning or
// unassigning a color costs O(deg) and picking the next vertex reads a
// stored integer. Every buffer (color counts, BFS queue, complemented
// rows, clique-search stacks) lives in per-thread storage reused across
// calls, so a warm certification allocates only the coloring it returns.

#include <cstddef>
#include <optional>

#include "conflict/coloring.hpp"
#include "conflict/conflict_graph.hpp"

namespace wdag::conflict {

/// What the caller already knows about the conflict graph's family.
struct ExactBounds {
  /// A lower bound on chi; the load pi(G,P) of the family (pi dipaths
  /// share the max-load arc, so they form a clique). 0 when unknown.
  std::size_t load = 0;
  /// True when the host is a UPP-DAG, so `load` is the clique number
  /// (Property 3) and the max-clique search is skipped.
  bool load_is_clique_number = false;
};

/// Result of an exact chromatic computation.
struct ChromaticResult {
  std::size_t chromatic_number = 0;
  Coloring coloring;        ///< an optimal proper coloring
  /// k-search nodes explored, summed over the k values searched; 0 when a
  /// lower bound met the DSATUR upper bound.
  std::size_t nodes = 0;
  bool proven = true;       ///< false when the node budget was exhausted
};

/// Computes the chromatic number exactly.
/// `node_budget` bounds each k's search and the alpha search; when a k's
/// search exhausts it, `proven` is false and the DSATUR coloring is
/// returned (still valid). `bounds` must hold
/// for cg; the default knows nothing and searches for the clique number.
ChromaticResult chromatic_number(const ConflictGraph& cg,
                                 std::size_t node_budget = 50'000'000,
                                 const ExactBounds& bounds = {});

/// Decision variant: can cg be colored with at most k colors?
/// Returns a coloring when satisfiable, nullopt otherwise (within budget;
/// throws wdag::InternalError when the budget is hit, since a wrong answer
/// would poison the benches).
std::optional<Coloring> try_color_with(const ConflictGraph& cg, std::size_t k,
                                       std::size_t node_budget = 50'000'000);

}  // namespace wdag::conflict
