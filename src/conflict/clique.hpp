#pragma once
// Max-clique search on conflict graphs.
//
// pi(G,P) is always a lower bound on the clique number (the pi dipaths
// through a max-load arc are pairwise in conflict); Property 3 upgrades
// this to equality on UPP-DAGs. The exact solver below lets the benches
// verify that equality empirically.
//
// The exact search is Tomita-style branch and bound over the packed
// adjacency rows: each node greedily colors its candidate set into
// independent classes (one word-parallel sweep per class), branches on
// candidates from the last class backwards, and prunes once the current
// clique plus the candidate's class index cannot beat the best found.
// CliqueSearcher keeps every per-depth buffer between calls, so a warm
// searcher allocates nothing; run on the complemented rows it computes
// the independence number the certifier's counting bound needs.

#include <cstdint>
#include <span>
#include <vector>

#include "conflict/conflict_graph.hpp"

namespace wdag::conflict {

/// Optional limits on a CliqueSearcher::run().
struct CliqueLimits {
  /// Only cliques larger than this count.
  std::size_t floor = 0;
  /// Stop as soon as a clique of this size is found.
  std::size_t enough = SIZE_MAX;
  /// Stop after this many search nodes.
  std::size_t node_budget = SIZE_MAX;
};

/// Reusable maximum-clique search over a conflict graph or its complement.
/// Not thread-safe: keep one per thread. After a first search of a given
/// size, later searches of that size or smaller allocate nothing.
class CliqueSearcher {
 public:
  /// Size of a maximum clique of cg, or of its complement (a maximum
  /// independent set of cg) when `complemented`. The search starts from
  /// `seed`, a clique of the searched graph, and only looks for cliques
  /// larger than max(|seed|, limits.floor); when there is none it returns
  /// that number and best() keeps the seed.
  std::size_t run(const ConflictGraph& cg, bool complemented,
                  std::span<const std::size_t> seed = {},
                  const CliqueLimits& limits = {});

  /// False when the last run() stopped early, at `enough` or at its node
  /// budget: its result is then only a lower bound.
  [[nodiscard]] bool complete() const { return !stopped_; }

  /// Vertices of the largest clique run() found (the seed when none beat
  /// it), in discovery order.
  [[nodiscard]] const std::vector<std::uint32_t>& best() const {
    return best_;
  }

  /// greedy_clique(cg), built in this searcher's buffers; valid until the
  /// next greedy() call.
  const std::vector<std::size_t>& greedy(const ConflictGraph& cg);

 private:
  void expand(std::size_t depth);
  /// Greedy coloring of depth `depth`'s candidates onto the order/bound
  /// stack at [top_, top_ + count); returns count.
  std::size_t color_sort(std::size_t depth);

  std::size_t n_ = 0;
  std::size_t words_ = 0;   ///< words per row / candidate set
  std::size_t target_ = 0;  ///< a clique must exceed this size to count
  std::size_t enough_ = 0, budget_ = 0, nodes_ = 0;
  bool stopped_ = false;  ///< enough_ or budget_ was reached
  std::vector<const std::uint64_t*> rows_;  ///< row u of the searched graph
  std::vector<std::uint64_t> complement_;   ///< complemented rows
  std::vector<std::uint64_t> cand_;  ///< one candidate set per depth
  std::vector<std::uint64_t> uncolored_, klass_;  ///< color_sort sweeps
  std::vector<std::uint32_t> order_, bound_;      ///< per-depth stack
  std::size_t top_ = 0;
  std::vector<std::uint32_t> current_, best_;
  std::vector<std::size_t> greedy_, greedy_order_, greedy_grow_;
};

/// A greedy clique (lower bound): grow from each vertex by highest degree.
std::vector<std::size_t> greedy_clique(const ConflictGraph& cg);

/// Exact maximum clique via Tomita-style branch and bound with greedy
/// coloring upper bounds. Exponential worst case; intended for the
/// conflict-graph sizes used in tests and benches (hundreds of vertices).
std::vector<std::size_t> max_clique(const ConflictGraph& cg);

/// Size of a maximum clique.
std::size_t clique_number(const ConflictGraph& cg);

/// True when `vs` is a clique of cg.
bool is_clique(const ConflictGraph& cg, const std::vector<std::size_t>& vs);

}  // namespace wdag::conflict
