#include "conflict/exact_color.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "conflict/clique.hpp"
#include "util/check.hpp"

namespace wdag::conflict {

namespace {

constexpr std::uint32_t kUncolored = UINT32_MAX;
constexpr std::uint8_t kNoSide = 2;

/// Per-thread buffers of the certifier, reused across calls.
struct Scratch {
  CliqueSearcher cliques;             ///< omega, alpha and the seed clique
  Coloring colors;                    ///< the k-search's partial coloring
  std::vector<std::uint32_t> counts;  ///< [v * k + c]: neighbors colored c
  std::vector<std::uint32_t> sat;     ///< distinct neighbor colors of v
  std::vector<std::uint32_t> queue;   ///< BFS 2-coloring
  std::vector<std::uint8_t> side;
};

Scratch& scratch() {
  thread_local Scratch s;
  return s;
}

/// Calls f(u) for every neighbor u of v, in increasing order.
template <typename F>
void for_each_neighbor(const ConflictGraph& cg, std::size_t v, F&& f) {
  const util::ConstBitsetView row = cg.neighbors(v);
  for (std::size_t w = 0; w < row.num_words(); ++w) {
    std::uint64_t bits = row.word(w);
    while (bits != 0) {
      f(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
      bits &= bits - 1;
    }
  }
}

/// True when cg has no odd cycle: a BFS 2-coloring of every component.
bool is_bipartite(const ConflictGraph& cg, Scratch& s) {
  const std::size_t n = cg.size();
  s.side.assign(n, kNoSide);
  s.queue.resize(n);
  for (std::size_t root = 0; root < n; ++root) {
    if (s.side[root] != kNoSide) continue;
    s.side[root] = 0;
    std::size_t head = 0, tail = 0;
    s.queue[tail++] = static_cast<std::uint32_t>(root);
    while (head < tail) {
      const std::size_t v = s.queue[head++];
      bool odd = false;
      for_each_neighbor(cg, v, [&](std::size_t u) {
        if (s.side[u] == kNoSide) {
          s.side[u] = static_cast<std::uint8_t>(1 - s.side[v]);
          s.queue[tail++] = static_cast<std::uint32_t>(u);
        } else if (s.side[u] == s.side[v]) {
          odd = true;
        }
      });
      if (odd) return false;
    }
  }
  return true;
}

/// Backtracking k-colorability with DSATUR vertex selection.
struct KColorSearch {
  const ConflictGraph& cg;
  std::size_t k;
  std::size_t budget;
  std::size_t nodes = 0;
  bool budget_hit = false;
  Coloring& colors;
  std::vector<std::uint32_t>& counts;
  std::vector<std::uint32_t>& sat;
  std::size_t colored = 0;
  std::uint32_t max_used = 0;  // highest color index assigned so far + 1

  KColorSearch(const ConflictGraph& g, std::size_t kk, std::size_t b,
               Scratch& s)
      : cg(g), k(kk), budget(b), colors(s.colors), counts(s.counts),
        sat(s.sat) {
    colors.assign(g.size(), kUncolored);
    counts.assign(g.size() * kk, 0);
    sat.assign(g.size(), 0);
  }

  /// Pre-colors a clique 0..|clique|-1.
  void seed(const std::vector<std::size_t>& clique) {
    WDAG_ASSERT(clique.size() <= k, "KColorSearch: seed clique exceeds k");
    for (std::size_t i = 0; i < clique.size(); ++i) {
      assign(clique[i], static_cast<std::uint32_t>(i));
    }
  }

  void assign(std::size_t v, std::uint32_t c) {
    colors[v] = c;
    ++colored;
    max_used = std::max(max_used, c + 1);
    for_each_neighbor(cg, v, [&](std::size_t u) {
      if (counts[u * k + c]++ == 0) ++sat[u];
    });
  }

  void unassign(std::size_t v, std::uint32_t c, std::uint32_t prev_max) {
    colors[v] = kUncolored;
    --colored;
    max_used = prev_max;
    for_each_neighbor(cg, v, [&](std::size_t u) {
      if (--counts[u * k + c] == 0) --sat[u];
    });
  }

  /// Most saturated uncolored vertex (ties: degree, then id); n when done.
  std::size_t pick() const {
    std::size_t best = cg.size(), bs = 0, bd = 0;
    for (std::size_t v = 0; v < cg.size(); ++v) {
      if (colors[v] != kUncolored) continue;
      const std::size_t s = sat[v];
      const std::size_t d = cg.degree(v);
      if (best == cg.size() || s > bs || (s == bs && d > bd)) {
        best = v;
        bs = s;
        bd = d;
      }
    }
    return best;
  }

  bool solve() {
    if (colored == cg.size()) return true;
    if (++nodes > budget) {
      budget_hit = true;
      return false;
    }
    const std::size_t v = pick();
    const std::uint32_t* used = counts.data() + v * k;
    // Symmetry break: allow at most one brand-new color (max_used), never
    // a color beyond it. A vertex with no admissible color fails fast.
    const std::uint32_t limit =
        static_cast<std::uint32_t>(std::min<std::size_t>(k, max_used + 1));
    for (std::uint32_t c = 0; c < limit; ++c) {
      if (used[c] != 0) continue;
      const std::uint32_t prev_max = max_used;
      assign(v, c);
      if (solve()) return true;
      unassign(v, c, prev_max);
      if (budget_hit) return false;
    }
    return false;
  }
};

}  // namespace

std::optional<Coloring> try_color_with(const ConflictGraph& cg, std::size_t k,
                                       std::size_t node_budget) {
  if (cg.size() == 0) return Coloring{};
  Scratch& s = scratch();
  const auto& clique = s.cliques.greedy(cg);
  if (clique.size() > k) return std::nullopt;  // clique certifies infeasible
  KColorSearch search(cg, k, node_budget, s);
  search.seed(clique);
  if (search.solve()) {
    WDAG_ASSERT(is_valid_coloring(cg, search.colors),
                "try_color_with: produced an invalid coloring");
    WDAG_ASSERT(num_colors(search.colors) <= k,
                "try_color_with: used more than k colors");
    return search.colors;
  }
  WDAG_ASSERT(!search.budget_hit,
              "try_color_with: node budget exhausted; result would be unsound");
  return std::nullopt;
}

ChromaticResult chromatic_number(const ConflictGraph& cg,
                                 std::size_t node_budget,
                                 const ExactBounds& bounds) {
  ChromaticResult res;
  const std::size_t n = cg.size();
  if (n == 0) {
    res.chromatic_number = 0;
    return res;
  }
  Scratch& s = scratch();
  Coloring best = dsatur_coloring(cg);
  std::size_t ub = num_colors(best);

  // Lower bounds, cheapest first, each only while a gap remains.
  std::size_t lb = std::max<std::size_t>(bounds.load, 1);
  if (lb < ub && !bounds.load_is_clique_number) {
    lb = s.cliques.run(cg, /*complemented=*/false, {}, {.floor = lb});
  }
  if (lb < 3 && lb < ub && !is_bipartite(cg, s)) lb = 3;
  if (lb < ub) {
    // An independent set of ceil(n / lb) vertices shows the counting bound
    // cannot beat lb, so the alpha search stops there; it also stops at
    // the node budget. A search that stopped early gives no bound.
    const std::size_t alpha = s.cliques.run(
        cg, /*complemented=*/true, {},
        {.enough = (n + lb - 1) / lb, .node_budget = node_budget});
    if (s.cliques.complete()) lb = std::max(lb, (n + alpha - 1) / alpha);
  }
  WDAG_ASSERT(lb <= ub, "chromatic_number: lower bound above DSATUR's count");

  // Tighten from below: the first satisfiable k in [lb, ub) is chi.
  if (lb < ub) {
    const auto& seed = s.cliques.greedy(cg);
    for (std::size_t k = lb; k < ub; ++k) {
      KColorSearch search(cg, k, node_budget, s);
      search.seed(seed);
      const bool ok = search.solve();
      res.nodes += search.nodes;
      if (search.budget_hit) {
        res.proven = false;
        break;
      }
      if (ok) {
        best = search.colors;
        ub = k;
        break;
      }
    }
  }
  res.chromatic_number = ub;
  res.coloring = std::move(best);
  WDAG_ASSERT(is_valid_coloring(cg, res.coloring),
              "chromatic_number: invalid optimal coloring");
  return res;
}

}  // namespace wdag::conflict
