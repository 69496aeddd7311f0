#include "core/maxrequests.hpp"

#include <algorithm>
#include <numeric>

#include "dag/internal_cycle.hpp"
#include "graph/topo.hpp"
#include "util/check.hpp"

namespace wdag::core {

using graph::ArcId;
using paths::DipathFamily;

MaxRequestsResult max_requests_greedy(const DipathFamily& candidates,
                                      std::size_t w) {
  MaxRequestsResult res;
  res.selected.assign(candidates.size(), false);
  if (w == 0) return res;

  std::vector<std::size_t> order(candidates.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return candidates.path(static_cast<paths::PathId>(a)).size() <
           candidates.path(static_cast<paths::PathId>(b)).size();
  });

  std::vector<std::size_t> load(candidates.graph().num_arcs(), 0);
  for (const std::size_t i : order) {
    const auto arcs = candidates.path(static_cast<paths::PathId>(i));
    const bool fits = std::all_of(arcs.begin(), arcs.end(),
                                  [&](ArcId a) { return load[a] < w; });
    if (!fits) continue;
    for (ArcId a : arcs) ++load[a];
    res.selected[i] = true;
    ++res.count;
  }
  return res;
}

namespace {

struct Search {
  const DipathFamily& cand;
  std::size_t w;
  std::size_t budget;
  std::size_t nodes = 0;
  bool budget_hit = false;
  std::vector<std::size_t> load;
  std::vector<bool> current, best;
  std::size_t current_count = 0, best_count = 0;

  Search(const DipathFamily& c, std::size_t ww, std::size_t b)
      : cand(c),
        w(ww),
        budget(b),
        load(c.graph().num_arcs(), 0),
        current(c.size(), false),
        best(c.size(), false) {}

  [[nodiscard]] bool fits(std::size_t i) const {
    const auto arcs = cand.path(static_cast<paths::PathId>(i));
    return std::all_of(arcs.begin(), arcs.end(),
                       [&](ArcId a) { return load[a] < w; });
  }

  void add(std::size_t i) {
    for (ArcId a : cand.path(static_cast<paths::PathId>(i))) ++load[a];
    current[i] = true;
    ++current_count;
  }

  void remove(std::size_t i) {
    for (ArcId a : cand.path(static_cast<paths::PathId>(i))) --load[a];
    current[i] = false;
    --current_count;
  }

  void dfs(std::size_t i) {
    if (budget_hit) return;
    if (++nodes > budget) {
      budget_hit = true;
      return;
    }
    if (current_count + (cand.size() - i) <= best_count) return;  // bound
    if (i == cand.size()) {
      if (current_count > best_count) {
        best_count = current_count;
        best = current;
      }
      return;
    }
    if (fits(i)) {
      add(i);
      dfs(i + 1);
      remove(i);
    }
    dfs(i + 1);
  }
};

}  // namespace

MaxRequestsResult max_requests_exact(const DipathFamily& candidates,
                                     std::size_t w, std::size_t node_budget) {
  WDAG_DOMAIN(graph::is_dag(candidates.graph()),
              "max_requests_exact: host graph must be a DAG");
  WDAG_DOMAIN(!dag::has_internal_cycle(candidates.graph()),
              "max_requests_exact: the load criterion certifies "
              "satisfiability only without internal cycles (Main Theorem)");
  MaxRequestsResult res;
  if (w == 0 || candidates.empty()) {
    res.selected.assign(candidates.size(), false);
    res.proven = true;
    return res;
  }
  Search search(candidates, w, node_budget);
  // Seed with the greedy solution so pruning bites immediately.
  const auto greedy = max_requests_greedy(candidates, w);
  search.best = greedy.selected;
  search.best_count = greedy.count;
  search.dfs(0);
  res.selected = std::move(search.best);
  res.count = search.best_count;
  res.nodes = search.nodes;
  res.proven = !search.budget_hit;
  return res;
}

}  // namespace wdag::core
