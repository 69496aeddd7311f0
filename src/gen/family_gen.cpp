#include "gen/family_gen.hpp"

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/reachability.hpp"
#include "paths/route.hpp"
#include "util/check.hpp"

namespace wdag::gen {

using graph::ArcId;
using graph::Digraph;
using graph::VertexId;
using paths::DipathFamily;

DipathFamily random_walk_family(util::Xoshiro256& rng, const Digraph& g,
                                std::size_t count, std::size_t min_len,
                                std::size_t max_len) {
  WDAG_REQUIRE(g.num_arcs() > 0, "random_walk_family: graph has no arc");
  WDAG_REQUIRE(min_len >= 1 && min_len <= max_len,
               "random_walk_family: need 1 <= min_len <= max_len");
  DipathFamily fam(g);
  fam.reserve(count, 0);
  thread_local std::vector<ArcId> walk;
  for (std::size_t i = 0; i < count; ++i) {
    const ArcId first = static_cast<ArcId>(rng.index(g.num_arcs()));
    walk.assign(1, first);
    VertexId cur = g.head(first);
    // Extend forward. In a DAG the walk cannot revisit a vertex, so any
    // forward extension keeps the dipath simple.
    while (walk.size() < max_len) {
      const auto out = g.out_arcs(cur);
      if (out.empty()) break;
      // Keep extending until min_len, then stop with probability 1/3.
      if (walk.size() >= min_len && rng.chance(1.0 / 3.0)) break;
      const ArcId next = out[rng.index(out.size())];
      walk.push_back(next);
      cur = g.head(next);
    }
    // A forward walk in a DAG is a simple dipath by construction.
    fam.add_unchecked(walk);
  }
  return fam;
}

DipathFamily all_to_all_family(const Digraph& g) {
  DipathFamily fam(g);
  const auto closure = graph::transitive_closure(g);
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (u == v || !closure[u].test(v)) continue;
      const auto route = paths::unique_route(g, u, v);
      WDAG_ASSERT(route.has_value(), "all_to_all_family: lost route");
      fam.add_unchecked(*route);
    }
  }
  return fam;
}

DipathFamily multicast_family(const Digraph& g, VertexId root) {
  WDAG_REQUIRE(root < g.num_vertices(), "multicast_family: root out of range");
  DipathFamily fam(g);
  const auto reach = graph::descendants(g, root);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (v == root || !reach.test(v)) continue;
    const auto route = paths::shortest_route(g, root, v);
    WDAG_ASSERT(route.has_value(), "multicast_family: lost route");
    fam.add_unchecked(*route);
  }
  return fam;
}

namespace {

using Pair = std::pair<VertexId, VertexId>;

/// The reachable pairs (u, v), u != v, of an out-forest (every in-degree
/// <= 1, no directed cycle), in the (u, v) order of a closure scan, with
/// each vertex's in-arc (kNoArc at a root) and depth (its number of proper
/// ancestors). In an out-forest u reaches v exactly when u is a proper
/// ancestor of v, so the pairs come from one parent walk per vertex,
/// bucketed by u (stably in v) by a counting sort. Returns false, with the
/// outputs unspecified, when g is not an out-forest.
bool out_forest_pairs_into(const Digraph& g, std::vector<Pair>& pairs,
                           std::vector<ArcId>& in_arc,
                           std::vector<std::uint32_t>& depth) {
  const std::size_t n = g.num_vertices();
  thread_local std::vector<VertexId> parent;
  in_arc.assign(n, graph::kNoArc);
  parent.assign(n, graph::kNoVertex);
  for (VertexId v = 0; v < n; ++v) {
    const auto in = g.in_arcs(v);
    if (in.size() > 1) return false;
    if (in.size() == 1) {
      in_arc[v] = in[0];
      parent[v] = g.tail(in[0]);
    }
  }
  thread_local std::vector<std::uint32_t> start;
  start.assign(n + 1, 0);
  depth.assign(n, 0);
  for (VertexId v = 0; v < n; ++v) {
    for (VertexId x = parent[v]; x != graph::kNoVertex; x = parent[x]) {
      // A walk longer than n - 1 arcs is going round a directed cycle.
      if (++depth[v] >= n) return false;
      ++start[x + 1];
    }
  }
  for (std::size_t u = 0; u < n; ++u) start[u + 1] += start[u];
  pairs.resize(start[n]);
  for (VertexId v = 0; v < n; ++v) {
    for (VertexId x = parent[v]; x != graph::kNoVertex; x = parent[x]) {
      pairs[start[x]++] = {x, v};
    }
  }
  return true;
}

/// The reachable pairs (u, v), u != v, of any digraph, from its
/// transitive closure, in (u, v) order.
void closure_pairs_into(const Digraph& g, std::vector<Pair>& pairs) {
  const auto closure = graph::transitive_closure(g);
  pairs.clear();
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (u != v && closure[u].test(v)) pairs.emplace_back(u, v);
    }
  }
}

}  // namespace

DipathFamily random_request_family(util::Xoshiro256& rng, const Digraph& g,
                                   std::size_t count) {
  thread_local std::vector<Pair> pairs;
  thread_local std::vector<std::uint32_t> depth, picks;
  thread_local std::vector<ArcId> in_arc, route;
  const bool forest = out_forest_pairs_into(g, pairs, in_arc, depth);
  if (!forest) closure_pairs_into(g, pairs);
  WDAG_REQUIRE(!pairs.empty(), "random_request_family: no reachable pair");
  // Draw every request first (the RNG sees the same index calls), so an
  // out-forest's family can be sized exactly before it is filled.
  picks.resize(count);
  std::size_t total = 0;
  for (std::uint32_t& pick : picks) {
    pick = static_cast<std::uint32_t>(rng.index(pairs.size()));
    if (forest) total += depth[pairs[pick].second] - depth[pairs[pick].first];
  }
  DipathFamily fam(g);
  fam.reserve(count, total);
  for (const std::uint32_t pick : picks) {
    const auto [u, v] = pairs[pick];
    if (forest) {
      // The unique u -> v dipath, which is what the BFS below returns:
      // the in-arc walk from v back up to u.
      route.resize(depth[v] - depth[u]);
      VertexId x = v;
      for (auto it = route.rbegin(); it != route.rend(); ++it) {
        *it = in_arc[x];
        x = g.tail(*it);
      }
    } else {
      const bool routed = paths::shortest_route_into(g, u, v, route);
      WDAG_ASSERT(routed, "random_request_family: lost route");
    }
    // Routes are dipaths of g by construction; skip re-validation.
    fam.add_unchecked(route);
  }
  return fam;
}

}  // namespace wdag::gen
