#include "paths/route.hpp"

#include <algorithm>

#include "graph/reachability.hpp"
#include "util/check.hpp"

namespace wdag::paths {

using graph::ArcId;
using graph::Digraph;
using graph::VertexId;

std::optional<Dipath> unique_route(const Digraph& g, VertexId u, VertexId v) {
  WDAG_REQUIRE(u < g.num_vertices() && v < g.num_vertices(),
               "unique_route: vertex out of range");
  WDAG_REQUIRE(u != v, "unique_route: requests must have distinct endpoints");
  // Cone of vertices that still reach v; in a UPP-DAG each cone vertex has
  // at most one out-arc staying inside the cone (two would yield two
  // dipaths to v), so the route is a greedy walk.
  thread_local util::DynamicBitset cone;
  graph::ancestors_into(g, v, cone);
  if (!cone.test(u)) return std::nullopt;
  Dipath p;
  VertexId cur = u;
  while (cur != v) {
    ArcId next = graph::kNoArc;
    for (ArcId a : g.out_arcs(cur)) {
      if (cone.test(g.head(a))) {
        WDAG_DOMAIN(next == graph::kNoArc,
                    "unique_route: two distinct dipaths exist from " +
                        g.vertex_label(u) + " to " + g.vertex_label(v) +
                        " (graph is not UPP)");
        next = a;
      }
    }
    WDAG_ASSERT(next != graph::kNoArc, "unique_route: cone walk got stuck");
    p.arcs.push_back(next);
    cur = g.head(next);
  }
  return p;
}

std::optional<Dipath> shortest_route(const Digraph& g, VertexId u, VertexId v) {
  Dipath p;
  if (!shortest_route_into(g, u, v, p.arcs)) return std::nullopt;
  return p;
}

bool shortest_route_into(const Digraph& g, VertexId u, VertexId v,
                         std::vector<ArcId>& out) {
  WDAG_REQUIRE(u < g.num_vertices() && v < g.num_vertices(),
               "shortest_route: vertex out of range");
  WDAG_REQUIRE(u != v, "shortest_route: requests must have distinct endpoints");
  // BFS from u; the parent arc of each vertex is the smallest-id arc from
  // the earliest-reached predecessor, which yields the lexicographically
  // smallest shortest path when arcs are scanned in id order. out_arcs()
  // already lists arcs in ascending id order (ids are assigned in
  // insertion order and the CSR fill preserves it), so no per-vertex sort.
  thread_local std::vector<ArcId> parent;
  thread_local std::vector<std::int32_t> dist;
  thread_local std::vector<VertexId> queue;
  parent.assign(g.num_vertices(), graph::kNoArc);
  dist.assign(g.num_vertices(), -1);
  queue.clear();
  std::size_t qhead = 0;
  dist[u] = 0;
  queue.push_back(u);
  while (qhead < queue.size()) {
    const VertexId x = queue[qhead++];
    if (x == v) break;
    for (ArcId a : g.out_arcs(x)) {
      const VertexId w = g.head(a);
      if (dist[w] == -1) {
        dist[w] = dist[x] + 1;
        parent[w] = a;
        queue.push_back(w);
      }
    }
  }
  out.clear();
  if (dist[v] == -1) return false;
  for (VertexId cur = v; cur != u;) {
    const ArcId a = parent[cur];
    out.push_back(a);
    cur = g.tail(a);
  }
  std::reverse(out.begin(), out.end());
  return true;
}

DipathFamily route_requests(const Digraph& g,
                            const std::vector<Request>& requests,
                            RoutePolicy policy) {
  DipathFamily fam(g);
  for (const Request& r : requests) {
    std::optional<Dipath> route;
    switch (policy) {
      case RoutePolicy::kUnique:
        route = unique_route(g, r.from, r.to);
        break;
      case RoutePolicy::kShortest:
        route = shortest_route(g, r.from, r.to);
        break;
    }
    WDAG_REQUIRE(route.has_value(),
                 "route_requests: no dipath from " + g.vertex_label(r.from) +
                     " to " + g.vertex_label(r.to));
    fam.add(std::move(*route));
  }
  return fam;
}

}  // namespace wdag::paths
