#include "graph/topo.hpp"

#include "util/check.hpp"

namespace wdag::graph {

bool topological_sort_into(const Digraph& g, std::vector<VertexId>& order,
                           std::vector<std::uint32_t>& indeg) {
  const std::size_t n = g.num_vertices();
  indeg.resize(n);
  order.clear();
  order.reserve(n);
  for (VertexId v = 0; v < n; ++v) {
    indeg[v] = static_cast<std::uint32_t>(g.in_degree(v));
    if (indeg[v] == 0) order.push_back(v);
  }
  // `order` doubles as the BFS queue: elements are never removed.
  const auto& arcs = g.arcs();
  for (std::size_t qi = 0; qi < order.size(); ++qi) {
    const VertexId u = order[qi];
    for (ArcId a : g.out_arcs(u)) {
      const VertexId w = arcs[a].head;
      if (--indeg[w] == 0) order.push_back(w);
    }
  }
  return order.size() == n;  // short: directed cycle
}

std::optional<std::vector<VertexId>> topological_sort(const Digraph& g) {
  std::vector<VertexId> order;
  std::vector<std::uint32_t> indeg;
  if (!topological_sort_into(g, order, indeg)) return std::nullopt;
  return order;
}

bool is_dag(const Digraph& g) { return topological_sort(g).has_value(); }

std::vector<std::uint32_t> topo_positions(const Digraph& g,
                                          const std::vector<VertexId>& order) {
  WDAG_REQUIRE(order.size() == g.num_vertices(),
               "topo_positions: order size mismatch");
  std::vector<std::uint32_t> pos(order.size(), UINT32_MAX);
  for (std::uint32_t i = 0; i < order.size(); ++i) {
    WDAG_REQUIRE(order[i] < order.size(), "topo_positions: bad vertex id");
    WDAG_REQUIRE(pos[order[i]] == UINT32_MAX,
                 "topo_positions: order is not a permutation");
    pos[order[i]] = i;
  }
  return pos;
}

std::vector<ArcId> arcs_in_tail_topo_order(const Digraph& g) {
  const auto order = topological_sort(g);
  WDAG_REQUIRE(order.has_value(),
               "arcs_in_tail_topo_order: input is not a DAG");
  std::vector<ArcId> arcs;
  arcs_in_tail_topo_order_into(g, *order, arcs);
  return arcs;
}

void arcs_in_tail_topo_order_into(const Digraph& g,
                                  std::span<const VertexId> order,
                                  std::vector<ArcId>& out) {
  WDAG_ASSERT(order.size() == g.num_vertices(),
              "arcs_in_tail_topo_order: order is not a full vertex order");
  out.clear();
  out.reserve(g.num_arcs());
  for (VertexId v : order) {
    // out_arcs() already lists arcs in ascending id order (ids are handed
    // out in insertion order and the CSR fill preserves it).
    for (ArcId a : g.out_arcs(v)) out.push_back(a);
  }
}

}  // namespace wdag::graph
