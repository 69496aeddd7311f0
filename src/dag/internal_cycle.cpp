#include "dag/internal_cycle.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/union_find.hpp"

namespace wdag::dag {

using graph::ArcId;
using graph::Digraph;
using graph::VertexId;

namespace {

/// Indegree and outdegree both positive.
bool is_internal(const Digraph& g, VertexId v) {
  return g.in_degree(v) > 0 && g.out_degree(v) > 0;
}

/// internal_arcs_into() into a per-thread buffer, for the one-shot queries.
const std::vector<ArcId>& internal_arcs(const Digraph& g) {
  thread_local std::vector<ArcId> arcs;
  internal_arcs_into(g, arcs);
  return arcs;
}

}  // namespace

void internal_arcs_into(const Digraph& g, std::vector<ArcId>& out) {
  out.clear();
  const auto& all = g.arcs();
  for (ArcId a = 0; a < all.size(); ++a) {
    if (is_internal(g, all[a].tail) && is_internal(g, all[a].head)) {
      out.push_back(a);
    }
  }
}

bool has_internal_cycle(const Digraph& g) {
  return internal_cycle_count(g) != 0;
}

std::size_t internal_cycle_count(const Digraph& g) {
  return internal_cycle_count(g, internal_arcs(g));
}

std::size_t internal_cycle_count(const Digraph& g,
                                 std::span<const ArcId> arcs) {
  // Cyclomatic number of the internal sub-multigraph = number of arcs that
  // close a cycle during union-find, i.e. m' - (n' - c').
  thread_local util::UnionFind uf;
  uf.reset(g.num_vertices());
  std::size_t closing = 0;
  for (const ArcId a : arcs) {
    if (!uf.unite(g.tail(a), g.head(a))) ++closing;
  }
  return closing;
}

std::optional<OrientedCycle> find_internal_cycle(const Digraph& g) {
  OrientedCycle cyc;
  if (!find_internal_cycle(g, internal_arcs(g), cyc)) return std::nullopt;
  return cyc;
}

bool find_internal_cycle(const Digraph& g, std::span<const ArcId> arcs,
                         OrientedCycle& out) {
  out.steps.clear();
  if (arcs.empty()) return false;

  // Undirected incidence restricted to internal arcs, in flat CSR form.
  // Entry order within a vertex is ascending arc id, so the DFS and the
  // extracted cycle depend only on the list's order.
  struct Edge {
    VertexId to;
    ArcId arc;
    bool forward;  // true: walk tail->head
  };
  const std::size_t n = g.num_vertices();
  thread_local std::vector<std::uint32_t> adj_off, cursor;
  thread_local std::vector<Edge> adj;
  adj_off.assign(n + 1, 0);
  for (const ArcId a : arcs) {
    ++adj_off[g.tail(a) + 1];
    ++adj_off[g.head(a) + 1];
  }
  for (std::size_t v = 0; v < n; ++v) adj_off[v + 1] += adj_off[v];
  adj.resize(2 * arcs.size());
  cursor.assign(adj_off.begin(), adj_off.end() - 1);
  for (const ArcId a : arcs) {
    adj[cursor[g.tail(a)]++] = Edge{g.head(a), a, true};
    adj[cursor[g.head(a)]++] = Edge{g.tail(a), a, false};
  }

  // Iterative DFS. For each visited vertex remember the (arc, forward) step
  // used to enter it and its DFS parent; the first non-parent edge to a
  // visited *active* vertex closes a cycle. Every vertex with an incident
  // internal arc is internal, so the roots are exactly the internal
  // vertices that have one.
  thread_local std::vector<std::uint8_t> state;
  thread_local std::vector<CycleStep> entry;
  thread_local std::vector<VertexId> parent, stack;
  thread_local std::vector<std::uint32_t> edge_it;
  state.assign(n, 0);  // 0 unvisited, 1 active, 2 done
  entry.assign(n, CycleStep{});
  parent.assign(n, graph::kNoVertex);
  edge_it.assign(n, 0);

  for (VertexId root = 0; root < n; ++root) {
    if (state[root] != 0 || adj_off[root] == adj_off[root + 1]) continue;
    stack.assign(1, root);
    state[root] = 1;
    while (!stack.empty()) {
      const VertexId u = stack.back();
      if (adj_off[u] + edge_it[u] == adj_off[u + 1]) {
        state[u] = 2;
        stack.pop_back();
        continue;
      }
      const Edge e = adj[adj_off[u] + edge_it[u]++];
      if (parent[u] != graph::kNoVertex && e.arc == entry[u].arc) {
        continue;  // do not reuse the entering edge
      }
      if (state[e.to] == 0) {
        state[e.to] = 1;
        parent[e.to] = u;
        entry[e.to] = CycleStep{e.arc, e.forward};
        stack.push_back(e.to);
      } else if (state[e.to] == 1) {
        // Cycle: e.to is an ancestor of u on the DFS stack. Walk u's parent
        // chain back to e.to, then close with edge e.
        for (VertexId w = u; w != e.to;) {
          out.steps.push_back(entry[w]);
          w = parent[w];
          WDAG_ASSERT(w != graph::kNoVertex,
                      "find_internal_cycle: broken parent chain");
        }
        std::reverse(out.steps.begin(), out.steps.end());
        // The closing step walks u -> e.to; orientation flag already
        // matches because Edge.forward describes the u -> e.to direction.
        out.steps.push_back(CycleStep{e.arc, e.forward});
        WDAG_ASSERT(is_valid_oriented_cycle(g, out),
                    "find_internal_cycle: extracted cycle is invalid");
        for (const CycleStep& step : out.steps) {
          WDAG_ASSERT(is_internal(g, step_start(g, step)),
                      "find_internal_cycle: extracted cycle is not internal");
        }
        return true;
      }
      // state[e.to] == 2: finished component part; no cycle through here.
    }
  }
  return false;
}

bool is_internal_cycle(const Digraph& g, const OrientedCycle& c) {
  if (!is_valid_oriented_cycle(g, c)) return false;
  for (const CycleStep& step : c.steps) {
    if (!is_internal(g, step_start(g, step))) return false;
  }
  return true;
}

}  // namespace wdag::dag
