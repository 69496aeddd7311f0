#include "paths/dipath.hpp"

#include <algorithm>
#include <sstream>

#include "util/check.hpp"

namespace wdag::paths {

using graph::ArcId;
using graph::Digraph;
using graph::VertexId;
using ArcSpan = std::span<const ArcId>;

VertexId path_source(const Digraph& g, ArcSpan p) {
  WDAG_REQUIRE(!p.empty(), "path_source: dipath is empty");
  return g.tail(p.front());
}

VertexId path_target(const Digraph& g, ArcSpan p) {
  WDAG_REQUIRE(!p.empty(), "path_target: dipath is empty");
  return g.head(p.back());
}

std::vector<VertexId> path_vertices(const Digraph& g, ArcSpan p) {
  WDAG_REQUIRE(!p.empty(), "path_vertices: dipath is empty");
  std::vector<VertexId> out;
  out.reserve(p.size() + 1);
  out.push_back(g.tail(p.front()));
  for (ArcId a : p) out.push_back(g.head(a));
  return out;
}

bool is_valid_dipath(const Digraph& g, ArcSpan p) {
  if (p.empty()) return false;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (p[i] >= g.num_arcs()) return false;
    if (i > 0 && g.head(p[i - 1]) != g.tail(p[i])) return false;
  }
  // Vertex-repetition check. The visited vertices are the arc tails plus
  // the final head; typical dipaths are a handful of arcs, so a quadratic
  // scan beats a set, with a sort fallback for long paths.
  const std::size_t len = p.size();
  if (len <= 32) {
    for (std::size_t i = 0; i < len; ++i) {
      const VertexId vi = g.tail(p[i]);
      for (std::size_t j = i + 1; j < len; ++j) {
        if (vi == g.tail(p[j])) return false;
      }
      if (vi == g.head(p.back())) return false;
    }
    return true;
  }
  std::vector<VertexId> seen;
  seen.reserve(len + 1);
  for (const ArcId a : p) seen.push_back(g.tail(a));
  seen.push_back(g.head(p.back()));
  std::sort(seen.begin(), seen.end());
  return std::adjacent_find(seen.begin(), seen.end()) == seen.end();
}

bool contains_arc(ArcSpan p, ArcId a) {
  return std::find(p.begin(), p.end(), a) != p.end();
}

bool paths_conflict(ArcSpan p, ArcSpan q) {
  for (ArcId a : p) {
    if (contains_arc(q, a)) return true;
  }
  return false;
}

std::vector<ArcId> shared_arcs(ArcSpan p, ArcSpan q) {
  std::vector<ArcId> out;
  for (ArcId a : p) {
    if (contains_arc(q, a)) out.push_back(a);
  }
  return out;
}

Dipath dipath_through(const Digraph& g, const std::vector<VertexId>& vertices) {
  WDAG_REQUIRE(vertices.size() >= 2,
               "dipath_through: need at least two vertices");
  Dipath p;
  p.arcs.reserve(vertices.size() - 1);
  for (std::size_t i = 0; i + 1 < vertices.size(); ++i) {
    const ArcId a = g.find_arc(vertices[i], vertices[i + 1]);
    WDAG_REQUIRE(a != graph::kNoArc,
                 "dipath_through: missing arc " + g.vertex_label(vertices[i]) +
                     " -> " + g.vertex_label(vertices[i + 1]));
    p.arcs.push_back(a);
  }
  return p;
}

Dipath dipath_through_names(const Digraph& g,
                            const std::vector<std::string>& names) {
  std::vector<VertexId> vs;
  vs.reserve(names.size());
  for (const auto& n : names) {
    const auto v = g.vertex_by_name(n);
    WDAG_REQUIRE(v.has_value(), "dipath_through_names: unknown vertex '" + n + "'");
    vs.push_back(*v);
  }
  return dipath_through(g, vs);
}

std::string path_to_string(const Digraph& g, ArcSpan p) {
  if (p.empty()) return "(empty)";
  std::ostringstream os;
  os << g.vertex_label(g.tail(p.front()));
  for (ArcId a : p) os << " -> " << g.vertex_label(g.head(a));
  return os.str();
}

}  // namespace wdag::paths
