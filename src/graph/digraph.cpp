#include "graph/digraph.hpp"

#include <unordered_map>

#include "util/check.hpp"

namespace wdag::graph {

ArcId Digraph::find_arc(VertexId u, VertexId v) const {
  WDAG_REQUIRE(u < num_vertices() && v < num_vertices(),
               "Digraph::find_arc: vertex out of range");
  ArcId best = kNoArc;
  for (ArcId a : out_arcs(u)) {
    if (arcs_[a].head == v && (best == kNoArc || a < best)) best = a;
  }
  return best;
}

const std::string& Digraph::vertex_name(VertexId v) const {
  WDAG_REQUIRE(v < num_vertices(), "Digraph::vertex_name: vertex out of range");
  return names_[v];
}

std::string Digraph::vertex_label(VertexId v) const {
  const std::string& n = vertex_name(v);
  if (!n.empty()) return n;
  std::string label = "v";
  label += std::to_string(v);
  return label;
}

std::optional<VertexId> Digraph::vertex_by_name(const std::string& name) const {
  if (name.empty()) return std::nullopt;
  for (VertexId v = 0; v < names_.size(); ++v) {
    if (names_[v] == name) return v;
  }
  return std::nullopt;
}

VertexId DigraphBuilder::add_vertex(const std::string& name) {
  names_.push_back(name);
  return static_cast<VertexId>(names_.size() - 1);
}

VertexId DigraphBuilder::vertex(const std::string& name) {
  WDAG_REQUIRE(!name.empty(), "DigraphBuilder::vertex: name must be non-empty");
  for (VertexId v = 0; v < names_.size(); ++v) {
    if (names_[v] == name) return v;
  }
  return add_vertex(name);
}

ArcId DigraphBuilder::add_arc(const std::string& u, const std::string& v) {
  const VertexId a = vertex(u);
  const VertexId b = vertex(v);
  return add_arc(a, b);
}

Digraph DigraphBuilder::build() const {
  Digraph g;
  build_into(g);
  return g;
}

void DigraphBuilder::build_into(Digraph& g) const {
  g.arcs_.assign(arcs_.begin(), arcs_.end());
  g.names_.assign(names_.begin(), names_.end());
  const std::size_t n = names_.size();
  g.out_begin_.assign(n + 1, 0);
  g.in_begin_.assign(n + 1, 0);
  for (const Arc& a : arcs_) {
    ++g.out_begin_[a.tail + 1];
    ++g.in_begin_[a.head + 1];
  }
  for (std::size_t v = 0; v < n; ++v) {
    g.out_begin_[v + 1] += g.out_begin_[v];
    g.in_begin_[v + 1] += g.in_begin_[v];
  }
  g.out_list_.resize(arcs_.size());
  g.in_list_.resize(arcs_.size());
  // Fill with the begin tables as cursors: afterwards begin[v] holds the
  // old begin[v + 1], so shift them back by one.
  for (ArcId id = 0; id < arcs_.size(); ++id) {
    g.out_list_[g.out_begin_[arcs_[id].tail]++] = id;
    g.in_list_[g.in_begin_[arcs_[id].head]++] = id;
  }
  for (std::size_t v = n; v-- > 1;) {
    g.out_begin_[v] = g.out_begin_[v - 1];
    g.in_begin_[v] = g.in_begin_[v - 1];
  }
  g.out_begin_[0] = 0;
  g.in_begin_[0] = 0;
}

}  // namespace wdag::graph
