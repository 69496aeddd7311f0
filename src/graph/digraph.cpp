#include "graph/digraph.hpp"

#include <algorithm>
#include <utility>

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
  static const std::string kUnnamed;
  return v < names_.size() ? names_[v] : kUnnamed;
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
  const auto v = static_cast<VertexId>(num_vertices_++);
  if (!name.empty()) {
    names_.resize(num_vertices_);
    names_[v] = name;
  }
  return v;
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

Digraph DigraphBuilder::build() const& {
  Digraph g;
  build_into(g);
  return g;
}

Digraph DigraphBuilder::build() && {
  Digraph g;
  g.arcs_ = std::move(arcs_);
  g.names_ = std::move(names_);
  arcs_.clear();
  names_.clear();
  index(g, std::exchange(num_vertices_, 0));
  return g;
}

void DigraphBuilder::build_into(Digraph& g) const {
  g.arcs_.assign(arcs_.begin(), arcs_.end());
  g.names_.assign(names_.begin(), names_.end());
  index(g, num_vertices_);
}

void DigraphBuilder::split_into(const Digraph& g, ArcId ab, Digraph& out) {
  WDAG_REQUIRE(ab < g.num_arcs(), "DigraphBuilder::split_into: arc out of range");
  WDAG_REQUIRE(&g != &out, "DigraphBuilder::split_into: out aliases g");
  const std::size_t n = g.num_vertices();
  const std::size_t m = g.num_arcs();
  const VertexId a = g.arcs_[ab].tail;
  const VertexId b = g.arcs_[ab].head;
  const auto s = static_cast<VertexId>(n);
  const auto t = static_cast<VertexId>(n + 1);
  const auto arc_as = static_cast<ArcId>(m - 1);
  const auto arc_tb = static_cast<ArcId>(m);

  out.arcs_.resize(m + 1);
  std::copy(g.arcs_.begin(), g.arcs_.begin() + ab, out.arcs_.begin());
  std::copy(g.arcs_.begin() + ab + 1, g.arcs_.end(), out.arcs_.begin() + ab);
  out.arcs_[arc_as] = Arc{a, s};
  out.arcs_[arc_tb] = Arc{t, b};
  out.names_.clear();

  // Old vertices keep their degrees, so their offsets carry over. s has
  // one in-arc, t one out-arc; both lists end with the new vertices.
  out.out_begin_.resize(n + 3);
  out.in_begin_.resize(n + 3);
  std::copy(g.out_begin_.begin(), g.out_begin_.end(), out.out_begin_.begin());
  std::copy(g.in_begin_.begin(), g.in_begin_.end(), out.in_begin_.begin());
  out.out_begin_[n + 1] = static_cast<std::uint32_t>(m);      // s: none
  out.out_begin_[n + 2] = static_cast<std::uint32_t>(m + 1);  // t: (t,b)
  out.in_begin_[n + 1] = static_cast<std::uint32_t>(m + 1);   // s: (a,s)
  out.in_begin_[n + 2] = static_cast<std::uint32_t>(m + 1);   // t: none

  // Renumbering is monotone, so every list stays ascending. In the list
  // that held ab (a's out-list, b's in-list), the entries after it shift
  // down one slot and the new arc, the largest id, takes the last slot.
  const auto split_list = [ab, m](const std::vector<ArcId>& from,
                                   std::uint32_t end, ArcId added,
                                   std::vector<ArcId>& to) {
    const auto renumber = [ab](ArcId e) { return e - (e > ab ? 1 : 0); };
    to.resize(m + 1);
    std::uint32_t i = 0;
    for (; from[i] != ab; ++i) to[i] = renumber(from[i]);
    for (; i + 1 < end; ++i) to[i] = renumber(from[i + 1]);
    to[i++] = added;
    for (; i < m; ++i) to[i] = renumber(from[i]);
  };
  split_list(g.out_list_, g.out_begin_[a + 1], arc_as, out.out_list_);
  split_list(g.in_list_, g.in_begin_[b + 1], arc_tb, out.in_list_);
  out.out_list_[m] = arc_tb;  // t's out-list
  out.in_list_[m] = arc_as;   // s's in-list
}

void DigraphBuilder::index(Digraph& g, std::size_t n) {
  const std::vector<Arc>& arcs = g.arcs_;
  g.out_begin_.assign(n + 1, 0);
  g.in_begin_.assign(n + 1, 0);
  for (const Arc& a : arcs) {
    ++g.out_begin_[a.tail + 1];
    ++g.in_begin_[a.head + 1];
  }
  for (std::size_t v = 0; v < n; ++v) {
    g.out_begin_[v + 1] += g.out_begin_[v];
    g.in_begin_[v + 1] += g.in_begin_[v];
  }
  g.out_list_.resize(arcs.size());
  g.in_list_.resize(arcs.size());
  // Fill with the begin tables as cursors: afterwards begin[v] holds the
  // old begin[v + 1], so shift them back by one.
  for (ArcId id = 0; id < arcs.size(); ++id) {
    g.out_list_[g.out_begin_[arcs[id].tail]++] = id;
    g.in_list_[g.in_begin_[arcs[id].head]++] = id;
  }
  for (std::size_t v = n; v-- > 1;) {
    g.out_begin_[v] = g.out_begin_[v - 1];
    g.in_begin_[v] = g.in_begin_[v - 1];
  }
  g.out_begin_[0] = 0;
  g.in_begin_[0] = 0;
}

}  // namespace wdag::graph
