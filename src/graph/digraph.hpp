#pragma once
// The digraph substrate: an arc-indexed directed multigraph.
//
// Everything in the library identifies vertices and arcs by dense integer
// ids (VertexId / ArcId). Arcs are first-class because the paper's central
// quantities — load, conflicts, wavelengths — are all *per arc*.
//
// A Digraph is immutable once built (construct through DigraphBuilder),
// which lets adjacency be stored contiguously and shared freely across
// threads without synchronization.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace wdag::graph {

using VertexId = std::uint32_t;
using ArcId = std::uint32_t;

/// Sentinel for "no vertex".
inline constexpr VertexId kNoVertex = static_cast<VertexId>(-1);
/// Sentinel for "no arc".
inline constexpr ArcId kNoArc = static_cast<ArcId>(-1);

/// A directed arc tail -> head.
struct Arc {
  VertexId tail = kNoVertex;
  VertexId head = kNoVertex;

  bool operator==(const Arc&) const = default;
};

class DigraphBuilder;

/// Immutable directed multigraph with O(1) arc lookup by id and
/// contiguous per-vertex incidence lists.
class Digraph {
 public:
  Digraph() = default;

  /// Number of vertices.
  [[nodiscard]] std::size_t num_vertices() const { return out_begin_.empty() ? 0 : out_begin_.size() - 1; }

  /// Number of arcs.
  [[nodiscard]] std::size_t num_arcs() const { return arcs_.size(); }

  /// The arc with the given id.
  [[nodiscard]] const Arc& arc(ArcId a) const {
    WDAG_REQUIRE(a < arcs_.size(), "Digraph::arc: arc id out of range");
    return arcs_[a];
  }

  /// Tail vertex of arc a.
  [[nodiscard]] VertexId tail(ArcId a) const { return arc(a).tail; }

  /// Head vertex of arc a.
  [[nodiscard]] VertexId head(ArcId a) const { return arc(a).head; }

  /// All arcs, indexed by ArcId.
  [[nodiscard]] const std::vector<Arc>& arcs() const { return arcs_; }

  /// Ids of arcs leaving v, in insertion order (== ascending arc id).
  [[nodiscard]] std::span<const ArcId> out_arcs(VertexId v) const {
    WDAG_REQUIRE(v < num_vertices(), "Digraph::out_arcs: vertex out of range");
    return {out_list_.data() + out_begin_[v],
            out_list_.data() + out_begin_[v + 1]};
  }

  /// Ids of arcs entering v, in insertion order (== ascending arc id).
  [[nodiscard]] std::span<const ArcId> in_arcs(VertexId v) const {
    WDAG_REQUIRE(v < num_vertices(), "Digraph::in_arcs: vertex out of range");
    return {in_list_.data() + in_begin_[v],
            in_list_.data() + in_begin_[v + 1]};
  }

  /// Out-degree of v.
  [[nodiscard]] std::size_t out_degree(VertexId v) const { return out_arcs(v).size(); }

  /// In-degree of v.
  [[nodiscard]] std::size_t in_degree(VertexId v) const { return in_arcs(v).size(); }

  /// Some arc u -> v, or kNoArc when absent. For multigraphs returns the
  /// first matching arc by id.
  [[nodiscard]] ArcId find_arc(VertexId u, VertexId v) const;

  /// Optional human-readable vertex name (empty when unnamed).
  [[nodiscard]] const std::string& vertex_name(VertexId v) const;

  /// Display label: the vertex name when set, otherwise "v<i>".
  [[nodiscard]] std::string vertex_label(VertexId v) const;

  /// Vertex id for a name set through the builder; nullopt when unknown.
  [[nodiscard]] std::optional<VertexId> vertex_by_name(const std::string& name) const;

 private:
  friend class DigraphBuilder;

  std::vector<Arc> arcs_;
  // CSR-style incidence: out_begin_[v] .. out_begin_[v+1] index out_list_.
  std::vector<std::uint32_t> out_begin_, in_begin_;
  std::vector<ArcId> out_list_, in_list_;
  std::vector<std::string> names_;
};

/// Mutable builder for Digraph. Vertices may be added explicitly (named or
/// not) or implicitly by adding arcs between fresh ids.
class DigraphBuilder {
 public:
  DigraphBuilder() = default;

  /// Pre-creates n unnamed vertices 0..n-1.
  explicit DigraphBuilder(std::size_t n) { ensure_vertex(n == 0 ? kNoVertex : static_cast<VertexId>(n - 1)); }

  /// Adds (or returns) a named vertex.
  VertexId add_vertex(const std::string& name = "");

  /// Returns the vertex with this name, creating it when absent.
  VertexId vertex(const std::string& name);

  /// Adds arc u -> v (u and v are created if needed). Returns the arc id.
  /// Inline: generators and the split-merge recursion add arcs in tight
  /// loops across translation units.
  ArcId add_arc(VertexId u, VertexId v) {
    WDAG_REQUIRE(u != v, "DigraphBuilder::add_arc: self-loops are not allowed");
    ensure_vertex(u);
    ensure_vertex(v);
    arcs_.push_back(Arc{u, v});
    return static_cast<ArcId>(arcs_.size() - 1);
  }

  /// Adds arc between named vertices, creating them when absent.
  ArcId add_arc(const std::string& u, const std::string& v);

  /// Number of vertices created so far.
  [[nodiscard]] std::size_t num_vertices() const { return names_.size(); }

  /// Number of arcs added so far.
  [[nodiscard]] std::size_t num_arcs() const { return arcs_.size(); }

  /// Empties the builder down to n unnamed vertices, keeping its storage
  /// (the split-merge recursion rebuilds one graph per level).
  void reset(std::size_t n) {
    arcs_.clear();
    names_.clear();
    names_.resize(n);
  }

  /// Freezes the builder into an immutable Digraph.
  [[nodiscard]] Digraph build() const;

  /// build(), into `out`, reusing its storage.
  void build_into(Digraph& out) const;

 private:
  void ensure_vertex(VertexId v) {
    if (v == kNoVertex) return;
    if (names_.size() <= v) names_.resize(static_cast<std::size_t>(v) + 1);
  }

  std::vector<Arc> arcs_;
  std::vector<std::string> names_;
};

}  // namespace wdag::graph
