#pragma once
// Dipaths: directed paths given as arc sequences.
//
// A dipath is the unit the paper colors: requests are satisfied by dipaths,
// two dipaths conflict when they share an arc, and the load of an arc is
// how many dipaths of the family contain it.

#include <span>
#include <string>
#include <vector>

#include "graph/digraph.hpp"

namespace wdag::paths {

/// A non-empty directed path, stored as consecutive arc ids.
/// Invariant (checked by is_valid_dipath): head(arcs[i]) == tail(arcs[i+1])
/// and no arc repeats.
///
/// The readers below take the arcs as a span, which is what
/// DipathFamily::path returns; a Dipath converts to one.
struct Dipath {
  std::vector<graph::ArcId> arcs;

  Dipath() = default;
  explicit Dipath(std::vector<graph::ArcId> a) : arcs(std::move(a)) {}

  [[nodiscard]] bool empty() const { return arcs.empty(); }
  [[nodiscard]] std::size_t length() const { return arcs.size(); }

  operator std::span<const graph::ArcId>() const { return arcs; }

  bool operator==(const Dipath&) const = default;
};

/// First vertex of the dipath (requires non-empty).
graph::VertexId path_source(const graph::Digraph& g,
                            std::span<const graph::ArcId> p);

/// Last vertex of the dipath (requires non-empty).
graph::VertexId path_target(const graph::Digraph& g,
                            std::span<const graph::ArcId> p);

/// All vertices along the dipath, source first (length+1 entries).
std::vector<graph::VertexId> path_vertices(const graph::Digraph& g,
                                           std::span<const graph::ArcId> p);

/// True when p is a consistent simple dipath of g: non-empty, arcs chain
/// head-to-tail, and no vertex repeats (so no arc repeats either).
bool is_valid_dipath(const graph::Digraph& g, std::span<const graph::ArcId> p);

/// True when p contains the arc a.
bool contains_arc(std::span<const graph::ArcId> p, graph::ArcId a);

/// True when p and q share at least one arc (the paper's conflict
/// relation). O(|p| + |q|) with a scratch flag vector is done by the
/// conflict module; this is the simple O(|p|*|q|) pairwise check.
bool paths_conflict(std::span<const graph::ArcId> p,
                    std::span<const graph::ArcId> q);

/// Arcs present in both p and q, in p's order.
std::vector<graph::ArcId> shared_arcs(std::span<const graph::ArcId> p,
                                      std::span<const graph::ArcId> q);

/// Builds the dipath visiting the given vertices via the first arc found
/// between consecutive ones; throws InvalidArgument when an arc is missing.
Dipath dipath_through(const graph::Digraph& g,
                      const std::vector<graph::VertexId>& vertices);

/// Builds a dipath from vertex labels (see Digraph::vertex_by_name).
Dipath dipath_through_names(const graph::Digraph& g,
                            const std::vector<std::string>& names);

/// Human-readable "v0 -> v1 -> ..." rendering.
std::string path_to_string(const graph::Digraph& g,
                           std::span<const graph::ArcId> p);

}  // namespace wdag::paths
