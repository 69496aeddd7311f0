#pragma once
// Dipath families in flat CSR form, for hot loops that rebuild a family
// per step (the split-merge recursion, the Theorem-1 replay).
//
// Path p's arcs are arcs[offsets[p] .. offsets[p+1]). clear() keeps both
// buffers' capacity, so a FlatFamily reused across instances stops
// allocating once it has grown to the largest one.

#include <span>
#include <vector>

#include "paths/family.hpp"

namespace wdag::paths {

struct FlatFamily {
  std::vector<std::uint32_t> offsets = {0};
  std::vector<graph::ArcId> arcs;

  [[nodiscard]] std::size_t size() const { return offsets.size() - 1; }
  [[nodiscard]] bool empty() const { return size() == 0; }

  /// The arcs of path p.
  [[nodiscard]] std::span<const graph::ArcId> path(PathId p) const {
    return {arcs.data() + offsets[p], arcs.data() + offsets[p + 1]};
  }

  void clear() {
    offsets.assign(1, 0);
    arcs.clear();
  }

  /// Appends one arc to the path under construction.
  void push_arc(graph::ArcId a) { arcs.push_back(a); }

  /// Closes the path under construction.
  void end_path() { offsets.push_back(static_cast<std::uint32_t>(arcs.size())); }

  /// Appends a whole path (which must not alias this family's storage).
  void add(std::span<const graph::ArcId> p) {
    arcs.insert(arcs.end(), p.begin(), p.end());
    end_path();
  }

  /// Replaces the contents with `family`'s paths, in id order.
  void assign(const DipathFamily& family) {
    clear();
    for (const Dipath& p : family.paths()) add(p.arcs);
  }
};

}  // namespace wdag::paths
