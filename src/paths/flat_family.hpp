#pragma once
// Dipath families in flat CSR form: the storage of every DipathFamily,
// and the per-step families of hot loops (the split-merge recursion, the
// Theorem-1 replay).
//
// Path p's arcs are arcs[offsets[p] .. offsets[p+1]). clear() keeps both
// buffers' capacity, so a FlatFamily reused across instances stops
// allocating once it has grown to the largest one.

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "graph/digraph.hpp"

namespace wdag::paths {

/// Index of a dipath within a family.
using PathId = std::uint32_t;

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

  /// Sizes the buffers for `paths` more paths of `total_arcs` more arcs.
  void reserve(std::size_t paths, std::size_t total_arcs) {
    offsets.reserve(offsets.size() + paths);
    arcs.reserve(arcs.size() + total_arcs);
  }

  /// Appends one arc to the path under construction.
  void push_arc(graph::ArcId a) { arcs.push_back(a); }

  /// Closes the path under construction.
  void end_path() { offsets.push_back(static_cast<std::uint32_t>(arcs.size())); }

  /// Appends a whole path. `p` may be one of this family's own paths.
  void add(std::span<const graph::ArcId> p) {
    const std::less<const graph::ArcId*> before;
    if (!p.empty() && !before(p.data(), arcs.data()) &&
        before(p.data(), arcs.data() + arcs.size())) {
      // Growing the buffer would move p under the copy: copy by position.
      const std::size_t from = static_cast<std::size_t>(p.data() - arcs.data());
      for (std::size_t i = 0; i < p.size(); ++i) arcs.push_back(arcs[from + i]);
    } else {
      arcs.insert(arcs.end(), p.begin(), p.end());
    }
    end_path();
  }
};

}  // namespace wdag::paths
