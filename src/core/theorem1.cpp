#include "core/theorem1.hpp"

#include <algorithm>
#include <vector>

#include "graph/topo.hpp"
#include "paths/load.hpp"
#include "util/check.hpp"

namespace wdag::core {

using graph::ArcId;
using graph::Digraph;
using graph::VertexId;
using paths::DipathFamily;
using paths::FlatFamily;
using paths::PathId;

namespace {

constexpr std::uint32_t kNone = UINT32_MAX;

/// One incidence record: path p contains the replayed arc at position pos.
struct IncEntry {
  PathId p;
  std::uint32_t pos;
};

/// A set over 0 .. n - 1 that empties in O(1): i is in it iff
/// mark[i] == epoch, so a new epoch drops every member at once.
struct StampSet {
  std::vector<std::uint32_t> mark;
  std::uint32_t epoch = 0;

  /// Empties the set and sizes it for members 0 .. n - 1.
  void reset(std::size_t n) {
    if (mark.size() < n) mark.resize(n, 0);
    if (++epoch == 0) {  // wrapped: clear the marks once
      std::fill(mark.begin(), mark.end(), 0);
      epoch = 1;
    }
  }
  [[nodiscard]] bool contains(std::uint32_t i) const { return mark[i] == epoch; }
  void insert(std::uint32_t i) { mark[i] = epoch; }
};

/// Reusable buffers of the replay. One instance per thread: the batch
/// engine pushes thousands of instances through color_equal_load per
/// worker, and the replay's small per-arc vectors dominated its cost.
struct Scratch {
  std::vector<std::uint32_t> inc_offsets;  ///< CSR arc -> incidence entries
  std::vector<IncEntry> inc_entries;
  std::vector<std::uint32_t> begin;
  std::vector<std::uint32_t> color;
  std::vector<PathId> actives, newborns, frontier, next;
  std::vector<std::uint32_t> cursor;
  StampSet held;                     ///< colors held by the actives
  std::vector<std::uint32_t> owner;  ///< per held color: an active holding it
  StampSet flipped;                  ///< paths the current chain flipped
};

Scratch& scratch() {
  thread_local Scratch s;
  return s;
}

/// Incremental state of the reverse arc-replay.
struct Replay {
  const FlatFamily& family;
  const Digraph& g;
  Scratch& s;
  /// Current palette size (running max load == pi of the replayed graph).
  std::uint32_t palette = 0;

  std::size_t chain_recolorings = 0;
  std::size_t paths_flipped = 0;

  Replay(const Digraph& host, const FlatFamily& fam)
      : family(fam), g(host), s(scratch()) {
    const std::size_t n = family.size();
    // CSR incidence: entries of arc a at [inc_offsets[a], inc_offsets[a+1]),
    // filled in (path id, position) order like the per-arc vectors were.
    s.inc_offsets.assign(g.num_arcs() + 1, 0);
    for (const ArcId a : family.arcs) ++s.inc_offsets[a + 1];
    for (std::size_t a = 0; a < g.num_arcs(); ++a) {
      s.inc_offsets[a + 1] += s.inc_offsets[a];
    }
    s.inc_entries.resize(family.arcs.size());
    s.begin.resize(n);
    s.color.assign(n, kNone);
    s.cursor.assign(s.inc_offsets.begin(), s.inc_offsets.end() - 1);
    for (PathId p = 0; p < n; ++p) {
      const auto arcs = family.path(p);
      s.begin[p] = static_cast<std::uint32_t>(arcs.size());
      for (std::uint32_t i = 0; i < arcs.size(); ++i) {
        s.inc_entries[s.cursor[arcs[i]]++] = IncEntry{p, i};
      }
    }
  }

  /// True when path p currently has at least one active arc.
  [[nodiscard]] bool active(PathId p) const {
    return s.begin[p] < family.path(p).size();
  }

  /// Appends to `out` (deduplicated) the paths with the given color sharing
  /// an active arc with path p, excluding p itself. Only active arcs of p
  /// are scanned; an arc is active for every path containing it as soon as
  /// it is replayed.
  void conflicts_with_color(PathId p, std::uint32_t wanted,
                            std::vector<PathId>& out) const {
    const auto arcs = family.path(p);
    for (std::uint32_t i = s.begin[p]; i < arcs.size(); ++i) {
      const ArcId a = arcs[i];
      for (std::uint32_t e = s.inc_offsets[a]; e < s.inc_offsets[a + 1]; ++e) {
        const auto [q, pos] = s.inc_entries[e];
        if (q == p || s.color[q] != wanted) continue;
        if (s.begin[q] > pos) continue;  // arc not yet active for q
        if (std::find(out.begin(), out.end(), q) == out.end()) {
          out.push_back(q);
        }
      }
    }
  }

  /// The paper's alpha/beta chain: flips `start` from alpha to beta and
  /// propagates, keeping `kept` (colored alpha) untouched. Throws
  /// InternalError if the chain would flip an already-flipped path (case B)
  /// or the kept path (case C) — both impossible without internal cycles.
  void chain_flip(PathId kept, PathId start, std::uint32_t alpha,
                  std::uint32_t beta) {
    ++chain_recolorings;
    s.flipped.reset(family.size());
    s.frontier.clear();
    s.frontier.push_back(start);
    s.color[start] = beta;
    s.flipped.insert(start);
    ++paths_flipped;
    std::uint32_t from = beta;  // color whose holders now conflict with the
                                // frontier (they kept `from`, frontier holds
                                // it now too)
    std::uint32_t to = alpha;
    while (!s.frontier.empty()) {
      // All paths colored `from` that intersect a frontier member must flip
      // to `to`.
      s.next.clear();
      for (const PathId f : s.frontier) {
        const std::size_t before = s.next.size();
        conflicts_with_color(f, from, s.next);
        for (std::size_t i = before; i < s.next.size(); ++i) {
          const PathId q = s.next[i];
          WDAG_ASSERT(!s.flipped.contains(q),
                      "theorem1 chain: case B (re-flip) occurred; the host "
                      "graph must contain an internal cycle");
          WDAG_ASSERT(q != kept,
                      "theorem1 chain: case C (kept path hit) occurred; the "
                      "host graph must contain an internal cycle");
        }
      }
      for (const PathId q : s.next) {
        s.color[q] = to;
        s.flipped.insert(q);
        ++paths_flipped;
      }
      std::swap(s.frontier, s.next);
      std::swap(from, to);
    }
  }

  /// Restores arc e: makes the suffix colors of the paths through e
  /// pairwise distinct, prepends e to them, and colors the paths that
  /// consist of e alone.
  void add_arc(ArcId e) {
    const std::uint32_t lo = s.inc_offsets[e];
    const std::uint32_t hi = s.inc_offsets[e + 1];
    if (lo == hi) return;
    palette = std::max(palette, hi - lo);

    s.actives.clear();   // non-empty suffixes, already colored
    s.newborns.clear();  // paths reduced to the single arc e
    for (std::uint32_t i = lo; i < hi; ++i) {
      const auto [p, pos] = s.inc_entries[i];
      WDAG_ASSERT(s.begin[p] == pos + 1,
                  "theorem1 replay: arc order violates front-removal");
      if (active(p)) {
        s.actives.push_back(p);
      } else {
        s.newborns.push_back(p);
      }
    }

    // Make the active suffix colors pairwise distinct (paper's recoloring).
    // Each successful chain strictly increases the number of distinct
    // colors used by `actives`, so at most |actives| rounds run. One pass
    // per round finds a duplicated color alpha with its two paths, and
    // leaves the actives' colors in `held`.
    for (std::size_t guard = 0;; ++guard) {
      WDAG_ASSERT(guard <= s.actives.size() + 1,
                  "theorem1: distinct-color loop failed to make progress");
      s.held.reset(palette);
      if (s.owner.size() < palette) s.owner.resize(palette);
      PathId kept = kNone, dup = kNone;
      for (const PathId p : s.actives) {
        const std::uint32_t c = s.color[p];
        WDAG_ASSERT(c != kNone && c < palette,
                    "theorem1: active path without a palette color");
        if (!s.held.contains(c)) {
          s.held.insert(c);
          s.owner[c] = p;
        } else if (dup == kNone) {
          kept = s.owner[c];
          dup = p;
        }
      }
      if (dup == kNone) break;  // all distinct

      // beta: a palette color used by no active suffix. It exists because
      // the actives use at most |actives|-1 <= |through|-1 < palette colors.
      std::uint32_t beta = 0;
      while (beta < palette && s.held.contains(beta)) ++beta;
      WDAG_ASSERT(beta < palette, "theorem1: no free color for the chain");
      chain_flip(kept, dup, s.color[dup], beta);
    }

    // Prepend e to every path through it.
    for (std::uint32_t i = lo; i < hi; ++i) {
      s.begin[s.inc_entries[i].p] = s.inc_entries[i].pos;
    }

    // Color the newborn single-arc paths with colors unused on e: the last
    // round above left exactly the actives' colors held.
    std::uint32_t next = 0;
    for (const PathId p : s.newborns) {
      while (next < palette && s.held.contains(next)) ++next;
      WDAG_ASSERT(next < palette,
                  "theorem1: palette exhausted while coloring newborns");
      s.color[p] = next;
      s.held.insert(next);
    }
  }
};

}  // namespace

void color_equal_load_into(const Digraph& g, std::span<const VertexId> order,
                           const FlatFamily& family, Theorem1Result& res) {
  Replay replay(g, family);
  thread_local std::vector<ArcId> removal_order;
  graph::arcs_in_tail_topo_order_into(g, order, removal_order);
  for (auto it = removal_order.rbegin(); it != removal_order.rend(); ++it) {
    replay.add_arc(*it);
  }

  Scratch& s = scratch();
  res.coloring.assign(s.color.begin(), s.color.end());
  for (PathId p = 0; p < family.size(); ++p) {
    WDAG_ASSERT(res.coloring[p] != kNone, "theorem1: uncolored path remains");
  }
  // The replay's palette is exactly max group size over arcs == pi(G,P);
  // no need to recount arc loads.
  res.load = replay.palette;
  res.wavelengths = conflict::num_colors(res.coloring);
  res.chain_recolorings = replay.chain_recolorings;
  res.paths_flipped = replay.paths_flipped;
  WDAG_ASSERT(res.wavelengths == res.load,
              "theorem1: wavelength count differs from the load");
}

Theorem1Result color_equal_load(const DipathFamily& family,
                                const dag::DagReport& report) {
  WDAG_DOMAIN(report.is_dag, "color_equal_load: host graph is not a DAG");
  WDAG_DOMAIN(report.internal_cycles == 0,
              "color_equal_load: host graph has an internal cycle; "
              "Theorem 1 does not apply (use the split-merge solver)");

  Theorem1Result res;
  if (family.empty()) return res;

  color_equal_load_into(family.graph(), report.topo_order, family.flat(), res);
  return res;
}

Theorem1Result color_equal_load(const DipathFamily& family) {
  Theorem1Result res =
      color_equal_load(family, dag::classify(family.graph()));
  WDAG_ASSERT(conflict::is_valid_assignment(family, res.coloring),
              "theorem1: produced an invalid wavelength assignment");
  return res;
}

}  // namespace wdag::core
