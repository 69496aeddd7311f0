#include "core/split_merge.hpp"

#include <algorithm>
#include <deque>
#include <span>
#include <vector>

#include "core/theorem1.hpp"
#include "dag/internal_cycle.hpp"
#include "graph/topo.hpp"
#include "paths/flat_family.hpp"
#include "util/check.hpp"

namespace wdag::core {

using graph::ArcId;
using graph::Digraph;
using graph::VertexId;
using paths::DipathFamily;
using paths::FlatFamily;

namespace {

constexpr std::uint32_t kNone = UINT32_MAX;

/// Arc -> path-ids inverted index for fast fit queries, in flat CSR form
/// (members of arc a at ids[offsets[a] .. offsets[a+1]), in path order).
/// Rebuilt in place, so one index serves every level and instance.
struct ConflictIndex {
  std::vector<std::uint32_t> offsets, cursor, ids;

  /// Indexes the first `n` paths of `ps` on a host with `num_arcs` arcs.
  void build(std::size_t num_arcs, const FlatFamily& ps, std::size_t n) {
    offsets.assign(num_arcs + 1, 0);
    const std::span<const ArcId> arcs(ps.arcs.data(), ps.offsets[n]);
    for (const ArcId a : arcs) ++offsets[a + 1];
    for (std::size_t a = 0; a < num_arcs; ++a) offsets[a + 1] += offsets[a];
    ids.resize(arcs.size());
    cursor.assign(offsets.begin(), offsets.end() - 1);
    for (std::uint32_t i = 0; i < n; ++i) {
      for (const ArcId a : ps.path(i)) ids[cursor[a]++] = i;
    }
  }

  /// True when recoloring path `victim` to `c` keeps the assignment locally
  /// valid (no same-color path shares an arc with it).
  [[nodiscard]] bool fits(const FlatFamily& ps,
                          const std::vector<std::uint32_t>& color,
                          std::size_t victim, std::uint32_t c) const {
    for (const ArcId a : ps.path(static_cast<std::uint32_t>(victim))) {
      for (std::uint32_t e = offsets[a]; e < offsets[a + 1]; ++e) {
        const std::size_t q = ids[e];
        if (q != victim && q < color.size() && color[q] == c) return false;
      }
    }
    return true;
  }

  /// First conflicting same-color pair (arc ascending, members in path
  /// order), or false when the coloring is valid.
  [[nodiscard]] bool first_conflict(const std::vector<std::uint32_t>& color,
                                    std::size_t& p, std::size_t& q) const {
    for (std::size_t a = 0; a + 1 < offsets.size(); ++a) {
      for (std::uint32_t i = offsets[a]; i < offsets[a + 1]; ++i) {
        for (std::uint32_t j = i + 1; j < offsets[a + 1]; ++j) {
          if (color[ids[i]] == color[ids[j]]) {
            p = ids[i];
            q = ids[j];
            return true;
          }
        }
      }
    }
    return false;
  }
};

/// A dipath through the split arc, cut into a head and a tail.
struct SplitPair {
  std::uint32_t orig;  ///< padded path id at this level
  std::uint32_t head;  ///< its head's id in the next level's family
  std::uint32_t tail;  ///< its tail's id in the next level's family
};

/// One depth of the split recursion. Level 0 holds the input instance;
/// level d+1 holds the split of level d. Every buffer keeps its storage
/// across solves.
struct Level {
  const Digraph* graph = nullptr;  ///< host: the input at depth 0, else `split`
  Digraph split;                   ///< owned host of depths >= 1
  std::vector<ArcId> internal;     ///< internal arcs of *graph, ascending
  FlatFamily family;               ///< this level's paths, then the padding
  std::size_t inputs = 0;          ///< paths before padding
  std::vector<std::uint32_t> image;  ///< padded id -> next-level id (kNone: split)
  std::vector<SplitPair> pairs;
  std::vector<std::uint32_t> color;  ///< merged coloring of this level
};

/// The per-thread arena of the split-merge solver: one Level per depth,
/// plus buffers that are dead across the descent (loads, merge, tau-cycle
/// and fix-up state) and so serve every level. It grows to the largest
/// instance this thread has solved and is never shrunk.
struct Arena {
  std::deque<Level> levels;  // deque: growing keeps references valid
  dag::OrientedCycle cycle;
  graph::DigraphBuilder builder;
  std::vector<std::size_t> loads;
  Theorem1Result leaf;
  std::vector<VertexId> leaf_order;  ///< Kahn order of the bottom split graph
  std::vector<std::uint32_t> indeg;
  std::vector<std::uint32_t> by_head_color;
  std::vector<std::uint8_t> seen, merged;
  ConflictIndex index;
  std::vector<std::size_t> usage;
  std::vector<std::uint32_t> classes, attempt;

  Level& level(std::size_t d) {
    while (levels.size() <= d) levels.emplace_back();
    return levels[d];
  }
};

Arena& arena() {
  thread_local Arena a;
  return a;
}

/// Arc loads of a level into `loads`; returns the maximum (pi).
std::size_t loads_of_into(const Level& lv, std::vector<std::size_t>& loads) {
  loads.assign(lv.graph->num_arcs(), 0);
  for (const ArcId a : lv.family.arcs) ++loads[a];
  return loads.empty() ? 0 : *std::max_element(loads.begin(), loads.end());
}

/// Splits `cur` along the maximum-load arc of ar.cycle into `next`: pads
/// cur's family up to `pi` on that arc, builds the split graph, carries the
/// internal-arc list down, and cuts the padded family into next's family.
void split_level(Arena& ar, Level& cur, Level& next, std::size_t pi) {
  const Digraph& g = *cur.graph;
  const auto& loads = ar.loads;

  // Split arc: maximum load among the cycle's arcs (paper's choice).
  ArcId ab = graph::kNoArc;
  for (const auto& step : ar.cycle.steps) {
    if (ab == graph::kNoArc || loads[step.arc] > loads[ab]) ab = step.arc;
  }

  // Pad with single-arc copies of [a,b] up to the level's load. A coloring
  // of the padded family restricts to a (no worse) coloring of the input.
  cur.inputs = cur.family.size();
  for (std::size_t l = loads[ab]; l < pi; ++l) cur.family.add({&ab, 1});

  // The split graph: (a,b) becomes (a,s) and (t,b); every other arc keeps
  // its relative order, so arc e > ab is renumbered e - 1.
  const auto& g_arcs = g.arcs();
  const VertexId a = g_arcs[ab].tail;
  const VertexId b = g_arcs[ab].head;
  const VertexId n = static_cast<VertexId>(g.num_vertices());
  graph::DigraphBuilder& builder = ar.builder;
  builder.reset(g.num_vertices());
  for (ArcId e = 0; e < g.num_arcs(); ++e) {
    if (e != ab) builder.add_arc(g_arcs[e].tail, g_arcs[e].head);
  }
  const VertexId s = builder.add_vertex("split_s");
  const VertexId t = builder.add_vertex("split_t");
  WDAG_ASSERT(s == n && t == n + 1, "split_merge: unexpected split vertex ids");
  const ArcId arc_as = builder.add_arc(a, s);
  const ArcId arc_tb = builder.add_arc(t, b);
  builder.build_into(next.split);
  next.graph = &next.split;
  const auto renumber = [ab](ArcId e) { return e > ab ? e - 1 : e; };

  // s is a sink and t a source, while a and b keep their degrees: the
  // split graph's internal arcs are this level's minus (a,b), renumbered.
  next.internal.clear();
  for (const ArcId e : cur.internal) {
    if (e != ab) next.internal.push_back(renumber(e));
  }

  // Transform the padded family: every path through (a,b) contributes a
  // head [x..a,s] and a tail [t,b..y], every other path its image.
  FlatFamily& sub = next.family;
  sub.clear();
  cur.image.resize(cur.family.size());
  cur.pairs.clear();
  for (std::uint32_t i = 0; i < cur.family.size(); ++i) {
    const auto arcs = cur.family.path(i);
    const auto it = std::find(arcs.begin(), arcs.end(), ab);
    if (it == arcs.end()) {
      for (const ArcId e : arcs) sub.push_arc(renumber(e));
      sub.end_path();
      cur.image[i] = static_cast<std::uint32_t>(sub.size() - 1);
      continue;
    }
    cur.image[i] = kNone;
    for (auto jt = arcs.begin(); jt != it; ++jt) sub.push_arc(renumber(*jt));
    sub.push_arc(arc_as);
    sub.end_path();
    sub.push_arc(arc_tb);
    for (auto jt = it + 1; jt != arcs.end(); ++jt) sub.push_arc(renumber(*jt));
    sub.end_path();
    const auto tail_id = static_cast<std::uint32_t>(sub.size() - 1);
    cur.pairs.push_back(SplitPair{i, tail_id - 1, tail_id});
  }
  WDAG_ASSERT(cur.pairs.size() == pi || pi == 0,
              "split_merge: split count must equal the padded load");
}

/// Merges the next level's coloring `sub` back onto `lv` (the paper's
/// head/tail rejoin), repairs the conflicts it creates, and leaves the
/// coloring of lv's unpadded paths in lv.color.
void merge_level(Arena& ar, Level& lv, std::span<const std::uint32_t> sub,
                 SplitMergeResult& res) {
  const std::size_t padded = lv.family.size();
  auto& color = lv.color;
  color.assign(padded, kNone);
  std::uint32_t max_color = 0;
  for (const std::uint32_t c : sub) max_color = std::max(max_color, c);

  for (std::size_t i = 0; i < padded; ++i) {
    if (lv.image[i] != kNone) color[i] = sub[lv.image[i]];
  }

  // Heads pairwise share (a,s): their colors are pi distinct values.
  // tau maps head color -> tail color; decompose into chains and cycles.
  // Flat color-indexed table (head colors are bounded by max_color).
  auto& by_head_color = ar.by_head_color;
  by_head_color.assign(std::size_t{max_color} + 1, kNone);
  for (std::uint32_t k = 0; k < lv.pairs.size(); ++k) {
    std::uint32_t& slot = by_head_color[sub[lv.pairs[k].head]];
    WDAG_ASSERT(slot == kNone,
                "split_merge: head colors must be pairwise distinct");
    slot = k;
  }
  const auto tau_next = [&](std::uint32_t tail_color) {
    return tail_color <= max_color ? by_head_color[tail_color] : kNone;
  };
  // Every merged dipath keeps its head color: heads are pairwise distinct,
  // so merged dipaths (which all contain (a,b)) stay pairwise compatible.
  for (const SplitPair& pr : lv.pairs) color[pr.orig] = sub[pr.head];

  // Count tau-cycles of length >= 2 — the paper's classes C_p — for the
  // bound accounting (each such class may force one extra color, pairs of
  // 2-cycles share one; the fix-up pass below allocates lazily).
  auto& seen = ar.seen;
  seen.assign(lv.pairs.size(), 0);
  for (std::uint32_t k0 = 0; k0 < lv.pairs.size(); ++k0) {
    if (seen[k0]) continue;
    // Walk forward through tau until repeat or dead end.
    std::size_t length = 0;
    std::uint32_t k = k0, last = k0;
    while (true) {
      seen[k] = 1;
      ++length;
      last = k;
      const std::uint32_t succ = tau_next(sub[lv.pairs[k].tail]);
      if (succ == kNone) break;                 // chain ends
      if (succ == k0 || seen[succ]) break;      // closed/visited
      k = succ;
    }
    const bool is_cycle = tau_next(sub[lv.pairs[last].tail]) == k0;
    if (is_cycle && length >= 2) ++res.cycle_classes;
  }

  // ---- Fix-up ---------------------------------------------------------
  // Rejoined dipaths now cover their tail arcs with the head color, which
  // can collide with dipaths that legitimately used that color near the
  // tail. Recolor such dipaths, searching the whole palette first: the
  // paper sends the (claimed unique, by its Fact 2) conflicting dipath to
  // the cycle's fresh color, but that uniqueness degenerates when tails
  // share the arc (t,b) (see DESIGN.md), so we first-fit and only then pay
  // for a fresh color.
  auto& merged = ar.merged;
  merged.assign(padded, 0);
  for (const SplitPair& pr : lv.pairs) merged[pr.orig] = 1;

  ConflictIndex& index = ar.index;
  index.build(lv.graph->num_arcs(), lv.family, padded);
  std::size_t p = 0, q = 0;
  while (index.first_conflict(color, p, q)) {
    // Exactly one side should be a rejoined dipath; never recolor it (its
    // color is pinned by the merge). With replicated copies both sides can
    // be rejoined only if the merge produced duplicates, which the
    // head-distinctness assert above excludes.
    WDAG_ASSERT(!(merged[p] && merged[q]),
                "split_merge: two rejoined dipaths collide");
    const std::size_t victim = merged[p] ? q : p;
    ++res.fixups;
    bool placed = false;
    for (std::uint32_t c = 0; c <= max_color && !placed; ++c) {
      if (index.fits(lv.family, color, victim, c)) {
        color[victim] = c;
        placed = true;
      }
    }
    if (!placed) {
      color[victim] = ++max_color;
      WDAG_ASSERT(index.fits(lv.family, color, victim, max_color),
                  "split_merge: fresh color still conflicts");
    }
  }

  color.resize(lv.inputs);  // drop the padding copies
}

/// Color-elimination descent: repeatedly dissolve the least-used color
/// class by first-fitting its members into other classes. Runs once, on
/// the top-level family (the first `n` paths of `ps`), with a round cap;
/// every move is validated by the index, so the assignment stays proper
/// throughout.
void reduce_color_classes(Arena& ar, const Digraph& g, const FlatFamily& ps,
                          std::size_t n, std::vector<std::uint32_t>& color,
                          std::size_t max_rounds = 64) {
  if (n == 0) return;
  ConflictIndex& index = ar.index;
  index.build(g.num_arcs(), ps, n);
  std::uint32_t max_color = 0;
  for (const auto c : color) max_color = std::max(max_color, c);

  auto& usage = ar.usage;
  auto& classes = ar.classes;
  auto& attempt = ar.attempt;
  for (std::size_t round = 0; round < max_rounds; ++round) {
    usage.assign(max_color + 1, 0);
    for (const auto c : color) ++usage[c];
    classes.clear();
    for (std::uint32_t c = 0; c <= max_color; ++c) {
      if (usage[c] > 0) classes.push_back(c);
    }
    if (classes.size() <= 1) return;
    std::sort(classes.begin(), classes.end(),
              [&](std::uint32_t a, std::uint32_t b) { return usage[a] < usage[b]; });
    bool improved = false;
    for (const std::uint32_t victim_class : classes) {
      attempt.assign(color.begin(), color.end());
      bool ok = true;
      for (std::size_t i = 0; i < n && ok; ++i) {
        if (attempt[i] != victim_class) continue;
        bool moved = false;
        for (const std::uint32_t c : classes) {
          if (c == victim_class) continue;
          if (index.fits(ps, attempt, i, c)) {
            attempt[i] = c;
            moved = true;
            break;
          }
        }
        ok = moved;
      }
      if (ok) {
        color.assign(attempt.begin(), attempt.end());
        improved = true;
        break;
      }
    }
    if (!improved) return;
  }
}

}  // namespace

SplitMergeResult color_upp_split_merge(const DipathFamily& family) {
  return color_upp_split_merge(family, dag::classify(family.graph()));
}

SplitMergeResult color_upp_split_merge(const DipathFamily& family,
                                       const dag::DagReport& report) {
  WDAG_DOMAIN(report.is_dag, "color_upp_split_merge: host is not a DAG");
  WDAG_DOMAIN(report.is_upp,
              "color_upp_split_merge: host does not satisfy the unique-"
              "dipath property");

  const Digraph& g = family.graph();
  SplitMergeResult res;
  if (family.empty()) return res;

  Arena& ar = arena();
  Level& top = ar.level(0);
  top.graph = &g;
  top.family = family.flat();  // level 0 gets padded, so it takes a copy
  top.internal.assign(report.internal_arcs.begin(),
                      report.internal_arcs.end());

  // Descend: split one internal cycle per level until none is left. One
  // cycle search per level answers both "is there one?" and "which one?".
  std::size_t depth = 0;
  for (;; ++depth) {
    Level& cur = ar.level(depth);
    const std::size_t pi = loads_of_into(cur, ar.loads);
    if (depth == 0) res.load = pi;
    if (!dag::find_internal_cycle(*cur.graph, cur.internal, ar.cycle)) break;
    split_level(ar, cur, ar.level(depth + 1), pi);
  }
  res.levels = depth;

  // The bottom level has no internal cycle: Theorem 1 colors it with
  // exactly its load. The recursion only ever splits a DAG, so the
  // preconditions hold by construction. A split graph is a new graph and
  // needs its own Kahn order; an unsplit host already has the report's.
  const Level& bottom = ar.levels[depth];
  std::span<const VertexId> order = report.topo_order;
  if (depth > 0) {
    const bool sorted =
        graph::topological_sort_into(*bottom.graph, ar.leaf_order, ar.indeg);
    WDAG_ASSERT(sorted, "split_merge: a split graph has a directed cycle");
    order = ar.leaf_order;
  }
  color_equal_load_into(*bottom.graph, order, bottom.family, ar.leaf);

  // Ascend: merge every level onto the coloring of the one below it.
  std::span<const std::uint32_t> colors = ar.leaf.coloring;
  for (std::size_t d = depth; d-- > 0;) {
    merge_level(ar, ar.levels[d], colors, res);
    colors = ar.levels[d].color;
  }
  res.coloring.assign(colors.begin(), colors.end());

  // Any proper coloring needs at least pi colors, so when the recursion
  // already landed on pi the descent provably cannot dissolve a class —
  // skip building its conflict index. Each level's fix-up loop exits only
  // once an exhaustive conflict scan comes back clean, so the assignment
  // is already validated on this fast path.
  bool revalidate = false;
  if (conflict::num_colors(res.coloring) > res.load) {
    reduce_color_classes(ar, g, top.family, family.size(), res.coloring);
    revalidate = true;
  }
  res.wavelengths = conflict::normalize_colors(res.coloring);

  WDAG_ASSERT(!revalidate ||
                  conflict::is_valid_assignment(family, res.coloring),
              "color_upp_split_merge: invalid assignment produced");
  return res;
}

}  // namespace wdag::core
