#include "gen/random_dag.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "dag/internal_cycle.hpp"
#include "util/check.hpp"

namespace wdag::gen {

using graph::Digraph;
using graph::DigraphBuilder;
using graph::VertexId;

Digraph random_layered_dag(util::Xoshiro256& rng, std::size_t layers,
                           std::size_t width, double p) {
  WDAG_REQUIRE(layers >= 1 && width >= 1,
               "random_layered_dag: need at least one layer and one column");
  DigraphBuilder b(layers * width);
  auto vid = [&](std::size_t layer, std::size_t col) {
    return static_cast<VertexId>(layer * width + col);
  };
  for (std::size_t l = 0; l + 1 < layers; ++l) {
    for (std::size_t c = 0; c < width; ++c) {
      bool any = false;
      for (std::size_t c2 = 0; c2 < width; ++c2) {
        if (rng.chance(p)) {
          b.add_arc(vid(l, c), vid(l + 1, c2));
          any = true;
        }
      }
      if (!any) {
        b.add_arc(vid(l, c), vid(l + 1, rng.index(width)));
      }
    }
  }
  return std::move(b).build();
}

Digraph random_out_tree(util::Xoshiro256& rng, std::size_t n) {
  WDAG_REQUIRE(n >= 1, "random_out_tree: need at least one vertex");
  DigraphBuilder b(n);
  b.reserve_arcs(n - 1);
  for (VertexId v = 1; v < n; ++v) {
    b.add_arc(static_cast<VertexId>(rng.below(v)), v);
  }
  return std::move(b).build();
}

Digraph random_in_tree(util::Xoshiro256& rng, std::size_t n) {
  WDAG_REQUIRE(n >= 1, "random_in_tree: need at least one vertex");
  DigraphBuilder b(n);
  b.reserve_arcs(n - 1);
  for (VertexId v = 1; v < n; ++v) {
    b.add_arc(v, static_cast<VertexId>(rng.below(v)));
  }
  return std::move(b).build();
}

Digraph random_dag(util::Xoshiro256& rng, std::size_t n, double p) {
  WDAG_REQUIRE(n >= 1, "random_dag: need at least one vertex");
  std::vector<VertexId> label(n);
  std::iota(label.begin(), label.end(), 0);
  rng.shuffle(label);
  DigraphBuilder b(n);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = u + 1; v < n; ++v) {
      if (rng.chance(p)) b.add_arc(label[u], label[v]);
    }
  }
  return std::move(b).build();
}

Digraph random_no_internal_cycle_dag(util::Xoshiro256& rng, std::size_t n,
                                     double p) {
  Digraph g = random_dag(rng, n, p);
  // Repair: as long as an internal cycle exists, delete one of its arcs
  // (uniformly at random) and rebuild.
  while (true) {
    const auto cycle = dag::find_internal_cycle(g);
    if (!cycle) return g;
    const graph::ArcId doomed =
        cycle->steps[rng.index(cycle->steps.size())].arc;
    DigraphBuilder b(g.num_vertices());
    for (graph::ArcId a = 0; a < g.num_arcs(); ++a) {
      if (a != doomed) b.add_arc(g.tail(a), g.head(a));
    }
    g = std::move(b).build();
  }
}

}  // namespace wdag::gen
