#include "gen/paper_instances.hpp"

#include <string>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace wdag::gen {

using graph::DigraphBuilder;
using graph::VertexId;

Instance figure1_pathological(std::size_t k) {
  WDAG_REQUIRE(k >= 1, "figure1_pathological: k must be >= 1");
  // One shared two-vertex segment u_{ij} -> v_{ij} per unordered pair
  // {i,j}; dipath P_i traverses, in global lexicographic pair order, the
  // segments of every pair containing i, linked by private arcs. Arcs only
  // go forward in the global order, so the graph is a DAG; each shared
  // segment carries exactly two dipaths (load 2) while all dipaths are
  // pairwise in conflict (complete conflict graph), mirroring Figure 1's
  // staircase construction.
  DigraphBuilder b;
  struct Seg {
    VertexId u, v;
  };
  std::vector<std::vector<Seg>> seg(k, std::vector<Seg>(k));
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = i + 1; j < k; ++j) {
      const VertexId u = b.add_vertex("u" + std::to_string(i) + "_" + std::to_string(j));
      const VertexId v = b.add_vertex("v" + std::to_string(i) + "_" + std::to_string(j));
      b.add_arc(u, v);
      seg[i][j] = seg[j][i] = Seg{u, v};
    }
  }
  // Private start/end vertices so every dipath is non-trivial even for the
  // path that owns no shared segment (k == 1).
  std::vector<VertexId> start(k), finish(k);
  for (std::size_t i = 0; i < k; ++i) {
    start[i] = b.add_vertex("s" + std::to_string(i));
    finish[i] = b.add_vertex("t" + std::to_string(i));
  }
  // Linker arcs, then build per-path vertex sequences.
  std::vector<std::vector<VertexId>> route(k);
  for (std::size_t i = 0; i < k; ++i) {
    route[i].push_back(start[i]);
    // Pairs containing i in global lexicographic order (a,b), a<b.
    for (std::size_t a = 0; a < k; ++a) {
      for (std::size_t p = a + 1; p < k; ++p) {
        if (a != i && p != i) continue;
        route[i].push_back(seg[a][p].u);
        route[i].push_back(seg[a][p].v);
      }
    }
    route[i].push_back(finish[i]);
  }
  // Add the linker arcs (skipping the already-present shared arcs).
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t x = 0; x + 1 < route[i].size(); ++x) {
      const VertexId from = route[i][x];
      const VertexId to = route[i][x + 1];
      // Shared arcs connect u_{ab} -> v_{ab} and are added once above;
      // detect them by position parity: route = s, (u,v)*, t.
      const bool is_shared = (x % 2 == 1);
      if (!is_shared) b.add_arc(from, to);
    }
  }
  Instance inst = Instance::over(std::move(b).build());
  for (std::size_t i = 0; i < k; ++i) inst.family.add_through(route[i]);
  return inst;
}

Instance figure3_instance() {
  DigraphBuilder b;
  const VertexId a = b.add_vertex("a"), v_b = b.add_vertex("b"),
                 c = b.add_vertex("c"), d = b.add_vertex("d"),
                 e = b.add_vertex("e");
  b.add_arc(a, v_b);
  b.add_arc(v_b, c);
  b.add_arc(c, d);
  b.add_arc(d, e);
  const graph::ArcId chord = b.add_arc(v_b, d);  // the second b -> d route
  Instance inst = Instance::over(std::move(b).build());
  const auto& g = *inst.graph;
  inst.family.add_through({a, v_b, c});
  inst.family.add_through({v_b, c, d});
  inst.family.add_through({c, d, e});
  // b -> d -> e and a -> b -> d via the chord.
  inst.family.add(paths::Dipath({chord, g.find_arc(d, e)}));
  inst.family.add(paths::Dipath({g.find_arc(a, v_b), chord}));
  return inst;
}

Instance theorem2_instance(std::size_t k) {
  WDAG_REQUIRE(k >= 1, "theorem2_instance: k must be >= 1");
  // Internal cycle with sources b_i and sinks c_i: A_i : b_i -> c_i and
  // B_i : b_i -> c_{i-1 mod k}; pendant a_i -> b_i and c_i -> d_i make the
  // cycle internal.
  DigraphBuilder bld;
  std::vector<VertexId> va(k), vb(k), vc(k), vd(k);
  for (std::size_t i = 0; i < k; ++i) {
    va[i] = bld.add_vertex("a" + std::to_string(i + 1));
    vb[i] = bld.add_vertex("b" + std::to_string(i + 1));
    vc[i] = bld.add_vertex("c" + std::to_string(i + 1));
    vd[i] = bld.add_vertex("d" + std::to_string(i + 1));
  }
  std::vector<graph::ArcId> in_arc(k), out_arc(k), arc_a(k), arc_b(k);
  for (std::size_t i = 0; i < k; ++i) {
    in_arc[i] = bld.add_arc(va[i], vb[i]);
    out_arc[i] = bld.add_arc(vc[i], vd[i]);
  }
  for (std::size_t i = 0; i < k; ++i) {
    arc_a[i] = bld.add_arc(vb[i], vc[i]);
    arc_b[i] = bld.add_arc(vb[i], vc[(i + k - 1) % k]);
  }
  Instance inst = Instance::over(std::move(bld).build());
  // Family (conflict graph C_{2k+1}):
  //   P_head = a_1 + A_1                      (no d endpoint)
  //   P_neck = A_1 + d_1
  //   for i = 2..k:   a_i + A_i + d_i
  //   for i = 1..k:   a_i + B_i + d_{i-1 mod k}
  inst.family.add(paths::Dipath({in_arc[0], arc_a[0]}));
  inst.family.add(paths::Dipath({arc_a[0], out_arc[0]}));
  for (std::size_t i = 1; i < k; ++i) {
    inst.family.add(paths::Dipath({in_arc[i], arc_a[i], out_arc[i]}));
  }
  for (std::size_t i = 0; i < k; ++i) {
    inst.family.add(
        paths::Dipath({in_arc[i], arc_b[i], out_arc[(i + k - 1) % k]}));
  }
  return inst;
}

Instance havet_instance() {
  DigraphBuilder bld;
  const VertexId a1 = bld.add_vertex("a1"), a2 = bld.add_vertex("a2"),
                 a1p = bld.add_vertex("a1'"), a2p = bld.add_vertex("a2'"),
                 b1 = bld.add_vertex("b1"), b2 = bld.add_vertex("b2"),
                 c1 = bld.add_vertex("c1"), c2 = bld.add_vertex("c2"),
                 d1 = bld.add_vertex("d1"), d2 = bld.add_vertex("d2"),
                 d1p = bld.add_vertex("d1'"), d2p = bld.add_vertex("d2'");
  bld.add_arc(a1, b1);
  bld.add_arc(a2, b2);
  bld.add_arc(a1p, b1);
  bld.add_arc(a2p, b2);
  bld.add_arc(b1, c1);
  bld.add_arc(b1, c2);
  bld.add_arc(b2, c1);
  bld.add_arc(b2, c2);
  bld.add_arc(c1, d1);
  bld.add_arc(c1, d1p);
  bld.add_arc(c2, d2);
  bld.add_arc(c2, d2p);
  Instance inst = Instance::over(std::move(bld).build());
  // Conflict graph = V8: with paths indexed 0..7, the a-arcs pair
  // (0,1)(2,3)(4,5)(6,7), the middle arcs pair the antipodes
  // (0,4)(1,5)(2,6)(3,7), and the d-arcs pair (1,2)(3,4)(5,6)(7,0).
  inst.family.add_through({a1, b1, c2, d2p});   // 0
  inst.family.add_through({a1, b1, c1, d1});    // 1
  inst.family.add_through({a2, b2, c1, d1});    // 2
  inst.family.add_through({a2, b2, c2, d2});    // 3
  inst.family.add_through({a1p, b1, c2, d2});   // 4
  inst.family.add_through({a1p, b1, c1, d1p});  // 5
  inst.family.add_through({a2p, b2, c1, d1p});  // 6
  inst.family.add_through({a2p, b2, c2, d2p});  // 7
  return inst;
}

}  // namespace wdag::gen
