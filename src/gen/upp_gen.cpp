#include "gen/upp_gen.hpp"

#include <string>
#include <utility>
#include <vector>

#include "graph/reachability.hpp"
#include "paths/route.hpp"
#include "util/check.hpp"

namespace wdag::gen {

using graph::DigraphBuilder;
using graph::VertexId;

namespace {

/// Key vertices of one cycle gadget.
struct Gadget {
  std::vector<VertexId> chain_in_start;   ///< head of each b_i's in-chain
  std::vector<VertexId> chain_out_end;    ///< tail of each c_i's out-chain
};

/// Emits one UPP single-internal-cycle gadget into `b`; `tag` prefixes the
/// vertex names so several gadgets can coexist.
Gadget emit_gadget(DigraphBuilder& b, const UppCycleParams& p,
                   const std::string& tag) {
  WDAG_REQUIRE(p.k >= 2, "upp gadget: k must be >= 2 for the UPP property");
  WDAG_REQUIRE(p.run_len >= 1 && p.chain_in >= 1 && p.chain_out >= 1,
               "upp gadget: run/chain lengths must be >= 1");
  const std::size_t k = p.k;
  std::vector<VertexId> vb(k), vc(k);
  for (std::size_t i = 0; i < k; ++i) {
    vb[i] = b.add_vertex(tag + "b" + std::to_string(i + 1));
    vc[i] = b.add_vertex(tag + "c" + std::to_string(i + 1));
  }
  // A run from `from` to `to` through run_len-1 private vertices.
  auto emit_run = [&](VertexId from, VertexId to, const std::string& name) {
    VertexId cur = from;
    for (std::size_t s = 1; s < p.run_len; ++s) {
      const VertexId mid = b.add_vertex(tag + name + "_" + std::to_string(s));
      b.add_arc(cur, mid);
      cur = mid;
    }
    b.add_arc(cur, to);
  };
  for (std::size_t i = 0; i < k; ++i) {
    emit_run(vb[i], vc[i], "A" + std::to_string(i + 1));
    emit_run(vb[i], vc[(i + k - 1) % k], "B" + std::to_string(i + 1));
  }
  Gadget g;
  g.chain_in_start.resize(k);
  g.chain_out_end.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    // In-chain: a_i^{chain_in} -> ... -> a_i^1 -> b_i.
    VertexId cur = vb[i];
    for (std::size_t s = 0; s < p.chain_in; ++s) {
      const VertexId prev = b.add_vertex(tag + "a" + std::to_string(i + 1) +
                                         "_" + std::to_string(s + 1));
      b.add_arc(prev, cur);
      cur = prev;
    }
    g.chain_in_start[i] = cur;
    // Out-chain: c_i -> d_i^1 -> ... -> d_i^{chain_out}.
    cur = vc[i];
    for (std::size_t s = 0; s < p.chain_out; ++s) {
      const VertexId next = b.add_vertex(tag + "d" + std::to_string(i + 1) +
                                         "_" + std::to_string(s + 1));
      b.add_arc(cur, next);
      cur = next;
    }
    g.chain_out_end[i] = cur;
  }
  return g;
}

}  // namespace

Instance upp_one_cycle_skeleton(const UppCycleParams& params) {
  DigraphBuilder b;
  emit_gadget(b, params, "");
  return Instance::over(std::move(b).build());
}

Instance random_upp_one_cycle_instance(util::Xoshiro256& rng,
                                       const UppCycleParams& params,
                                       std::size_t count) {
  Instance inst = upp_one_cycle_skeleton(params);
  const auto& g = *inst.graph;
  // All reachable ordered pairs (u, v), u != v.
  const auto closure = graph::transitive_closure(g);
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (u != v && closure[u].test(v)) pairs.emplace_back(u, v);
    }
  }
  WDAG_REQUIRE(!pairs.empty(),
               "random_upp_one_cycle_instance: skeleton has no routable pair");
  for (std::size_t i = 0; i < count; ++i) {
    const auto [u, v] = pairs[rng.index(pairs.size())];
    const auto route = paths::unique_route(g, u, v);
    WDAG_ASSERT(route.has_value(), "random_upp_one_cycle_instance: lost route");
    inst.family.add_unchecked(*route);
  }
  return inst;
}

Instance upp_multi_cycle_skeleton(std::size_t cycles,
                                  const UppCycleParams& params) {
  WDAG_REQUIRE(cycles >= 1, "upp_multi_cycle_skeleton: need >= 1 cycle");
  DigraphBuilder b;
  Gadget prev;
  for (std::size_t i = 0; i < cycles; ++i) {
    const Gadget cur = emit_gadget(b, params, "g" + std::to_string(i) + "_");
    if (i > 0) {
      // Bridge: previous gadget's first out-chain feeds this gadget's
      // first in-chain; a single tree arc adds no underlying cycle.
      b.add_arc(prev.chain_out_end[0], cur.chain_in_start[0]);
    }
    prev = cur;
  }
  return Instance::over(std::move(b).build());
}

}  // namespace wdag::gen
