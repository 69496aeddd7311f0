#include "gen/workloads.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "gen/family_gen.hpp"
#include "gen/paper_instances.hpp"
#include "gen/random_dag.hpp"
#include "gen/topologies.hpp"
#include "gen/upp_gen.hpp"
#include "graph/reachability.hpp"
#include "paths/route.hpp"
#include "util/check.hpp"

namespace wdag::gen {

namespace {

using util::Xoshiro256;

// ---------------------------------------------------------------------------
// Skeleton pools. Many workload topologies are pure functions of their
// parameters — only the request sampling consumes the RNG. Building the
// host graph, its transitive closure and the per-pair deterministic route
// once per (thread, parameter key) makes batch generation a cheap
// sample-and-copy, with byte-identical output: the pooled pair list and
// routes are exactly what the uncached code recomputed per instance, and
// the RNG is consumed in the same order (one index per request).
// ---------------------------------------------------------------------------

/// How a workload routes one (u, v) request on its skeleton.
enum class RouteKind {
  kUnique,    ///< paths::unique_route (UPP hosts)
  kShortest,  ///< paths::shortest_route (general hosts)
};

/// A cached skeleton: graph and one route per routable pair.
struct SkeletonPool {
  std::shared_ptr<const graph::Digraph> graph;
  /// Route i serves the i-th reachable pair (u, v), u != v, in (u, v)
  /// order: the pair list the uncached generators index.
  paths::FlatFamily routes;
};

SkeletonPool build_pool(const Instance& skeleton, RouteKind kind) {
  SkeletonPool pool;
  pool.graph = skeleton.graph;
  const auto& g = *pool.graph;
  const auto closure = graph::transitive_closure(g);
  for (graph::VertexId u = 0; u < g.num_vertices(); ++u) {
    for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
      if (u == v || !closure[u].test(v)) continue;
      const auto route = kind == RouteKind::kUnique
                             ? paths::unique_route(g, u, v)
                             : paths::shortest_route(g, u, v);
      WDAG_ASSERT(route.has_value(), "skeleton pool: lost route");
      pool.routes.add(*route);
    }
  }
  return pool;
}

/// What a cached pool or instance was built from: a family tag, then its
/// integer parameters (unused slots 0). Compared as integers, so a lookup
/// formats and allocates nothing.
enum class Cached : std::uint64_t {
  kUppOneCycle, kUppMultiCycle, kGrid, kButterfly, kSpine,
  kTheorem2, kFigure1, kFigure3, kHavet,
};
using CacheKey = std::array<std::uint64_t, 6>;

CacheKey cache_key(Cached tag, std::uint64_t a = 0, std::uint64_t b = 0,
                   std::uint64_t c = 0, std::uint64_t d = 0,
                   std::uint64_t e = 0) {
  return {static_cast<std::uint64_t>(tag), a, b, c, d, e};
}

/// Cached entries per thread before a cache resets; parameter sweeps can
/// touch many keys, and rebuilding a pool is cheap next to holding
/// thousands of dead ones.
constexpr std::size_t kMaxCachedSkeletons = 64;

/// The per-thread pool for `key`, built on first use with `make`.
template <class Make>
const SkeletonPool& pooled(const CacheKey& key, RouteKind kind,
                           const Make& make) {
  thread_local std::map<CacheKey, SkeletonPool> pools;
  const auto it = pools.find(key);
  if (it != pools.end()) return it->second;
  if (pools.size() >= kMaxCachedSkeletons) pools.clear();
  return pools.emplace(key, build_pool(make(), kind)).first->second;
}

/// Samples `count` requests from the pool (one rng.index per request,
/// matching the uncached generators' RNG consumption). The draws come
/// first, so the family is sized once and filled by span copies.
Instance sample_pool(const SkeletonPool& pool, Xoshiro256& rng,
                     std::size_t count) {
  const paths::FlatFamily& routes = pool.routes;
  WDAG_REQUIRE(!routes.empty(), "skeleton pool: no routable pair");
  thread_local std::vector<paths::PathId> picks;
  picks.resize(count);
  std::size_t total = 0;
  for (paths::PathId& pick : picks) {
    pick = static_cast<paths::PathId>(rng.index(routes.size()));
    total += routes.offsets[pick + 1] - routes.offsets[pick];
  }
  Instance inst;
  inst.graph = pool.graph;
  inst.family = paths::DipathFamily(*inst.graph);
  inst.family.reserve(count, total);
  for (const paths::PathId pick : picks) {
    inst.family.add_unchecked(routes.path(pick));
  }
  return inst;
}

/// A fully deterministic instance (fixed family, no RNG), cached per
/// thread and returned by copy; the host graph is shared.
template <class Make>
Instance fixed_instance_cached(const CacheKey& key, const Make& make) {
  thread_local std::map<CacheKey, Instance> cache;
  const auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  if (cache.size() >= kMaxCachedSkeletons) cache.clear();
  return cache.emplace(key, make()).first->second;
}

Instance random_upp_mix(const WorkloadParams& p, Xoshiro256& rng) {
  // A mixed UPP workload covering every dispatch regime a UPP host can
  // reach: cycle-free trees (Theorem 1), one- and multi-cycle skeletons
  // of varying size (split-merge), and odd-cycle gadgets whose conflict
  // graph forces w > pi (exact certification).
  UppCycleParams up;
  up.k = 2 + static_cast<std::size_t>(rng.below(p.k >= 2 ? p.k - 1 : 1));
  up.run_len = p.run_len;
  up.chain_in = p.chain;
  up.chain_out = p.chain;
  const std::size_t count = 1 + static_cast<std::size_t>(rng.below(
                                    std::max<std::size_t>(1, p.paths)));
  const std::uint64_t pick = rng.below(10);
  if (pick < 4) {
    // Same skeleton, pairs and unique routes as
    // random_upp_one_cycle_instance, pooled per parameter key.
    return sample_pool(
        pooled(cache_key(Cached::kUppOneCycle, up.k, up.run_len, up.chain_in,
                         up.chain_out),
               RouteKind::kUnique,
               [&] { return upp_one_cycle_skeleton(up); }),
        rng, count);
  }
  if (pick < 6) {
    Instance inst = Instance::over(random_out_tree(rng, p.size));
    inst.family = random_request_family(rng, *inst.graph, count);
    return inst;
  }
  if (pick < 8) {
    const std::size_t k = 2 + static_cast<std::size_t>(rng.below(3));
    return fixed_instance_cached(cache_key(Cached::kTheorem2, k),
                                 [&] { return theorem2_instance(k); });
  }
  const std::size_t cycles = 2 + static_cast<std::size_t>(rng.below(2));
  // random_request_family on a deterministic skeleton == shortest-route
  // pool sampling.
  return sample_pool(
      pooled(cache_key(Cached::kUppMultiCycle, cycles, up.k, up.run_len,
                       up.chain_in, up.chain_out),
             RouteKind::kShortest,
             [&] { return upp_multi_cycle_skeleton(cycles, up); }),
      rng, count);
}

}  // namespace

Instance workload_instance(const std::string& name,
                           const WorkloadParams& p, Xoshiro256& rng) {
  if (name == "random-upp") return random_upp_mix(p, rng);
  if (name == "random-dag" || name == "no-internal") {
    auto g = name == "random-dag"
                 ? random_dag(rng, p.size, p.density)
                 : random_no_internal_cycle_dag(rng, p.size, p.density);
    Instance inst = Instance::over(std::move(g));
    if (inst.graph->num_arcs() > 0) {
      inst.family = random_walk_family(rng, *inst.graph, p.paths, 1, 6);
    }
    return inst;
  }
  if (name == "layered") {
    Instance inst =
        Instance::over(random_layered_dag(rng, p.layers, p.width, p.density));
    if (inst.graph->num_arcs() > 0) {
      inst.family = random_walk_family(rng, *inst.graph, p.paths, 1, 8);
    }
    return inst;
  }
  if (name == "tree") {
    Instance inst = Instance::over(random_out_tree(rng, p.size));
    inst.family = random_request_family(rng, *inst.graph, p.paths);
    return inst;
  }
  if (name == "grid") {
    return sample_pool(
        pooled(cache_key(Cached::kGrid, p.rows, p.cols),
               RouteKind::kShortest,
               [&] { return Instance::over(grid_dag(p.rows, p.cols)); }),
        rng, p.paths);
  }
  if (name == "butterfly") {
    return sample_pool(pooled(cache_key(Cached::kButterfly, p.dim),
                              RouteKind::kShortest,
                              [&] { return Instance::over(butterfly(p.dim)); }),
                       rng, p.paths);
  }
  if (name == "fat-chain") {
    Instance inst = Instance::over(fat_chain(p.stages, p.width));
    if (inst.graph->num_arcs() > 0) {
      inst.family = random_walk_family(rng, *inst.graph, p.paths, 1, 8);
    }
    return inst;
  }
  if (name == "spine") {
    return sample_pool(
        pooled(cache_key(Cached::kSpine, p.size), RouteKind::kShortest,
               [&] { return Instance::over(spine_with_leaves(p.size)); }),
        rng, p.paths);
  }
  if (name == "odd-cycle") {
    return fixed_instance_cached(cache_key(Cached::kTheorem2, p.k),
                                 [&] { return theorem2_instance(p.k); });
  }
  if (name == "c5") {
    return fixed_instance_cached(cache_key(Cached::kTheorem2, 2), [] { return theorem2_instance(2); });
  }
  if (name == "c7") {
    return fixed_instance_cached(cache_key(Cached::kTheorem2, 3), [] { return theorem2_instance(3); });
  }
  if (name == "figure1") {
    return fixed_instance_cached(cache_key(Cached::kFigure1, p.k),
                                 [&] { return figure1_pathological(p.k); });
  }
  if (name == "figure3") {
    return fixed_instance_cached(cache_key(Cached::kFigure3), [] { return figure3_instance(); });
  }
  if (name == "havet") {
    return fixed_instance_cached(cache_key(Cached::kHavet, p.h),
                                 [&] { return havet_instance().replicate(p.h); });
  }
  throw wdag::InvalidArgument("unknown workload '" + name +
                              "' (see gen::workload_names())");
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "random-upp", "random-dag", "no-internal", "layered",  "tree",
      "grid",       "butterfly",  "fat-chain",   "spine",    "odd-cycle",
      "c5",         "c7",         "figure1",     "figure3",  "havet"};
  return names;
}

}  // namespace wdag::gen
