// Soundness and byte-identity of the exact certifier.
//
// chromatic_number() starts its k-search at the best lower bound it can
// prove cheaply (pi, the odd-cycle bound, Theorem 7's ceil(n / alpha))
// instead of at the clique number. That is only sound if every bound is
// at most chi, and it only keeps the output bytes if the first satisfiable
// k, and its coloring, are the ones a search from the clique number finds.
// This suite checks both on fixed-seed draws of the certifier's families:
//
//   * an FNV-1a digest of (chi, proven, coloring), recorded before the
//     bounds existed, so any changed color of any draw changes it;
//   * each bound, computed here independently of the certifier, is <= chi;
//   * chi is the first k >= omega for which try_color_with succeeds;
//   * the forced exact strategy, which hands the certifier pi (and, on UPP
//     hosts, pi == omega), returns the same chi and coloring as a bare
//     chromatic_number call that knows neither.
//
// test_exact_havet_h4 pins the one output the bounds change on purpose: an
// instance whose search used to run out of budget is now proven.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "api/strategy.hpp"
#include "conflict/clique.hpp"
#include "conflict/exact_color.hpp"
#include "conflict/independent_set.hpp"
#include "gen/workloads.hpp"
#include "paths/load.hpp"
#include "util/rng.hpp"

namespace {

using wdag::conflict::ConflictGraph;
using wdag::gen::WorkloadParams;

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// chi >= 3 exactly when cg has an odd cycle (a BFS 2-coloring fails);
/// otherwise chi is 2 with an edge, 1 without.
std::size_t odd_cycle_bound(const ConflictGraph& cg) {
  const std::size_t n = cg.size();
  std::vector<int> side(n, -1);
  bool has_edge = false;
  for (std::size_t root = 0; root < n; ++root) {
    if (side[root] >= 0) continue;
    side[root] = 0;
    std::vector<std::size_t> queue = {root};
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const std::size_t v = queue[head];
      for (std::size_t u = 0; u < n; ++u) {
        if (!cg.adjacent(u, v)) continue;
        has_edge = true;
        if (side[u] < 0) {
          side[u] = 1 - side[v];
          queue.push_back(u);
        } else if (side[u] == side[v]) {
          return 3;
        }
      }
    }
  }
  return n == 0 ? 0 : has_edge ? 2 : 1;
}

struct Digest {
  std::uint64_t h = kFnvOffset;
  std::size_t checked = 0;

  void word(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= kFnvPrime;
    }
  }

  void certify(const wdag::gen::Instance& inst) {
    const ConflictGraph cg(inst.family);
    const auto r = wdag::conflict::chromatic_number(cg);
    ASSERT_TRUE(r.proven) << "paths=" << cg.size();
    const std::size_t chi = r.chromatic_number;
    word(chi);
    word(r.proven ? 1 : 0);
    word(r.coloring.size());
    for (const std::uint32_t c : r.coloring) word(c);
    EXPECT_TRUE(wdag::conflict::is_valid_coloring(cg, r.coloring));
    EXPECT_EQ(wdag::conflict::num_colors(r.coloring), chi);
    ++checked;
    if (cg.size() == 0) return;

    // Every lower bound the certifier may start from is sound.
    const std::size_t pi = wdag::paths::max_load(inst.family);
    const std::size_t omega = wdag::conflict::clique_number(cg);
    EXPECT_LE(pi, chi);
    EXPECT_LE(odd_cycle_bound(cg), chi);
    EXPECT_LE(wdag::conflict::replication_lower_bound(cg, 1), chi);

    // chi is the first k from the clique number up that is colorable.
    std::size_t first = omega;
    while (!wdag::conflict::try_color_with(cg, first).has_value()) ++first;
    EXPECT_EQ(first, chi);

    // The strategy path hands pi over; Property 3 makes it omega on UPP
    // hosts. Its answer must be the bare call's, byte for byte.
    wdag::core::SolveOptions options;
    options.exact_node_budget = 50'000'000;
    const auto forced = wdag::api::solve_with(wdag::api::builtin_registry(),
                                              inst.family, options,
                                              wdag::core::kStrategyExact);
    if (forced.report.is_upp) {
      EXPECT_EQ(omega, pi);
    }
    EXPECT_EQ(forced.wavelengths, chi);
    EXPECT_EQ(forced.optimal, r.proven);
    EXPECT_EQ(forced.coloring, r.coloring);
  }

  void draws(const std::string& name, const WorkloadParams& params,
             std::uint64_t seed, std::size_t count) {
    wdag::util::Xoshiro256 rng(seed);
    for (std::size_t i = 0; i < count; ++i) {
      certify(wdag::gen::workload_instance(name, params, rng));
    }
  }
};

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(ExactBoundsTest, CertifiedColoringsArePinnedAndBoundsAreSound) {
  Digest d;
  for (const std::size_t h : {2u, 3u}) {
    WorkloadParams p;
    p.h = h;
    d.draws("havet", p, 1, 1);
  }
  for (const std::size_t k : {5u, 20u}) {
    WorkloadParams p;
    p.k = k;
    d.draws("odd-cycle", p, 1, 1);
  }
  d.draws("random-upp", WorkloadParams{}, 20261020, 3000);
  d.draws("random-dag", WorkloadParams{}, 17, 300);
  d.draws("fat-chain", WorkloadParams{}, 23, 200);
  EXPECT_EQ(d.checked, 3504u);
  EXPECT_EQ(hex(d.h), "0xc8037abf54bbffad");
}

/// G(n, p) from a fixed seed.
ConflictGraph random_graph(std::size_t n, double p, std::uint64_t seed) {
  wdag::util::Xoshiro256 rng(seed);
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = u + 1; v < n; ++v) {
      if (rng.chance(p)) edges.emplace_back(u, v);
    }
  }
  return ConflictGraph(n, edges);
}

TEST(ExactBoundsTest, CliqueSearchLimitsStopEarlyAndSaySo) {
  const ConflictGraph cg = random_graph(60, 0.2, 5);
  const std::size_t alpha = wdag::conflict::independence_number(cg);
  wdag::conflict::CliqueSearcher search;

  EXPECT_EQ(search.run(cg, /*complemented=*/true), alpha);
  EXPECT_TRUE(search.complete());

  // `enough` stops at the first independent set that large.
  const std::size_t found =
      search.run(cg, /*complemented=*/true, {}, {.enough = alpha - 2});
  EXPECT_FALSE(search.complete());
  EXPECT_GE(found, alpha - 2);
  EXPECT_LE(found, alpha);
  EXPECT_EQ(search.best().size(), found);
  const std::vector<std::size_t> set(search.best().begin(),
                                     search.best().end());
  EXPECT_TRUE(wdag::conflict::is_independent_set(cg, set));

  search.run(cg, /*complemented=*/true, {}, {.node_budget = 3});
  EXPECT_FALSE(search.complete());

  // The same searcher is whole again on the next unlimited run.
  EXPECT_EQ(search.run(cg, /*complemented=*/false),
            wdag::conflict::clique_number(cg));
  EXPECT_TRUE(search.complete());
}

TEST(ExactBoundsTest, SparseGraphsKeepTheAlphaSearchWithinBudget) {
  // The complement of a sparse graph is dense, where an exact alpha is an
  // exponential search. The certifier stops it once an independent set
  // shows ceil(n / alpha) cannot beat its bound, or at the node budget;
  // either way the bound is skipped and the k-search decides.
  for (const auto& [n, p] : {std::pair{150u, 0.1}, std::pair{200u, 0.05}}) {
    const ConflictGraph cg = random_graph(n, p, 7);
    const auto r = wdag::conflict::chromatic_number(cg, 20'000);
    EXPECT_TRUE(wdag::conflict::is_valid_coloring(cg, r.coloring));
    EXPECT_EQ(wdag::conflict::num_colors(r.coloring), r.chromatic_number);
    EXPECT_GE(r.chromatic_number, wdag::conflict::clique_number(cg));
  }
}

}  // namespace
