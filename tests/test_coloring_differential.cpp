// Differential tests pinning the word-parallel coloring kernels to the
// scalar reference implementations they replaced.
//
// The optimized DSATUR and first-fit greedy must produce *byte-identical*
// colorings — same values, same tie-breaking — as the original scalar
// code on every workload family, because downstream artifacts (batch CSVs,
// dispatch histograms, paper tables) are pinned to their exact output.
// The reference implementations below are verbatim ports of the pre-
// optimization code, deliberately using only neighbors()/count() so they
// share no code path with the rewritten kernels.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "conflict/coloring.hpp"
#include "conflict/conflict_graph.hpp"
#include "gen/workloads.hpp"
#include "util/dynamic_bitset.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace {

using namespace wdag;
using conflict::Coloring;
using conflict::ConflictGraph;
using util::Xoshiro256;

constexpr std::uint32_t kUncolored = UINT32_MAX;

/// Scalar first-fit greedy: O(n) bool-vector sweep per vertex (pre-PR).
Coloring reference_greedy(const ConflictGraph& cg,
                          const std::vector<std::size_t>& order) {
  Coloring colors(cg.size(), kUncolored);
  std::vector<bool> used;
  for (const std::size_t u : order) {
    used.assign(cg.size() + 1, false);
    const auto& row = cg.neighbors(u);
    for (std::size_t v = row.find_first(); v < cg.size();
         v = row.find_next(v)) {
      if (colors[v] != kUncolored) used[colors[v]] = true;
    }
    std::uint32_t c = 0;
    while (used[c]) ++c;
    colors[u] = c;
  }
  return colors;
}

/// Scalar DSATUR: n+1-bit saturation sets, O(n) argmax per step (pre-PR).
Coloring reference_dsatur(const ConflictGraph& cg) {
  const std::size_t n = cg.size();
  Coloring colors(n, kUncolored);
  std::vector<util::DynamicBitset> sat;
  sat.reserve(n);
  for (std::size_t i = 0; i < n; ++i) sat.emplace_back(n + 1);

  for (std::size_t step = 0; step < n; ++step) {
    std::size_t best = n;
    std::size_t best_sat = 0, best_deg = 0;
    for (std::size_t v = 0; v < n; ++v) {
      if (colors[v] != kUncolored) continue;
      const std::size_t s = sat[v].count();
      const std::size_t d = cg.neighbors(v).count();
      if (best == n || s > best_sat || (s == best_sat && d > best_deg)) {
        best = v;
        best_sat = s;
        best_deg = d;
      }
    }
    std::uint32_t c = 0;
    while (sat[best].test(c)) ++c;
    colors[best] = c;
    const auto& row = cg.neighbors(best);
    for (std::size_t v = row.find_first(); v < n; v = row.find_next(v)) {
      sat[v].set(c);
    }
  }
  return colors;
}

/// Pre-PR normalize_colors: first-appearance remap by linear scan.
std::size_t reference_normalize(Coloring& c) {
  std::vector<std::uint32_t> remap;
  for (auto& col : c) {
    const auto it = std::find(remap.begin(), remap.end(), col);
    if (it == remap.end()) {
      remap.push_back(col);
      col = static_cast<std::uint32_t>(remap.size() - 1);
    } else {
      col = static_cast<std::uint32_t>(it - remap.begin());
    }
  }
  return remap.size();
}

gen::WorkloadParams small_params() {
  gen::WorkloadParams p;
  p.size = 24;
  p.paths = 24;
  p.rows = 4;
  p.cols = 5;
  p.layers = 4;
  p.width = 3;
  p.dim = 3;
  p.stages = 3;
  p.k = 3;
  p.h = 2;
  return p;
}

/// Natural 0..n-1 order.
std::vector<std::size_t> natural_order(std::size_t n) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  return order;
}

TEST(ColoringDifferentialTest, DsaturMatchesReferenceOnEveryFamily) {
  const gen::WorkloadParams p = small_params();
  for (const std::string& name : gen::workload_names()) {
    Xoshiro256 rng(0xD5A70 + std::hash<std::string>{}(name));
    for (int round = 0; round < 4; ++round) {
      const gen::Instance inst = gen::workload_instance(name, p, rng);
      const ConflictGraph cg(inst.family);
      EXPECT_EQ(conflict::dsatur_coloring(cg), reference_dsatur(cg))
          << "family=" << name << " round=" << round;
    }
  }
}

TEST(ColoringDifferentialTest, GreedyMatchesReferenceOnEveryFamily) {
  const gen::WorkloadParams p = small_params();
  for (const std::string& name : gen::workload_names()) {
    Xoshiro256 rng(0x62EED + std::hash<std::string>{}(name));
    for (int round = 0; round < 4; ++round) {
      const gen::Instance inst = gen::workload_instance(name, p, rng);
      const ConflictGraph cg(inst.family);
      // Natural order and a deterministic shuffle.
      std::vector<std::size_t> order = natural_order(cg.size());
      EXPECT_EQ(conflict::greedy_coloring(cg, order),
                reference_greedy(cg, order))
          << "family=" << name << " round=" << round;
      for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.index(i)]);
      }
      EXPECT_EQ(conflict::greedy_coloring(cg, order),
                reference_greedy(cg, order))
          << "family=" << name << " round=" << round << " (shuffled)";
    }
  }
}

TEST(ColoringDifferentialTest, DegreeAndMaxDegreeMatchRowCounts) {
  const gen::WorkloadParams p = small_params();
  for (const std::string& name : gen::workload_names()) {
    Xoshiro256 rng(0xDE6 + std::hash<std::string>{}(name));
    const gen::Instance inst = gen::workload_instance(name, p, rng);
    const ConflictGraph cg(inst.family);
    std::size_t max_deg = 0;
    for (std::size_t v = 0; v < cg.size(); ++v) {
      EXPECT_EQ(cg.degree(v), cg.neighbors(v).count());
      max_deg = std::max(max_deg, cg.degree(v));
    }
    EXPECT_EQ(cg.max_degree(), max_deg) << "family=" << name;
  }
}

// The ISA-dispatch matrix: rebuilding the conflict graph and recoloring
// under every reachable SIMD tier (scalar / sse2 / avx2 / avx512, as
// forced by WDAG_FORCE_ISA in CI or set_active_tier here) must reproduce
// the scalar tier's adjacency rows and colorings byte for byte, on every
// workload family. A vectorized kernel that is merely "equivalent" but
// reorders ties or drifts a tail word fails here, not in production.
TEST(ColoringDifferentialTest, EveryIsaTierIsByteIdenticalOnEveryFamily) {
  namespace simd = util::simd;
  const simd::IsaTier original = simd::active_tier();
  const gen::WorkloadParams p = small_params();
  for (const std::string& name : gen::workload_names()) {
    Xoshiro256 rng(0x157A + std::hash<std::string>{}(name));
    const gen::Instance inst = gen::workload_instance(name, p, rng);

    simd::set_active_tier(simd::IsaTier::kScalar);
    const ConflictGraph ref_cg(inst.family);
    const std::size_t n = ref_cg.size();
    const std::size_t words = (n + 63) / 64;
    std::vector<std::vector<std::uint64_t>> ref_rows(n);
    for (std::size_t v = 0; v < n; ++v) {
      for (std::size_t w = 0; w < words; ++w) {
        ref_rows[v].push_back(ref_cg.neighbors(v).word(w));
      }
    }
    const Coloring ref_greedy = conflict::greedy_coloring(ref_cg);
    const Coloring ref_dsatur = conflict::dsatur_coloring(ref_cg);

    for (const simd::IsaTier tier : simd::reachable_tiers()) {
      simd::set_active_tier(tier);
      const ConflictGraph cg(inst.family);
      ASSERT_EQ(cg.size(), n) << "family=" << name;
      for (std::size_t v = 0; v < n; ++v) {
        std::vector<std::uint64_t> row_words;
        for (std::size_t w = 0; w < words; ++w) {
          row_words.push_back(cg.neighbors(v).word(w));
        }
        ASSERT_EQ(row_words, ref_rows[v])
            << "family=" << name << " tier=" << simd::tier_name(tier)
            << " row=" << v;
      }
      EXPECT_EQ(conflict::greedy_coloring(cg), ref_greedy)
          << "family=" << name << " tier=" << simd::tier_name(tier);
      EXPECT_EQ(conflict::dsatur_coloring(cg), ref_dsatur)
          << "family=" << name << " tier=" << simd::tier_name(tier);
    }
  }
  simd::set_active_tier(original);
}

/// DSATUR under every reachable ISA tier against the scalar reference.
/// `make` builds the graph afresh under the active tier, so the rows are
/// the tier's own too.
void expect_dsatur_matches_reference_at_every_tier(
    const std::function<ConflictGraph()>& make, const std::string& label) {
  namespace simd = util::simd;
  const simd::IsaTier original = simd::active_tier();
  simd::set_active_tier(simd::IsaTier::kScalar);
  const Coloring ref = reference_dsatur(make());
  for (const simd::IsaTier tier : simd::reachable_tiers()) {
    simd::set_active_tier(tier);
    EXPECT_EQ(conflict::dsatur_coloring(make()), ref)
        << label << " tier=" << simd::tier_name(tier);
  }
  simd::set_active_tier(original);
}

/// G(n, p) edge list drawn from rng.
std::vector<std::pair<std::size_t, std::size_t>> gnp_edges(std::size_t n,
                                                           double p,
                                                           Xoshiro256& rng) {
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = u + 1; v < n; ++v) {
      if (rng.chance(p)) edges.emplace_back(u, v);
    }
  }
  return edges;
}

// The rank bitsets span ceil(n/64) words, and K_n needs n saturation
// levels: sizes on both sides of one and two words, and past 64 levels.
TEST(ColoringDifferentialTest, DsaturMatchesReferenceAcrossRankWords) {
  Xoshiro256 rng(0x5A7B);
  for (const std::size_t n : {63u, 64u, 65u, 130u, 200u}) {
    std::vector<std::pair<std::size_t, std::size_t>> complete, star;
    for (std::size_t u = 0; u < n; ++u) {
      for (std::size_t v = u + 1; v < n; ++v) complete.emplace_back(u, v);
    }
    // The center is the last id but the first rank.
    for (std::size_t v = 0; v + 1 < n; ++v) star.emplace_back(v, n - 1);
    const std::vector<std::pair<
        std::string, std::vector<std::pair<std::size_t, std::size_t>>>>
        graphs = {{"complete", complete},
                  {"edgeless", {}},
                  {"star", star},
                  {"sparse", gnp_edges(n, 0.05, rng)},
                  {"dense", gnp_edges(n, 0.7, rng)}};
    for (const auto& [name, edges] : graphs) {
      expect_dsatur_matches_reference_at_every_tier(
          [&, &edges = edges] { return ConflictGraph(n, edges); },
          name + " n=" + std::to_string(n));
    }
  }
}

// The conflict-batch DSATUR hosts at their benchmark sizes, and a
// fat-chain whose 130 paths need three rank words.
TEST(ColoringDifferentialTest, DsaturMatchesReferenceOnConflictBatchHosts) {
  gen::WorkloadParams grid;
  grid.rows = 6;
  grid.cols = 8;
  grid.paths = 64;
  gen::WorkloadParams wide_chain;
  wide_chain.paths = 130;
  const std::vector<std::pair<std::string, gen::WorkloadParams>> hosts = {
      {"fat-chain", gen::WorkloadParams{}},
      {"grid", grid},
      {"fat-chain", wide_chain}};
  for (const auto& [name, params] : hosts) {
    Xoshiro256 rng(0xC0B + params.paths);
    for (int round = 0; round < 6; ++round) {
      const gen::Instance inst = gen::workload_instance(name, params, rng);
      expect_dsatur_matches_reference_at_every_tier(
          [&] { return ConflictGraph(inst.family); },
          name + " paths=" + std::to_string(inst.family.size()) +
              " round=" + std::to_string(round));
    }
  }
}

TEST(ColoringDifferentialTest, NormalizeAndCountMatchReference) {
  Xoshiro256 rng(99);
  for (int round = 0; round < 50; ++round) {
    Coloring c(1 + rng.index(60));
    const bool sparse = round % 5 == 0;
    for (auto& col : c) {
      // Sparse rounds use huge scattered ids to force the sort fallback.
      col = sparse ? static_cast<std::uint32_t>(rng.below(UINT32_MAX))
                   : static_cast<std::uint32_t>(rng.below(12));
    }
    Coloring ref = c, opt = c;
    const std::size_t ref_k = reference_normalize(ref);
    EXPECT_EQ(conflict::num_colors(c),
              std::set<std::uint32_t>(c.begin(), c.end()).size());
    EXPECT_EQ(conflict::normalize_colors(opt), ref_k);
    EXPECT_EQ(opt, ref);
  }
}

}  // namespace
