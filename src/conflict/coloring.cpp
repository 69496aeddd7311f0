#include "conflict/coloring.hpp"

#include <algorithm>
#include <bit>

#include "util/check.hpp"

namespace wdag::conflict {

namespace {

constexpr std::uint32_t kUncolored = UINT32_MAX;
constexpr std::uint32_t kNoEntry = UINT32_MAX;

/// Reusable buffers for the coloring kernels and validators. One instance
/// per thread, so batch workers sweep a whole chunk of instances through
/// the hot path without reallocating.
struct Scratch {
  util::DynamicBitset color_mask;        ///< first-fit neighbor-color mask
  std::vector<std::uint32_t> stamps;     ///< color -> remap / group stamp
  std::vector<std::uint32_t> offsets;    ///< CSR arc incidence
  std::vector<paths::PathId> ids;
  std::vector<std::uint32_t> sorted;     ///< fallback for sparse color ids
  std::vector<std::uint64_t> sat_words;  ///< flat DSATUR saturation masks
  std::vector<std::uint32_t> sat_count;
  std::vector<std::uint32_t> rank;       ///< vertex -> DSATUR rank
  std::vector<std::uint32_t> by_rank;    ///< DSATUR rank -> vertex
  std::vector<std::uint32_t> deg_start;  ///< counting-sort cursors
  std::vector<std::uint64_t> levels;     ///< per-saturation rank bitsets
  std::vector<std::uint32_t> level_size;
};

Scratch& scratch() {
  thread_local Scratch s;
  return s;
}

std::uint32_t max_color_of(const Coloring& c) {
  std::uint32_t m = 0;
  for (const auto col : c) m = std::max(m, col);
  return m;
}

/// Flat color-indexed tables are only worth it while ids stay near-dense;
/// adversarially sparse ids (e.g. {0, 4'000'000'000}) fall back to
/// sorting so no call allocates O(max_id) memory.
bool ids_near_dense(std::uint32_t max_color, std::size_t n) {
  return static_cast<std::size_t>(max_color) <= 4 * n + 1024;
}

}  // namespace

std::size_t num_colors(const Coloring& c) {
  if (c.empty()) return 0;
  const std::uint32_t maxc = max_color_of(c);
  Scratch& s = scratch();
  if (ids_near_dense(maxc, c.size())) {
    s.stamps.assign(static_cast<std::size_t>(maxc) + 1, 0);
    std::size_t distinct = 0;
    for (const auto col : c) {
      if (s.stamps[col] == 0) {
        s.stamps[col] = 1;
        ++distinct;
      }
    }
    return distinct;
  }
  s.sorted.assign(c.begin(), c.end());
  std::sort(s.sorted.begin(), s.sorted.end());
  return static_cast<std::size_t>(
      std::unique(s.sorted.begin(), s.sorted.end()) - s.sorted.begin());
}

std::size_t normalize_colors(Coloring& c) {
  if (c.empty()) return 0;
  const std::uint32_t maxc = max_color_of(c);
  if (ids_near_dense(maxc, c.size())) {
    Scratch& s = scratch();
    s.stamps.assign(static_cast<std::size_t>(maxc) + 1, kNoEntry);
    std::uint32_t next = 0;
    for (auto& col : c) {
      if (s.stamps[col] == kNoEntry) s.stamps[col] = next++;
      col = s.stamps[col];
    }
    return next;
  }
  // Sparse ids: the original first-appearance scan (rare, small k).
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

bool is_valid_coloring(const ConflictGraph& cg, const Coloring& c) {
  if (c.size() != cg.size()) return false;
  for (std::size_t u = 0; u < cg.size(); ++u) {
    const auto& row = cg.neighbors(u);
    // Only v > u needs checking; start at u's word and mask off <= u.
    std::size_t w = u / 64;
    std::uint64_t bits = row.word(w) & (~std::uint64_t{0} << (u % 64) << 1);
    while (true) {
      while (bits != 0) {
        const std::size_t v =
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        if (c[u] == c[v]) return false;
      }
      if (++w >= row.num_words()) break;
      bits = row.word(w);
    }
  }
  return true;
}

bool is_valid_assignment(const paths::DipathFamily& family, const Coloring& c) {
  if (c.size() != family.size()) return false;
  Scratch& s = scratch();
  paths::arc_incidence_csr(family, s.offsets, s.ids);
  const std::uint32_t maxc = max_color_of(c);
  if (ids_near_dense(maxc, c.size())) {
    // stamps[col] records the last arc group that saw col; a repeat within
    // one group is a monochromatic shared arc.
    s.stamps.assign(static_cast<std::size_t>(maxc) + 1, kNoEntry);
    for (std::size_t a = 0; a + 1 < s.offsets.size(); ++a) {
      const std::uint32_t tag = static_cast<std::uint32_t>(a);
      for (std::uint32_t i = s.offsets[a]; i < s.offsets[a + 1]; ++i) {
        const std::uint32_t col = c[s.ids[i]];
        if (s.stamps[col] == tag) return false;
        s.stamps[col] = tag;
      }
    }
    return true;
  }
  for (std::size_t a = 0; a + 1 < s.offsets.size(); ++a) {
    s.sorted.clear();
    for (std::uint32_t i = s.offsets[a]; i < s.offsets[a + 1]; ++i) {
      s.sorted.push_back(c[s.ids[i]]);
    }
    std::sort(s.sorted.begin(), s.sorted.end());
    if (std::adjacent_find(s.sorted.begin(), s.sorted.end()) !=
        s.sorted.end()) {
      return false;
    }
  }
  return true;
}

Coloring greedy_coloring(const ConflictGraph& cg,
                         const std::vector<std::size_t>& order) {
  WDAG_REQUIRE(order.size() == cg.size(),
               "greedy_coloring: order size mismatch");
  Coloring colors(cg.size(), kUncolored);
  util::DynamicBitset& mask = scratch().color_mask;
  for (const std::size_t u : order) {
    WDAG_REQUIRE(u < cg.size(), "greedy_coloring: bad vertex in order");
    // At most degree(u) neighbors are colored, so the first-fit color is
    // at most degree(u): colors beyond the cap cannot block it.
    mask.reset_to_zero(cg.degree(u) + 1);
    const auto& row = cg.neighbors(u);
    for (std::size_t w = 0; w < row.num_words(); ++w) {
      std::uint64_t bits = row.word(w);
      while (bits != 0) {
        const std::size_t v =
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        const std::uint32_t cv = colors[v];
        if (cv != kUncolored && cv < mask.size()) mask.set_unchecked(cv);
      }
    }
    colors[u] = static_cast<std::uint32_t>(mask.find_first_zero());
  }
  return colors;
}

Coloring greedy_coloring(const ConflictGraph& cg) {
  std::vector<std::size_t> order(cg.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  return greedy_coloring(cg, order);
}

Coloring dsatur_coloring(const ConflictGraph& cg) {
  const std::size_t n = cg.size();
  Coloring colors(n, kUncolored);
  if (n == 0) return colors;
  Scratch& s = scratch();

  // Saturation masks are capped at max_degree + 1 bits: every assigned
  // color is at most its vertex's degree, so no neighbor color exceeds
  // max_degree. One flat buffer with a uniform word stride per vertex.
  const std::size_t max_deg = cg.max_degree();
  const std::size_t stride = (max_deg + 1 + 63) / 64;
  s.sat_words.assign(n * stride, 0);
  s.sat_count.assign(n, 0);

  // Rank the vertices once by (degree desc, id asc): a counting sort over
  // degrees in O(n + max_degree). deg_start[max_deg - d] is the next rank
  // of degree d, and ids ascend within a degree because v ascends.
  s.deg_start.assign(max_deg + 2, 0);
  for (std::size_t v = 0; v < n; ++v) {
    ++s.deg_start[max_deg - cg.degree(v) + 1];
  }
  for (std::size_t d = 1; d <= max_deg + 1; ++d) {
    s.deg_start[d] += s.deg_start[d - 1];
  }
  s.rank.resize(n);
  s.by_rank.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    const std::uint32_t r = s.deg_start[max_deg - cg.degree(v)]++;
    s.rank[v] = r;
    s.by_rank[r] = static_cast<std::uint32_t>(v);
  }

  // Saturation buckets: level L is a bitset over ranks holding the
  // uncolored vertices of saturation L, and level_size[L] counts them;
  // no level above `top` holds a vertex. The next vertex is the lowest
  // set rank of the highest non-empty level, which is the fixed total
  // order (saturation desc, degree desc, id asc). A pick scans at most
  // ceil(n/64) words and a saturation increase moves one bit, so the
  // whole run costs O(n * ceil(n/64) + m) word operations. Levels are
  // added only as saturation rises. A vertex's saturation stays below
  // the final color count (one that saw every color would need a new
  // one), so there are at most `colors` levels.
  const std::size_t words = (n + 63) / 64;
  s.levels.assign(words, ~std::uint64_t{0});
  if (n % 64 != 0) s.levels[words - 1] = (std::uint64_t{1} << (n % 64)) - 1;
  s.level_size.assign(1, static_cast<std::uint32_t>(n));
  std::size_t top = 0;

  for (std::size_t step = 0; step < n; ++step) {
    while (s.level_size[top] == 0) {
      WDAG_ASSERT(top > 0, "dsatur: saturation buckets exhausted");
      --top;
    }
    std::uint64_t* level = s.levels.data() + top * words;
    std::size_t w = 0;
    while (level[w] == 0) ++w;
    const std::size_t r =
        w * 64 + static_cast<std::size_t>(std::countr_zero(level[w]));
    level[w] &= level[w] - 1;
    --s.level_size[top];
    const std::size_t best = s.by_rank[r];

    // First color absent from the saturation mask: one zero-scan.
    const std::uint64_t* sat = s.sat_words.data() + best * stride;
    std::uint32_t c = kUncolored;
    for (std::size_t sw = 0; sw < stride; ++sw) {
      if (sat[sw] != ~std::uint64_t{0}) {
        c = static_cast<std::uint32_t>(
            sw * 64 + static_cast<std::size_t>(std::countr_one(sat[sw])));
        break;
      }
    }
    WDAG_ASSERT(c != kUncolored, "dsatur: no free color within the cap");
    colors[best] = c;

    // Each uncolored neighbor that had not yet seen c moves its rank bit
    // up one level.
    const auto& row = cg.neighbors(best);
    const std::uint64_t color_bit = std::uint64_t{1} << (c % 64);
    for (std::size_t rw = 0; rw < row.num_words(); ++rw) {
      std::uint64_t bits = row.word(rw);
      while (bits != 0) {
        const std::size_t q =
            rw * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        if (colors[q] != kUncolored) continue;
        std::uint64_t& qword = s.sat_words[q * stride + c / 64];
        if ((qword & color_bit) != 0) continue;
        qword |= color_bit;
        const std::size_t from = s.sat_count[q]++;
        if (from + 1 == s.level_size.size()) {
          s.levels.resize(s.levels.size() + words, 0);
          s.level_size.push_back(0);
        }
        const std::size_t qr = s.rank[q];
        const std::uint64_t rank_bit = std::uint64_t{1} << (qr % 64);
        s.levels[from * words + qr / 64] &= ~rank_bit;
        s.levels[(from + 1) * words + qr / 64] |= rank_bit;
        --s.level_size[from];
        ++s.level_size[from + 1];
        top = std::max(top, from + 1);
      }
    }
  }
  return colors;
}

}  // namespace wdag::conflict
