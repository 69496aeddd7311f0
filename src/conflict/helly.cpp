#include "conflict/helly.hpp"

#include <algorithm>
#include <set>

#include "util/check.hpp"

namespace wdag::conflict {

using paths::Dipath;
using paths::DipathFamily;
using paths::PathId;

std::optional<Dipath> conflict_interval(const DipathFamily& family, PathId p,
                                        PathId q) {
  const auto P = family.path(p);
  const auto Q = family.path(q);
  const std::set<graph::ArcId> qset(Q.begin(), Q.end());

  // Positions of shared arcs along P.
  std::vector<std::size_t> pos;
  for (std::size_t i = 0; i < P.size(); ++i) {
    if (qset.count(P[i])) pos.push_back(i);
  }
  if (pos.empty()) return std::nullopt;
  WDAG_DOMAIN(pos.back() - pos.front() + 1 == pos.size(),
              "conflict_interval: intersection is not contiguous along the "
              "first dipath (host graph cannot be UPP)");

  Dipath inter;
  for (std::size_t i = pos.front(); i <= pos.back(); ++i) {
    inter.arcs.push_back(P[i]);
  }
  // The same arcs must be contiguous and identically ordered along Q.
  auto it = std::find(Q.begin(), Q.end(), inter.arcs.front());
  WDAG_DOMAIN(it != Q.end() &&
                  static_cast<std::size_t>(Q.end() - it) >= inter.arcs.size() &&
                  std::equal(inter.arcs.begin(), inter.arcs.end(), it),
              "conflict_interval: intersection is not a common interval "
              "(host graph cannot be UPP)");
  return inter;
}

bool pairwise_intersections_are_intervals(const DipathFamily& family) {
  const ConflictGraph cg(family);
  for (std::size_t p = 0; p < family.size(); ++p) {
    for (std::size_t q = p + 1; q < family.size(); ++q) {
      if (!cg.adjacent(p, q)) continue;
      try {
        (void)conflict_interval(family, static_cast<PathId>(p),
                                static_cast<PathId>(q));
      } catch (const DomainError&) {
        return false;
      }
    }
  }
  return true;
}

bool triples_satisfy_helly(const DipathFamily& family) {
  const ConflictGraph cg(family);
  const std::size_t n = family.size();
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      if (!cg.adjacent(a, b)) continue;
      for (std::size_t c = b + 1; c < n; ++c) {
        if (!cg.adjacent(a, c) || !cg.adjacent(b, c)) continue;
        // Common arc of all three?
        const auto pa = family.path(static_cast<PathId>(a));
        const auto pb = family.path(static_cast<PathId>(b));
        const std::set<graph::ArcId> sa(pa.begin(), pa.end());
        const std::set<graph::ArcId> sb(pb.begin(), pb.end());
        bool common = false;
        for (graph::ArcId arc : family.path(static_cast<PathId>(c))) {
          if (sa.count(arc) && sb.count(arc)) {
            common = true;
            break;
          }
        }
        if (!common) return false;
      }
    }
  }
  return true;
}

std::optional<std::vector<std::size_t>> find_k23(const ConflictGraph& cg) {
  const std::size_t n = cg.size();
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = u + 1; v < n; ++v) {
      if (cg.adjacent(u, v)) continue;
      util::DynamicBitset common(cg.neighbors(u));
      common &= cg.neighbors(v);
      const auto cand = common.to_indices();
      if (cand.size() < 3) continue;
      // Look for an independent triple among the common neighbors.
      for (std::size_t i = 0; i < cand.size(); ++i) {
        for (std::size_t j = i + 1; j < cand.size(); ++j) {
          if (cg.adjacent(cand[i], cand[j])) continue;
          for (std::size_t k = j + 1; k < cand.size(); ++k) {
            if (!cg.adjacent(cand[i], cand[k]) &&
                !cg.adjacent(cand[j], cand[k])) {
              return std::vector<std::size_t>{u, v, cand[i], cand[j], cand[k]};
            }
          }
        }
      }
    }
  }
  return std::nullopt;
}

std::optional<std::vector<std::size_t>> find_k5_minus_two_edges(
    const ConflictGraph& cg) {
  // K5 minus two independent edges: vertices {a,b,c,d,e} with non-edges
  // exactly {a,b} and {c,d} (e adjacent to everyone, all other pairs
  // adjacent). Search over the two independent non-edges.
  const std::size_t n = cg.size();
  std::vector<std::pair<std::size_t, std::size_t>> nonedges;
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = u + 1; v < n; ++v) {
      if (!cg.adjacent(u, v)) nonedges.emplace_back(u, v);
    }
  }
  for (std::size_t i = 0; i < nonedges.size(); ++i) {
    const auto [a, b] = nonedges[i];
    for (std::size_t j = i + 1; j < nonedges.size(); ++j) {
      const auto [c, d] = nonedges[j];
      if (a == c || a == d || b == c || b == d) continue;
      // Need all of a,b adjacent to all of c,d.
      if (!cg.adjacent(a, c) || !cg.adjacent(a, d) || !cg.adjacent(b, c) ||
          !cg.adjacent(b, d)) {
        continue;
      }
      // Need a fifth vertex adjacent to all four (and the subgraph induced
      // on the five must miss only the two chosen edges -> e adjacent to
      // all, which it is by construction).
      for (std::size_t e = 0; e < n; ++e) {
        if (e == a || e == b || e == c || e == d) continue;
        if (cg.adjacent(e, a) && cg.adjacent(e, b) && cg.adjacent(e, c) &&
            cg.adjacent(e, d)) {
          return std::vector<std::size_t>{a, b, c, d, e};
        }
      }
    }
  }
  return std::nullopt;
}

}  // namespace wdag::conflict
