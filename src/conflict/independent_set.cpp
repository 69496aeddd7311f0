#include "conflict/independent_set.hpp"

#include "conflict/clique.hpp"
#include "util/check.hpp"

namespace wdag::conflict {

ConflictGraph complement(const ConflictGraph& cg) {
  const std::size_t n = cg.size();
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = u + 1; v < n; ++v) {
      if (!cg.adjacent(u, v)) edges.emplace_back(u, v);
    }
  }
  return ConflictGraph(n, edges);
}

std::vector<std::size_t> max_independent_set(const ConflictGraph& cg) {
  CliqueSearcher search;
  search.run(cg, /*complemented=*/true);
  const std::vector<std::size_t> set(search.best().begin(),
                                     search.best().end());
  WDAG_ASSERT(is_independent_set(cg, set),
              "max_independent_set: complement clique is not independent");
  return set;
}

std::size_t independence_number(const ConflictGraph& cg) {
  return max_independent_set(cg).size();
}

bool is_independent_set(const ConflictGraph& cg,
                        const std::vector<std::size_t>& vs) {
  for (std::size_t i = 0; i < vs.size(); ++i) {
    for (std::size_t j = i + 1; j < vs.size(); ++j) {
      if (cg.adjacent(vs[i], vs[j])) return false;
    }
  }
  return true;
}

std::size_t replication_lower_bound(const ConflictGraph& cg, std::size_t h) {
  WDAG_REQUIRE(h >= 1, "replication_lower_bound: h must be >= 1");
  if (cg.size() == 0) return 0;
  const std::size_t alpha = independence_number(cg);
  const std::size_t total = cg.size() * h;
  return (total + alpha - 1) / alpha;
}

}  // namespace wdag::conflict
