#include "gen/topologies.hpp"

#include <string>
#include <utility>

#include "util/check.hpp"

namespace wdag::gen {

using graph::Digraph;
using graph::DigraphBuilder;
using graph::VertexId;

Digraph butterfly(std::size_t k) {
  WDAG_REQUIRE(k >= 1, "butterfly: dimension must be >= 1");
  WDAG_REQUIRE(k <= 20, "butterfly: dimension too large");
  const std::size_t row = std::size_t{1} << k;
  DigraphBuilder b;
  auto vid = [&](std::size_t level, std::size_t x) {
    return static_cast<VertexId>(level * row + x);
  };
  for (std::size_t level = 0; level <= k; ++level) {
    for (std::size_t x = 0; x < row; ++x) {
      b.add_vertex("L" + std::to_string(level) + "_" + std::to_string(x));
    }
  }
  for (std::size_t level = 0; level < k; ++level) {
    for (std::size_t x = 0; x < row; ++x) {
      b.add_arc(vid(level, x), vid(level + 1, x));                        // straight
      b.add_arc(vid(level, x), vid(level + 1, x ^ (std::size_t{1} << level)));  // cross
    }
  }
  return std::move(b).build();
}

Digraph grid_dag(std::size_t rows, std::size_t cols) {
  WDAG_REQUIRE(rows >= 1 && cols >= 1, "grid_dag: need at least 1x1");
  DigraphBuilder b(rows * cols);
  auto vid = [&](std::size_t i, std::size_t j) {
    return static_cast<VertexId>(i * cols + j);
  };
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      if (j + 1 < cols) b.add_arc(vid(i, j), vid(i, j + 1));  // right
      if (i + 1 < rows) b.add_arc(vid(i, j), vid(i + 1, j));  // down
    }
  }
  return std::move(b).build();
}

Digraph fat_chain(std::size_t stages, std::size_t width) {
  WDAG_REQUIRE(stages >= 1 && width >= 1, "fat_chain: need >= 1 stage/width");
  DigraphBuilder b;
  const VertexId entry = b.add_vertex("entry");
  VertexId prev = b.add_vertex("s0");
  b.add_arc(entry, prev);
  for (std::size_t s = 0; s < stages; ++s) {
    const VertexId next = b.add_vertex("s" + std::to_string(s + 1));
    for (std::size_t w = 0; w < width; ++w) {
      const VertexId mid = b.add_vertex("m" + std::to_string(s) + "_" +
                                        std::to_string(w));
      b.add_arc(prev, mid);
      b.add_arc(mid, next);
    }
    prev = next;
  }
  const VertexId exit = b.add_vertex("exit");
  b.add_arc(prev, exit);
  return std::move(b).build();
}

Digraph spine_with_leaves(std::size_t n) {
  WDAG_REQUIRE(n >= 2, "spine_with_leaves: need a chain of >= 2 vertices");
  DigraphBuilder b;
  VertexId prev = b.add_vertex("v0");
  for (std::size_t i = 1; i < n; ++i) {
    const VertexId cur = b.add_vertex("v" + std::to_string(i));
    b.add_arc(prev, cur);
    if (i + 1 < n) {
      b.add_arc(cur, b.add_vertex("leaf" + std::to_string(i)));
    }
    prev = cur;
  }
  return std::move(b).build();
}

}  // namespace wdag::gen
