#include "paths/familyio.hpp"

#include <cctype>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "paths/dipath.hpp"
#include "util/check.hpp"

namespace wdag::paths {

using graph::Digraph;
using graph::DigraphBuilder;
using graph::VertexId;

std::string to_instance_text(const DipathFamily& family) {
  const Digraph& g = family.graph();
  std::ostringstream os;
  for (const auto& arc : g.arcs()) {
    os << "arc " << g.vertex_label(arc.tail) << ' ' << g.vertex_label(arc.head)
       << '\n';
  }
  for (PathId id = 0; id < family.size(); ++id) {
    os << "path";
    for (const VertexId v : path_vertices(g, family.path(id))) {
      os << ' ' << g.vertex_label(v);
    }
    os << '\n';
  }
  return os.str();
}

namespace {
bool is_number(const std::string& s) {
  if (s.empty()) return false;
  for (const char c : s) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

/// `tok` is all digits; parses it or dies with the line-numbered diagnostic
/// every other malformed input gets (std::stoul alone throws a bare
/// std::out_of_range on tokens exceeding unsigned long).
unsigned long parse_numeric_vertex(const std::string& tok,
                                   std::size_t line_no) {
  unsigned long id = 0;
  try {
    id = std::stoul(tok);
  } catch (const std::out_of_range&) {
    WDAG_REQUIRE(false, "parse_instance_text: line " +
                            std::to_string(line_no) + ": vertex id '" + tok +
                            "' is out of range");
  }
  WDAG_REQUIRE(id < (1UL << 31),
               "parse_instance_text: line " + std::to_string(line_no) +
                   ": vertex id '" + tok + "' is too large");
  return id;
}
}  // namespace

ParsedInstance parse_instance_text(const std::string& text) {
  DigraphBuilder b;
  // Each path line keeps its 1-based line number so the deferred
  // resolution pass below can still point at the offending line.
  std::vector<std::pair<std::size_t, std::vector<std::string>>> path_lines;

  std::istringstream is(text);
  std::string line;
  std::size_t line_no = 0;

  auto resolve = [&](const std::string& tok) -> VertexId {
    if (is_number(tok)) {
      return static_cast<VertexId>(parse_numeric_vertex(tok, line_no));
    }
    return b.vertex(tok);
  };
  while (std::getline(is, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string kind;
    if (!(ls >> kind)) continue;
    if (kind == "arc") {
      std::string u, v, extra;
      WDAG_REQUIRE(static_cast<bool>(ls >> u >> v),
                   "parse_instance_text: line " + std::to_string(line_no) +
                       ": arc needs tail and head");
      WDAG_REQUIRE(!(ls >> extra),
                   "parse_instance_text: line " + std::to_string(line_no) +
                       ": trailing tokens after arc");
      const VertexId uu = resolve(u);
      const VertexId vv = resolve(v);
      b.add_arc(uu, vv);
    } else if (kind == "path") {
      std::vector<std::string> tokens;
      std::string tok;
      while (ls >> tok) tokens.push_back(tok);
      WDAG_REQUIRE(tokens.size() >= 2,
                   "parse_instance_text: line " + std::to_string(line_no) +
                       ": path needs at least two vertices");
      path_lines.emplace_back(line_no, std::move(tokens));
    } else {
      WDAG_REQUIRE(false, "parse_instance_text: line " +
                              std::to_string(line_no) + ": unknown keyword '" +
                              kind + "'");
    }
  }

  ParsedInstance out;
  out.graph = std::make_shared<const Digraph>(b.build());
  out.family = DipathFamily(*out.graph);
  const Digraph& g = *out.graph;
  for (const auto& [path_line_no, tokens] : path_lines) {
    std::vector<VertexId> walk;
    walk.reserve(tokens.size());
    for (const auto& tok : tokens) {
      if (is_number(tok)) {
        const unsigned long id = parse_numeric_vertex(tok, path_line_no);
        WDAG_REQUIRE(id < g.num_vertices(),
                     "parse_instance_text: line " +
                         std::to_string(path_line_no) + ": path vertex id '" +
                         tok + "' out of range");
        walk.push_back(static_cast<VertexId>(id));
      } else {
        const auto v = g.vertex_by_name(tok);
        WDAG_REQUIRE(v.has_value(),
                     "parse_instance_text: unknown path vertex '" + tok + "'");
        walk.push_back(*v);
      }
    }
    out.family.add(dipath_through(g, walk));
  }
  return out;
}

}  // namespace wdag::paths
