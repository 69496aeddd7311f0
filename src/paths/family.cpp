#include "paths/family.hpp"

#include "util/check.hpp"

namespace wdag::paths {

PathId DipathFamily::add(std::span<const graph::ArcId> p) {
  WDAG_REQUIRE(graph_ != nullptr, "DipathFamily::add: no host graph set");
  WDAG_REQUIRE(is_valid_dipath(*graph_, p),
               "DipathFamily::add: not a valid dipath of the host graph");
  flat_.add(p);
  return static_cast<PathId>(size() - 1);
}

PathId DipathFamily::add_unchecked(std::span<const graph::ArcId> p) {
  WDAG_REQUIRE(graph_ != nullptr, "DipathFamily::add: no host graph set");
  flat_.add(p);
  return static_cast<PathId>(size() - 1);
}

PathId DipathFamily::add_through(const std::vector<graph::VertexId>& vertices) {
  return add(dipath_through(graph(), vertices));
}

PathId DipathFamily::add_through_names(const std::vector<std::string>& names) {
  return add(dipath_through_names(graph(), names));
}

std::vector<Dipath> DipathFamily::paths() const {
  std::vector<Dipath> out;
  out.reserve(size());
  for (PathId id = 0; id < size(); ++id) {
    const auto p = flat_.path(id);
    out.emplace_back(std::vector<graph::ArcId>(p.begin(), p.end()));
  }
  return out;
}

DipathFamily DipathFamily::replicate(std::size_t h) const {
  WDAG_REQUIRE(h >= 1, "DipathFamily::replicate: h must be >= 1");
  DipathFamily out(graph());
  out.reserve(size() * h, flat_.arcs.size() * h);
  for (PathId id = 0; id < size(); ++id) {
    for (std::size_t c = 0; c < h; ++c) out.flat_.add(flat_.path(id));
  }
  return out;
}

DipathFamily DipathFamily::filter(const std::vector<bool>& keep) const {
  WDAG_REQUIRE(keep.size() == size(),
               "DipathFamily::filter: mask size mismatch");
  DipathFamily out(graph());
  for (PathId id = 0; id < size(); ++id) {
    if (keep[id]) out.flat_.add(flat_.path(id));
  }
  return out;
}

std::vector<std::vector<PathId>> arc_incidence(const DipathFamily& family) {
  std::vector<std::vector<PathId>> inc(family.graph().num_arcs());
  for (PathId id = 0; id < family.size(); ++id) {
    for (graph::ArcId a : family.path(id)) inc[a].push_back(id);
  }
  return inc;
}

void arc_incidence_csr(const DipathFamily& family,
                       std::vector<std::uint32_t>& offsets,
                       std::vector<PathId>& ids) {
  const std::size_t num_arcs = family.graph().num_arcs();
  const FlatFamily& flat = family.flat();
  offsets.assign(num_arcs + 1, 0);
  for (graph::ArcId a : flat.arcs) ++offsets[a + 1];
  for (std::size_t a = 0; a < num_arcs; ++a) offsets[a + 1] += offsets[a];
  ids.resize(flat.arcs.size());
  // Second pass fills each group front-to-back; iterating paths in id
  // order keeps every group sorted by path id, matching arc_incidence.
  thread_local std::vector<std::uint32_t> cursor;
  cursor.assign(offsets.begin(), offsets.end() - 1);
  for (PathId id = 0; id < flat.size(); ++id) {
    for (graph::ArcId a : flat.path(id)) ids[cursor[a]++] = id;
  }
}

}  // namespace wdag::paths
