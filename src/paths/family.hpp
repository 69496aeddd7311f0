#pragma once
// Families of dipaths with multiset semantics.
//
// Replicated copies of the same dipath are meaningful — the tight examples
// of Theorems 6/7 replace each dipath by h identical copies — so the family
// stores paths by index and never deduplicates.

#include <span>
#include <vector>

#include "paths/dipath.hpp"
#include "paths/flat_family.hpp"
#include "util/check.hpp"

namespace wdag::paths {

/// An ordered multiset of dipaths over a fixed host graph, stored flat:
/// every path's arcs live in one buffer (see FlatFamily), so building a
/// family costs a few buffer growths, not one allocation per path.
class DipathFamily {
 public:
  DipathFamily() = default;

  /// Starts an empty family over g (the graph must outlive the family).
  explicit DipathFamily(const graph::Digraph& g) : graph_(&g) {}

  /// Host graph. Throws when the family was default-constructed.
  [[nodiscard]] const graph::Digraph& graph() const {
    WDAG_REQUIRE(graph_ != nullptr, "DipathFamily: no host graph set");
    return *graph_;
  }

  /// Adds a dipath (validated); returns its id. A Dipath converts to the
  /// span; so does another path of this family.
  PathId add(std::span<const graph::ArcId> p);

  /// Adds a dipath the caller guarantees to be valid, skipping the
  /// per-arc validation walk. For generators and internal hot paths whose
  /// routes are valid by construction; everything else should use add().
  PathId add_unchecked(std::span<const graph::ArcId> p);

  /// Adds a dipath through the given vertices.
  PathId add_through(const std::vector<graph::VertexId>& vertices);

  /// Adds a dipath through the given vertex names.
  PathId add_through_names(const std::vector<std::string>& names);

  /// Sizes the storage for `paths` more dipaths of `arcs` arcs in total.
  void reserve(std::size_t paths, std::size_t arcs) {
    flat_.reserve(paths, arcs);
  }

  /// Number of dipaths (counting copies).
  [[nodiscard]] std::size_t size() const { return flat_.size(); }
  [[nodiscard]] bool empty() const { return flat_.empty(); }

  /// The arcs of the dipath with the given id, valid until the next add.
  [[nodiscard]] std::span<const graph::ArcId> path(PathId id) const {
    WDAG_REQUIRE(id < size(), "DipathFamily::path: id out of range");
    return flat_.path(id);
  }

  /// The flat storage: path id's arcs are
  /// flat().arcs[flat().offsets[id] .. flat().offsets[id + 1]).
  [[nodiscard]] const FlatFamily& flat() const { return flat_; }

  /// Every dipath as its own Dipath, indexed by PathId (a copy).
  [[deprecated("stored flat since 0.6.0: use path(id) or flat()")]]
  [[nodiscard]] std::vector<Dipath> paths() const;

  /// New family with every dipath replaced by `h` identical copies,
  /// in blocks: copies of path i occupy ids [i*h, (i+1)*h).
  [[nodiscard]] DipathFamily replicate(std::size_t h) const;

  /// New family keeping only the dipaths with keep[id] == true.
  [[nodiscard]] DipathFamily filter(const std::vector<bool>& keep) const;

 private:
  const graph::Digraph* graph_ = nullptr;
  FlatFamily flat_;
};

/// For each arc of the host graph, the ids of the dipaths containing it.
/// This inverted index is the workhorse for load computation, conflict
/// graph construction and the Theorem-1 chain recoloring.
std::vector<std::vector<PathId>> arc_incidence(const DipathFamily& family);

/// Flat (CSR) form of arc_incidence: after the call, the members of arc
/// a's group are ids[offsets[a] .. offsets[a+1]), in increasing path-id
/// order — the same grouping arc_incidence materializes, minus the
/// per-arc vector allocations. Caller-owned buffers are resized in place,
/// so hot loops can reuse them across instances.
void arc_incidence_csr(const DipathFamily& family,
                       std::vector<std::uint32_t>& offsets,
                       std::vector<PathId>& ids);

/// Calls fn(members, count) once per arc in arc-id order, where `members`
/// points at the arc's path ids (increasing). The pointer is only valid
/// for the duration of the call; groups may be empty. Uses thread-local
/// scratch, so no allocation after warm-up — which also means fn must not
/// itself call for_each_arc_group.
template <class Fn>
void for_each_arc_group(const DipathFamily& family, Fn&& fn) {
  thread_local std::vector<std::uint32_t> offsets;
  thread_local std::vector<PathId> ids;
  arc_incidence_csr(family, offsets, ids);
  for (std::size_t a = 0; a + 1 < offsets.size(); ++a) {
    fn(ids.data() + offsets[a], offsets[a + 1] - offsets[a]);
  }
}

}  // namespace wdag::paths
