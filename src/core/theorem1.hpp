#pragma once
// Theorem 1 (the paper's primary contribution), as an algorithm:
//
//   Let G be a DAG without internal cycle. Then for every family of dipaths
//   P, the minimum number of wavelengths w(G,P) equals the load pi(G,P).
//
// The proof is by induction on arcs and is fully constructive; this module
// implements it as an O(poly) coloring procedure:
//
//  1. Arcs are ordered by Kahn's algorithm on their tails, so that removing
//     them in order always removes an arc whose tail is a source of the
//     remaining graph; every dipath therefore loses arcs strictly from the
//     front (its first arc is the only one whose tail can be a source).
//  2. Replaying arcs in reverse, each entering arc e extends the dipaths
//     whose next-to-restore arc is e (the family Q_0 of the proof) and
//     introduces the dipaths reduced to e itself.
//  3. The previously-colored suffixes (P_0 of the proof) must receive
//     pairwise distinct colors; when they collide, the paper's two-color
//     chain recoloring (an alpha/beta Kempe-style walk over intersecting
//     dipaths) frees a color. Case B of the proof (re-recoloring) cannot
//     occur; case C (the chain hits the kept path) would exhibit an
//     internal cycle, so on valid input it never fires — we check the
//     precondition up front (on the host's dag::DagReport) and assert it
//     never does.
//
// The result uses exactly pi(G,P) wavelengths, certifying w == pi.

#include <cstddef>
#include <span>

#include "conflict/coloring.hpp"
#include "dag/classify.hpp"
#include "paths/family.hpp"
#include "paths/flat_family.hpp"

namespace wdag::core {

/// Statistics and certificate of a Theorem-1 run.
struct Theorem1Result {
  conflict::Coloring coloring;       ///< wavelength per path id
  std::size_t wavelengths = 0;       ///< colors used == pi(G,P)
  std::size_t load = 0;              ///< pi(G,P)
  std::size_t chain_recolorings = 0; ///< total alpha/beta chain executions
  std::size_t paths_flipped = 0;     ///< dipaths recolored across all chains
};

/// Colors `family` with exactly pi(G,P) wavelengths.
///
/// Preconditions (checked): the host graph is a DAG with no internal cycle.
/// Throws wdag::DomainError otherwise. Classifies the host first, and
/// validates the returned coloring against the family before returning.
Theorem1Result color_equal_load(const paths::DipathFamily& family);

/// color_equal_load() for a host the caller has classified: `report` must
/// be dag::classify(family.graph()). The preconditions are checked on the
/// report (same DomainError), the removal order comes from its
/// topological order, and the final re-validation is left to the caller
/// (the replay keeps per-arc colors distinct invariantly; w == pi is still
/// asserted). api::solve_with validates whatever it did not dispatch.
Theorem1Result color_equal_load(const paths::DipathFamily& family,
                                const dag::DagReport& report);

/// The Theorem-1 replay over a flat path list on g, removing arcs in tail
/// order along `order` (a topological order of g): no precondition checks,
/// the w == pi certificate kept. The split-merge leaf holds its levels in
/// flat form. Writes into `res`, reusing its coloring's storage.
void color_equal_load_into(const graph::Digraph& g,
                           std::span<const graph::VertexId> order,
                           const paths::FlatFamily& family,
                           Theorem1Result& res);

}  // namespace wdag::core
