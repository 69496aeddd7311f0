#pragma once
// One-call structural classification of a digraph with respect to the
// paper's taxonomy. The core solver dispatches on this report:
//
//   no internal cycle          -> Theorem 1: w == pi, constructive
//   UPP + internal cycles      -> Theorem 6 / split-merge: w <= ceil(4/3 pi)
//                                 per cycle level
//   otherwise                  -> heuristics + exact search, w unbounded
//                                 relative to pi (Figure 1)
//
// classify() is the one place a solve derives these facts. The report
// keeps the topological order and the internal-arc list its passes
// produced, so the structural colorers read them instead of sorting and
// scanning the host again.

#include <string>
#include <vector>

#include "graph/digraph.hpp"

namespace wdag::dag {

/// Structural facts about a digraph relevant to wavelength assignment.
/// Everything past `is_dag` is only set for DAGs (empty or zero otherwise).
struct DagReport {
  bool is_dag = false;            ///< no directed cycle
  bool is_upp = false;            ///< unique-dipath property
  std::size_t internal_cycles = 0;///< cyclomatic count of internal cycles
  std::size_t num_vertices = 0;
  std::size_t num_arcs = 0;
  std::size_t num_sources = 0;
  std::size_t num_sinks = 0;
  /// Kahn's topological order of the vertices (graph::topological_sort).
  std::vector<graph::VertexId> topo_order;
  /// Arcs with both endpoints internal, ascending
  /// (dag::internal_arcs_into).
  std::vector<graph::ArcId> internal_arcs;

  /// True when Theorem 1 guarantees w == pi for every family.
  [[nodiscard]] bool wavelengths_equal_load() const {
    return is_dag && internal_cycles == 0;
  }

  /// True when Theorem 6's bound applies (UPP, exactly one internal cycle).
  [[nodiscard]] bool theorem6_applies() const {
    return is_dag && is_upp && internal_cycles == 1;
  }
};

/// Computes the full report: one Kahn pass, one internal-arc scan, then
/// the internal-cycle count over that arc list and the UPP test over that
/// order. A warm call allocates only the report's two vectors.
DagReport classify(const graph::Digraph& g);

/// Human-readable multi-line summary of a report.
std::string report_to_string(const DagReport& r);

}  // namespace wdag::dag
