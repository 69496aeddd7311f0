#include "dag/classify.hpp"

#include <sstream>

#include "dag/internal_cycle.hpp"
#include "dag/upp.hpp"
#include "graph/properties.hpp"
#include "graph/topo.hpp"

namespace wdag::dag {

DagReport classify(const graph::Digraph& g) {
  DagReport r;
  r.num_vertices = g.num_vertices();
  r.num_arcs = g.num_arcs();
  const auto stats = graph::degree_stats(g);
  r.num_sources = stats.num_sources;
  r.num_sinks = stats.num_sinks;
  // One Kahn pass answers acyclicity and orders every later query.
  thread_local std::vector<std::uint32_t> indeg;
  r.is_dag = graph::topological_sort_into(g, r.topo_order, indeg);
  if (!r.is_dag) {
    r.topo_order.clear();
    return r;
  }
  r.internal_arcs.reserve(g.num_arcs());
  internal_arcs_into(g, r.internal_arcs);
  r.internal_cycles = internal_cycle_count(g, r.internal_arcs);
  r.is_upp = is_upp(g, r.topo_order);
  return r;
}

std::string report_to_string(const DagReport& r) {
  std::ostringstream os;
  os << "vertices:        " << r.num_vertices << '\n'
     << "arcs:            " << r.num_arcs << '\n'
     << "sources/sinks:   " << r.num_sources << '/' << r.num_sinks << '\n'
     << "is DAG:          " << (r.is_dag ? "yes" : "no") << '\n';
  if (r.is_dag) {
    os << "UPP:             " << (r.is_upp ? "yes" : "no") << '\n'
       << "internal cycles: " << r.internal_cycles << '\n'
       << "regime:          ";
    if (r.wavelengths_equal_load()) {
      os << "Theorem 1 (w == load for every family)";
    } else if (r.theorem6_applies()) {
      os << "Theorem 6 (UPP, one internal cycle: w <= ceil(4/3 load))";
    } else if (r.is_upp) {
      os << "UPP with " << r.internal_cycles
         << " internal cycles (recursive split-merge bound)";
    } else {
      os << "general DAG with internal cycles (w/load unbounded, Fig. 1)";
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace wdag::dag
