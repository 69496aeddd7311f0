#pragma once
// Routing: turning requests (ordered vertex pairs) into dipaths.
//
// The paper notes that on UPP-DAGs requests and dipaths are equivalent
// because routes are unique; on general DAGs we provide the standard
// "shortest, lexicographically smallest" policy used when the RWA problem
// is split into routing followed by wavelength assignment (paper §1).

#include <optional>
#include <vector>

#include "paths/family.hpp"

namespace wdag::paths {

/// A connection request from `from` to `to`.
struct Request {
  graph::VertexId from = graph::kNoVertex;
  graph::VertexId to = graph::kNoVertex;

  bool operator==(const Request&) const = default;
};

/// The unique dipath from u to v in a UPP-DAG, nullopt when v is not
/// reachable from u. Throws wdag::DomainError when two distinct u->v
/// dipaths exist (the graph is not UPP for this pair). Requires u != v.
std::optional<Dipath> unique_route(const graph::Digraph& g, graph::VertexId u,
                                   graph::VertexId v);

/// A shortest u->v dipath (fewest arcs), breaking ties towards smaller arc
/// ids; nullopt when unreachable. Requires u != v. Works on any digraph.
std::optional<Dipath> shortest_route(const graph::Digraph& g,
                                     graph::VertexId u, graph::VertexId v);

/// shortest_route() into a caller-owned buffer (overwritten), for loops
/// that route many requests; false (and `out` empty) when unreachable.
bool shortest_route_into(const graph::Digraph& g, graph::VertexId u,
                         graph::VertexId v, std::vector<graph::ArcId>& out);

/// Routing policy for route_requests.
enum class RoutePolicy {
  kUnique,    ///< UPP routing (throws DomainError on ambiguous pairs)
  kShortest,  ///< shortest path, lexicographic tie-break
};

/// Routes every request; throws wdag::InvalidArgument when some request is
/// unroutable (no dipath exists).
DipathFamily route_requests(const graph::Digraph& g,
                            const std::vector<Request>& requests,
                            RoutePolicy policy);

}  // namespace wdag::paths
