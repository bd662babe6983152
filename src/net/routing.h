// Delay-based shortest-path routing (Dijkstra) over a Graph.
//
// Used twice, exactly as in the paper's simulator:
//   * IP layer: overlay-link delay = shortest IP-path delay between the two
//     endpoint hosts; overlay-link capacity = bottleneck along that path.
//   * Overlay layer: a virtual link between two stream processing nodes is
//     the delay-shortest overlay path; an all-pairs table (one shortest-path
//     tree per source) supports O(path length) extraction.
#pragma once

#include <limits>
#include <vector>

#include "net/graph.h"

namespace acp::net {

inline constexpr double kUnreachable = std::numeric_limits<double>::infinity();

/// Single-source shortest path tree.
struct ShortestPathTree {
  NodeIndex source = 0;
  std::vector<double> distance;     ///< delay from source; kUnreachable if none
  std::vector<NodeIndex> parent;    ///< predecessor node; kNoNode at source/unreached
  std::vector<EdgeIndex> via_edge;  ///< edge to parent; kNoEdge at source/unreached
};

/// Dijkstra over edge delay_ms.
ShortestPathTree dijkstra(const Graph& g, NodeIndex source);

/// Node sequence source..dest from a tree; empty if unreachable.
std::vector<NodeIndex> extract_path(const ShortestPathTree& t, NodeIndex dest);

/// Edge sequence along source..dest; empty if unreachable or dest==source.
std::vector<EdgeIndex> extract_path_edges(const ShortestPathTree& t, NodeIndex dest);

/// All-pairs routing table built from one Dijkstra per source node.
/// Memory is O(V^2); fine for overlay meshes of a few hundred nodes, and the
/// IP layer only ever needs trees rooted at overlay member hosts.
class RoutingTable {
 public:
  /// Builds trees for every node in `sources` (deduplicated); other sources
  /// are rejected by queries.
  RoutingTable(const Graph& g, const std::vector<NodeIndex>& sources);

  /// Convenience: all nodes as sources.
  explicit RoutingTable(const Graph& g);

  bool has_source(NodeIndex s) const;

  double distance(NodeIndex from, NodeIndex to) const;
  /// Every node's distance from `from`, indexed by node (one tree's row).
  const std::vector<double>& distances(NodeIndex from) const;
  std::vector<NodeIndex> path(NodeIndex from, NodeIndex to) const;
  std::vector<EdgeIndex> path_edges(NodeIndex from, NodeIndex to) const;

  /// Minimum capacity_kbps along the from→to path; kUnreachable-safe: 0 when
  /// unreachable, infinity when from==to.
  double bottleneck_capacity(const Graph& g, NodeIndex from, NodeIndex to) const;

 private:
  const ShortestPathTree& tree(NodeIndex s) const;

  std::vector<ShortestPathTree> trees_;
  std::vector<std::int32_t> tree_index_;  ///< node -> index in trees_, -1 if absent
};

}  // namespace acp::net
