#include "net/routing.h"

#include <algorithm>
#include <queue>

namespace acp::net {

ShortestPathTree dijkstra(const Graph& g, NodeIndex source) {
  ACP_REQUIRE(source < g.node_count());
  ShortestPathTree t;
  t.source = source;
  t.distance.assign(g.node_count(), kUnreachable);
  t.parent.assign(g.node_count(), kNoNode);
  t.via_edge.assign(g.node_count(), kNoEdge);

  using Entry = std::pair<double, NodeIndex>;  // (dist, node)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  t.distance[source] = 0.0;
  heap.push({0.0, source});
  while (!heap.empty()) {
    const auto [d, n] = heap.top();
    heap.pop();
    if (d > t.distance[n]) continue;  // stale entry
    for (EdgeIndex e : g.neighbors(n)) {
      const Edge& edge = g.edge(e);
      const NodeIndex m = edge.other(n);
      const double nd = d + edge.delay_ms;
      if (nd < t.distance[m]) {
        t.distance[m] = nd;
        t.parent[m] = n;
        t.via_edge[m] = e;
        heap.push({nd, m});
      }
    }
  }
  return t;
}

std::vector<NodeIndex> extract_path(const ShortestPathTree& t, NodeIndex dest) {
  ACP_REQUIRE(dest < t.distance.size());
  if (t.distance[dest] == kUnreachable) return {};
  std::vector<NodeIndex> path;
  for (NodeIndex n = dest; n != kNoNode; n = t.parent[n]) path.push_back(n);
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<EdgeIndex> extract_path_edges(const ShortestPathTree& t, NodeIndex dest) {
  ACP_REQUIRE(dest < t.distance.size());
  if (t.distance[dest] == kUnreachable) return {};
  std::vector<EdgeIndex> edges;
  for (NodeIndex n = dest; t.via_edge[n] != kNoEdge; n = t.parent[n]) {
    edges.push_back(t.via_edge[n]);
  }
  std::reverse(edges.begin(), edges.end());
  return edges;
}

RoutingTable::RoutingTable(const Graph& g, const std::vector<NodeIndex>& sources)
    : tree_index_(g.node_count(), -1) {
  for (NodeIndex s : sources) {
    ACP_REQUIRE(s < g.node_count());
    if (tree_index_[s] >= 0) continue;  // deduplicate
    tree_index_[s] = static_cast<std::int32_t>(trees_.size());
    trees_.push_back(dijkstra(g, s));
  }
}

RoutingTable::RoutingTable(const Graph& g) : tree_index_(g.node_count(), -1) {
  trees_.reserve(g.node_count());
  for (NodeIndex s = 0; s < g.node_count(); ++s) {
    tree_index_[s] = static_cast<std::int32_t>(trees_.size());
    trees_.push_back(dijkstra(g, s));
  }
}

bool RoutingTable::has_source(NodeIndex s) const {
  return s < tree_index_.size() && tree_index_[s] >= 0;
}

const ShortestPathTree& RoutingTable::tree(NodeIndex s) const {
  ACP_REQUIRE_MSG(has_source(s), "no shortest-path tree built for this source");
  return trees_[static_cast<std::size_t>(tree_index_[s])];
}

double RoutingTable::distance(NodeIndex from, NodeIndex to) const {
  const auto& t = tree(from);
  ACP_REQUIRE(to < t.distance.size());
  return t.distance[to];
}

const std::vector<double>& RoutingTable::distances(NodeIndex from) const {
  return tree(from).distance;
}

std::vector<NodeIndex> RoutingTable::path(NodeIndex from, NodeIndex to) const {
  return extract_path(tree(from), to);
}

std::vector<EdgeIndex> RoutingTable::path_edges(NodeIndex from, NodeIndex to) const {
  return extract_path_edges(tree(from), to);
}

double RoutingTable::bottleneck_capacity(const Graph& g, NodeIndex from, NodeIndex to) const {
  if (from == to) return std::numeric_limits<double>::infinity();
  const auto edges = path_edges(from, to);
  if (edges.empty()) return 0.0;
  double cap = std::numeric_limits<double>::infinity();
  for (EdgeIndex e : edges) cap = std::min(cap, g.edge(e).capacity_kbps);
  return cap;
}

}  // namespace acp::net
