#include "stream/component_graph.h"

#include <algorithm>
#include <limits>
#include <sstream>

namespace acp::stream {

ComponentGraph::ComponentGraph(const FunctionGraph& fg)
    : fg_(&fg), assignment_(fg.node_count(), kNoComponent) {}

void ComponentGraph::assign(FnNodeIndex fn, ComponentId c) {
  ACP_REQUIRE(fn < assignment_.size());
  assignment_[fn] = c;
}

bool ComponentGraph::is_assigned(FnNodeIndex fn) const {
  ACP_REQUIRE(fn < assignment_.size());
  return assignment_[fn] != kNoComponent;
}

bool ComponentGraph::fully_assigned() const {
  return std::none_of(assignment_.begin(), assignment_.end(),
                      [](ComponentId c) { return c == kNoComponent; });
}

ComponentId ComponentGraph::component_at(FnNodeIndex fn) const {
  ACP_REQUIRE(fn < assignment_.size());
  ACP_REQUIRE_MSG(assignment_[fn] != kNoComponent, "function node not assigned");
  return assignment_[fn];
}

std::vector<ComponentId> ComponentGraph::components() const {
  std::vector<ComponentId> out;
  for (ComponentId c : assignment_) {
    if (c != kNoComponent) out.push_back(c);
  }
  return out;
}

bool ComponentGraph::functions_match(const StreamSystem& sys) const {
  for (FnNodeIndex i = 0; i < assignment_.size(); ++i) {
    if (assignment_[i] == kNoComponent) return false;
    if (sys.component(assignment_[i]).function != fg_->node(i).function) return false;
  }
  return true;
}

// ---- Footprint --------------------------------------------------------------

void Footprint::build(const StreamSystem& sys, const ComponentId* assignment,
                      CompositionScratch& table) {
  const FunctionGraph& fg = *table.fg_;
  table_ = &table;
  nodes_.clear();
  fn_entry_.clear();
  links_.clear();
  edge_links_.clear();
  edge_end_.clear();

  // Node demand, summed per node in function-node order. A composition has
  // a handful of function nodes, so a linear scan finds the entry.
  for (FnNodeIndex i = 0; i < fg.node_count(); ++i) {
    const NodeId node = sys.component(assignment[i]).node;
    std::uint32_t k = 0;
    while (k < nodes_.size() && nodes_[k].node != node) ++k;
    if (k == nodes_.size()) {
      nodes_.push_back(NodeEntry{node, ResourceVector{}, table.node_slot(node)});
    }
    nodes_[k].demand += fg.node(i).required;
    fn_entry_.push_back(k);
  }

  // Link bandwidth, summed per overlay link in edge order; each edge keeps
  // its walk so φ can take the bottleneck along it. A slot stamped with this
  // build's epoch already has its entry.
  const std::uint32_t epoch = ++table.epoch_;
  for (FnEdgeIndex e = 0; e < fg.edge_count(); ++e) {
    const FnEdge& edge = fg.edge(e);
    const NodeId a = nodes_[fn_entry_[edge.from]].node;
    const NodeId b = nodes_[fn_entry_[edge.to]].node;
    if (a != b) {  // co-located: no bandwidth consumed
      const CompositionScratch::VirtualLink& v = table.virtual_link(sys, a, b);
      for (std::uint32_t w = v.first; w < v.last; ++w) {
        const std::uint32_t slot = table.walks_[w];
        CompositionScratch::LinkSlot& s = table.link_slots_[slot];
        if (s.stamp != epoch) {
          s.stamp = epoch;
          s.entry = static_cast<std::uint32_t>(links_.size());
          links_.push_back(LinkEntry{s.link, 0.0, slot});
        }
        links_[s.entry].kbps += edge.required_bandwidth_kbps;
        edge_links_.push_back(s.entry);
      }
    }
    edge_end_.push_back(static_cast<std::uint32_t>(edge_links_.size()));
  }
}

bool Footprint::feasible() const {
  ACP_REQUIRE(table_ != nullptr);
  for (const NodeEntry& n : nodes_) {
    if (!n.demand.fits_within(table_->node_available(n.slot))) return false;
  }
  for (const LinkEntry& l : links_) {
    if (l.kbps > table_->link_available(l.slot)) return false;
  }
  return true;
}

double Footprint::phi() const {
  ACP_REQUIRE(table_ != nullptr);
  const FunctionGraph& fg = *table_->fg_;
  double phi = 0.0;

  // Node terms: residual on each node accounts for the composition's entire
  // demand there (footnote 5), then each component contributes
  // Σ_k r_k / (rr_k + r_k).
  for (FnNodeIndex i = 0; i < fn_entry_.size(); ++i) {
    const NodeEntry& n = nodes_[fn_entry_[i]];
    phi += congestion_terms(fg.node(i).required, table_->node_available(n.slot) - n.demand);
  }

  // Virtual-link terms: b / (rb + b) where rb is the bottleneck residual
  // along the virtual link after all of this composition's link demands.
  std::uint32_t begin = 0;
  for (FnEdgeIndex e = 0; e < edge_end_.size(); ++e) {
    const std::uint32_t end = edge_end_[e];
    if (begin == end) continue;  // co-located: rb = ∞ ⇒ term = 0 (footnote 8)
    double residual = std::numeric_limits<double>::infinity();
    for (std::uint32_t k = begin; k < end; ++k) {
      const LinkEntry& l = links_[edge_links_[k]];
      residual = std::min(residual, table_->link_available(l.slot) - l.kbps);
    }
    phi += congestion_term(fg.edge(e).required_bandwidth_kbps, residual);
    begin = end;
  }
  return phi;
}

// ---- CompositionScratch -----------------------------------------------------

void CompositionScratch::begin(const FunctionGraph& fg, const StateView& view, double now) {
  fg_ = &fg;
  view_ = &view;
  now_ = now;
  paths_ = fg.enumerate_paths();
  vlink_index_.clear();
  vlinks_.clear();
  walks_.clear();
  link_slot_index_.clear();
  link_slots_.clear();
  epoch_ = 0;
  node_slot_index_.clear();
  node_slots_.clear();
}

const Footprint& CompositionScratch::footprint(const StreamSystem& sys,
                                               const ComponentId* assignment) {
  ACP_REQUIRE_MSG(fg_ != nullptr, "scratch not begun");
  footprint_.build(sys, assignment, *this);
  return footprint_;
}

const CompositionScratch::VirtualLink& CompositionScratch::virtual_link(const StreamSystem& sys,
                                                                        NodeId a, NodeId b) {
  const std::uint64_t key = (std::uint64_t{a} << 32) | b;
  if (const std::uint32_t* v = vlink_index_.find(key)) return vlinks_[*v];
  VirtualLink v{QoSVector{}, static_cast<std::uint32_t>(walks_.size()), 0};
  // Co-located endpoints have an empty walk and zero QoS (footnote 4).
  if (a != b) {
    sys.mesh().for_each_virtual_link(a, b, [&](net::OverlayLinkIndex l) {
      v.qos += sys.link_qos(l);
      const std::uint32_t* found = link_slot_index_.find(l);
      const auto slot = found != nullptr ? *found : static_cast<std::uint32_t>(link_slots_.size());
      if (found == nullptr) {
        link_slots_.push_back(LinkSlot{l, false, 0, 0, 0.0});
        link_slot_index_.insert_or_assign(l, slot);
      }
      walks_.push_back(slot);
    });
  }
  v.last = static_cast<std::uint32_t>(walks_.size());
  vlink_index_.insert_or_assign(key, static_cast<std::uint32_t>(vlinks_.size()));
  vlinks_.push_back(v);
  return vlinks_.back();
}

std::uint32_t CompositionScratch::node_slot(NodeId node) {
  if (const std::uint32_t* found = node_slot_index_.find(node)) return *found;
  const auto slot = static_cast<std::uint32_t>(node_slots_.size());
  node_slots_.push_back(NodeSlot{node, false, ResourceVector{}});
  node_slot_index_.insert_or_assign(node, slot);
  return slot;
}

// ---- ComponentGraph evaluation ----------------------------------------------

QoSVector ComponentGraph::path_qos(const StreamSystem& sys, const std::vector<FnNodeIndex>& path,
                                   CompositionScratch* table) const {
  QoSVector q;
  for (std::size_t i = 0; i < path.size(); ++i) {
    const Component& c = sys.component(component_at(path[i]));
    q += c.qos;
    if (i + 1 < path.size()) {
      const NodeId a = c.node;
      const NodeId b = sys.component(component_at(path[i + 1])).node;
      q += table != nullptr ? table->virtual_link(sys, a, b).qos : sys.virtual_link_qos(a, b);
    }
  }
  return q;
}

bool ComponentGraph::satisfies_qos(const StreamSystem& sys, const QoSVector& req) const {
  for (const auto& path : fg_->enumerate_paths()) {
    if (!path_qos(sys, path).satisfies(req)) return false;
  }
  return true;
}

const Footprint& ComponentGraph::footprint(const StreamSystem& sys,
                                          CompositionScratch& scratch) const {
  ACP_REQUIRE_MSG(fully_assigned(), "function node not assigned");
  ACP_REQUIRE_MSG(scratch.fg_ == fg_, "scratch begun on another function graph");
  return scratch.footprint(sys, assignment_.data());
}

bool ComponentGraph::satisfies_policy(const StreamSystem& sys,
                                      const PolicyConstraint& policy) const {
  if (policy.is_permissive()) return true;
  for (ComponentId c : assignment_) {
    if (c == kNoComponent) return false;
    if (!policy.admits(sys.component_attributes(c))) return false;
  }
  return true;
}

bool ComponentGraph::interfaces_compatible(const StreamSystem& sys) const {
  const auto& catalog = sys.catalog();
  for (FnEdgeIndex e = 0; e < fg_->edge_count(); ++e) {
    const FnEdge& edge = fg_->edge(e);
    if (!catalog.compatible(fg_->node(edge.from).function, fg_->node(edge.to).function)) {
      return false;
    }
  }
  return true;
}

std::optional<double> ComponentGraph::qualify(const StreamSystem& sys, const StateView& view,
                                              const QoSVector& qos_req,
                                              const PolicyConstraint& policy, double now,
                                              CompositionScratch& scratch) const {
  ACP_REQUIRE_MSG(scratch.fg_ == fg_, "scratch begun on another function graph");
  ACP_REQUIRE_MSG(scratch.view_ == &view && scratch.now_ == now,
                  "scratch begun on another view or instant");
  if (!satisfies_policy(sys, policy) || !fully_assigned() || !functions_match(sys) ||
      !interfaces_compatible(sys)) {
    return std::nullopt;
  }
  for (const auto& path : scratch.paths_) {
    if (!path_qos(sys, path, &scratch).satisfies(qos_req)) return std::nullopt;
  }
  const Footprint& fp = scratch.footprint(sys, assignment_.data());
  if (!fp.feasible()) return std::nullopt;
  return fp.phi();
}

std::string ComponentGraph::to_string(const StreamSystem& sys) const {
  std::ostringstream os;
  os << "λ{";
  for (FnNodeIndex i = 0; i < assignment_.size(); ++i) {
    if (i) os << ", ";
    os << i << "→";
    if (assignment_[i] == kNoComponent) {
      os << "∅";
    } else {
      os << "c" << assignment_[i] << "@n" << sys.component(assignment_[i]).node;
    }
  }
  os << "}";
  return os.str();
}

}  // namespace acp::stream
