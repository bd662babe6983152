// ComponentGraph — a composed stream processing application λ = (C, L).
//
// Maps every node of a FunctionGraph to a concrete component; virtual links
// are implied by the chosen components' host nodes (delay-shortest overlay
// paths). Provides the paper's evaluation primitives:
//
//   * accumulated QoS along each source→sink path (Eq. 3 check)
//   * residual-resource feasibility (Eq. 4, 5)
//   * the congestion aggregation metric φ(λ) (Eq. 1), co-location aware
//     (footnotes 4, 5, 8)
//
// Eqs. 1, 4 and 5 all read one Footprint; the deputy's hot path runs them
// as one fused pass (ComponentGraph::qualify) over caller-owned scratch.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "stream/component.h"
#include "stream/function_graph.h"
#include "stream/state_view.h"
#include "stream/system.h"
#include "util/flat_map.h"

namespace acp::stream {

class CompositionScratch;

/// The resource footprint of one composition on flat storage: every
/// distinct node it occupies, with the demand of the function nodes placed
/// there summed in function-node order, and every distinct overlay link its
/// virtual links cross, with the bandwidth of the edges crossing it summed
/// in edge order. Co-located edges consume no bandwidth and enter no link
/// (footnote 8). An edge between distinct nodes enters its links even at
/// 0 kbps, so a degraded pool with negative availability still fails Eq. 5.
///
/// A footprint lives in a CompositionScratch and is built against its
/// request-scoped link table: every entry names a request-local slot, whose
/// availability the table reads at most once per request. Rebuilding keeps
/// capacity, so steady-state evaluation does not allocate, and every step
/// costs O(size of the composition).
class Footprint {
 public:
  struct NodeEntry {
    NodeId node;
    ResourceVector demand;
    std::uint32_t slot;  ///< the node's slot in the request's table
  };
  struct LinkEntry {
    net::OverlayLinkIndex link;
    double kbps;
    std::uint32_t slot;  ///< the link's slot in the request's table
  };

  const std::vector<NodeEntry>& nodes() const { return nodes_; }
  const std::vector<LinkEntry>& links() const { return links_; }

  /// Eq. 4 + 5 against the view the table was begun on; stops at the first
  /// entry whose demand does not fit.
  bool feasible() const;

  /// Eq. 1: one node term per function node in function-node order, then
  /// one bandwidth term per network edge in edge order, each on the
  /// residual after the whole footprint. Defined whether or not feasible.
  double phi() const;

 private:
  friend class CompositionScratch;

  Footprint() = default;

  /// Rebuilds the tables for `assignment`: one component per function node
  /// of the graph `table` was begun on.
  void build(const StreamSystem& sys, const ComponentId* assignment, CompositionScratch& table);

  CompositionScratch* table_ = nullptr;
  std::vector<NodeEntry> nodes_;
  /// Per function node: its entry in nodes_.
  std::vector<std::uint32_t> fn_entry_;
  std::vector<LinkEntry> links_;
  /// Each edge's walk as indices into links_, concatenated; edge e's run
  /// ends at edge_end_[e] (an empty run: co-located endpoints).
  std::vector<std::uint32_t> edge_links_;
  std::vector<std::uint32_t> edge_end_;
};

/// Caller-owned scratch for evaluating the compositions of one request: a
/// request-scoped link table plus the footprint built on it. The table
/// holds the request's source→sink paths; one entry per distinct virtual
/// link (a, b) with its QoS sum and its walk as request-local link slots
/// (an overlay link gets a slot the first time any walk of the request
/// touches it); and one entry per link or node slot with its availability,
/// read from the view at most once per request. Compositions that share
/// virtual links therefore walk, hash and read each of them once.
///
/// begin() binds the table to one (function graph, view, now) and forgets
/// everything memoised before; evaluation requires that same view and now.
/// Call it again before switching request, view or instant — and whenever
/// the pools under the view may have changed. Each thread of evaluation
/// owns its own (a ProbingProtocol owns one per instance); it is never
/// shared.
class CompositionScratch {
 public:
  CompositionScratch() = default;
  CompositionScratch(const CompositionScratch&) = delete;
  CompositionScratch& operator=(const CompositionScratch&) = delete;

  /// Starts evaluating compositions of `fg` against `view` at `now`; both
  /// `fg` and `view` must outlive the evaluation.
  void begin(const FunctionGraph& fg, const StateView& view, double now);

  /// The footprint of `assignment` (one component per function node of the
  /// begun graph), valid until the next footprint or qualify on this
  /// scratch.
  const Footprint& footprint(const StreamSystem& sys, const ComponentId* assignment);

 private:
  friend class ComponentGraph;
  friend class Footprint;

  struct VirtualLink {
    QoSVector qos;  ///< Σ StreamSystem::link_qos over the walk, in walk order
    /// The walk's slots: walks_[first, last).
    std::uint32_t first;
    std::uint32_t last;
  };
  struct LinkSlot {
    net::OverlayLinkIndex link;
    bool read;  ///< `available` holds the view's value
    /// The build that last entered this slot, and the slot's entry in its
    /// links_.
    std::uint32_t stamp;
    std::uint32_t entry;
    double available;
  };
  struct NodeSlot {
    NodeId node;
    bool read;
    ResourceVector available;
  };

  /// The table entry of virtual link a→b, created (walked, slotted and its
  /// QoS summed) on first use in the request.
  const VirtualLink& virtual_link(const StreamSystem& sys, NodeId a, NodeId b);
  std::uint32_t node_slot(NodeId node);

  /// A slot's availability, read from the view on first use.
  double link_available(std::uint32_t slot) {
    LinkSlot& s = link_slots_[slot];
    if (!s.read) {
      s.available = view_->link_available_kbps(s.link, now_);
      s.read = true;
    }
    return s.available;
  }
  const ResourceVector& node_available(std::uint32_t slot) {
    NodeSlot& s = node_slots_[slot];
    if (!s.read) {
      s.available = view_->node_available(s.node, now_);
      s.read = true;
    }
    return s.available;
  }

  const FunctionGraph* fg_ = nullptr;
  const StateView* view_ = nullptr;
  double now_ = 0.0;
  std::vector<std::vector<FnNodeIndex>> paths_;
  util::FlatMap<std::uint64_t, std::uint32_t> vlink_index_;  ///< (a, b) → vlinks_
  std::vector<VirtualLink> vlinks_;
  std::vector<std::uint32_t> walks_;  ///< link slots of every walk, concatenated
  util::FlatMap<net::OverlayLinkIndex, std::uint32_t> link_slot_index_;
  std::vector<LinkSlot> link_slots_;
  std::uint32_t epoch_ = 0;  ///< stamp of the current build
  util::FlatMap<NodeId, std::uint32_t> node_slot_index_;
  std::vector<NodeSlot> node_slots_;
  Footprint footprint_;
};

class ComponentGraph {
 public:
  /// An unassigned graph over `fg`; the graph must outlive this object.
  explicit ComponentGraph(const FunctionGraph& fg);

  const FunctionGraph& function_graph() const { return *fg_; }

  /// Assigns function node `fn` to component `c` (must provide fn's
  /// function; checked against `sys` on evaluation, not here).
  void assign(FnNodeIndex fn, ComponentId c);

  bool is_assigned(FnNodeIndex fn) const;
  bool fully_assigned() const;
  ComponentId component_at(FnNodeIndex fn) const;

  /// Distinct components in the composition (Eq. 2 requires one per fn).
  std::vector<ComponentId> components() const;

  // ---- Evaluation (read-only) --------------------------------------------

  /// Eq. 2: every assigned component provides the requested function.
  bool functions_match(const StreamSystem& sys) const;

  /// Interface compatibility: along every dependency edge, the upstream
  /// function's output format feeds the downstream function's input format
  /// (the paper's input/output stream-rate compatibility check). A property
  /// of the function graph; template-generated requests satisfy it by
  /// construction.
  bool interfaces_compatible(const StreamSystem& sys) const;

  /// Accumulated QoS of one source→sink path (components + virtual links,
  /// added in path order). With `table`, each virtual link's QoS is summed
  /// once per request instead of once per path and composition.
  QoSVector path_qos(const StreamSystem& sys, const std::vector<FnNodeIndex>& path,
                     CompositionScratch* table = nullptr) const;

  /// Eq. 3: every source→sink path's accumulated QoS satisfies `req`.
  bool satisfies_qos(const StreamSystem& sys, const QoSVector& req) const;

  /// Every assigned component satisfies the request's security/license
  /// policy (extension: paper Sec. 6 future-work constraints).
  bool satisfies_policy(const StreamSystem& sys, const PolicyConstraint& policy) const;

  /// All constraint checks in one fused pass: the policy constraint and
  /// Eqs. 2–5, then φ (Eq. 1) from the same footprint. Returns φ when the
  /// composition qualifies, nullopt otherwise. `scratch` must have been
  /// begun on this graph's function graph, `view` and `now`.
  std::optional<double> qualify(const StreamSystem& sys, const StateView& view,
                                const QoSVector& qos_req, const PolicyConstraint& policy,
                                double now, CompositionScratch& scratch) const;

  /// This composition's footprint, built in `scratch` (requires
  /// fully_assigned() and a scratch begun on this graph's function graph).
  /// Its feasible() is Eqs. 4 + 5 and its phi() is Eq. 1 on the view the
  /// scratch was begun on.
  const Footprint& footprint(const StreamSystem& sys, CompositionScratch& scratch) const;

  bool operator==(const ComponentGraph& o) const { return assignment_ == o.assignment_; }

  std::string to_string(const StreamSystem& sys) const;

 private:
  const FunctionGraph* fg_;
  std::vector<ComponentId> assignment_;  ///< per fn node; kNoComponent if unset
};

}  // namespace acp::stream
