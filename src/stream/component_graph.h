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

/// The resource footprint of one composition on flat storage: every
/// distinct node it occupies, with the demand of the function nodes placed
/// there summed in function-node order, and every distinct overlay link its
/// virtual links cross, with the bandwidth of the edges crossing it summed
/// in edge order. Co-located edges consume no bandwidth and enter no link
/// (footnote 8). An edge between distinct nodes enters its links even at
/// 0 kbps, so a degraded pool with negative availability still fails Eq. 5.
///
/// One instance is reused across compositions: build() keeps its capacity,
/// so steady-state evaluation does not allocate, and every step costs
/// O(size of the composition).
class Footprint {
 public:
  struct NodeEntry {
    NodeId node;
    ResourceVector demand;
    ResourceVector available;  ///< as read by the last feasible()/read_available()
  };
  struct LinkEntry {
    net::OverlayLinkIndex link;
    double kbps;
    double available;  ///< as read by the last feasible()/read_available()
  };

  /// Rebuilds the tables for `assignment`: one component per function node
  /// of `fg`, which must outlive the next phi() call.
  void build(const StreamSystem& sys, const FunctionGraph& fg, const ComponentId* assignment);

  const std::vector<NodeEntry>& nodes() const { return nodes_; }
  const std::vector<LinkEntry>& links() const { return links_; }

  /// Eq. 4 + 5 against `view`: reads each entry's availability once (kept
  /// for phi()) and stops at the first entry whose demand does not fit.
  bool feasible(const StateView& view, double now);

  /// Reads every entry's availability without checking it (φ of a
  /// composition that may be infeasible).
  void read_available(const StateView& view, double now);

  /// Eq. 1 over the availabilities read last: one node term per function
  /// node in function-node order, then one bandwidth term per network edge
  /// in edge order, each on the residual after the whole footprint.
  double phi() const;

 private:
  const FunctionGraph* fg_ = nullptr;
  std::vector<NodeEntry> nodes_;
  /// Per function node: its entry in nodes_.
  std::vector<std::uint32_t> fn_entry_;
  std::vector<LinkEntry> links_;
  /// Each edge's walk as indices into links_, concatenated; edge e's run
  /// ends at edge_end_[e] (an empty run: co-located endpoints).
  std::vector<std::uint32_t> edge_links_;
  std::vector<std::uint32_t> edge_end_;
  /// Overlay link → its entry in links_.
  util::FlatMap<net::OverlayLinkIndex, std::uint32_t> link_entry_;
};

/// Caller-owned scratch for ComponentGraph::qualify over the compositions
/// of one request: the footprint tables, the request's source→sink paths
/// and the virtual-link QoS already summed for it. Each thread of
/// evaluation owns its own (a ProbingProtocol owns one per instance); it is
/// never shared.
class CompositionScratch {
 public:
  /// Starts evaluating compositions of `fg` against one view: caches the
  /// graph's paths and forgets the memoised virtual-link QoS. Call again
  /// before switching request or view.
  void begin(const FunctionGraph& fg);

 private:
  friend class ComponentGraph;

  /// view.virtual_link_qos(a, b), summed once per (a, b) until begin().
  QoSVector virtual_link_qos(const StreamSystem& sys, const StateView& view, NodeId a, NodeId b,
                             double now);

  const FunctionGraph* fg_ = nullptr;
  std::vector<std::vector<FnNodeIndex>> paths_;
  util::FlatMap<std::uint64_t, QoSVector> link_qos_;
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

  // ---- Evaluation (all read-only against a StateView) ---------------------

  /// Eq. 2: every assigned component provides the requested function.
  bool functions_match(const StreamSystem& sys) const;

  /// Interface compatibility: along every dependency edge, the upstream
  /// function's output format feeds the downstream function's input format
  /// (the paper's input/output stream-rate compatibility check). A property
  /// of the function graph; template-generated requests satisfy it by
  /// construction.
  bool interfaces_compatible(const StreamSystem& sys) const;

  /// Accumulated QoS of one source→sink path (components + virtual links,
  /// added in path order). With `memo`, each virtual link's QoS is summed
  /// once per request instead of once per path and composition.
  QoSVector path_qos(const StreamSystem& sys, const StateView& view,
                     const std::vector<FnNodeIndex>& path, double now,
                     CompositionScratch* memo = nullptr) const;

  /// Eq. 3: every source→sink path's accumulated QoS satisfies `req`.
  bool satisfies_qos(const StreamSystem& sys, const StateView& view, const QoSVector& req,
                     double now) const;

  /// Eq. 4 + 5: per-node aggregated demand fits available resources and
  /// per-overlay-link aggregated bandwidth demand fits available bandwidth.
  /// Demand aggregation makes this co-location correct: two components of
  /// this request on one node must jointly fit (footnote 5).
  bool resources_feasible(const StreamSystem& sys, const StateView& view, double now) const;

  /// Eq. 1: congestion aggregation φ(λ). Lower is better. Uses residual
  /// resources (available minus this composition's total demand on each
  /// node/link). Components co-located with their neighbor contribute no
  /// bandwidth term. Requires fully_assigned().
  double congestion_aggregation(const StreamSystem& sys, const StateView& view, double now) const;

  /// Every assigned component satisfies the request's security/license
  /// policy (extension: paper Sec. 6 future-work constraints).
  bool satisfies_policy(const StreamSystem& sys, const PolicyConstraint& policy) const;

  /// All constraint checks at once (Eqs. 2–5).
  bool qualified(const StreamSystem& sys, const StateView& view, const QoSVector& qos_req,
                 double now) const;

  /// Eqs. 2–5 plus the policy constraint.
  bool qualified(const StreamSystem& sys, const StateView& view, const QoSVector& qos_req,
                 const PolicyConstraint& policy, double now) const;

  /// The fused pass behind qualified(): the policy constraint and Eqs. 2–5,
  /// then φ (Eq. 1) from the same footprint. Returns φ when the composition
  /// qualifies, nullopt otherwise. `scratch` must have been begun on this
  /// graph's function graph and `view`.
  std::optional<double> qualify(const StreamSystem& sys, const StateView& view,
                                const QoSVector& qos_req, const PolicyConstraint& policy,
                                double now, CompositionScratch& scratch) const;

  /// This composition's footprint, built into `out` (requires
  /// fully_assigned()).
  void footprint(const StreamSystem& sys, Footprint& out) const;

  bool operator==(const ComponentGraph& o) const { return assignment_ == o.assignment_; }

  std::string to_string(const StreamSystem& sys) const;

 private:
  const FunctionGraph* fg_;
  std::vector<ComponentId> assignment_;  ///< per fn node; kNoComponent if unset
};

}  // namespace acp::stream
