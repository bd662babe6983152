// Session management — the paper's Find/Process/Close middleware interface.
//
// Find() runs a composer and, on success, commits the chosen composition's
// resources under a fresh sessionId (confirmation messages making transient
// allocations permanent). Close() releases everything. A null sessionId (0)
// signals composition failure.
#pragma once

#include <map>

#include "stream/component_graph.h"
#include "stream/system.h"

namespace acp::stream {

/// Tag helpers: transient reservations are tagged per function node
/// (components) and per function edge (virtual-link bandwidth), offset so
/// the two spaces never collide within a request.
inline std::uint32_t node_tag(FnNodeIndex fn) { return fn; }
inline std::uint32_t link_tag(const FunctionGraph& fg, FnEdgeIndex e) {
  return static_cast<std::uint32_t>(fg.node_count()) + e;
}

/// One function node's committed placement within a session — enough to
/// release/re-commit the allocation later without the (possibly dead)
/// original Request.
struct PlacedComponent {
  FnNodeIndex fn = 0;
  ComponentId component = kNoComponent;
  NodeId node = 0;
  ResourceVector demand;
};

/// One function edge's committed virtual-link bandwidth.
struct PlacedLink {
  FnEdgeIndex edge = 0;
  FnNodeIndex from_fn = 0;
  FnNodeIndex to_fn = 0;
  NodeId a = 0;
  NodeId b = 0;
  double kbps = 0.0;
};

struct SessionRecord {
  SessionId id = kNullSession;
  RequestId request = 0;
  double start_time = 0.0;
  double planned_end_time = 0.0;
  std::vector<ComponentId> components;  ///< winning composition, for diagnostics
  /// Per-function placement snapshot taken at commit time (outlives the
  /// Request, so crash repair can reroute long after setup).
  std::vector<PlacedComponent> placements;
  std::vector<PlacedLink> links;
  /// True when committed via commit_probed: resources are held as one commit
  /// record per function node / per overlay link, which is what
  /// repair_component's targeted release/re-commit requires. Direct commits
  /// aggregate per node and are not repairable in place.
  bool probed = false;
};

class SessionTable {
 public:
  explicit SessionTable(StreamSystem& sys) : sys_(&sys) {}

  /// Commits `cg` by CONFIRMING the transient reservations previously placed
  /// by probes for `request` (tags per node_tag/link_tag). Any leftover
  /// transients of the request are cancelled on `held`, the pools its
  /// probes reserved on. Returns kNullSession if any confirmation fails
  /// (e.g. the transient expired) — in that case every partial commit is
  /// rolled back.
  SessionId commit_probed(RequestId request, const ComponentGraph& cg, const HeldPools& held,
                          double now, double planned_end_time);

  /// Commits `cg` by DIRECT allocation (no prior probing) — used by the
  /// Random/Static/Optimal baselines, which the paper grants free state
  /// access instead of probe-based reservation. All-or-nothing.
  SessionId commit_direct(RequestId request, const ComponentGraph& cg, double now,
                          double planned_end_time);

  /// Releases the session's resources and forgets it. Safe on unknown ids
  /// (returns false). Visits only the pools the session's record names —
  /// its placements' nodes and its virtual links' overlay links.
  bool close(SessionId id);

  std::size_t active_count() const { return records_.size(); }
  const SessionRecord* find(SessionId id) const;

  /// All live sessions (repair managers scan these after a node crash).
  const std::map<SessionId, SessionRecord>& records() const { return records_; }

  /// Repairs one function node of a probed session: commits `replacement`'s
  /// node allocation and re-routed virtual links, then releases the failed
  /// placement's resources and updates the record. All-or-nothing: on
  /// failure every new commit is rolled back, the record is untouched, and
  /// false is returned — the caller may try another candidate or close the
  /// session. Only valid for probed sessions (REQUIRE).
  bool repair_component(SessionId id, FnNodeIndex fn, ComponentId replacement, double now);

 private:
  SessionId allocate_id() { return next_id_++; }

  StreamSystem* sys_;
  SessionId next_id_ = 1;
  std::map<SessionId, SessionRecord> records_;
};

}  // namespace acp::stream
