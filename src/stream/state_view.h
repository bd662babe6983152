// StateView — the read-side abstraction over resource availability.
//
// Composition logic is written once against this interface and evaluated
// against different information regimes, which is the heart of the paper's
// hybrid design:
//   * TrueStateView     — the simulator's ground truth (what probes collect
//                         on the nodes they visit, and what the Optimal
//                         baseline is allowed to read everywhere);
//   * CoarseStateView   — the threshold-updated global state (what ACP's
//                         candidate selection reads, possibly stale).
//
// Views differ only in what they believe is available. Component and link
// QoS are static properties of the system and are read from StreamSystem.
#pragma once

#include "net/overlay.h"
#include "stream/component.h"
#include "stream/resources.h"

namespace acp::stream {

class StateView {
 public:
  virtual ~StateView() = default;

  /// Available end-system resources on `node` as believed at time `now`.
  virtual ResourceVector node_available(NodeId node, double now) const = 0;

  /// Available bandwidth on overlay link `l` as believed at time `now`.
  virtual double link_available_kbps(net::OverlayLinkIndex l, double now) const = 0;

  /// Bottleneck available bandwidth of the virtual link a→b: min over its
  /// overlay links; +infinity when a == b (co-location, paper footnote 8).
  double virtual_link_available_kbps(const net::OverlayMesh& mesh, NodeId a, NodeId b,
                                     double now) const;
};

}  // namespace acp::stream
