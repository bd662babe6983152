// Fine-grain local state (paper Sec. 3.2).
//
// Each node proactively measures the QoS/resource states of its overlay
// neighbors and adjacent overlay links at a short interval (paper example:
// 10 seconds) and keeps them precise locally; this state is never
// disseminated. Probes visiting a node read the node's own state exactly
// and its neighborhood through this cache.
#pragma once

#include <memory>
#include <vector>

#include "obs/metrics.h"
#include "sim/engine.h"
#include "state/state_arrays.h"
#include "stream/state_view.h"
#include "stream/system.h"

namespace acp::state {

struct LocalStateConfig {
  double refresh_interval_s = 10.0;  ///< paper's example measurement period
  /// When false, refresh messages are not counted (acp.state.local_refresh;
  /// the paper's overhead metric excludes local measurement).
  bool count_messages = false;
};

class LocalStateManager {
 public:
  LocalStateManager(const stream::StreamSystem& sys, sim::Engine& engine,
                    obs::MetricsRegistry& metrics, LocalStateConfig config = {});
  ~LocalStateManager();

  LocalStateManager(const LocalStateManager&) = delete;
  LocalStateManager& operator=(const LocalStateManager&) = delete;

  /// Seeds caches and schedules the periodic refresh.
  void start();

  /// View as seen from `node`: its own state and adjacent links are exact;
  /// neighbor nodes are at most refresh_interval_s stale; anything farther
  /// falls back to the last refreshed snapshot (tests exercise staleness).
  /// The returned view is owned by the manager and valid for its lifetime.
  const stream::StateView& view_from(stream::NodeId node) const;

  /// Age (seconds) of the cached snapshot for `node`'s neighborhood.
  double snapshot_age(stream::NodeId node) const;

  /// Forces one refresh sweep. Exposed for tests.
  void run_refresh();

 private:
  class LocalView;

  void schedule_refresh();

  const stream::StreamSystem* sys_;
  sim::Engine* engine_;
  obs::LazyCounter refresh_messages_;  ///< acp.state.local_refresh
  LocalStateConfig config_;

  // Cached snapshots in struct-of-arrays layout (state_arrays.h): the
  // refresh sweep scatters one dimension at a time; link bandwidth is a
  // single flat array indexed by LinkHandle.
  NodeStateArrays cached_nodes_;
  std::vector<double> cached_link_avail_;
  double last_refresh_ = 0.0;
  bool started_ = false;

  mutable std::vector<std::unique_ptr<LocalView>> views_;  ///< lazily built per node
};

}  // namespace acp::state
