// Shared helpers for test fixtures.
#pragma once

#include <algorithm>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "exp/experiment.h"
#include "obs/observability.h"
#include "stream/function.h"

namespace acp::testing {

/// φ (Eq. 1) of a fully assigned composition on `view` at `now`: the phi()
/// of its footprint on a scratch begun for it alone.
inline double phi_of(const stream::StreamSystem& sys, const stream::ComponentGraph& g,
                     const stream::StateView& view, double now) {
  stream::CompositionScratch scratch;
  scratch.begin(g.function_graph(), view, now);
  return g.footprint(sys, scratch).phi();
}

/// Eqs. 2–5 plus `policy`: whether `g` qualifies on `view` at `now`, by
/// ComponentGraph::qualify on a scratch begun for it alone.
inline bool qualifies(const stream::StreamSystem& sys, const stream::ComponentGraph& g,
                      const stream::StateView& view, const stream::QoSVector& qos_req,
                      double now, const stream::PolicyConstraint& policy = {}) {
  stream::CompositionScratch scratch;
  scratch.begin(g.function_graph(), view, now);
  return g.qualify(sys, view, qos_req, policy, now, scratch).has_value();
}

/// Finds `len` pairwise interface-compatible functions (a valid chain) in
/// the catalog via DFS. Fixtures use this so hand-built function graphs
/// satisfy the same compatibility invariants template-generated ones do.
inline std::vector<stream::FunctionId> compatible_chain(const stream::FunctionCatalog& catalog,
                                                        std::size_t len) {
  std::vector<stream::FunctionId> chain;
  std::function<bool()> extend = [&]() -> bool {
    if (chain.size() == len) return true;
    for (stream::FunctionId f = 0; f < catalog.size(); ++f) {
      if (std::find(chain.begin(), chain.end(), f) != chain.end()) continue;  // distinct
      if (!chain.empty() && !catalog.compatible(chain.back(), f)) continue;
      chain.push_back(f);
      if (extend()) return true;
      chain.pop_back();
    }
    return false;
  };
  if (!extend()) throw PreconditionError("catalog admits no compatible chain of that length");
  return chain;
}

/// The overhead rates are a window over the run's message counters. Two
/// identical runs sharing one Observability — whose registry accumulates
/// across runs — must report bit-identical rates, equal to a run with
/// observability off (counting into a registry private to the run).
inline void expect_overhead_window_is_a_delta(const exp::Fabric& fabric,
                                              const exp::SystemConfig& sys_cfg,
                                              exp::ExperimentConfig cfg) {
  cfg.warmup_minutes = 1.0;
  cfg.obs = nullptr;
  const auto off = exp::run_experiment(fabric, sys_cfg, cfg);
  obs::Observability shared;
  cfg.obs = &shared;
  const auto first = exp::run_experiment(fabric, sys_cfg, cfg);
  const std::uint64_t probes_per_run =
      shared.metrics.counter_family_total(obs::metric::kProbeMessages);
  const auto second = exp::run_experiment(fabric, sys_cfg, cfg);
  for (const exp::ExperimentResult* r : {&first, &second}) {
    EXPECT_EQ(r->probe_rate_per_minute, off.probe_rate_per_minute);
    EXPECT_EQ(r->state_update_rate_per_minute, off.state_update_rate_per_minute);
    EXPECT_EQ(r->overhead_per_minute, off.overhead_per_minute);
  }
  EXPECT_EQ(shared.metrics.counter_family_total(obs::metric::kProbeMessages), 2 * probes_per_run);
  EXPECT_GT(off.probe_rate_per_minute, 0.0);
  EXPECT_GT(off.state_update_rate_per_minute, 0.0);
  // The window opens at warmup: it holds fewer probes than the whole run.
  const double window_min = cfg.duration_minutes - cfg.warmup_minutes;
  EXPECT_LT(off.probe_rate_per_minute * window_min, static_cast<double>(probes_per_run));
}

}  // namespace acp::testing
