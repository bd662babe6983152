// Per-hop candidate component selection (paper Sec. 3.5).
//
// Given a partial composition that has reached `current_node` with
// accumulated QoS, and the set of candidates for the next-hop function, a
// node must decide which M = ceil(α·k) candidates to probe:
//
//   1. filter out unqualified candidates — stream-rate incompatibility, QoS
//      accumulation already violating Q^req (Eq. 6), insufficient node
//      resources (Eq. 7) or virtual-link bandwidth (Eq. 8);
//   2. rank the qualified ones by the risk function D(c) (Eq. 9); break
//      near-ties (|ΔD| ≤ eps) by the congestion function W(c) (Eq. 10);
//   3. keep the best M.
//
// Rankings read whatever StateView the algorithm is entitled to — ACP uses
// the coarse global state, making this exactly the paper's "select good
// candidates under the guidance of the coarse-grain global state".
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "stream/function_graph.h"
#include "stream/state_view.h"
#include "stream/system.h"
#include "util/rng.h"
#include "workload/request.h"

namespace acp::core {

/// Context for one hop decision.
struct HopContext {
  const stream::StreamSystem* sys = nullptr;
  const workload::Request* req = nullptr;
  /// Accumulated QoS along the path prefix (components + virtual links).
  stream::QoSVector accumulated;
  /// Node hosting the current (upstream) component; the candidate's virtual
  /// link is measured from here. Unset for the first hop (no upstream edge).
  stream::NodeId current_node = 0;
  bool has_upstream = false;
  /// Function of the current component (for rate-compatibility checks);
  /// ignored when !has_upstream.
  stream::FunctionId current_function = stream::kNoFunction;
  /// Function-graph node being filled.
  stream::FnNodeIndex next_fn = 0;
  /// Bandwidth demand of the fn-graph edge current→next (0 if !has_upstream).
  double edge_bw_kbps = 0.0;
  double now = 0.0;
};

/// QoS accumulated through `candidate`: ctx.accumulated, plus the
/// candidate's QoS, plus (with an upstream component) the QoS of the
/// virtual link to it, summed from zero in walk order. Added in that order,
/// so the sum is bit-identical to ScoredCandidate::qos.
stream::QoSVector candidate_qos(const HopContext& ctx, stream::ComponentId candidate);

/// Eq. 9 — risk: max over QoS dims of (accumulated + candidate + link) /
/// requirement. Lower is better; > 1 means the bound is already blown.
double risk_function(const HopContext& ctx, stream::ComponentId candidate);

/// Eq. 10 — congestion: Σ_k r_k/(rr_k + r_k) + b/(rb + b) for the candidate
/// placement, on `view`'s (possibly coarse) availability. Lower is better.
double congestion_function(const HopContext& ctx, const stream::StateView& view,
                           stream::ComponentId candidate);

/// Per-reason tally of candidates dropped by filter_qualified — feeds the
/// acp.probe.candidates_rejected{reason=...} metrics (obs subsystem).
struct HopFilterStats {
  std::size_t policy = 0;             ///< security/license constraint
  std::size_t rate_incompatible = 0;  ///< stream-rate mismatch with upstream
  std::size_t qos_bound = 0;          ///< Eq. 6 violated on the view
  std::size_t node_resources = 0;     ///< Eq. 7 violated
  std::size_t link_bandwidth = 0;     ///< Eq. 8 violated

  std::size_t total() const {
    return policy + rate_incompatible + qos_bound + node_resources + link_bandwidth;
  }
};

/// A qualified candidate with its (D, W) scores.
struct ScoredCandidate {
  stream::ComponentId id;
  double risk;            ///< D(c), Eq. 9
  double congestion;      ///< W(c), Eq. 10
  stream::QoSVector qos;  ///< candidate_qos: the prefix's QoS extended through c
};

/// Filters `candidates` by the paper's per-hop qualification (rate
/// compatibility + Eqs. 6–8) against `view`. When `stats` is non-null,
/// every dropped candidate is attributed to the first check it failed
/// (checks run in the order listed in HopFilterStats).
std::vector<stream::ComponentId> filter_qualified(const HopContext& ctx,
                                                  const stream::StateView& view,
                                                  const std::vector<stream::ComponentId>& candidates,
                                                  HopFilterStats* stats = nullptr);

/// The fused per-hop pass behind filter_qualified: appends each qualified
/// candidate to `out` (any push_back container of ScoredCandidate, e.g.
/// util::ArenaVector) in input order, scored from the same single walk of
/// its virtual link — the walk's QoS total gives the candidate's qos and
/// D(c), its bottleneck gives W(c), bit-identical to candidate_qos /
/// risk_function / congestion_function.
template <typename ScoredVec>
void filter_qualified_into(const HopContext& ctx, const stream::StateView& view,
                           const std::vector<stream::ComponentId>& candidates, ScoredVec& out,
                           HopFilterStats* stats = nullptr);

/// Ranking rule for guided per-hop selection. The paper uses
/// kRiskThenCongestion; the others exist for the ranking ablation
/// (bench/ablation_selection).
enum class RankingPolicy {
  kRiskThenCongestion,  ///< D(c) first, W(c) within risk_eps (paper Sec. 3.5)
  kRiskOnly,            ///< D(c) only
  kCongestionOnly,      ///< W(c) only
};

/// Keeps the best `m` of `qualified` by (D, then W within `risk_eps`),
/// scoring each with risk_function / congestion_function.
/// Deterministic: ties beyond W break by component id.
std::vector<stream::ComponentId> select_best(const HopContext& ctx, const stream::StateView& view,
                                             std::vector<stream::ComponentId> qualified,
                                             std::size_t m, double risk_eps,
                                             RankingPolicy policy = RankingPolicy::kRiskThenCongestion);

/// In-place ranking of already-scored candidates (any random-access
/// container): truncates `scored` to the best m — same ranking, same ties,
/// same result order as select_best. Leaves `scored` untouched when it
/// already fits.
template <typename ScoredVec>
void select_best_into(ScoredVec& scored, std::size_t m, double risk_eps, RankingPolicy policy);

/// Uniformly random `m` of `qualified` (the RP baseline's per-hop rule).
std::vector<stream::ComponentId> select_random(std::vector<stream::ComponentId> qualified,
                                               std::size_t m, util::Rng& rng);

/// In-place variant of select_random: identical RNG draw sequence (the
/// Fisher–Yates draws depend only on size()), so swapping container types
/// preserves run determinism.
template <typename Vec>
void select_random_into(Vec& qualified, std::size_t m, util::Rng& rng) {
  if (qualified.size() <= m) return;
  rng.shuffle(qualified);
  qualified.resize(m);
}

/// Number of candidates to probe for a function with `k` candidates at
/// probing ratio `alpha`: M = ceil(α·k), at least 1 when k > 0.
std::size_t probe_count(std::size_t k, double alpha);

// ---- Template implementations (shared by the std::vector wrappers in
// candidate_selection.cpp and the arena-backed hot path in probing.cpp).

template <typename ScoredVec>
void filter_qualified_into(const HopContext& ctx, const stream::StateView& view,
                           const std::vector<stream::ComponentId>& candidates, ScoredVec& out,
                           HopFilterStats* stats) {
  HopFilterStats local;
  const stream::ResourceVector& required = ctx.req->graph.node(ctx.next_fn).required;
  const net::OverlayMesh& mesh = ctx.sys->mesh();
  for (stream::ComponentId c : candidates) {
    const stream::Component& cand = ctx.sys->component(c);

    // Security/license policy (extension: paper Sec. 6 constraints).
    if (!ctx.req->policy.admits(ctx.sys->component_attributes(c))) {
      ++local.policy;
      continue;
    }

    // Input/output stream-rate compatibility with the upstream component.
    if (ctx.has_upstream && !ctx.sys->catalog().compatible(ctx.current_function, cand.function)) {
      ++local.rate_incompatible;
      continue;
    }

    // One walk of the virtual link to the candidate yields both its QoS
    // (summed in path order, as StreamSystem::virtual_link_qos does) and, when
    // the edge carries bandwidth, its bottleneck availability (as
    // StateView::virtual_link_available_kbps does). Co-location walks
    // nothing: zero QoS, no bandwidth check.
    stream::QoSVector walk_qos;
    double bottleneck = std::numeric_limits<double>::infinity();
    const bool checks_bandwidth =
        ctx.has_upstream && ctx.current_node != cand.node && ctx.edge_bw_kbps > 0.0;
    if (ctx.has_upstream && ctx.current_node != cand.node) {
      mesh.for_each_virtual_link(ctx.current_node, cand.node, [&](net::OverlayLinkIndex l) {
        walk_qos += ctx.sys->link_qos(l);
        if (checks_bandwidth) {
          bottleneck = std::min(bottleneck, view.link_available_kbps(l, ctx.now));
        }
      });
    }

    // Eq. 6: QoS accumulation must stay within the requirement.
    stream::QoSVector total = ctx.accumulated;
    total += cand.qos;
    if (ctx.has_upstream) total += walk_qos;
    if (!total.satisfies(ctx.req->qos_req)) {
      ++local.qos_bound;
      continue;
    }

    // Eq. 7: candidate node must have the end-system resources.
    const stream::ResourceVector avail = view.node_available(cand.node, ctx.now);
    if (!required.fits_within(avail)) {
      ++local.node_resources;
      continue;
    }

    // Eq. 8: the virtual link to the candidate must carry the edge's
    // bandwidth (co-location trivially passes).
    if (checks_bandwidth && ctx.edge_bw_kbps > bottleneck) {
      ++local.link_bandwidth;
      continue;
    }

    // D(c) (Eq. 9) and W(c) (Eq. 10) from the values just read.
    double congestion = stream::congestion_terms(required, avail - required);
    if (checks_bandwidth) {
      congestion += stream::congestion_term(ctx.edge_bw_kbps, bottleneck - ctx.edge_bw_kbps);
    }
    out.push_back(ScoredCandidate{c, total.max_ratio(ctx.req->qos_req), congestion, total});
  }
  if (stats != nullptr) *stats = local;
}

template <typename ScoredVec>
void select_best_into(ScoredVec& scored, std::size_t m, double risk_eps, RankingPolicy policy) {
  ACP_REQUIRE(risk_eps >= 0.0);
  if (scored.size() <= m) return;
  std::sort(scored.begin(), scored.end(), [&](const ScoredCandidate& a, const ScoredCandidate& b) {
    switch (policy) {
      case RankingPolicy::kRiskOnly:
        if (a.risk != b.risk) return a.risk < b.risk;
        break;
      case RankingPolicy::kCongestionOnly:
        if (a.congestion != b.congestion) return a.congestion < b.congestion;
        break;
      case RankingPolicy::kRiskThenCongestion:
        // Similar risk ⇒ compare load; otherwise smaller risk wins.
        if (std::abs(a.risk - b.risk) > risk_eps) return a.risk < b.risk;
        if (a.congestion != b.congestion) return a.congestion < b.congestion;
        break;
    }
    return a.id < b.id;
  });
  scored.resize(m);
}

}  // namespace acp::core
