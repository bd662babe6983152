// Differential tests for the deputy's and the hop's fused passes.
//
// ComponentGraph::qualify folds Eqs. 2–5 and φ (Eq. 1) into one pass over
// a flat footprint; filter_qualified_into scores D(c) (Eq. 9) and W(c)
// (Eq. 10) from the same single walk of each candidate's virtual link. Both
// must agree bit for bit (EXPECT_EQ on doubles) with references written
// here literally from the equations, on random compositions over the torus
// and over the paper's Inet-derived mesh — including edges that share
// overlay links, co-located components, zero-bandwidth edges and
// capacity-degraded pools with negative availability. The scratch's
// request-scoped link table must also forget, on begin(), every
// availability it read: a pool drained or a view switched between two
// begin() calls changes the verdict and φ exactly as the equations say.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/candidate_selection.h"
#include "net/topology.h"
#include "stream/component_graph.h"
#include "util/error.h"
#include "workload/templates.h"

namespace acp::stream {
namespace {

constexpr RequestId kRequest = 77;  ///< the request whose scoped view is evaluated
constexpr NodeId kHub = 0;          ///< hosts one component of every function
constexpr NodeId kDegradedNode = 1;
/// A link that joins neither the hub nor kDegradedNode.
constexpr net::OverlayLinkIndex kDegradedLink = 20;

struct World {
  net::Graph ip;
  std::unique_ptr<net::OverlayMesh> mesh;
  std::unique_ptr<StreamSystem> sys;
  workload::TemplateLibrary templates;
};

/// A loaded world: random capacities, components of every function on
/// random nodes plus the hub, background commits, transients of kRequest
/// and of another request, and one node and one link pool over-committed
/// then degraded so their availability is negative.
World make_world(bool torus, std::uint64_t seed) {
  World w;
  util::Rng rng(seed);
  if (torus) {
    w.mesh = std::make_unique<net::OverlayMesh>(net::OverlayMesh::torus(5, 7, 2.0, 2000.0));
  } else {
    net::TopologyConfig tc;
    tc.node_count = 200;
    w.ip = net::generate_power_law_topology(tc, rng);
    net::OverlayConfig oc;
    oc.member_count = 16;
    w.mesh = std::make_unique<net::OverlayMesh>(w.ip, oc, rng);
  }
  w.sys = std::make_unique<StreamSystem>(*w.mesh, FunctionCatalog::generate(8, rng));
  StreamSystem& sys = *w.sys;
  const auto nodes = static_cast<std::uint64_t>(sys.node_count());
  const auto links = static_cast<std::uint64_t>(w.mesh->link_count());
  for (NodeId n = 0; n < sys.node_count(); ++n) {
    sys.set_node_capacity(n, ResourceVector(rng.uniform(40.0, 120.0), rng.uniform(400.0, 1200.0)));
  }
  for (FunctionId f = 0; f < sys.catalog().size(); ++f) {
    for (int i = 0; i < 4; ++i) {
      sys.add_component(f, static_cast<NodeId>(rng.below(nodes)),
                        QoSVector::from_metrics(rng.uniform(1.0, 20.0), rng.uniform(0.0, 0.01)));
    }
    sys.add_component(f, kHub, QoSVector::from_metrics(rng.uniform(1.0, 20.0), 0.001));
  }
  workload::TemplateConfig tc;
  w.templates = workload::TemplateLibrary::generate(sys.catalog(), tc, rng);

  for (SessionId s = 1000; s < 1020; ++s) {
    sys.commit_node_direct(s, static_cast<NodeId>(rng.below(nodes)),
                           ResourceVector(rng.uniform(0.0, 30.0), rng.uniform(0.0, 300.0)), 0.0);
    const auto l = static_cast<net::OverlayLinkIndex>(rng.below(links));
    sys.link_pool(l).commit_direct(s, sys.link_pool(l).capacity() * rng.uniform(0.1, 0.7), 0.0);
  }
  for (std::uint32_t tag = 0; tag < 6; ++tag) {
    const auto n = static_cast<NodeId>(rng.below(nodes));
    sys.reserve_node_transient(kRequest, tag, n, ResourceVector(5.0, 50.0), 0.0, 60.0);
    sys.reserve_node_transient(kRequest + 1, tag, n, ResourceVector(5.0, 50.0), 0.0, 60.0);
  }

  NodePool& node = sys.node_pool(kDegradedNode);
  sys.commit_node_direct(2000, kDegradedNode, pool_scale(node.capacity(), 0.8), 0.0);
  node.set_capacity_factor(0.5);
  BandwidthPool& link = sys.link_pool(kDegradedLink);
  link.commit_direct(2000, link.capacity() * 0.8, 0.0);
  link.set_capacity_factor(0.5);
  return w;
}

FunctionGraph make_graph(const workload::TemplateShape& shape, util::Rng& rng) {
  FunctionGraph fg;
  for (const FunctionId f : shape.functions) {
    fg.add_node(f, ResourceVector(rng.uniform(1.0, 30.0), rng.uniform(10.0, 300.0)));
  }
  for (const auto& [a, b] : shape.edges) {
    fg.add_edge(a, b, rng.below(4) == 0 ? 0.0 : rng.uniform(10.0, 600.0));
  }
  return fg;
}

/// Random assignment; one in four places every function on the hub.
ComponentGraph random_assignment(const StreamSystem& sys, const FunctionGraph& fg,
                                 util::Rng& rng) {
  const bool all_on_hub = rng.below(4) == 0;
  ComponentGraph g(fg);
  for (FnNodeIndex i = 0; i < fg.node_count(); ++i) {
    const auto& cands = sys.components_providing(fg.node(i).function);
    ComponentId c = cands[rng.below(cands.size())];
    if (all_on_hub) {
      for (const ComponentId h : cands) {
        if (sys.component(h).node == kHub) c = h;
      }
    }
    g.assign(i, c);
  }
  return g;
}

std::vector<net::OverlayLinkIndex> walk(const net::OverlayMesh& mesh, NodeId a, NodeId b) {
  if (a == b) return {};
  return mesh.virtual_link_path(a, b);
}

/// The QoS of the virtual link a→b: its overlay links' delay and additive
/// loss, summed from zero in walk order (zero when co-located).
QoSVector walk_qos(const net::OverlayMesh& mesh, NodeId a, NodeId b) {
  QoSVector q;
  for (const auto l : walk(mesh, a, b)) {
    q += QoSVector::from_additive(mesh.link(l).delay_ms, mesh.link(l).additive_loss);
  }
  return q;
}

/// One congestion term r / (rr + r) on residual rr: 0 without demand, and
/// saturated at 1 once the residual is gone.
double term(double r, double rr) {
  if (r <= 0.0) return 0.0;
  if (rr <= 0.0) return 1.0;
  return r / (rr + r);
}

struct Reference {
  bool qualified = false;
  bool feasible = false;  ///< Eqs. 4 + 5
  double phi = 0.0;       ///< Eq. 1, whether or not feasible
  bool co_located = false;
  bool zero_bandwidth = false;
  bool shared_link = false;
  bool degraded = false;
};

Reference reference(const StreamSystem& sys, const StateView& view, const ComponentGraph& cg,
                    const QoSVector& qos_req, double now) {
  const FunctionGraph& fg = cg.function_graph();
  const net::OverlayMesh& mesh = sys.mesh();
  const auto node_of = [&](FnNodeIndex i) { return sys.component(cg.component_at(i)).node; };
  Reference ref;

  // Eq. 2 and interface compatibility.
  bool structural = true;
  for (FnNodeIndex i = 0; i < fg.node_count(); ++i) {
    structural = structural && sys.component(cg.component_at(i)).function == fg.node(i).function;
  }
  for (FnEdgeIndex e = 0; e < fg.edge_count(); ++e) {
    const FnEdge& edge = fg.edge(e);
    structural = structural && sys.catalog().compatible(fg.node(edge.from).function,
                                                        fg.node(edge.to).function);
  }

  // Eq. 3: along every source→sink path, the components' QoS plus each
  // virtual link's QoS (its overlay links' QoS summed) stays within bound.
  bool qos = true;
  for (const auto& path : fg.enumerate_paths()) {
    QoSVector q;
    for (std::size_t i = 0; i < path.size(); ++i) {
      q += sys.component(cg.component_at(path[i])).qos;
      if (i + 1 < path.size()) q += walk_qos(mesh, node_of(path[i]), node_of(path[i + 1]));
    }
    qos = qos && q.satisfies(qos_req);
  }

  // Eq. 4: per node, the demand of every component placed there.
  std::map<NodeId, ResourceVector> load;
  for (FnNodeIndex i = 0; i < fg.node_count(); ++i) load[node_of(i)] += fg.node(i).required;
  // Eq. 5: per overlay link, the bandwidth of every edge crossing it — a
  // zero-bandwidth edge crosses its links too.
  std::map<net::OverlayLinkIndex, double> traffic;
  std::map<net::OverlayLinkIndex, int> crossings;
  for (FnEdgeIndex e = 0; e < fg.edge_count(); ++e) {
    const FnEdge& edge = fg.edge(e);
    const NodeId a = node_of(edge.from);
    const NodeId b = node_of(edge.to);
    ref.co_located = ref.co_located || a == b;
    ref.zero_bandwidth = ref.zero_bandwidth || (a != b && edge.required_bandwidth_kbps == 0.0);
    for (const auto l : walk(mesh, a, b)) {
      traffic[l] += edge.required_bandwidth_kbps;
      ref.shared_link = ref.shared_link || ++crossings[l] > 1;
    }
  }
  ref.feasible = true;
  for (const auto& [node, demand] : load) {
    const ResourceVector avail = view.node_available(node, now);
    ref.feasible = ref.feasible && demand.cpu() <= avail.cpu() &&
                   demand.memory_mb() <= avail.memory_mb();
    ref.degraded = ref.degraded || node == kDegradedNode;
  }
  for (const auto& [l, kbps] : traffic) {
    ref.feasible = ref.feasible && kbps <= view.link_available_kbps(l, now);
    ref.degraded = ref.degraded || l == kDegradedLink;
  }

  // Eq. 1: Σ over components of Σ_k r_k / (rr_k + r_k), then Σ over
  // network edges of b / (rb + b), residuals net of the whole composition;
  // rb is the bottleneck along the edge's virtual link.
  double phi = 0.0;
  for (FnNodeIndex i = 0; i < fg.node_count(); ++i) {
    const NodeId node = node_of(i);
    const ResourceVector residual = view.node_available(node, now) - load[node];
    const ResourceVector& r = fg.node(i).required;
    double t = 0.0;
    for (std::size_t k = 0; k < kResourceDims; ++k) t += term(r.dim(k), residual.dim(k));
    phi += t;
  }
  for (FnEdgeIndex e = 0; e < fg.edge_count(); ++e) {
    const FnEdge& edge = fg.edge(e);
    const NodeId a = node_of(edge.from);
    const NodeId b = node_of(edge.to);
    if (a == b) continue;
    double rb = std::numeric_limits<double>::infinity();
    for (const auto l : walk(mesh, a, b)) {
      rb = std::min(rb, view.link_available_kbps(l, now) - traffic[l]);
    }
    phi += term(edge.required_bandwidth_kbps, rb);
  }
  ref.phi = phi;
  ref.qualified = structural && qos && ref.feasible;
  return ref;
}

void check_fused_qualify(bool torus, std::uint64_t seed) {
  World w = make_world(torus, seed);
  const StreamSystem& sys = *w.sys;
  const StreamSystem::RequestScopedView view(sys, kRequest);
  const double now = 1.0;
  util::Rng rng(seed + 1);
  CompositionScratch scratch;
  std::size_t qualified = 0;
  std::size_t infeasible = 0;
  std::size_t co_located = 0;
  std::size_t zero_bw = 0;
  std::size_t shared = 0;
  std::size_t degraded_rejects = 0;
  for (int round = 0; round < 40; ++round) {
    const FunctionGraph fg = make_graph(w.templates.shape(rng.below(w.templates.size())), rng);
    const QoSVector qos_req = QoSVector::from_metrics(rng.uniform(30.0, 400.0), 0.1);
    scratch.begin(fg, view, now);  // one request: the link table spans its compositions
    for (int trial = 0; trial < 12; ++trial) {
      const ComponentGraph cg = random_assignment(sys, fg, rng);
      const Reference ref = reference(sys, view, cg, qos_req, now);
      const std::optional<double> fused =
          cg.qualify(sys, view, qos_req, PolicyConstraint{}, now, scratch);
      ASSERT_EQ(fused.has_value(), ref.qualified) << cg.to_string(sys);
      if (fused) {
        EXPECT_EQ(*fused, ref.phi) << cg.to_string(sys);
      }
      // The same verdicts from a table begun for this composition alone.
      CompositionScratch alone;
      alone.begin(fg, view, now);
      EXPECT_EQ(cg.qualify(sys, view, qos_req, PolicyConstraint{}, now, alone).has_value(),
                ref.qualified);
      const Footprint& fp = cg.footprint(sys, alone);
      EXPECT_EQ(fp.feasible(), ref.feasible) << cg.to_string(sys);
      EXPECT_EQ(fp.phi(), ref.phi) << cg.to_string(sys);
      qualified += ref.qualified ? 1 : 0;
      infeasible += ref.feasible ? 0 : 1;
      co_located += ref.co_located ? 1 : 0;
      zero_bw += ref.zero_bandwidth ? 1 : 0;
      shared += ref.shared_link ? 1 : 0;
      degraded_rejects += ref.degraded && !ref.feasible ? 1 : 0;
    }
  }
  // The sample must cover both verdicts and every special case.
  EXPECT_GT(qualified, 10u);
  EXPECT_GT(infeasible, 10u);
  EXPECT_GT(co_located, 0u);
  EXPECT_GT(zero_bw, 0u);
  EXPECT_GT(shared, 0u);
  EXPECT_GT(degraded_rejects, 0u);
}

TEST(FusedQualify, MatchesEquationsOnTorus) { check_fused_qualify(/*torus=*/true, 11); }

TEST(FusedQualify, MatchesEquationsOnPaperMesh) { check_fused_qualify(/*torus=*/false, 12); }

TEST(FusedQualify, ZeroBandwidthEdgeStillFailsOnDegradedLink) {
  World w = make_world(/*torus=*/true, 13);
  StreamSystem& sys = *w.sys;
  const net::OverlayLink& degraded = w.mesh->link(kDegradedLink);
  ASSERT_LT(sys.link_pool(kDegradedLink).available(0.0), 0.0);
  for (const NodeId end : {degraded.a, degraded.b}) {
    ASSERT_TRUE(ResourceVector(1.0, 1.0).fits_within(sys.node_pool(end).available(0.0)));
  }
  // Two compatible functions on the degraded link's endpoints, joined by an
  // edge that demands no bandwidth.
  const auto& cat = sys.catalog();
  for (FunctionId f = 0; f < cat.size(); ++f) {
    for (FunctionId g = 0; g < cat.size(); ++g) {
      if (f == g || !cat.compatible(f, g)) continue;
      const ComponentId cf = sys.add_component(f, degraded.a, QoSVector::from_metrics(1.0, 0.0));
      const ComponentId cg = sys.add_component(g, degraded.b, QoSVector::from_metrics(1.0, 0.0));
      FunctionGraph fg;
      fg.add_node(f, ResourceVector(1.0, 1.0));
      fg.add_node(g, ResourceVector(1.0, 1.0));
      fg.add_edge(0, 1, 0.0);
      ComponentGraph graph(fg);
      graph.assign(0, cf);
      graph.assign(1, cg);
      const QoSVector loose = QoSVector::from_metrics(1e6, 0.5);
      CompositionScratch scratch;
      scratch.begin(fg, sys.true_state(), 0.0);
      EXPECT_FALSE(graph.qualify(sys, sys.true_state(), loose, PolicyConstraint{}, 0.0, scratch));
      EXPECT_FALSE(graph.footprint(sys, scratch).feasible());
      return;
    }
  }
  GTEST_SKIP() << "catalog has no compatible function pair";
}

// ---- Scratch lifetime ---------------------------------------------------------

/// A composition that qualifies under `view`, with an edge of positive
/// bandwidth between distinct nodes a → b whose walk the tests load.
struct Networked {
  std::unique_ptr<FunctionGraph> fg;
  std::optional<ComponentGraph> cg;
  NodeId a = 0;
  NodeId b = 0;
};

const QoSVector kLoose = QoSVector::from_metrics(1e6, 0.5);

Networked find_networked(const StreamSystem& sys, const workload::TemplateLibrary& templates,
                         const StateView& view, double now, util::Rng& rng) {
  for (int attempt = 0; attempt < 500; ++attempt) {
    Networked n;
    n.fg = std::make_unique<FunctionGraph>(
        make_graph(templates.shape(rng.below(templates.size())), rng));
    n.cg.emplace(random_assignment(sys, *n.fg, rng));
    if (!reference(sys, view, *n.cg, kLoose, now).qualified) continue;
    for (FnEdgeIndex e = 0; e < n.fg->edge_count(); ++e) {
      const FnEdge& edge = n.fg->edge(e);
      n.a = sys.component(n.cg->component_at(edge.from)).node;
      n.b = sys.component(n.cg->component_at(edge.to)).node;
      if (n.a != n.b && edge.required_bandwidth_kbps > 0.0) return n;
    }
  }
  ADD_FAILURE() << "no qualifying composition with a network edge";
  return {};
}

/// begin() → qualify, then the footprint's φ from the same scratch: the
/// verdict and φ must both match the literal reference.
void expect_matches_reference(const StreamSystem& sys, const StateView& view,
                              const ComponentGraph& cg, double now, CompositionScratch& scratch) {
  const Reference ref = reference(sys, view, cg, kLoose, now);
  scratch.begin(cg.function_graph(), view, now);
  const std::optional<double> fused =
      cg.qualify(sys, view, kLoose, PolicyConstraint{}, now, scratch);
  ASSERT_EQ(fused.has_value(), ref.qualified) << cg.to_string(sys);
  if (fused) {
    EXPECT_EQ(*fused, ref.phi);
  }
  EXPECT_EQ(cg.footprint(sys, scratch).phi(), ref.phi);
}

TEST(ScratchLifetime, BeginForgetsTheAvailabilityOfADrainedLink) {
  World w = make_world(/*torus=*/true, 14);
  StreamSystem& sys = *w.sys;
  const StreamSystem::RequestScopedView view(sys, kRequest);
  const double now = 1.0;
  util::Rng rng(15);
  const Networked n = find_networked(sys, w.templates, view, now, rng);
  ASSERT_TRUE(n.cg.has_value());
  CompositionScratch scratch;
  expect_matches_reference(sys, view, *n.cg, now, scratch);

  // Drain a link on the edge's walk; same scratch, graph, view and instant.
  BandwidthPool& pool = sys.link_pool(w.mesh->virtual_link_path(n.a, n.b).front());
  ASSERT_TRUE(pool.commit_direct(3000, pool.available(now), now));
  ASSERT_FALSE(reference(sys, view, *n.cg, kLoose, now).qualified);
  expect_matches_reference(sys, view, *n.cg, now, scratch);
}

TEST(ScratchLifetime, BeginForgetsAvailabilityReadThroughAnotherRequestsView) {
  World w = make_world(/*torus=*/false, 16);
  StreamSystem& sys = *w.sys;
  const StreamSystem::RequestScopedView mine(sys, kRequest);
  const StreamSystem::RequestScopedView other(sys, kRequest + 1);
  const double now = 1.0;
  util::Rng rng(17);
  const Networked n = find_networked(sys, w.templates, mine, now, rng);
  ASSERT_TRUE(n.cg.has_value());

  // A transient of kRequest on the walk: invisible to its own view, it
  // takes the whole link in the other request's.
  const net::OverlayLinkIndex l = w.mesh->virtual_link_path(n.a, n.b).front();
  sys.link_pool(l).force_reserve_transient(kRequest, 99, mine.link_available_kbps(l, now), 0.0,
                                           60.0);
  ASSERT_NE(reference(sys, mine, *n.cg, kLoose, now).phi,
            reference(sys, other, *n.cg, kLoose, now).phi);

  CompositionScratch scratch;
  expect_matches_reference(sys, mine, *n.cg, now, scratch);
  expect_matches_reference(sys, other, *n.cg, now, scratch);
  expect_matches_reference(sys, mine, *n.cg, now, scratch);
}

TEST(ScratchLifetime, QualifyRequiresTheViewAndInstantOfBegin) {
  World w = make_world(/*torus=*/true, 18);
  const StreamSystem& sys = *w.sys;
  const StreamSystem::RequestScopedView view(sys, kRequest);
  const StreamSystem::RequestScopedView same_request(sys, kRequest);
  util::Rng rng(19);
  const Networked n = find_networked(sys, w.templates, view, 1.0, rng);
  ASSERT_TRUE(n.cg.has_value());
  CompositionScratch scratch;
  scratch.begin(*n.fg, view, 1.0);
  EXPECT_THROW(n.cg->qualify(sys, view, kLoose, PolicyConstraint{}, 2.0, scratch),
               PreconditionError);
  EXPECT_THROW(n.cg->qualify(sys, same_request, kLoose, PolicyConstraint{}, 1.0, scratch),
               PreconditionError);
  EXPECT_THROW(n.cg->qualify(sys, sys.true_state(), kLoose, PolicyConstraint{}, 1.0, scratch),
               PreconditionError);
  EXPECT_TRUE(n.cg->qualify(sys, view, kLoose, PolicyConstraint{}, 1.0, scratch).has_value());
}

// ---- Hop ranking --------------------------------------------------------------

/// Literal left-hand side of Eq. 6: the prefix's QoS, plus the candidate's,
/// plus (with an upstream component) the QoS of the virtual link to it.
QoSVector reference_qos(const core::HopContext& ctx, ComponentId c) {
  const Component& cand = ctx.sys->component(c);
  QoSVector total = ctx.accumulated;
  total += cand.qos;
  if (ctx.has_upstream) total += walk_qos(ctx.sys->mesh(), ctx.current_node, cand.node);
  return total;
}

void expect_same_qos(const QoSVector& got, const QoSVector& want) {
  EXPECT_EQ(got.delay_ms(), want.delay_ms());
  EXPECT_EQ(got.additive_loss(), want.additive_loss());
}

/// Literal Eqs. 6–8 filter over the unfused helpers.
std::vector<ComponentId> reference_filter(const core::HopContext& ctx, const StateView& view,
                                          const std::vector<ComponentId>& candidates) {
  std::vector<ComponentId> out;
  const StreamSystem& sys = *ctx.sys;
  const ResourceVector& r = ctx.req->graph.node(ctx.next_fn).required;
  for (const ComponentId c : candidates) {
    const Component& cand = sys.component(c);
    if (!ctx.req->policy.admits(sys.component_attributes(c))) continue;
    if (ctx.has_upstream && !sys.catalog().compatible(ctx.current_function, cand.function)) {
      continue;
    }
    if (!reference_qos(ctx, c).satisfies(ctx.req->qos_req)) continue;
    if (!r.fits_within(view.node_available(cand.node, ctx.now))) continue;
    if (ctx.has_upstream && ctx.current_node != cand.node && ctx.edge_bw_kbps > 0.0 &&
        ctx.edge_bw_kbps >
            view.virtual_link_available_kbps(sys.mesh(), ctx.current_node, cand.node, ctx.now)) {
      continue;
    }
    out.push_back(c);
  }
  return out;
}

void check_fused_ranking(bool torus, std::uint64_t seed) {
  World w = make_world(torus, seed);
  const StreamSystem& sys = *w.sys;
  const StateView& view = sys.true_state();
  util::Rng rng(seed + 1);
  std::size_t ranked = 0, co_located = 0;
  for (int round = 0; round < 200; ++round) {
    workload::Request req;
    req.graph = make_graph(w.templates.shape(rng.below(w.templates.size())), rng);
    req.qos_req = QoSVector::from_metrics(rng.uniform(20.0, 200.0), 0.1);
    const auto e = static_cast<FnEdgeIndex>(rng.below(req.graph.edge_count()));
    const FnEdge& edge = req.graph.edge(e);
    core::HopContext ctx;
    ctx.sys = &sys;
    ctx.req = &req;
    ctx.now = 1.0;
    ctx.next_fn = edge.to;
    ctx.has_upstream = rng.below(5) != 0;
    if (ctx.has_upstream) {
      const auto node = static_cast<NodeId>(rng.below(sys.node_count()));
      ctx.current_node = rng.below(3) == 0 ? kHub : node;
      ctx.current_function = req.graph.node(edge.from).function;
      ctx.edge_bw_kbps = edge.required_bandwidth_kbps;
      ctx.accumulated = QoSVector::from_metrics(rng.uniform(0.0, 60.0), 0.01);
    }
    const auto& candidates = sys.components_providing(req.graph.node(ctx.next_fn).function);

    std::vector<core::ScoredCandidate> scored;
    core::filter_qualified_into(ctx, view, candidates, scored);
    std::vector<ComponentId> fused_ids;
    for (const auto& s : scored) {
      fused_ids.push_back(s.id);
      EXPECT_EQ(s.risk, core::risk_function(ctx, s.id));
      EXPECT_EQ(s.congestion, core::congestion_function(ctx, view, s.id));
      expect_same_qos(s.qos, reference_qos(ctx, s.id));
      expect_same_qos(core::candidate_qos(ctx, s.id), s.qos);
      co_located += ctx.has_upstream && sys.component(s.id).node == ctx.current_node ? 1 : 0;
    }
    ASSERT_EQ(fused_ids, reference_filter(ctx, view, candidates));

    const std::size_t m = 1 + rng.below(candidates.size());
    const double eps = rng.uniform(0.0, 0.2);
    for (const auto policy :
         {core::RankingPolicy::kRiskThenCongestion, core::RankingPolicy::kRiskOnly,
          core::RankingPolicy::kCongestionOnly}) {
      std::vector<core::ScoredCandidate> order = scored;
      core::select_best_into(order, m, eps, policy);
      std::vector<ComponentId> order_ids;
      for (const auto& s : order) {
        order_ids.push_back(s.id);
        expect_same_qos(s.qos, reference_qos(ctx, s.id));  // ranking moves it with its id
      }
      EXPECT_EQ(order_ids, core::select_best(ctx, view, fused_ids, m, eps, policy));
      ranked += fused_ids.size() > m ? 1 : 0;
    }
  }
  EXPECT_GT(ranked, 20u);
  EXPECT_GT(co_located, 0u);
}

TEST(FusedRanking, MatchesPerCandidateReferenceOnTorus) { check_fused_ranking(true, 21); }

TEST(FusedRanking, MatchesPerCandidateReferenceOnPaperMesh) { check_fused_ranking(false, 22); }

}  // namespace
}  // namespace acp::stream
