// Teardown completeness: finalize and close visit only the pools a request
// or session names, and must still leave nothing behind.
//
//   * After finalize — success or failure, serial or sharded — no pool holds
//     a transient of the request (its claims name every pool it reserved).
//   * After close — including after repair_component moved placements — no
//     pool holds a commit of the session (its record names every pool).
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <vector>

#include "core/probing.h"
#include "core/probing_sharded.h"
#include "net/topology.h"
#include "sim/sharded_engine.h"
#include "state/global_state.h"
#include "test_helpers.h"

namespace acp::core {
namespace {

using stream::ComponentId;
using stream::NodeId;
using stream::QoSVector;
using stream::ResourceVector;

/// A small, contended world: three-function chains over an Inet-derived
/// overlay with little capacity, so compositions both succeed and fail.
struct World {
  World() {
    util::Rng rng(42);
    net::TopologyConfig tc;
    tc.node_count = 300;
    ip = net::generate_power_law_topology(tc, rng);
    net::OverlayConfig oc;
    oc.member_count = 20;
    util::Rng orng(43);
    mesh = std::make_unique<net::OverlayMesh>(ip, oc, orng);
    util::Rng crng(44);
    sys = std::make_unique<stream::StreamSystem>(*mesh,
                                                 stream::FunctionCatalog::generate(6, crng));
    for (NodeId n = 0; n < sys->node_count(); ++n) {
      sys->set_node_capacity(n, ResourceVector(60.0, 600.0));
    }
    chain = acp::testing::compatible_chain(sys->catalog(), 3);
    util::Rng drng(45);
    for (const stream::FunctionId f : chain) {
      for (int i = 0; i < 6; ++i) {
        sys->add_component(f, static_cast<NodeId>(drng.below(sys->node_count())),
                           QoSVector::from_metrics(drng.uniform(5.0, 15.0), 0.001));
      }
    }
    sessions = std::make_unique<stream::SessionTable>(*sys);
  }

  workload::Request make_request(stream::RequestId id, util::Rng& rng) const {
    workload::Request req;
    req.id = id;
    for (const stream::FunctionId f : chain) {
      req.graph.add_node(f, ResourceVector(rng.uniform(10.0, 25.0), rng.uniform(100.0, 250.0)));
    }
    req.graph.add_edge(0, 1, rng.uniform(50.0, 400.0));
    req.graph.add_edge(1, 2, rng.below(3) == 0 ? 0.0 : rng.uniform(50.0, 400.0));
    // One in five requests carries an unmeetable delay bound.
    req.qos_req = QoSVector::from_metrics(rng.below(5) == 0 ? 1.0 : 3000.0, 0.5);
    req.arrival_time = 0.0;
    req.duration_s = 1e6;
    req.client_ip = static_cast<net::NodeIndex>(rng.below(ip.node_count()));
    return req;
  }

  std::size_t transients_of(stream::RequestId req) const {
    std::size_t n = 0;
    for (NodeId v = 0; v < sys->node_count(); ++v) n += sys->node_pool(v).transient_count(req);
    for (net::OverlayLinkIndex l = 0; l < mesh->link_count(); ++l) {
      n += sys->link_pool(l).transient_count(req);
    }
    return n;
  }

  std::size_t commits_of(stream::SessionId s) const {
    std::size_t n = 0;
    for (NodeId v = 0; v < sys->node_count(); ++v) n += sys->node_pool(v).commit_count(s);
    for (net::OverlayLinkIndex l = 0; l < mesh->link_count(); ++l) {
      n += sys->link_pool(l).commit_count(s);
    }
    return n;
  }

  std::size_t all_commits() const {
    std::size_t n = 0;
    for (NodeId v = 0; v < sys->node_count(); ++v) n += sys->node_pool(v).committed_count();
    for (net::OverlayLinkIndex l = 0; l < mesh->link_count(); ++l) {
      n += sys->link_pool(l).committed_count();
    }
    return n;
  }

  net::Graph ip;
  std::unique_ptr<net::OverlayMesh> mesh;
  std::unique_ptr<stream::StreamSystem> sys;
  std::unique_ptr<stream::SessionTable> sessions;
  std::vector<stream::FunctionId> chain;
};

struct Tally {
  std::size_t confirmed = 0;
  std::size_t failed = 0;
  std::size_t leaked = 0;  ///< transients left behind by a finalized request
};

/// Launches `count` overlapping requests through `executor`, checking in
/// each `done` that no pool holds a transient of the finished request.
void launch(World& w, sim::Engine& global, ProbingExecutor& executor,
            std::deque<workload::Request>& requests, std::size_t count, Tally& tally) {
  util::Rng rng(9);
  for (std::size_t i = 0; i < count; ++i) {
    requests.push_back(w.make_request(static_cast<stream::RequestId>(i + 1), rng));
    const workload::Request* req = &requests.back();
    global.schedule_after(0.05 * static_cast<double>(i), [&w, &executor, &tally, req] {
      executor.execute(*req, 0.6, PerHopPolicy::kGuided, SelectionPolicy::kBestPhi,
                       [&w, &tally, req](const CompositionOutcome& out) {
                         ++(out.success() ? tally.confirmed : tally.failed);
                         tally.leaked += w.transients_of(req->id);
                       });
    });
  }
}

void check_finalize(bool sharded, double transient_ttl_s) {
  World w;
  ProbingConfig cfg;
  cfg.transient_ttl_s = transient_ttl_s;
  obs::MetricsRegistry metrics;
  std::deque<workload::Request> requests;
  Tally tally;
  constexpr std::size_t kRequests = 40;

  if (!sharded) {
    sim::Engine engine;
    discovery::Registry registry(*w.sys, metrics);
    state::GlobalStateManager global(*w.sys, engine, metrics);
    global.start();
    ProbingProtocol protocol(*w.sys, *w.sessions, engine, metrics, registry, global.view(),
                             util::Rng(7), cfg);
    launch(w, engine, protocol, requests, kRequests, tally);
    engine.run_until(120.0);
  } else {
    sim::ShardedEngine::Config scfg;
    scfg.shards = 2;
    scfg.window_s = std::max(0.5, w.mesh->min_link_delay_ms() / 1000.0);
    sim::ShardedEngine engine(scfg);
    state::GlobalStateManager global(*w.sys, engine.global(), metrics);
    global.start();
    std::vector<std::unique_ptr<obs::MetricsRegistry>> lane_metrics;
    std::vector<std::unique_ptr<discovery::Registry>> registries;
    std::vector<std::unique_ptr<stream::StateView>> views;
    std::vector<std::unique_ptr<ProbingProtocol>> protocols;
    std::vector<ProbingProtocol*> instances;
    for (std::size_t i = 0; i < scfg.shards; ++i) {
      lane_metrics.push_back(std::make_unique<obs::MetricsRegistry>());
      registries.push_back(std::make_unique<discovery::Registry>(*w.sys, *lane_metrics.back()));
      views.push_back(global.make_shard_view(nullptr));
      protocols.push_back(std::make_unique<ProbingProtocol>(
          *w.sys, *w.sessions, engine.global(), *lane_metrics.back(), *registries.back(),
          *views.back(), util::Rng(7), cfg));
      protocols.back()->set_shard_host(&engine);
      instances.push_back(protocols.back().get());
    }
    ShardedProbing router(engine.plan(), instances);
    launch(w, engine.global(), router, requests, kRequests, tally);
    engine.run_until(120.0);
  }

  EXPECT_EQ(tally.confirmed + tally.failed, kRequests);
  EXPECT_EQ(tally.leaked, 0u);
  EXPECT_GT(tally.failed, 0u);
  if (transient_ttl_s > 1.0) {
    EXPECT_GT(tally.confirmed, 0u);
  } else {
    // Every transient expires before the deputy confirms it: each commit
    // fails and rolls back its partial confirms.
    EXPECT_EQ(tally.confirmed, 0u);
    EXPECT_EQ(w.all_commits(), 0u);
  }

  // Closing every session leaves no commit anywhere.
  std::vector<stream::SessionId> ids;
  for (const auto& [id, rec] : w.sessions->records()) ids.push_back(id);
  for (const stream::SessionId id : ids) EXPECT_TRUE(w.sessions->close(id));
  EXPECT_EQ(w.all_commits(), 0u);
}

TEST(Teardown, SerialFinalizeLeavesNoTransients) { check_finalize(false, 60.0); }

TEST(Teardown, SerialFailedCommitLeavesNoTransientsOrCommits) { check_finalize(false, 0.005); }

TEST(Teardown, ShardedFinalizeLeavesNoTransients) { check_finalize(true, 60.0); }

TEST(Teardown, ShardedFailedCommitLeavesNoTransientsOrCommits) { check_finalize(true, 0.005); }

/// A fresh component of `f` on an idle node other than `avoid`.
ComponentId spare_component(stream::StreamSystem& sys, stream::FunctionId f, NodeId avoid) {
  NodeId node = static_cast<NodeId>(sys.node_count() - 1);
  while (node == avoid || sys.node_pool(node).committed_count() > 0) --node;
  return sys.add_component(f, node, QoSVector::from_metrics(5.0, 0.0));
}

TEST(Teardown, CloseReleasesEveryCommitAfterRepair) {
  World w;
  stream::StreamSystem& sys = *w.sys;
  util::Rng rng(5);
  const workload::Request req = w.make_request(1, rng);
  const stream::FunctionGraph& fg = req.graph;

  // A bystander session whose commits must survive the close.
  stream::ComponentGraph other(fg);
  for (stream::FnNodeIndex i = 0; i < fg.node_count(); ++i) {
    other.assign(i, sys.components_providing(fg.node(i).function).front());
  }
  const stream::SessionId bystander = w.sessions->commit_direct(99, other, 0.0, 1e6);
  ASSERT_NE(bystander, stream::kNullSession);
  const std::size_t bystander_commits = w.all_commits();

  // The probed session: transients for one composition, then commit.
  stream::ComponentGraph g(fg);
  for (stream::FnNodeIndex i = 0; i < fg.node_count(); ++i) {
    g.assign(i, sys.components_providing(fg.node(i).function).back());
  }
  std::vector<NodeId> held_nodes;
  std::vector<net::OverlayLinkIndex> held_links;
  for (stream::FnNodeIndex i = 0; i < fg.node_count(); ++i) {
    const NodeId node = sys.component(g.component_at(i)).node;
    ASSERT_TRUE(sys.reserve_node_transient(req.id, stream::node_tag(i), node,
                                           fg.node(i).required, 0.0, 60.0));
    held_nodes.push_back(node);
  }
  for (stream::FnEdgeIndex e = 0; e < fg.edge_count(); ++e) {
    const stream::FnEdge& edge = fg.edge(e);
    const NodeId a = sys.component(g.component_at(edge.from)).node;
    const NodeId b = sys.component(g.component_at(edge.to)).node;
    ASSERT_TRUE(sys.reserve_virtual_link_transient(req.id, stream::link_tag(fg, e), a, b,
                                                   edge.required_bandwidth_kbps, 0.0, 60.0));
    if (a != b) {
      for (const auto l : w.mesh->virtual_link_path(a, b)) held_links.push_back(l);
    }
  }
  const stream::SessionId sid = w.sessions->commit_probed(
      req.id, g, stream::HeldPools{held_nodes, held_links}, 1.0, 1e6);
  ASSERT_NE(sid, stream::kNullSession);
  EXPECT_EQ(w.transients_of(req.id), 0u);
  EXPECT_GT(w.commits_of(sid), 0u);

  // Move the middle placement, then move it again, then move the source.
  for (const stream::FnNodeIndex fn : {1u, 1u, 0u}) {
    const NodeId at = w.sessions->find(sid)->placements[fn].node;
    const ComponentId repl = spare_component(sys, fg.node(fn).function, at);
    ASSERT_TRUE(w.sessions->repair_component(sid, fn, repl, 2.0));
    ASSERT_NE(w.sessions->find(sid)->placements[fn].node, at);
  }

  ASSERT_TRUE(w.sessions->close(sid));
  EXPECT_EQ(w.commits_of(sid), 0u);
  EXPECT_EQ(w.all_commits(), bystander_commits);
  ASSERT_TRUE(w.sessions->close(bystander));
  EXPECT_EQ(w.all_commits(), 0u);
}

}  // namespace
}  // namespace acp::core
