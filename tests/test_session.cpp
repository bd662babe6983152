// Tests for SessionTable: probed-commit (confirmation of transients),
// direct commit with rollback, and teardown.
#include <gtest/gtest.h>

#include <memory>

#include "net/topology.h"
#include "stream/session.h"

namespace acp::stream {
namespace {

struct SessionFixture : ::testing::Test {
  void SetUp() override {
    util::Rng rng(42);
    net::TopologyConfig tc;
    tc.node_count = 150;
    ip = net::generate_power_law_topology(tc, rng);
    net::OverlayConfig oc;
    oc.member_count = 6;
    util::Rng orng(43);
    mesh = std::make_unique<net::OverlayMesh>(ip, oc, orng);
    util::Rng crng(44);
    sys = std::make_unique<StreamSystem>(*mesh, FunctionCatalog::generate(4, crng));
    for (NodeId n = 0; n < sys->node_count(); ++n) {
      sys->set_node_capacity(n, ResourceVector(100.0, 1000.0));
    }
    c0 = sys->add_component(0, 0, QoSVector::from_metrics(10, 0.0));
    c1 = sys->add_component(1, 1, QoSVector::from_metrics(10, 0.0));

    fg.add_node(0, ResourceVector(10.0, 100.0));
    fg.add_node(1, ResourceVector(20.0, 200.0));
    fg.add_edge(0, 1, 100.0);

    sessions = std::make_unique<SessionTable>(*sys);
  }

  /// The pools a probe cascade for assigned() reserves on: its two nodes
  /// and the virtual link between them, plus `extra_nodes`.
  HeldPools held(std::vector<NodeId> extra_nodes = {}) {
    held_nodes = {0, 1};
    held_nodes.insert(held_nodes.end(), extra_nodes.begin(), extra_nodes.end());
    held_links = mesh->virtual_link_path(0, 1);
    return HeldPools{held_nodes, held_links};
  }

  ComponentGraph assigned() {
    ComponentGraph g(fg);
    g.assign(0, c0);
    g.assign(1, c1);
    return g;
  }

  net::Graph ip;
  std::unique_ptr<net::OverlayMesh> mesh;
  std::unique_ptr<StreamSystem> sys;
  std::unique_ptr<SessionTable> sessions;
  FunctionGraph fg;
  ComponentId c0{}, c1{};
  std::vector<NodeId> held_nodes;
  std::vector<net::OverlayLinkIndex> held_links;
};

TEST_F(SessionFixture, CommitProbedConfirmsTransients) {
  const RequestId req = 5;
  ASSERT_TRUE(sys->reserve_node_transient(req, node_tag(0), 0, fg.node(0).required, 0.0, 60.0));
  ASSERT_TRUE(sys->reserve_node_transient(req, node_tag(1), 1, fg.node(1).required, 0.0, 60.0));
  ASSERT_TRUE(sys->reserve_virtual_link_transient(req, link_tag(fg, 0), 0, 1, 100.0, 0.0, 60.0));

  const auto g = assigned();
  const SessionId sid = sessions->commit_probed(req, g, held(), 1.0, 600.0);
  ASSERT_NE(sid, kNullSession);
  EXPECT_EQ(sessions->active_count(), 1u);

  // Resources are now committed (no expiry) and transients are gone.
  EXPECT_DOUBLE_EQ(sys->node_pool(0).available(1e9).cpu(), 90.0);
  EXPECT_DOUBLE_EQ(sys->node_pool(1).available(1e9).cpu(), 80.0);
  EXPECT_EQ(sys->node_pool(0).live_transient_count(1.0), 0u);

  const auto* rec = sessions->find(sid);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->request, req);
  EXPECT_DOUBLE_EQ(rec->planned_end_time, 600.0);
  EXPECT_EQ(rec->components.size(), 2u);

  EXPECT_TRUE(sessions->close(sid));
  EXPECT_DOUBLE_EQ(sys->node_pool(0).available(1e9).cpu(), 100.0);
  EXPECT_DOUBLE_EQ(sys->node_pool(1).available(1e9).cpu(), 100.0);
  EXPECT_EQ(sessions->active_count(), 0u);
}

TEST_F(SessionFixture, CommitProbedFailsWhenTransientExpired) {
  const RequestId req = 5;
  ASSERT_TRUE(sys->reserve_node_transient(req, node_tag(0), 0, fg.node(0).required, 0.0, 2.0));
  ASSERT_TRUE(sys->reserve_node_transient(req, node_tag(1), 1, fg.node(1).required, 0.0, 60.0));
  ASSERT_TRUE(sys->reserve_virtual_link_transient(req, link_tag(fg, 0), 0, 1, 100.0, 0.0, 60.0));

  // Node 0's reservation expires before the commit at t=5.
  const SessionId sid = sessions->commit_probed(req, assigned(), held(), 5.0, 600.0);
  EXPECT_EQ(sid, kNullSession);
  // Everything rolled back: full capacity, no transients anywhere.
  EXPECT_DOUBLE_EQ(sys->node_pool(0).available(1e9).cpu(), 100.0);
  EXPECT_DOUBLE_EQ(sys->node_pool(1).available(1e9).cpu(), 100.0);
  EXPECT_EQ(sys->node_pool(1).live_transient_count(5.0), 0u);
  EXPECT_EQ(sessions->active_count(), 0u);
}

TEST_F(SessionFixture, CommitProbedDropsLosingReservations) {
  const RequestId req = 5;
  // Winner's reservations.
  ASSERT_TRUE(sys->reserve_node_transient(req, node_tag(0), 0, fg.node(0).required, 0.0, 60.0));
  ASSERT_TRUE(sys->reserve_node_transient(req, node_tag(1), 1, fg.node(1).required, 0.0, 60.0));
  ASSERT_TRUE(sys->reserve_virtual_link_transient(req, link_tag(fg, 0), 0, 1, 100.0, 0.0, 60.0));
  // A losing candidate's reservation on another node (same fn tag).
  ASSERT_TRUE(sys->reserve_node_transient(req, node_tag(1), 3, fg.node(1).required, 0.0, 60.0));

  const SessionId sid = sessions->commit_probed(req, assigned(), held({3}), 1.0, 600.0);
  ASSERT_NE(sid, kNullSession);
  EXPECT_EQ(sys->node_pool(3).live_transient_count(1.0), 0u);
  EXPECT_DOUBLE_EQ(sys->node_pool(3).available(1.0).cpu(), 100.0);
}

TEST_F(SessionFixture, CommitDirectAllOrNothing) {
  // Make node 1 too small for fn 1's demand.
  ASSERT_TRUE(sys->commit_node_direct(99, 1, ResourceVector(95.0, 0.0), 0.0));
  const SessionId sid = sessions->commit_direct(7, assigned(), 0.0, 600.0);
  EXPECT_EQ(sid, kNullSession);
  // Node 0 must not retain a partial allocation.
  EXPECT_DOUBLE_EQ(sys->node_pool(0).available(0.0).cpu(), 100.0);
}

TEST_F(SessionFixture, CommitDirectSucceedsAndCloses) {
  const SessionId sid = sessions->commit_direct(7, assigned(), 0.0, 600.0);
  ASSERT_NE(sid, kNullSession);
  EXPECT_DOUBLE_EQ(sys->node_pool(0).available(0.0).cpu(), 90.0);
  EXPECT_TRUE(sessions->close(sid));
  EXPECT_FALSE(sessions->close(sid));  // double close is safe
  EXPECT_DOUBLE_EQ(sys->node_pool(0).available(0.0).cpu(), 100.0);
}

TEST_F(SessionFixture, CoLocatedCommitAggregatesDemand) {
  // Put both functions on node 0.
  const auto c1_n0 = sys->add_component(1, 0, QoSVector::from_metrics(10, 0.0));
  ComponentGraph g(fg);
  g.assign(0, c0);
  g.assign(1, c1_n0);
  const SessionId sid = sessions->commit_direct(8, g, 0.0, 600.0);
  ASSERT_NE(sid, kNullSession);
  EXPECT_DOUBLE_EQ(sys->node_pool(0).available(0.0).cpu(), 70.0);  // 10 + 20
  sessions->close(sid);
}

TEST_F(SessionFixture, SessionIdsAreUniqueAndNonNull) {
  const auto a = sessions->commit_direct(1, assigned(), 0.0, 10.0);
  const auto b = sessions->commit_direct(2, assigned(), 0.0, 10.0);
  EXPECT_NE(a, kNullSession);
  EXPECT_NE(b, kNullSession);
  EXPECT_NE(a, b);
}

TEST_F(SessionFixture, FindUnknownSessionReturnsNull) {
  EXPECT_EQ(sessions->find(12345), nullptr);
}

}  // namespace
}  // namespace acp::stream
