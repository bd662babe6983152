// Tests for StreamSystem: population, admission, virtual-link reservations.
#include <gtest/gtest.h>

#include "net/topology.h"
#include "stream/system.h"

namespace acp::stream {
namespace {

struct SystemFixture : ::testing::Test {
  void SetUp() override {
    util::Rng rng(42);
    net::TopologyConfig tc;
    tc.node_count = 200;
    ip = net::generate_power_law_topology(tc, rng);
    net::OverlayConfig oc;
    oc.member_count = 12;
    util::Rng orng(43);
    mesh = std::make_unique<net::OverlayMesh>(ip, oc, orng);
    util::Rng crng(44);
    sys = std::make_unique<StreamSystem>(*mesh, FunctionCatalog::generate(10, crng));
    for (NodeId n = 0; n < sys->node_count(); ++n) {
      sys->set_node_capacity(n, ResourceVector(100.0, 1000.0));
    }
  }

  net::Graph ip;
  std::unique_ptr<net::OverlayMesh> mesh;
  std::unique_ptr<StreamSystem> sys;
};

TEST_F(SystemFixture, AddComponentIndexes) {
  const auto c0 = sys->add_component(3, 5, QoSVector::from_metrics(10, 0.01));
  const auto c1 = sys->add_component(3, 7, QoSVector::from_metrics(12, 0.0));
  const auto c2 = sys->add_component(4, 5, QoSVector::from_metrics(8, 0.0));
  EXPECT_EQ(sys->component_count(), 3u);
  EXPECT_EQ(sys->components_providing(3), (std::vector<ComponentId>{c0, c1}));
  EXPECT_EQ(sys->components_providing(4), (std::vector<ComponentId>{c2}));
  EXPECT_TRUE(sys->components_providing(9).empty());
  EXPECT_EQ(sys->components_on(5), (std::vector<ComponentId>{c0, c2}));
  EXPECT_EQ(sys->component(c1).node, 7u);
  EXPECT_EQ(sys->component(c1).function, 3u);
}

TEST_F(SystemFixture, AddComponentValidatesInputs) {
  EXPECT_THROW(sys->add_component(99, 0, {}), acp::PreconditionError);
  EXPECT_THROW(sys->add_component(0, 999, {}), acp::PreconditionError);
}

TEST_F(SystemFixture, CapacityCannotChangeUnderAllocations) {
  ASSERT_TRUE(sys->commit_node_direct(1, 0, ResourceVector(1, 1), 0.0));
  EXPECT_THROW(sys->set_node_capacity(0, ResourceVector(5, 5)), acp::PreconditionError);
}

TEST_F(SystemFixture, TrueStateReflectsPools) {
  const auto& view = sys->true_state();
  EXPECT_DOUBLE_EQ(view.node_available(3, 0.0).cpu(), 100.0);
  ASSERT_TRUE(sys->commit_node_direct(9, 3, ResourceVector(40, 100), 0.0));
  EXPECT_DOUBLE_EQ(view.node_available(3, 0.0).cpu(), 60.0);
  sys->node_pool(3).release_session(9);
  EXPECT_DOUBLE_EQ(view.node_available(3, 0.0).cpu(), 100.0);
}

TEST_F(SystemFixture, VirtualLinkReservationIsAllOrNothing) {
  // Pick two distinct nodes with a multi-link path if possible.
  const NodeId a = 0, b = static_cast<NodeId>(sys->node_count() - 1);
  const auto& path = mesh->virtual_link_path(a, b);
  ASSERT_FALSE(path.empty());

  // Saturate the LAST link on the path so reservation must roll back.
  const auto last = path.back();
  const double cap = sys->link_pool(last).capacity();
  ASSERT_TRUE(sys->link_pool(last).commit_direct(42, cap, 0.0));

  EXPECT_FALSE(sys->reserve_virtual_link_transient(1, 0, a, b, 100.0, 0.0, 10.0));
  // Roll back must leave earlier links untouched.
  for (auto l : path) {
    if (l != last) {
      EXPECT_EQ(sys->link_pool(l).live_transient_count(0.0), 0u) << "link " << l;
    }
  }
}

TEST_F(SystemFixture, VirtualLinkReservationSucceedsAndConfirms) {
  const NodeId a = 0, b = 5;
  ASSERT_TRUE(sys->reserve_virtual_link_transient(1, 7, a, b, 100.0, 0.0, 10.0));
  EXPECT_TRUE(sys->confirm_virtual_link(1, 7, a, b, /*session=*/3, 0.0));
  for (auto l : mesh->virtual_link_path(a, b)) {
    EXPECT_DOUBLE_EQ(sys->link_pool(l).available(99.0),
                     sys->link_pool(l).capacity() - 100.0);
  }
  for (auto l : mesh->virtual_link_path(a, b)) sys->link_pool(l).release_session(3);
  for (auto l : mesh->virtual_link_path(a, b)) {
    EXPECT_DOUBLE_EQ(sys->link_pool(l).available(99.0), sys->link_pool(l).capacity());
  }
}

TEST_F(SystemFixture, VirtualLinkReservationHandsBackItsWalk) {
  const NodeId a = 0, b = static_cast<NodeId>(sys->node_count() - 1);
  std::vector<net::OverlayLinkIndex> walked;
  mesh->for_each_virtual_link(a, b, [&](net::OverlayLinkIndex l) { walked.push_back(l); });
  ASSERT_GT(walked.size(), 1u);
  VirtualLinkWalk reserved;
  reserved.push_back(12345);  // overwritten, not appended to
  ASSERT_TRUE(sys->reserve_virtual_link_transient(1, 7, a, b, 100.0, 0.0, 10.0, &reserved));
  EXPECT_EQ(std::vector<net::OverlayLinkIndex>(reserved.begin(), reserved.end()), walked);
  for (const auto l : walked) EXPECT_EQ(sys->link_pool(l).live_transient_count(0.0), 1u);
  // The walk's QoS is the sum of its links' QoS, in walk order.
  QoSVector q;
  for (const auto l : walked) q += sys->link_qos(l);
  EXPECT_EQ(sys->virtual_link_qos(a, b), q);
  EXPECT_NEAR(q.delay_ms(), mesh->virtual_link_delay(a, b), 1e-9);
  // Co-location reserves nothing and hands back nothing.
  ASSERT_TRUE(sys->reserve_virtual_link_transient(1, 8, 4, 4, 1e12, 0.0, 10.0, &reserved));
  EXPECT_TRUE(reserved.empty());
  EXPECT_EQ(sys->virtual_link_qos(4, 4), QoSVector{});
}

TEST_F(SystemFixture, FailedVirtualLinkReservationHandsBackNothing) {
  const NodeId a = 0, b = static_cast<NodeId>(sys->node_count() - 1);
  const auto& path = mesh->virtual_link_path(a, b);
  ASSERT_GT(path.size(), 1u);
  // The request already holds another tag on the first link; the last link
  // is full, so the reservation fails after reserving every other link.
  ASSERT_TRUE(sys->link_pool(path.front()).reserve_transient(1, 3, 10.0, 0.0, 10.0));
  ASSERT_TRUE(sys->link_pool(path.back()).commit_direct(42, sys->link_pool(path.back()).capacity(),
                                                        0.0));
  std::vector<double> available;
  std::vector<std::size_t> transients;
  for (const auto l : path) {
    available.push_back(sys->link_pool(l).available(0.0));
    transients.push_back(sys->link_pool(l).live_transient_count(0.0));
  }
  VirtualLinkWalk reserved;
  reserved.push_back(12345);
  EXPECT_FALSE(sys->reserve_virtual_link_transient(1, 7, a, b, 100.0, 0.0, 10.0, &reserved));
  EXPECT_TRUE(reserved.empty());
  for (std::size_t i = 0; i < path.size(); ++i) {
    EXPECT_EQ(sys->link_pool(path[i]).available(0.0), available[i]) << "link " << path[i];
    EXPECT_EQ(sys->link_pool(path[i]).live_transient_count(0.0), transients[i])
        << "link " << path[i];
  }
}

TEST_F(SystemFixture, CoLocatedVirtualLinkIsFree) {
  EXPECT_TRUE(sys->reserve_virtual_link_transient(1, 0, 4, 4, 1e12, 0.0, 10.0));
  EXPECT_TRUE(sys->confirm_virtual_link(1, 0, 4, 4, 2, 0.0));
}

TEST_F(SystemFixture, CancelRequestClearsEverywhere) {
  ASSERT_TRUE(sys->reserve_node_transient(5, 0, 2, ResourceVector(10, 10), 0.0, 60.0));
  ASSERT_TRUE(sys->reserve_virtual_link_transient(5, 1, 0, 3, 50.0, 0.0, 60.0));
  const std::vector<NodeId> nodes{2};
  const std::vector<net::OverlayLinkIndex> links = mesh->virtual_link_path(0, 3);
  sys->cancel_request(5, HeldPools{nodes, links});
  EXPECT_EQ(sys->node_pool(2).live_transient_count(0.0), 0u);
  for (auto l : mesh->virtual_link_path(0, 3)) {
    EXPECT_EQ(sys->link_pool(l).live_transient_count(0.0), 0u);
  }
}

TEST_F(SystemFixture, RequestScopedViewExcludesOwnTransients) {
  ASSERT_TRUE(sys->reserve_node_transient(5, 0, 2, ResourceVector(30, 300), 0.0, 60.0));
  ASSERT_TRUE(sys->reserve_node_transient(6, 0, 2, ResourceVector(10, 100), 0.0, 60.0));
  const StreamSystem::RequestScopedView mine(*sys, 5);
  // Request 5 sees only request 6's hold.
  EXPECT_DOUBLE_EQ(mine.node_available(2, 1.0).cpu(), 90.0);
  // The plain true view sees both.
  EXPECT_DOUBLE_EQ(sys->true_state().node_available(2, 1.0).cpu(), 60.0);
}

TEST_F(SystemFixture, DirectVirtualLinkCommitRollsBackOnFailure) {
  const NodeId a = 1, b = static_cast<NodeId>(sys->node_count() - 2);
  const auto& path = mesh->virtual_link_path(a, b);
  ASSERT_FALSE(path.empty());
  const auto last = path.back();
  const double cap = sys->link_pool(last).capacity();
  ASSERT_TRUE(sys->link_pool(last).commit_direct(42, cap, 0.0));

  EXPECT_FALSE(sys->commit_virtual_link_direct(7, a, b, 100.0, 0.0));
  for (auto l : path) {
    if (l != last) {
      EXPECT_DOUBLE_EQ(sys->link_pool(l).available(0.0), sys->link_pool(l).capacity())
          << "link " << l;
    }
  }
}

}  // namespace
}  // namespace acp::stream
