// Tests for dynamic component migration (paper Sec. 6 extension).
#include <gtest/gtest.h>

#include <memory>

#include "core/migration.h"
#include "core/probing.h"
#include "net/topology.h"

namespace acp::core {
namespace {

using stream::QoSVector;
using stream::ResourceVector;

struct MigrationFixture : ::testing::Test {
  void SetUp() override {
    util::Rng rng(42);
    net::TopologyConfig tc;
    tc.node_count = 200;
    ip = net::generate_power_law_topology(tc, rng);
    net::OverlayConfig oc;
    oc.member_count = 10;
    util::Rng orng(43);
    mesh = std::make_unique<net::OverlayMesh>(ip, oc, orng);
    util::Rng crng(44);
    sys = std::make_unique<stream::StreamSystem>(*mesh,
                                                 stream::FunctionCatalog::generate(4, crng));
    for (stream::NodeId n = 0; n < sys->node_count(); ++n) {
      sys->set_node_capacity(n, ResourceVector(100.0, 1000.0));
    }
    // Node 0 hosts components of fn 0 (3 providers elsewhere too) and fn 1
    // (sole provider).
    hot_many = sys->add_component(0, 0, QoSVector::from_metrics(10, 0.0));
    hot_sole = sys->add_component(1, 0, QoSVector::from_metrics(10, 0.0));
    sys->add_component(0, 4, QoSVector::from_metrics(10, 0.0));
    sys->add_component(0, 5, QoSVector::from_metrics(10, 0.0));
  }

  net::Graph ip;
  std::unique_ptr<net::OverlayMesh> mesh;
  std::unique_ptr<stream::StreamSystem> sys;
  sim::Engine engine;
  obs::MetricsRegistry metrics;
  stream::ComponentId hot_many{}, hot_sole{};
};

TEST_F(MigrationFixture, MoveComponentUpdatesIndexes) {
  EXPECT_EQ(sys->move_component(hot_many, 7), 0u);
  EXPECT_EQ(sys->component(hot_many).node, 7u);
  const auto& on7 = sys->components_on(7);
  EXPECT_NE(std::find(on7.begin(), on7.end(), hot_many), on7.end());
  const auto& on0 = sys->components_on(0);
  EXPECT_EQ(std::find(on0.begin(), on0.end(), hot_many), on0.end());
  // Function index unchanged.
  const auto& f0 = sys->components_providing(0);
  EXPECT_NE(std::find(f0.begin(), f0.end(), hot_many), f0.end());
  // Moving to the same node is a no-op.
  EXPECT_EQ(sys->move_component(hot_many, 7), 7u);
}

TEST_F(MigrationFixture, UtilizationReflectsWorstDimension) {
  MigrationManager mgr(*sys, engine, metrics);
  EXPECT_DOUBLE_EQ(mgr.utilization(0, 0.0), 0.0);
  ASSERT_TRUE(sys->commit_node_direct(1, 0, ResourceVector(80.0, 100.0), 0.0));
  EXPECT_NEAR(mgr.utilization(0, 0.0), 0.8, 1e-12);  // cpu is the worst dim
}

TEST_F(MigrationFixture, RoundMovesComponentsOffCongestedNodes) {
  ASSERT_TRUE(sys->commit_node_direct(1, 0, ResourceVector(90.0, 900.0), 0.0));
  MigrationConfig cfg;
  cfg.utilization_threshold = 0.75;
  cfg.target_headroom = 0.4;
  MigrationManager mgr(*sys, engine, metrics, cfg);
  const auto moves = mgr.run_round();
  EXPECT_GE(moves, 1u);
  EXPECT_EQ(mgr.total_moves(), moves);
  EXPECT_EQ(metrics.counter_family_total(obs::metric::kMigrationMoves), moves);
  // The component with the most alternative providers (fn 0) moved first;
  // the sole fn-1 provider stayed.
  EXPECT_NE(sys->component(hot_many).node, 0u);
  EXPECT_EQ(sys->component(hot_sole).node, 0u);
}

TEST_F(MigrationFixture, NoMovesBelowThreshold) {
  ASSERT_TRUE(sys->commit_node_direct(1, 0, ResourceVector(50.0, 500.0), 0.0));
  MigrationManager mgr(*sys, engine, metrics);
  EXPECT_EQ(mgr.run_round(), 0u);
}

TEST_F(MigrationFixture, NoMovesWhenEverythingIsHot) {
  // All nodes above the headroom bound: no valid targets.
  for (stream::NodeId n = 0; n < sys->node_count(); ++n) {
    ASSERT_TRUE(sys->commit_node_direct(100 + n, n, ResourceVector(80.0, 800.0), 0.0));
  }
  MigrationManager mgr(*sys, engine, metrics);
  EXPECT_EQ(mgr.run_round(), 0u);
}

TEST_F(MigrationFixture, RespectsMaxMovesPerRound) {
  // Several hot nodes with movable components.
  sys->add_component(0, 1, QoSVector::from_metrics(10, 0.0));
  sys->add_component(0, 2, QoSVector::from_metrics(10, 0.0));
  for (stream::NodeId n = 0; n <= 2; ++n) {
    ASSERT_TRUE(sys->commit_node_direct(100 + n, n, ResourceVector(90.0, 900.0), 0.0));
  }
  MigrationConfig cfg;
  cfg.max_moves_per_round = 1;
  MigrationManager mgr(*sys, engine, metrics, cfg);
  EXPECT_LE(mgr.run_round(), 1u);
}

TEST_F(MigrationFixture, PeriodicTickRunsThroughEngine) {
  ASSERT_TRUE(sys->commit_node_direct(1, 0, ResourceVector(95.0, 950.0), 0.0));
  MigrationConfig cfg;
  cfg.interval_s = 30.0;
  MigrationManager mgr(*sys, engine, metrics, cfg);
  mgr.start();
  engine.run_until(31.0);
  EXPECT_GE(mgr.total_moves(), 1u);
  EXPECT_THROW(mgr.start(), acp::PreconditionError);
}

TEST_F(MigrationFixture, MigrationDuringProbingDropsProbesGracefully) {
  // Regression: components moving while probes are in flight must not crash
  // the protocol — the probe arrives at the old host, finds the component
  // gone, and dies.
  stream::SessionTable sessions(*sys);
  discovery::Registry registry(*sys, metrics);
  core::ProbingProtocol protocol(*sys, sessions, engine, metrics, registry, sys->true_state(),
                                 util::Rng(7));
  // A request for fn 0 (several providers) — probes depart immediately.
  workload::Request req;
  req.id = 1;
  req.graph.add_node(0, ResourceVector(5.0, 50.0));
  req.qos_req = stream::QoSVector::from_metrics(5000.0, 0.5);
  req.duration_s = 60.0;

  std::optional<core::CompositionOutcome> out;
  protocol.execute(req, 1.0, core::PerHopPolicy::kGuided, core::SelectionPolicy::kBestPhi,
                   [&](const core::CompositionOutcome& o) { out = o; });
  // While probes are in flight, relocate every fn-0 provider.
  engine.schedule_at(0.002, [&] {
    for (stream::ComponentId c : std::vector<stream::ComponentId>(
             sys->components_providing(0).begin(), sys->components_providing(0).end())) {
      sys->move_component(c, static_cast<stream::NodeId>((sys->component(c).node + 3) %
                                                         sys->node_count()));
    }
  });
  engine.run_until(30.0);
  ASSERT_TRUE(out.has_value());  // protocol terminated cleanly either way
}

TEST_F(MigrationFixture, RejectsBadConfig) {
  MigrationConfig bad;
  bad.target_headroom = 0.9;  // >= threshold
  EXPECT_THROW(MigrationManager(*sys, engine, metrics, bad), acp::PreconditionError);
}

}  // namespace
}  // namespace acp::core
