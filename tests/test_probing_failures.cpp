// Failure-injection tests for the probing protocol: expired transients,
// probe timeouts, vanished candidates, saturated systems. The invariant
// under every failure mode: the callback fires exactly once, the outcome is
// honest, and no resources leak.
#include <gtest/gtest.h>

#include <memory>

#include "core/probing.h"
#include "net/topology.h"
#include "state/global_state.h"
#include "test_helpers.h"

namespace acp::core {
namespace {

using stream::ComponentId;
using stream::QoSVector;
using stream::ResourceVector;

struct FailureFixture : ::testing::Test {
  void SetUp() override {
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
    util::Rng drng(45);
    for (stream::NodeId n = 0; n < sys->node_count(); ++n) {
      sys->set_node_capacity(n, ResourceVector(100.0, 1000.0));
    }
    chain = acp::testing::compatible_chain(sys->catalog(), 3);
    for (stream::FunctionId f : chain) {
      for (int i = 0; i < 3; ++i) {
        sys->add_component(f, static_cast<stream::NodeId>(drng.below(sys->node_count())),
                           QoSVector::from_metrics(drng.uniform(5.0, 15.0), 0.001));
      }
    }
    sessions = std::make_unique<stream::SessionTable>(*sys);
    registry = std::make_unique<discovery::Registry>(*sys, metrics);
    global_state = std::make_unique<state::GlobalStateManager>(*sys, engine, metrics);
    global_state->start();
  }

  workload::Request make_request() {
    workload::Request req;
    req.id = next_id++;
    req.graph.add_node(chain[0], ResourceVector(10.0, 100.0));
    req.graph.add_node(chain[1], ResourceVector(10.0, 100.0));
    req.graph.add_node(chain[2], ResourceVector(10.0, 100.0));
    req.graph.add_edge(0, 1, 100.0);
    req.graph.add_edge(1, 2, 100.0);
    req.qos_req = QoSVector::from_metrics(3000.0, 0.5);
    req.duration_s = 600.0;
    return req;
  }

  void expect_no_leaks() {
    const double far = engine.now() + 1e7;
    double held_cpu = 0.0;
    for (stream::NodeId n = 0; n < sys->node_count(); ++n) {
      held_cpu += sys->node_pool(n).capacity().cpu() - sys->node_pool(n).available(far).cpu();
    }
    // Only live sessions may hold resources.
    EXPECT_NEAR(held_cpu, 30.0 * static_cast<double>(sessions->active_count()), 1e-9);
  }

  net::Graph ip;
  std::unique_ptr<net::OverlayMesh> mesh;
  std::unique_ptr<stream::StreamSystem> sys;
  std::unique_ptr<stream::SessionTable> sessions;
  std::unique_ptr<discovery::Registry> registry;
  std::unique_ptr<state::GlobalStateManager> global_state;
  sim::Engine engine;
  obs::MetricsRegistry metrics;
  stream::RequestId next_id = 1;
  std::vector<stream::FunctionId> chain;
};

TEST_F(FailureFixture, ExpiredTransientsFailCommitHonestly) {
  // TTL far below probe round-trip times: reservations expire before the
  // deputy can confirm, so commit fails even though a qualified composition
  // was discovered.
  ProbingConfig cfg;
  cfg.transient_ttl_s = 1e-6;
  cfg.probe_timeout_s = 10.0;
  ProbingProtocol protocol(*sys, *sessions, engine, metrics, *registry, global_state->view(),
                           util::Rng(7), cfg);
  const auto req = make_request();
  std::optional<CompositionOutcome> out;
  protocol.execute(req, 1.0, PerHopPolicy::kGuided, SelectionPolicy::kBestPhi,
                   [&](const CompositionOutcome& o) { out = o; });
  engine.run_until(60.0);
  ASSERT_TRUE(out.has_value());
  EXPECT_FALSE(out->success());
  EXPECT_EQ(sessions->active_count(), 0u);
  expect_no_leaks();
}

TEST_F(FailureFixture, TimeoutBeforeAnyProbeReturnsFailsCleanly) {
  // The deputy's deadline fires before any probe can travel a link.
  ProbingConfig cfg;
  cfg.probe_timeout_s = 1e-9;
  ProbingProtocol protocol(*sys, *sessions, engine, metrics, *registry, global_state->view(),
                           util::Rng(7), cfg);
  const auto req = make_request();
  std::optional<CompositionOutcome> out;
  int calls = 0;
  protocol.execute(req, 1.0, PerHopPolicy::kGuided, SelectionPolicy::kBestPhi,
                   [&](const CompositionOutcome& o) {
                     out = o;
                     ++calls;
                   });
  engine.run_until(60.0);
  EXPECT_EQ(calls, 1);  // late probes must not re-finalize
  ASSERT_TRUE(out.has_value());
  EXPECT_FALSE(out->success());
  EXPECT_EQ(out->candidates_examined, 0u);
  expect_no_leaks();
}

TEST_F(FailureFixture, RequestForUnprovidedFunctionFails) {
  stream::FunctionId vacant = stream::kNoFunction;
  for (stream::FunctionId f = 0; f < sys->catalog().size(); ++f) {
    if (sys->components_providing(f).empty()) {
      vacant = f;
      break;
    }
  }
  ASSERT_NE(vacant, stream::kNoFunction);
  workload::Request req;
  req.id = next_id++;
  req.graph.add_node(vacant, ResourceVector(1.0, 1.0));
  req.qos_req = QoSVector::from_metrics(1000.0, 0.5);
  req.duration_s = 60.0;

  ProbingProtocol protocol(*sys, *sessions, engine, metrics, *registry, global_state->view(),
                           util::Rng(7));
  std::optional<CompositionOutcome> out;
  protocol.execute(req, 1.0, PerHopPolicy::kGuided, SelectionPolicy::kBestPhi,
                   [&](const CompositionOutcome& o) { out = o; });
  engine.run_until(60.0);
  ASSERT_TRUE(out.has_value());
  EXPECT_FALSE(out->success());
}

TEST_F(FailureFixture, FullySaturatedSystemFailsEveryRequest) {
  for (stream::NodeId n = 0; n < sys->node_count(); ++n) {
    ASSERT_TRUE(sys->commit_node_direct(999, n, ResourceVector(99.0, 990.0), 0.0));
  }
  ProbingProtocol protocol(*sys, *sessions, engine, metrics, *registry, global_state->view(),
                           util::Rng(7));
  for (int i = 0; i < 5; ++i) {
    const auto req = make_request();
    std::optional<CompositionOutcome> out;
    protocol.execute(req, 1.0, PerHopPolicy::kGuided, SelectionPolicy::kBestPhi,
                     [&](const CompositionOutcome& o) { out = o; });
    engine.run_until(engine.now() + 30.0);
    ASSERT_TRUE(out.has_value());
    EXPECT_FALSE(out->success());
  }
  // Only the saturating session (999 commits) holds resources; every
  // probe-time transient must have been cancelled.
  for (stream::NodeId n = 0; n < sys->node_count(); ++n) {
    EXPECT_EQ(sys->node_pool(n).live_transient_count(engine.now()), 0u);
  }
}

TEST_F(FailureFixture, ConcurrentRequestsContendWithoutLeaking) {
  // Several requests probe simultaneously; transient reservations collide.
  ProbingConfig cfg;
  cfg.transient_ttl_s = 30.0;
  ProbingProtocol protocol(*sys, *sessions, engine, metrics, *registry, global_state->view(),
                           util::Rng(7), cfg);
  std::vector<workload::Request> reqs;
  for (int i = 0; i < 8; ++i) reqs.push_back(make_request());
  std::size_t done = 0, successes = 0;
  for (const auto& req : reqs) {
    protocol.execute(req, 1.0, PerHopPolicy::kGuided, SelectionPolicy::kBestPhi,
                     [&](const CompositionOutcome& o) {
                       ++done;
                       if (o.success()) ++successes;
                     });
  }
  engine.run_until(120.0);
  EXPECT_EQ(done, reqs.size());
  EXPECT_GT(successes, 0u);
  expect_no_leaks();
}

TEST_F(FailureFixture, TinyProbeBudgetStillTerminates) {
  ProbingConfig cfg;
  cfg.max_probes_per_request = 1;
  ProbingProtocol protocol(*sys, *sessions, engine, metrics, *registry, global_state->view(),
                           util::Rng(7), cfg);
  const auto req = make_request();
  std::optional<CompositionOutcome> out;
  protocol.execute(req, 1.0, PerHopPolicy::kGuided, SelectionPolicy::kBestPhi,
                   [&](const CompositionOutcome& o) { out = o; });
  engine.run_until(60.0);
  ASSERT_TRUE(out.has_value());  // must terminate regardless of budget
  expect_no_leaks();
}

}  // namespace
}  // namespace acp::core
