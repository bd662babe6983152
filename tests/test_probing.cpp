// Tests for the event-driven composition probing protocol (ACP/SP/RP).
#include <gtest/gtest.h>

#include <memory>

#include "core/probing.h"
#include "test_helpers.h"
#include "core/probing_composers.h"
#include "net/topology.h"
#include "state/global_state.h"

namespace acp::core {
namespace {

using stream::ComponentId;
using stream::QoSVector;
using stream::ResourceVector;

struct ProbingFixture : ::testing::Test {
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
      for (int i = 0; i < 4; ++i) {
        sys->add_component(f, static_cast<stream::NodeId>(drng.below(sys->node_count())),
                           QoSVector::from_metrics(drng.uniform(5.0, 15.0), 0.001));
      }
    }
    sessions = std::make_unique<stream::SessionTable>(*sys);
    registry = std::make_unique<discovery::Registry>(*sys, metrics);
    global_state = std::make_unique<state::GlobalStateManager>(*sys, engine, metrics);
    global_state->start();
    protocol = std::make_unique<ProbingProtocol>(*sys, *sessions, engine, metrics, *registry,
                                                 global_state->view(), util::Rng(7));
  }

  workload::Request make_request(double qos_delay = 3000.0) {
    workload::Request req;
    req.id = next_request_id++;
    req.graph.add_node(chain[0], ResourceVector(10.0, 100.0));
    req.graph.add_node(chain[1], ResourceVector(10.0, 100.0));
    req.graph.add_node(chain[2], ResourceVector(10.0, 100.0));
    req.graph.add_edge(0, 1, 100.0);
    req.graph.add_edge(1, 2, 100.0);
    req.qos_req = QoSVector::from_metrics(qos_delay, 0.5);
    req.duration_s = 600.0;
    req.client_ip = 3;
    return req;
  }

  CompositionOutcome run(const workload::Request& req, double alpha,
                         PerHopPolicy hop = PerHopPolicy::kGuided,
                         SelectionPolicy sel = SelectionPolicy::kBestPhi) {
    std::optional<CompositionOutcome> out;
    protocol->execute(req, alpha, hop, sel, [&](const CompositionOutcome& o) { out = o; });
    engine.run_until(engine.now() + 60.0);
    EXPECT_TRUE(out.has_value()) << "probing did not finalize";
    return out.value_or(CompositionOutcome{});
  }

  std::uint64_t probe_messages() const {
    return metrics.counter_family_total(obs::metric::kProbeMessages);
  }

  net::Graph ip;
  std::unique_ptr<net::OverlayMesh> mesh;
  std::unique_ptr<stream::StreamSystem> sys;
  std::unique_ptr<stream::SessionTable> sessions;
  std::unique_ptr<discovery::Registry> registry;
  std::unique_ptr<state::GlobalStateManager> global_state;
  std::unique_ptr<ProbingProtocol> protocol;
  sim::Engine engine;
  obs::MetricsRegistry metrics;
  stream::RequestId next_request_id = 1;
  std::vector<stream::FunctionId> chain;
};

TEST_F(ProbingFixture, ComposesSuccessfullyOnHealthySystem) {
  const auto req = make_request();
  const auto out = run(req, 0.5);
  EXPECT_TRUE(out.success());
  EXPECT_TRUE(out.found_qualified);
  EXPECT_GT(out.phi, 0.0);
  EXPECT_GT(out.candidates_qualified, 0u);
  EXPECT_EQ(sessions->active_count(), 1u);
}

TEST_F(ProbingFixture, CommittedSessionHoldsExactDemand) {
  const auto req = make_request();
  const auto out = run(req, 1.0);
  ASSERT_TRUE(out.success());
  const auto* rec = sessions->find(out.session);
  ASSERT_NE(rec, nullptr);
  // Sum of held CPU across nodes equals the request's total demand.
  double held = 0.0;
  for (stream::NodeId n = 0; n < sys->node_count(); ++n) {
    held += 100.0 - sys->node_pool(n).available(engine.now()).cpu();
  }
  EXPECT_NEAR(held, 30.0, 1e-9);
}

TEST_F(ProbingFixture, NoTransientLeaksAfterFinalize) {
  const auto req = make_request();
  run(req, 1.0);
  for (stream::NodeId n = 0; n < sys->node_count(); ++n) {
    EXPECT_EQ(sys->node_pool(n).live_transient_count(engine.now()), 0u) << "node " << n;
  }
  for (net::OverlayLinkIndex l = 0; l < mesh->link_count(); ++l) {
    EXPECT_EQ(sys->link_pool(l).live_transient_count(engine.now()), 0u) << "link " << l;
  }
}

TEST_F(ProbingFixture, FailsCleanlyOnImpossibleQoS) {
  const auto req = make_request(/*qos_delay=*/0.001);
  const auto out = run(req, 1.0);
  EXPECT_FALSE(out.success());
  EXPECT_FALSE(out.found_qualified);
  EXPECT_EQ(sessions->active_count(), 0u);
  // Failure must not leak transients either.
  for (stream::NodeId n = 0; n < sys->node_count(); ++n) {
    EXPECT_EQ(sys->node_pool(n).live_transient_count(engine.now()), 0u);
  }
}

TEST_F(ProbingFixture, CallbackFiresExactlyOnce) {
  const auto req = make_request();
  int calls = 0;
  protocol->execute(req, 0.5, PerHopPolicy::kGuided, SelectionPolicy::kBestPhi,
                    [&](const CompositionOutcome&) { ++calls; });
  engine.run_until(engine.now() + 120.0);
  EXPECT_EQ(calls, 1);
}

TEST_F(ProbingFixture, ProbeMessagesScaleWithAlpha) {
  const auto r1 = make_request();
  const auto start = probe_messages();
  run(r1, 0.25);
  const auto low = probe_messages() - start;

  const auto r2 = make_request();
  const auto mid = probe_messages();
  run(r2, 1.0);
  const auto high = probe_messages() - mid;
  EXPECT_GT(high, low);
}

TEST_F(ProbingFixture, HigherAlphaNeverWorsensPhiOnIdleSystem) {
  // On an otherwise idle system, min-φ over a superset of candidates can
  // only improve. Sessions are closed between runs to keep state clean.
  double phi_low, phi_high;
  {
    const auto out = run(make_request(), 0.25);
    ASSERT_TRUE(out.success());
    phi_low = out.phi;
    sessions->close(out.session);
  }
  {
    const auto out = run(make_request(), 1.0);
    ASSERT_TRUE(out.success());
    phi_high = out.phi;
    sessions->close(out.session);
  }
  EXPECT_LE(phi_high, phi_low + 1e-9);
}

TEST_F(ProbingFixture, DagRequestsMergeOnSharedNodes) {
  workload::Request req;
  req.id = next_request_id++;
  req.graph.add_node(chain[0], ResourceVector(10.0, 100.0));
  req.graph.add_node(chain[1], ResourceVector(10.0, 100.0));
  req.graph.add_node(chain[1], ResourceVector(10.0, 100.0));
  req.graph.add_node(chain[2], ResourceVector(10.0, 100.0));
  req.graph.add_edge(0, 1, 100.0);
  req.graph.add_edge(1, 3, 100.0);
  req.graph.add_edge(0, 2, 100.0);
  req.graph.add_edge(2, 3, 100.0);
  req.qos_req = QoSVector::from_metrics(3000.0, 0.5);
  req.duration_s = 600.0;

  const auto out = run(req, 1.0);
  ASSERT_TRUE(out.success());
  const auto* rec = sessions->find(out.session);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->components.size(), 4u);
}

TEST_F(ProbingFixture, SpSelectionStillQualifies) {
  const auto out = run(make_request(), 0.5, PerHopPolicy::kGuided,
                       SelectionPolicy::kRandomQualified);
  EXPECT_TRUE(out.success());
}

TEST_F(ProbingFixture, RpRandomHopsStillQualify) {
  const auto out = run(make_request(), 1.0, PerHopPolicy::kRandom,
                       SelectionPolicy::kBestPhi);
  // With alpha=1 RP probes everything, so a qualified composition exists.
  EXPECT_TRUE(out.success());
}

TEST_F(ProbingFixture, DeputyIsClosestMember) {
  EXPECT_EQ(protocol->deputy_for(5), mesh->closest_member(5));
}

TEST_F(ProbingFixture, RejectsInvalidAlpha) {
  const auto req = make_request();
  EXPECT_THROW(protocol->execute(req, 0.0, PerHopPolicy::kGuided, SelectionPolicy::kBestPhi,
                                 [](const CompositionOutcome&) {}),
               acp::PreconditionError);
  EXPECT_THROW(protocol->execute(req, 1.5, PerHopPolicy::kGuided, SelectionPolicy::kBestPhi,
                                 [](const CompositionOutcome&) {}),
               acp::PreconditionError);
}

TEST_F(ProbingFixture, ComposerWrappersReportNames) {
  AcpComposer acp(*protocol, 0.3);
  SpComposer sp(*protocol, 0.3);
  RpComposer rp(*protocol, 0.3);
  EXPECT_EQ(acp.name(), "ACP");
  EXPECT_EQ(sp.name(), "SP");
  EXPECT_EQ(rp.name(), "RP");
}

TEST_F(ProbingFixture, AlphaProviderIsConsultedPerRequest) {
  double alpha = 0.25;
  AcpComposer acp(*protocol, [&alpha] { return alpha; });
  const auto r1 = make_request();
  const auto start = probe_messages();
  std::optional<CompositionOutcome> out;
  acp.compose(r1, [&](const CompositionOutcome& o) { out = o; });
  engine.run_until(engine.now() + 60.0);
  const auto low = probe_messages() - start;
  ASSERT_TRUE(out.has_value());

  alpha = 1.0;  // provider change must take effect on the next request
  const auto r2 = make_request();
  const auto mid = probe_messages();
  out.reset();
  acp.compose(r2, [&](const CompositionOutcome& o) { out = o; });
  engine.run_until(engine.now() + 60.0);
  EXPECT_GT(probe_messages() - mid, low);
}

}  // namespace
}  // namespace acp::core
