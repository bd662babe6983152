// Fault-injection + recovery tests: plan parsing, deterministic schedules,
// message fates, transient reclamation after crashes (the paper's
// transient-allocation timeout), leak sweeps, probe retries, deputy
// re-election, and session repair through the migration path.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <sstream>

#include "core/migration.h"
#include "core/probing.h"
#include "exp/experiment.h"
#include "fault/fault.h"
#include "net/topology.h"
#include "state/global_state.h"
#include "test_helpers.h"

namespace acp::fault {
namespace {

using stream::QoSVector;
using stream::ResourceVector;

// ---- FaultPlan parsing ------------------------------------------------------

TEST(FaultPlanParse, RatesAndScriptedEvents) {
  std::istringstream in(
      "{\"kind\": \"rates\", \"node_crash_rate_per_min\": 2.5, \"probe_loss_prob\": 0.1, "
      "\"stop\": 300}\n"
      "\n"
      "{\"kind\": \"node_crash\", \"at\": 60, \"target\": 7, \"duration\": 30}\n"
      "{\"kind\": \"link_degrade\", \"at\": 90, \"magnitude\": 0.25}\n"
      "{\"kind\": \"transient_leak\", \"at\": 120, \"count\": 5, \"magnitude\": 2}\n");
  const FaultPlan plan = FaultPlan::parse_jsonl(in);
  EXPECT_DOUBLE_EQ(plan.node_crash_rate_per_min, 2.5);
  EXPECT_DOUBLE_EQ(plan.probe_loss_prob, 0.1);
  EXPECT_DOUBLE_EQ(plan.stop_s, 300.0);
  EXPECT_DOUBLE_EQ(plan.link_fail_rate_per_min, 0.0);  // untouched default
  ASSERT_EQ(plan.events.size(), 3u);
  EXPECT_EQ(plan.events[0].kind, FaultKind::kNodeCrash);
  EXPECT_EQ(plan.events[0].target, 7);
  EXPECT_DOUBLE_EQ(plan.events[0].duration_s, 30.0);
  EXPECT_EQ(plan.events[1].kind, FaultKind::kLinkDegrade);
  EXPECT_DOUBLE_EQ(plan.events[1].magnitude, 0.25);
  EXPECT_EQ(plan.events[2].count, 5u);
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlanParse, UnknownKindThrows) {
  std::istringstream in("{\"kind\": \"solar_flare\", \"at\": 1}\n");
  EXPECT_THROW(FaultPlan::parse_jsonl(in), PreconditionError);
}

TEST(FaultPlanParse, MissingKindThrows) {
  std::istringstream in("{\"at\": 1}\n");
  EXPECT_THROW(FaultPlan::parse_jsonl(in), PreconditionError);
}

TEST(FaultPlanParse, EmptyPlanIsEmpty) {
  std::istringstream in("");
  EXPECT_TRUE(FaultPlan::parse_jsonl(in).empty());
}

// ---- Injector fixture -------------------------------------------------------

struct FaultFixture : ::testing::Test {
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
    // Every chain function on 3 distinct hosts so repair always has
    // candidates somewhere off the crashed node.
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

  std::unique_ptr<FaultInjector> make_injector(FaultPlan plan, RecoveryConfig rec = {}) {
    return std::make_unique<FaultInjector>(*sys, engine, util::Rng(99), std::move(plan), rec,
                                           &metrics);
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

// ---- Message fates ----------------------------------------------------------

TEST_F(FaultFixture, MessagesToFromDownNodesAreLost) {
  auto inj = make_injector({});
  EXPECT_FALSE(inj->message_fate(0, 1).lost);
  inj->crash_node(1);
  EXPECT_TRUE(inj->message_fate(0, 1).lost);
  EXPECT_TRUE(inj->message_fate(1, 0).lost);
  EXPECT_FALSE(inj->message_fate(0, 2).lost);
  inj->restart_node(1);
  EXPECT_FALSE(inj->message_fate(0, 1).lost);
  EXPECT_EQ(inj->faults_injected(), 1u);
}

TEST_F(FaultFixture, MessagesAcrossDownLinksAreLost) {
  auto inj = make_injector({});
  // Fail every link touching node 3: all paths in/out of 3 now drop.
  for (net::OverlayLinkIndex l : mesh->links_of(3)) inj->fail_link(l);
  EXPECT_TRUE(inj->message_fate(0, 3).lost);
  EXPECT_TRUE(inj->message_fate(3, 3).lost == false);  // self-delivery: no links crossed
  for (net::OverlayLinkIndex l : mesh->links_of(3)) inj->restore_link(l);
  EXPECT_FALSE(inj->message_fate(0, 3).lost);
}

TEST_F(FaultFixture, StochasticLossRespectsWindow) {
  FaultPlan plan;
  plan.probe_loss_prob = 1.0;
  plan.start_s = 10.0;
  plan.stop_s = 20.0;
  auto inj = make_injector(plan);
  EXPECT_FALSE(inj->message_fate(0, 1).lost);  // t=0: window not open
  engine.schedule_at(15.0, [&] { EXPECT_TRUE(inj->message_fate(0, 1).lost); });
  engine.schedule_at(25.0, [&] { EXPECT_FALSE(inj->message_fate(0, 1).lost); });
  engine.run_until(30.0);
}

// ---- Link degradation -------------------------------------------------------

TEST_F(FaultFixture, DegradeScalesLinkCapacityAndRestores) {
  auto inj = make_injector({});
  const net::OverlayLinkIndex l = 0;
  const double full = sys->link_pool(l).available(0.0);
  inj->degrade_link(l, 0.25, /*duration_s=*/50.0);
  EXPECT_NEAR(sys->link_pool(l).available(engine.now()), full * 0.25, 1e-9);
  engine.run_until(60.0);
  EXPECT_NEAR(sys->link_pool(l).available(engine.now()), full, 1e-9);
}

// ---- State faults -----------------------------------------------------------

TEST_F(FaultFixture, FreezeSuppressesStateUpdatesForItsDuration) {
  auto inj = make_injector({});
  EXPECT_FALSE(inj->state_updates_suppressed());
  inj->freeze_state(30.0);
  EXPECT_TRUE(inj->state_updates_suppressed());
  engine.run_until(31.0);
  EXPECT_FALSE(inj->state_updates_suppressed());
}

TEST_F(FaultFixture, TearIsConsumedOnce) {
  auto inj = make_injector({});
  EXPECT_FALSE(inj->consume_state_tear());
  inj->tear_state();
  EXPECT_TRUE(inj->consume_state_tear());
  EXPECT_FALSE(inj->consume_state_tear());
}

// ---- Transient reclamation (crash) ------------------------------------------

TEST_F(FaultFixture, CrashReclaimsNodeTransientsAfterDelay) {
  RecoveryConfig rec;
  rec.reclaim_delay_s = 30.0;
  rec.sweep_interval_s = 0.0;
  auto inj = make_injector({}, rec);
  const stream::NodeId victim = 5;
  const double pre = sys->node_pool(victim).available(0.0).cpu();
  // Three in-flight probe reservations with a TTL far beyond the test: only
  // reclamation, not expiry, can return them.
  for (std::uint32_t tag = 0; tag < 3; ++tag) {
    ASSERT_TRUE(sys->reserve_node_transient(100 + tag, tag, victim,
                                            ResourceVector(10.0, 100.0), 0.0, 1e6));
  }
  EXPECT_NEAR(sys->node_pool(victim).available(0.0).cpu(), pre - 30.0, 1e-9);
  inj->crash_node(victim);
  engine.run_until(29.0);
  EXPECT_NEAR(sys->node_pool(victim).available(engine.now()).cpu(), pre - 30.0, 1e-9);
  engine.run_until(31.0);
  // Residual resources are back to pre-probe levels.
  EXPECT_NEAR(sys->node_pool(victim).available(engine.now()).cpu(), pre, 1e-9);
  EXPECT_EQ(inj->transients_reclaimed(), 3u);
}

TEST_F(FaultFixture, ReclamationSweepCatchesLeakedTransients) {
  RecoveryConfig rec;
  rec.max_transient_age_s = 120.0;
  rec.sweep_interval_s = 0.0;  // drive manually
  auto inj = make_injector({}, rec);
  const double total_before = [&] {
    double cpu = 0.0;
    for (stream::NodeId n = 0; n < sys->node_count(); ++n) {
      cpu += sys->node_pool(n).available(engine.now()).cpu();
    }
    return cpu;
  }();
  inj->leak_transients(/*count=*/4, /*cpu=*/5.0, /*ttl_s=*/1e6);
  EXPECT_EQ(inj->run_reclamation_sweep(), 0u);  // too young to reclaim
  engine.schedule_at(121.0, [&] { EXPECT_EQ(inj->run_reclamation_sweep(), 4u); });
  engine.run_until(122.0);
  double total_after = 0.0;
  for (stream::NodeId n = 0; n < sys->node_count(); ++n) {
    total_after += sys->node_pool(n).available(engine.now()).cpu();
  }
  EXPECT_NEAR(total_after, total_before, 1e-9);
  EXPECT_EQ(inj->transients_reclaimed(), 4u);
}

// ---- Deterministic schedules ------------------------------------------------

TEST_F(FaultFixture, StochasticScheduleIsSeedDeterministic) {
  FaultPlan plan;
  plan.node_crash_rate_per_min = 6.0;
  plan.node_downtime_s = 10.0;
  plan.link_fail_rate_per_min = 6.0;
  plan.link_downtime_s = 10.0;
  const auto run_once = [&] {
    sim::Engine eng;
    FaultInjector inj(*sys, eng, util::Rng(7), plan, {}, nullptr);
    inj.start();
    eng.run_until(300.0);
    return inj.faults_injected();
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_GT(a, 0u);
  EXPECT_EQ(a, b);
}

// ---- Probe retry ------------------------------------------------------------

TEST_F(FaultFixture, RetriesRescueProbesOnceLossWindowCloses) {
  // Every transmission in [0, 0.4) is lost; exponential backoff walks the
  // retries past the window, so composition still succeeds.
  FaultPlan plan;
  plan.probe_loss_prob = 1.0;
  plan.stop_s = 0.4;
  auto inj = make_injector(plan);
  core::ProbingConfig cfg;
  cfg.max_retries = 5;
  cfg.retry_backoff_s = 0.05;
  core::ProbingProtocol protocol(*sys, *sessions, engine, metrics, *registry,
                                 global_state->view(), util::Rng(7), cfg);
  protocol.set_fault_injector(inj.get());
  const auto req = make_request();
  std::optional<core::CompositionOutcome> out;
  protocol.execute(req, 1.0, core::PerHopPolicy::kGuided, core::SelectionPolicy::kBestPhi,
                   [&](const core::CompositionOutcome& o) { out = o; });
  engine.run_until(120.0);
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->success());
  EXPECT_GT(protocol.retries_sent(), 0u);
}

TEST_F(FaultFixture, ExhaustedRetriesFailHonestlyWithoutLeaks) {
  FaultPlan plan;
  plan.probe_loss_prob = 1.0;  // never delivered
  auto inj = make_injector(plan);
  core::ProbingConfig cfg;
  cfg.max_retries = 2;
  cfg.retry_backoff_s = 0.01;
  core::ProbingProtocol protocol(*sys, *sessions, engine, metrics, *registry,
                                 global_state->view(), util::Rng(7), cfg);
  protocol.set_fault_injector(inj.get());
  const auto req = make_request();
  std::optional<core::CompositionOutcome> out;
  int calls = 0;
  protocol.execute(req, 1.0, core::PerHopPolicy::kGuided, core::SelectionPolicy::kBestPhi,
                   [&](const core::CompositionOutcome& o) {
                     out = o;
                     ++calls;
                   });
  engine.run_until(120.0);
  EXPECT_EQ(calls, 1);
  ASSERT_TRUE(out.has_value());
  EXPECT_FALSE(out->success());
  EXPECT_EQ(sessions->active_count(), 0u);
  // Nothing may stay held once transients expire.
  const double far = engine.now() + 1e7;
  for (stream::NodeId n = 0; n < sys->node_count(); ++n) {
    EXPECT_NEAR(sys->node_pool(n).available(far).cpu(), 100.0, 1e-9);
  }
}

// ---- Deputy re-election -----------------------------------------------------

TEST_F(FaultFixture, DeputyCrashMidCompositionTriggersReelection) {
  auto inj = make_injector({});
  core::ProbingConfig cfg;
  cfg.max_retries = 5;
  cfg.retry_backoff_s = 0.05;
  core::ProbingProtocol protocol(*sys, *sessions, engine, metrics, *registry,
                                 global_state->view(), util::Rng(7), cfg);
  protocol.set_fault_injector(inj.get());
  const auto req = make_request();
  std::optional<core::CompositionOutcome> out;
  protocol.execute(req, 1.0, core::PerHopPolicy::kGuided, core::SelectionPolicy::kBestPhi,
                   [&](const core::CompositionOutcome& o) { out = o; });
  // While probes are in flight, crash nodes until one of them was the
  // deputy (restarting the innocent ones immediately): the hook must
  // re-elect exactly once, deterministically.
  engine.schedule_at(1e-4, [&] {
    for (stream::NodeId n = 0; n < sys->node_count(); ++n) {
      inj->crash_node(n);
      if (protocol.deputy_reelections() > 0) break;
      inj->restart_node(n);
    }
  });
  engine.run_until(120.0);
  EXPECT_EQ(protocol.deputy_reelections(), 1u);
  ASSERT_TRUE(out.has_value());  // the callback fires regardless of outcome
}

// ---- Session repair ---------------------------------------------------------

TEST_F(FaultFixture, CrashedComponentHostRepairedViaMigrationPath) {
  auto inj = make_injector({});
  core::ProbingConfig cfg;
  core::ProbingProtocol protocol(*sys, *sessions, engine, metrics, *registry,
                                 global_state->view(), util::Rng(7), cfg);
  protocol.set_fault_injector(inj.get());
  core::RepairConfig rcfg;
  rcfg.detection_delay_s = 1.0;
  core::SessionRepairManager repair(*sys, *sessions, engine, metrics, *inj, rcfg);
  repair.start();

  const auto req = make_request();
  std::optional<core::CompositionOutcome> out;
  protocol.execute(req, 1.0, core::PerHopPolicy::kGuided, core::SelectionPolicy::kBestPhi,
                   [&](const core::CompositionOutcome& o) { out = o; });
  engine.run_until(30.0);
  ASSERT_TRUE(out.has_value());
  ASSERT_TRUE(out->success());
  const auto* rec = sessions->find(out->session);
  ASSERT_NE(rec, nullptr);
  ASSERT_FALSE(rec->placements.empty());
  const stream::NodeId victim = rec->placements.front().node;

  inj->crash_node(victim);
  engine.run_until(40.0);  // detection delay passes, repair runs
  EXPECT_EQ(repair.sessions_repaired(), 1u);
  EXPECT_EQ(repair.sessions_lost(), 0u);
  const auto* after = sessions->find(out->session);
  ASSERT_NE(after, nullptr);  // session survived
  for (const auto& p : after->placements) EXPECT_NE(p.node, victim);
  EXPECT_TRUE(sessions->close(out->session));  // still closes cleanly
}

TEST_F(FaultFixture, DetectionOnlyRepairClosesBrokenSessions) {
  auto inj = make_injector({});
  core::ProbingConfig cfg;
  core::ProbingProtocol protocol(*sys, *sessions, engine, metrics, *registry,
                                 global_state->view(), util::Rng(7), cfg);
  protocol.set_fault_injector(inj.get());
  core::RepairConfig rcfg;
  rcfg.detection_delay_s = 1.0;
  rcfg.max_candidates = 0;  // chaos-suite bare arm: detect, never repair
  core::SessionRepairManager repair(*sys, *sessions, engine, metrics, *inj, rcfg);
  repair.start();

  const auto req = make_request();
  std::optional<core::CompositionOutcome> out;
  protocol.execute(req, 1.0, core::PerHopPolicy::kGuided, core::SelectionPolicy::kBestPhi,
                   [&](const core::CompositionOutcome& o) { out = o; });
  engine.run_until(30.0);
  ASSERT_TRUE(out.has_value());
  ASSERT_TRUE(out->success());
  const auto* rec = sessions->find(out->session);
  ASSERT_NE(rec, nullptr);
  const stream::NodeId victim = rec->placements.front().node;

  inj->crash_node(victim);
  engine.run_until(40.0);
  EXPECT_EQ(repair.sessions_repaired(), 0u);
  EXPECT_EQ(repair.sessions_lost(), 1u);
  EXPECT_EQ(sessions->find(out->session), nullptr);
  EXPECT_FALSE(sessions->close(out->session));  // close() reports the loss
}

// ---- End-to-end determinism -------------------------------------------------

TEST(FaultExperiment, FaultRunsAreSeedDeterministic) {
  exp::SystemConfig sc;
  sc.seed = 11;
  sc.topology.node_count = 400;
  sc.overlay.member_count = 24;
  const exp::Fabric fabric = exp::build_fabric(sc);
  exp::ExperimentConfig cfg;
  cfg.algorithm = exp::Algorithm::kAcp;
  cfg.alpha = 0.3;
  cfg.duration_minutes = 3.0;
  cfg.schedule = {{0.0, 30.0}};
  cfg.run_seed = 5;
  cfg.faults.node_crash_rate_per_min = 1.0;
  cfg.faults.node_downtime_s = 30.0;
  cfg.faults.link_fail_rate_per_min = 2.0;
  cfg.faults.link_downtime_s = 20.0;
  cfg.faults.probe_loss_prob = 0.05;
  const auto a = exp::run_experiment(fabric, sc, cfg);
  const auto b = exp::run_experiment(fabric, sc, cfg);
  EXPECT_GT(a.faults_injected, 0u);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.probe_retries, b.probe_retries);
  EXPECT_EQ(a.sessions_lost, b.sessions_lost);
  EXPECT_EQ(a.sessions_repaired, b.sessions_repaired);
  EXPECT_DOUBLE_EQ(a.session_survival_rate, b.session_survival_rate);
}

}  // namespace
}  // namespace acp::fault
