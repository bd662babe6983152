// Determinism tests for the sharded PDES engine (sim/sharded_engine.h).
//
// The contract under test: at a fixed seed and a fixed barrier window,
// every observable output of a sharded run — ExperimentResult, the merged
// JSONL trace, every metric series (wall-clock histograms excluded),
// timeline sim rows, attribution rows, and the BENCH report — is identical
// for every --shards N >= 1. Wall-clock observables (acp.prof.* histograms,
// host_sample / attr_host rows) are the only permitted difference. Sharded
// runs form their own lineage: N=1 is the baseline here, not the serial
// engine (shards=0), whose within-window admission semantics differ by
// design (docs/ARCHITECTURE.md, "Concurrency model").
//
// Alongside the differential suite: randomized property tests on the engine
// itself (execution-log invariance across shard counts, per-stream causal
// order, cross-shard handoff causality), the conservative-lookahead bound,
// and a fault-churn stress shaped for the CI thread-sanitizer job.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "acptrace/acptrace_lib.h"
#include "core/probing.h"
#include "core/probing_sharded.h"
#include "exp/experiment.h"
#include "exp/system_builder.h"
#include "net/overlay.h"
#include "obs/bench_report.h"
#include "obs/observability.h"
#include "sim/sharded_engine.h"
#include "state/global_state.h"
#include "stream/session.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace acp::exp {
namespace {

SystemConfig tiny_system() {
  SystemConfig cfg;
  cfg.seed = 42;
  cfg.topology.node_count = 500;
  cfg.overlay.member_count = 60;
  cfg.components_per_node = 2;
  return cfg;
}

ExperimentConfig tiny_run(Algorithm alg, std::size_t shards) {
  ExperimentConfig cfg;
  cfg.algorithm = alg;
  cfg.duration_minutes = 3.0;
  cfg.schedule = {{0.0, 40.0}};
  cfg.sample_period_minutes = 1.5;
  cfg.shards = shards;
  return cfg;
}

fault::FaultPlan churn_plan() {
  fault::FaultPlan plan;
  plan.node_crash_rate_per_min = 3.0;
  plan.node_downtime_s = 20.0;
  plan.link_fail_rate_per_min = 2.0;
  plan.link_downtime_s = 15.0;
  plan.probe_loss_prob = 0.05;
  plan.probe_delay_prob = 0.10;
  plan.probe_delay_mean_s = 0.02;
  return plan;
}

void expect_same_result(const ExperimentResult& a, const ExperimentResult& b,
                        const std::string& what) {
  EXPECT_EQ(a.requests, b.requests) << what;
  EXPECT_EQ(a.successes, b.successes) << what;
  EXPECT_DOUBLE_EQ(a.success_rate, b.success_rate) << what;
  EXPECT_DOUBLE_EQ(a.overhead_per_minute, b.overhead_per_minute) << what;
  EXPECT_DOUBLE_EQ(a.probe_rate_per_minute, b.probe_rate_per_minute) << what;
  EXPECT_DOUBLE_EQ(a.state_update_rate_per_minute, b.state_update_rate_per_minute) << what;
  EXPECT_DOUBLE_EQ(a.mean_phi, b.mean_phi) << what;
  EXPECT_DOUBLE_EQ(a.mean_candidates_qualified, b.mean_candidates_qualified) << what;
  EXPECT_EQ(a.peak_active_sessions, b.peak_active_sessions) << what;
  EXPECT_EQ(a.sessions_completed, b.sessions_completed) << what;
  EXPECT_EQ(a.sessions_lost, b.sessions_lost) << what;
  EXPECT_EQ(a.sessions_repaired, b.sessions_repaired) << what;
  EXPECT_EQ(a.probe_retries, b.probe_retries) << what;
  EXPECT_EQ(a.faults_injected, b.faults_injected) << what;
  EXPECT_EQ(a.deputy_reelections, b.deputy_reelections) << what;
  EXPECT_EQ(a.transients_reclaimed, b.transients_reclaimed) << what;
  ASSERT_EQ(a.success_series.size(), b.success_series.size()) << what;
  for (std::size_t i = 0; i < a.success_series.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.success_series.time_at(i), b.success_series.time_at(i)) << what;
    EXPECT_DOUBLE_EQ(a.success_series.value_at(i), b.success_series.value_at(i)) << what;
  }
}

/// Everything a shard count could possibly change about one observed run.
struct ObsDump {
  ExperimentResult result;
  std::string trace;
  std::string timeline;
  std::string attr_rows;
  std::vector<std::string> counters;
  std::vector<std::string> gauges;
  std::vector<std::string> histograms;  // sans acp.prof.* (host wall-clock)
  std::string bench_json;
};

/// Timeline stream minus its host_sample rows — the deterministic series.
std::string sim_rows_only(const std::string& timeline) {
  std::istringstream in(timeline);
  std::string out, line;
  while (std::getline(in, line)) {
    if (line.find("\"host_sample\"") == std::string::npos) out += line + "\n";
  }
  return out;
}

ObsDump run_observed(const Fabric& fabric, const SystemConfig& sys_cfg, ExperimentConfig cfg) {
  obs::Observability ob;
  std::ostringstream trace;
  ob.tracer.set_stream(&trace);
  std::ostringstream timeline;
  ob.timeline.set_stream(&timeline);
  ob.attribution.set_enabled(true);
  cfg.obs = &ob;
  cfg.timeline.sample_interval_s = 30.0;

  ObsDump d;
  d.result = run_experiment(fabric, sys_cfg, cfg);
  ob.tracer.set_stream(nullptr);
  ob.timeline.set_stream(nullptr);

  d.trace = trace.str();
  d.timeline = timeline.str();
  std::ostringstream attr;
  ob.attribution.write_rows(attr);  // deterministic rows only, sorted keys
  d.attr_rows = attr.str();
  ob.metrics.for_each_counter(
      [&](const std::string& name, const obs::Labels& l, const obs::Counter& c) {
        d.counters.push_back(name + l.render() + "=" + std::to_string(c.value()));
      });
  ob.metrics.for_each_gauge([&](const std::string& name, const obs::Labels& l,
                                const obs::Gauge& g) {
    d.gauges.push_back(name + l.render() + "=" + obs::json_number(g.value()) + "/" +
                       obs::json_number(g.min()) + "/" + obs::json_number(g.max()));
  });
  ob.metrics.for_each_histogram([&](const std::string& name, const obs::Labels& l,
                                    const obs::Histogram& h) {
    if (name.rfind("acp.prof.", 0) == 0) return;  // host wall-clock: not invariant
    std::string row = name + l.render() + "=" + std::to_string(h.count()) + ":" +
                      obs::json_number(h.sum());
    for (std::uint64_t b : h.bucket_counts()) row += "," + std::to_string(b);
    d.histograms.push_back(std::move(row));
  });

  obs::BenchReport rep;
  rep.name = "pdes_test";
  rep.git_sha = "test";
  rep.seed = 42;
  rep.runs = 1;
  rep.success_rate = d.result.success_rate;
  rep.overhead_per_minute = d.result.overhead_per_minute;
  rep.mean_phi = d.result.mean_phi;
  rep.collect_from(ob.metrics);
  std::ostringstream json;
  rep.write_json(json);
  d.bench_json = json.str();
  return d;
}

void expect_same_dump(const ObsDump& base, const ObsDump& cur, const std::string& what) {
  expect_same_result(base.result, cur.result, what);
  EXPECT_FALSE(base.trace.empty()) << what;
  EXPECT_TRUE(base.trace == cur.trace)
      << what << ": traces differ, " << base.trace.size() << " vs " << cur.trace.size()
      << " bytes";
  const std::string base_sim = sim_rows_only(base.timeline);
  EXPECT_FALSE(base_sim.empty()) << what;
  EXPECT_TRUE(base_sim == sim_rows_only(cur.timeline))
      << what << ": deterministic timeline rows differ";
  EXPECT_FALSE(base.attr_rows.empty()) << what;
  EXPECT_TRUE(base.attr_rows == cur.attr_rows) << what << ": attribution rows differ";
  EXPECT_EQ(base.counters, cur.counters) << what;
  EXPECT_EQ(base.gauges, cur.gauges) << what;
  EXPECT_EQ(base.histograms, cur.histograms) << what;
}

// ---- Differential determinism suite -----------------------------------------

TEST(ShardedDeterminism, AcpIdenticalAcrossShardCounts) {
  const auto sys_cfg = tiny_system();
  const auto fabric = build_fabric(sys_cfg);
  const ObsDump base = run_observed(fabric, sys_cfg, tiny_run(Algorithm::kAcp, 1));
  EXPECT_GT(base.result.requests, 50u);
  for (std::size_t shards : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    const ObsDump cur = run_observed(fabric, sys_cfg, tiny_run(Algorithm::kAcp, shards));
    expect_same_dump(base, cur, "ACP shards=" + std::to_string(shards));
  }
}

TEST(ShardedDeterminism, RpIdenticalAcrossShardCounts) {
  // RP exercises the per-request RNG (random per-hop candidate choice): the
  // stream-seeded draws must not depend on which shard runs the cascade.
  const auto sys_cfg = tiny_system();
  const auto fabric = build_fabric(sys_cfg);
  const ObsDump base = run_observed(fabric, sys_cfg, tiny_run(Algorithm::kRp, 1));
  const ObsDump cur = run_observed(fabric, sys_cfg, tiny_run(Algorithm::kRp, 8));
  expect_same_dump(base, cur, "RP shards=8");
}

TEST(ShardedDeterminism, SpIdenticalAcrossShardCounts) {
  // SP pairs global-state guidance (per-shard staleness views) with random
  // final selection in the two-phase finalize.
  const auto sys_cfg = tiny_system();
  const auto fabric = build_fabric(sys_cfg);
  const ObsDump base = run_observed(fabric, sys_cfg, tiny_run(Algorithm::kSp, 1));
  const ObsDump cur = run_observed(fabric, sys_cfg, tiny_run(Algorithm::kSp, 8));
  expect_same_dump(base, cur, "SP shards=8");
}

TEST(ShardedDeterminism, FaultChurnIdenticalAcrossShardCounts) {
  // Crashes, link failures, message loss/delay, repair: the fault injector
  // lives on the global lane; per-message fates draw from the cascade's own
  // RNG. All of it must stay invariant under resharding.
  const auto sys_cfg = tiny_system();
  const auto fabric = build_fabric(sys_cfg);
  auto make = [&](std::size_t shards) {
    ExperimentConfig cfg = tiny_run(Algorithm::kAcp, shards);
    cfg.faults = churn_plan();
    cfg.enable_repair = true;
    return cfg;
  };
  const ObsDump base = run_observed(fabric, sys_cfg, make(1));
  EXPECT_GT(base.result.faults_injected, 0u);
  for (std::size_t shards : {std::size_t{2}, std::size_t{8}}) {
    const ObsDump cur = run_observed(fabric, sys_cfg, make(shards));
    expect_same_dump(base, cur, "fault churn shards=" + std::to_string(shards));
  }
}

TEST(ShardedDeterminism, MinimalWindowStillDeterministic) {
  // A shard_window_s below the conservative lookahead clamps up to the min
  // virtual-link delay — maximal barrier rounds, still one lineage per
  // window value.
  const auto sys_cfg = tiny_system();
  const auto fabric = build_fabric(sys_cfg);
  auto make = [&](std::size_t shards) {
    ExperimentConfig cfg = tiny_run(Algorithm::kAcp, shards);
    cfg.duration_minutes = 1.0;
    cfg.shard_window_s = 1e-9;
    return cfg;
  };
  const ObsDump base = run_observed(fabric, sys_cfg, make(1));
  const ObsDump cur = run_observed(fabric, sys_cfg, make(4));
  expect_same_dump(base, cur, "minimal window shards=4");
}

TEST(ShardedDeterminism, ArrivalCountMatchesSerialEngine) {
  // Sharded runs are their own lineage (window-frozen admissions), but the
  // arrival process lives on the global lane untouched: the request count
  // must match the serial engine exactly; outcomes may differ.
  const auto sys_cfg = tiny_system();
  const auto fabric = build_fabric(sys_cfg);
  const auto serial = run_experiment(fabric, sys_cfg, tiny_run(Algorithm::kAcp, 0));
  const auto sharded = run_experiment(fabric, sys_cfg, tiny_run(Algorithm::kAcp, 2));
  EXPECT_EQ(serial.requests, sharded.requests);
  EXPECT_GT(sharded.successes, 0u);
}

TEST(ShardedDeterminism, OverheadWindowIsADeltaAcrossLaneRegistries) {
  // The window reads the run's registry plus every lane's: the lane
  // captures with observability on (folded into the shared registry at end
  // of run), registries private to the run with it off.
  const auto sys_cfg = tiny_system();
  const auto fabric = build_fabric(sys_cfg);
  acp::testing::expect_overhead_window_is_a_delta(fabric, sys_cfg, tiny_run(Algorithm::kAcp, 2));
}

TEST(ShardedDeterminism, NonProbingAlgorithmsIgnoreShards) {
  // Optimal/Random/Static have no cascades to shard: shards=N falls back to
  // the serial engine and must match shards=0 exactly.
  const auto sys_cfg = tiny_system();
  const auto fabric = build_fabric(sys_cfg);
  const auto serial = run_experiment(fabric, sys_cfg, tiny_run(Algorithm::kRandom, 0));
  const auto sharded = run_experiment(fabric, sys_cfg, tiny_run(Algorithm::kRandom, 8));
  expect_same_result(serial, sharded, "Random shards=8 vs serial");
}

TEST(ShardedDeterminism, BenchGatePassesAcrossShardCounts) {
  // End to end through the perf-smoke gate: BENCH documents from different
  // shard counts must pass `acptrace diff --require-identical-sim`, and the
  // gate must still bite on real sim drift.
  const auto sys_cfg = tiny_system();
  const auto fabric = build_fabric(sys_cfg);
  const ObsDump d1 = run_observed(fabric, sys_cfg, tiny_run(Algorithm::kAcp, 1));
  const ObsDump d8 = run_observed(fabric, sys_cfg, tiny_run(Algorithm::kAcp, 8));
  const auto base = tracecli::decode_bench(tracecli::parse_json(d1.bench_json));
  const auto cur = tracecli::decode_bench(tracecli::parse_json(d8.bench_json));
  tracecli::DiffThresholds th;
  th.require_identical_sim = true;
  // Scope wall-time ratios are host noise in-process; only the sim gate
  // matters here (CI relaxes them the same way — see .github/workflows).
  th.max_scope_ratio = 1e9;
  th.max_wall_ratio = 1e9;
  th.max_rss_ratio = 1e9;
  th.min_events_rate_ratio = 0.0;
  const auto r = tracecli::diff(base, cur, th);
  EXPECT_TRUE(r.ok()) << (r.regressions.empty() ? "" : r.regressions[0]);

  auto tampered = cur;
  ASSERT_FALSE(tampered.counters.empty());
  tampered.counters.begin()->second += 1;
  EXPECT_FALSE(tracecli::diff(base, tampered, th).ok());
}

// ---- Engine-level property tests --------------------------------------------

// One randomized schedule: S streams, each a chain of events where hop k
// fires at a pre-drawn time and pushes an op recording (stream, hop, at).
// The op log — the only cross-thread observable — must be identical for
// every shard count, and per-stream hops must apply in causal order.
struct ChainPlan {
  std::vector<std::uint64_t> owner_keys;       ///< per stream
  std::vector<std::vector<double>> hop_times;  ///< per stream, strictly ascending
};

ChainPlan make_chain_plan(std::uint64_t seed) {
  util::Rng rng(seed);
  ChainPlan plan;
  const std::size_t streams = 2 + rng.below(15);  // 2..16
  for (std::size_t s = 0; s < streams; ++s) {
    plan.owner_keys.push_back(rng.next());
    const std::size_t hops = 1 + rng.below(20);
    double t = static_cast<double>(rng.below(1000)) / 100.0;  // start in [0, 10)s
    std::vector<double> times;
    for (std::size_t h = 0; h < hops; ++h) {
      times.push_back(t);
      // Mix sub-window hops with window-crossing ones.
      t += 0.001 + static_cast<double>(rng.below(600)) / 100.0;
    }
    plan.hop_times.push_back(std::move(times));
  }
  return plan;
}

struct LogEntry {
  std::uint32_t stream = 0;
  std::size_t hop = 0;
  double at = 0.0;
  bool operator==(const LogEntry& o) const {
    return stream == o.stream && hop == o.hop && at == o.at;
  }
};

std::vector<LogEntry> run_chain_plan(const ChainPlan& plan, std::size_t shards) {
  sim::ShardedEngine::Config cfg;
  cfg.shards = shards;
  cfg.window_s = 2.0;
  sim::ShardedEngine se(cfg);
  auto log = std::make_shared<std::vector<LogEntry>>();

  // Each chain schedules its own next hop from the worker — the
  // steady-state shape of a probe cascade.
  std::function<void(std::uint32_t, std::size_t)> fire = [&](std::uint32_t stream,
                                                             std::size_t hop) {
    se.push_op([log, stream, hop, at = se.now()] {
      log->push_back(LogEntry{stream, hop, at});
    });
    const auto& times = plan.hop_times[stream - 1];
    if (hop + 1 < times.size()) {
      se.schedule_stream(stream, times[hop + 1],
                         [&fire, stream, hop] { fire(stream, hop + 1); }, "chain");
    }
  };
  for (std::size_t s = 0; s < plan.owner_keys.size(); ++s) {
    const auto stream = static_cast<std::uint32_t>(s + 1);
    se.open_stream(stream, plan.owner_keys[s]);
    se.schedule_stream(stream, plan.hop_times[s][0], [&fire, stream] { fire(stream, 0); },
                       "chain");
  }
  se.run_until(1000.0);
  return *log;
}

TEST(ShardedEngineProperty, RandomChainsExecutionLogInvariantAcrossShardCounts) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const ChainPlan plan = make_chain_plan(seed);
    std::size_t expected_events = 0;
    for (const auto& times : plan.hop_times) expected_events += times.size();
    const auto base = run_chain_plan(plan, 1);
    ASSERT_EQ(base.size(), expected_events) << "seed " << seed;
    for (std::size_t shards : {std::size_t{2}, std::size_t{3}, std::size_t{8}}) {
      const auto cur = run_chain_plan(plan, shards);
      EXPECT_TRUE(base == cur) << "seed " << seed << " shards " << shards;
    }
    // Causal order within a stream: hops apply strictly in sequence at
    // nondecreasing times, however the window grid sliced the chain.
    std::vector<std::size_t> next_hop(plan.owner_keys.size(), 0);
    std::vector<double> last_at(plan.owner_keys.size(), -1.0);
    for (const LogEntry& e : base) {
      const std::size_t s = e.stream - 1;
      EXPECT_EQ(e.hop, next_hop[s]) << "seed " << seed;
      EXPECT_GE(e.at, last_at[s]) << "seed " << seed;
      next_hop[s] = e.hop + 1;
      last_at[s] = e.at;
    }
  }
}

TEST(ShardedEngineProperty, CrossShardHandoffRespectsCausality) {
  // Stream A's event pushes an op that (at the barrier) writes a value and
  // schedules stream B's event one lookahead later. B must observe the
  // write: cross-shard causality flows through the apply phase, so no event
  // ever runs before a lower-timestamp dependency that spawned it.
  util::Rng rng(99);
  for (int round = 0; round < 6; ++round) {
    sim::ShardedEngine::Config cfg;
    cfg.shards = 4;
    cfg.window_s = 1.0;
    sim::ShardedEngine se(cfg);
    const std::size_t pairs = 8;
    auto values = std::make_shared<std::vector<int>>(pairs, 0);
    auto seen = std::make_shared<std::vector<int>>(pairs, -1);
    const double lookahead = 0.001;
    for (std::size_t p = 0; p < pairs; ++p) {
      const auto a = static_cast<std::uint32_t>(2 * p + 1);
      const auto b = static_cast<std::uint32_t>(2 * p + 2);
      se.open_stream(a, rng.next());
      se.open_stream(b, rng.next());
      const double t = static_cast<double>(rng.below(500)) / 100.0;
      se.schedule_stream(
          a, t,
          [&se, values, seen, p, b, lookahead] {
            se.push_op([&se, values, seen, p, b, lookahead] {
              (*values)[p] = static_cast<int>(p) + 1;
              se.schedule_stream(b, se.now() + lookahead,
                                 [values, seen, p] { (*seen)[p] = (*values)[p]; }, "handoff");
            });
          },
          "origin");
    }
    se.run_until(100.0);
    for (std::size_t p = 0; p < pairs; ++p) {
      EXPECT_EQ((*seen)[p], static_cast<int>(p) + 1) << "round " << round << " pair " << p;
    }
  }
}

TEST(ShardedEngineProperty, LookaheadIsMinVirtualLinkDelay) {
  // The conservative lookahead the barrier window clamps to must bound
  // every virtual link's delay from below and be attained by some link.
  const auto sys_cfg = tiny_system();
  const auto fabric = build_fabric(sys_cfg);
  const Deployment dep = build_deployment(fabric, sys_cfg);
  const net::OverlayMesh& mesh = dep.sys->mesh();
  const double lookahead = mesh.min_link_delay_ms();
  EXPECT_GT(lookahead, 0.0);
  double true_min = std::numeric_limits<double>::infinity();
  for (net::OverlayLinkIndex l = 0; l < mesh.link_count(); ++l) {
    EXPECT_LE(lookahead, mesh.link(l).delay_ms);
    true_min = std::min(true_min, mesh.link(l).delay_ms);
  }
  EXPECT_DOUBLE_EQ(lookahead, true_min);
}

// ---- Barrier re-qualification ----------------------------------------------------

/// Two requests whose probe cascades share one shard window on a 3×3 torus.
/// f0 has one component on node 0; f1 has one on node 1 (room for either
/// request, not both) and one on node 3 (room for the small request only,
/// and a worse φ). Both cascades admit node 1 against the frozen view, so
/// the small request (id 1) ranks node 1 first. At the barrier its commit
/// comes first, but the large request's transient on node 1 — applied
/// earlier in the same window — leaves too little: the re-qualification
/// must reject node 1 and fall back to node 3, and the large request then
/// takes node 1. A re-qualification that saw the availabilities the worker
/// read from the frozen view would commit the small request on node 1 and
/// fail the large one. The small request's deputy is node 0; the large
/// one's is a neighbour of node 0 owned by the other of two shards, so at
/// two shards each instance's table was last begun on the very request its
/// barrier op re-qualifies.
struct SameWindowPair {
  stream::NodeId small_f1 = 0;
  stream::NodeId large_f1 = 0;
  std::size_t small_qualified = 0;
  std::size_t large_qualified = 0;
  double small_phi = 0.0;
};

/// Runs `requests`, all arriving at t = 0, through the sharded probing
/// protocol (ACP: guided hops, min-φ selection, α = 1) at `shards` lanes
/// with a 1 s barrier window, and returns their outcomes.
std::vector<core::CompositionOutcome> run_sharded_requests(
    stream::StreamSystem& sys, stream::SessionTable& sessions,
    const std::vector<workload::Request>& requests, std::size_t shards) {
  sim::ShardedEngine::Config scfg;
  scfg.shards = shards;
  scfg.window_s = 1.0;
  sim::ShardedEngine engine(scfg);
  obs::MetricsRegistry metrics;
  state::GlobalStateManager global(sys, engine.global(), metrics);
  global.start();
  std::vector<std::unique_ptr<obs::MetricsRegistry>> lane_metrics;
  std::vector<std::unique_ptr<discovery::Registry>> registries;
  std::vector<std::unique_ptr<stream::StateView>> views;
  std::vector<std::unique_ptr<core::ProbingProtocol>> protocols;
  std::vector<core::ProbingProtocol*> instances;
  for (std::size_t i = 0; i < shards; ++i) {
    lane_metrics.push_back(std::make_unique<obs::MetricsRegistry>());
    registries.push_back(std::make_unique<discovery::Registry>(sys, *lane_metrics.back()));
    views.push_back(global.make_shard_view(nullptr));
    protocols.push_back(std::make_unique<core::ProbingProtocol>(
        sys, sessions, engine.global(), *lane_metrics.back(), *registries.back(), *views.back(),
        util::Rng(7), core::ProbingConfig{}));
    protocols.back()->set_shard_host(&engine);
    instances.push_back(protocols.back().get());
  }
  core::ShardedProbing router(engine.plan(), instances);
  std::vector<core::CompositionOutcome> outcomes(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    engine.global().schedule_after(0.0, [&, i] {
      router.execute(requests[i], 1.0, core::PerHopPolicy::kGuided,
                     core::SelectionPolicy::kBestPhi,
                     [&outcomes, i](const core::CompositionOutcome& out) { outcomes[i] = out; });
    });
  }
  engine.run_until(5.0);
  return outcomes;
}

SameWindowPair run_same_window_pair(std::size_t shards) {
  using stream::NodeId;
  using stream::QoSVector;
  using stream::ResourceVector;
  constexpr NodeId kSource = 0, kRoomy = 1, kTight = 3;
  const net::OverlayMesh mesh = net::OverlayMesh::torus(3, 3, 2.0, 1e5);
  util::Rng crng(3);
  stream::StreamSystem sys(mesh, stream::FunctionCatalog::generate(6, crng));
  const auto chain = acp::testing::compatible_chain(sys.catalog(), 2);
  for (NodeId n = 0; n < sys.node_count(); ++n) {
    sys.set_node_capacity(n, ResourceVector(n == kRoomy ? 100.0 : n == kTight ? 60.0 : 1000.0,
                                            1000.0));
  }
  sys.add_component(chain[0], kSource, QoSVector::from_metrics(1.0, 0.0));
  sys.add_component(chain[1], kRoomy, QoSVector::from_metrics(1.0, 0.0));
  sys.add_component(chain[1], kTight, QoSVector::from_metrics(1.0, 0.0));
  stream::SessionTable sessions(sys);

  // A neighbour of node 0 on the other shard of a two-shard plan.
  const sim::ShardPlan two(2);
  NodeId large_deputy = kSource;
  for (const NodeId n : {NodeId{2}, NodeId{6}, NodeId{1}, NodeId{3}}) {
    if (large_deputy == kSource && two.owner(n) != two.owner(kSource)) large_deputy = n;
  }
  EXPECT_NE(large_deputy, kSource);

  std::vector<workload::Request> requests(2);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    workload::Request& req = requests[i];
    req.id = static_cast<stream::RequestId>(i + 1);
    req.graph.add_node(chain[0], ResourceVector(1.0, 1.0));
    // Request 1 fits on either f1 node, request 2 only on kRoomy.
    req.graph.add_node(chain[1], ResourceVector(i == 0 ? 55.0 : 65.0, 1.0));
    req.graph.add_edge(0, 1, 10.0);
    req.qos_req = QoSVector::from_metrics(1000.0, 0.5);
    req.duration_s = 1e6;
    req.client_ip = i == 0 ? kSource : large_deputy;
  }

  const std::vector<core::CompositionOutcome> outcomes =
      run_sharded_requests(sys, sessions, requests, shards);

  SameWindowPair r;
  const auto f1_node = [&](const core::CompositionOutcome& out) {
    EXPECT_TRUE(out.success());
    const stream::SessionRecord* rec = sessions.find(out.session);
    return rec == nullptr ? NodeId{0} : sys.component(rec->components.at(1)).node;
  };
  r.small_f1 = f1_node(outcomes[0]);
  r.large_f1 = f1_node(outcomes[1]);
  r.small_qualified = outcomes[0].candidates_qualified;
  r.large_qualified = outcomes[1].candidates_qualified;
  r.small_phi = outcomes[0].phi;
  return r;
}

TEST(ShardedBarrier, SameWindowClaimMakesRequalificationFallBack) {
  for (const std::size_t shards : {1u, 2u}) {
    SCOPED_TRACE(shards);
    const SameWindowPair r = run_same_window_pair(shards);
    // Against the frozen view both f1 placements qualified for request 1.
    EXPECT_EQ(r.small_qualified, 2u);
    EXPECT_EQ(r.large_qualified, 1u);
    EXPECT_EQ(r.small_f1, 3u);
    EXPECT_EQ(r.large_f1, 1u);
    // Request 1's φ is the live one of its fallback, which also counts
    // request 2's transient on node 0: f0 takes 1 of 999 free per
    // dimension there, f1 55 of 60 CPU and 1 of 1000 MB on node 3, the
    // edge 10 of 1e5 kbps. The frozen view had 1000 free on node 0.
    EXPECT_NEAR(r.small_phi, 2.0 / 999.0 + 55.0 / 60.0 + 1.0 / 1000.0 + 10.0 / 1e5, 1e-12);
  }
}

/// One request whose chain crosses overlay link 0–1 out and back: f0 and
/// f2 on node 0, f1 on node 1, both edges 10 kbps (one claim tag each), the
/// link left with `link_free_kbps` by background traffic.
core::CompositionOutcome run_there_and_back(double link_free_kbps, std::size_t shards) {
  using stream::NodeId;
  using stream::QoSVector;
  using stream::ResourceVector;
  constexpr NodeId kHome = 0, kAway = 1;
  const net::OverlayMesh mesh = net::OverlayMesh::torus(3, 3, 2.0, 1e5);
  util::Rng crng(3);
  stream::StreamSystem sys(mesh, stream::FunctionCatalog::generate(6, crng));
  const auto chain = acp::testing::compatible_chain(sys.catalog(), 3);
  for (NodeId n = 0; n < sys.node_count(); ++n) {
    sys.set_node_capacity(n, ResourceVector(1000.0, 1000.0));
  }
  sys.add_component(chain[0], kHome, QoSVector::from_metrics(1.0, 0.0));
  sys.add_component(chain[1], kAway, QoSVector::from_metrics(1.0, 0.0));
  sys.add_component(chain[2], kHome, QoSVector::from_metrics(1.0, 0.0));
  const std::vector<net::OverlayLinkIndex> out = mesh.virtual_link_path(kHome, kAway);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(mesh.virtual_link_path(kAway, kHome), out);
  EXPECT_TRUE(sys.link_pool(out.at(0)).commit_direct(99, 1e5 - link_free_kbps, 0.0));
  stream::SessionTable sessions(sys);

  std::vector<workload::Request> requests(1);
  workload::Request& req = requests[0];
  req.id = 1;
  for (const stream::FunctionId f : chain) req.graph.add_node(f, ResourceVector(1.0, 1.0));
  req.graph.add_edge(0, 1, 10.0);
  req.graph.add_edge(1, 2, 10.0);
  req.qos_req = QoSVector::from_metrics(1000.0, 0.5);
  req.duration_s = 1e6;
  req.client_ip = kHome;
  return run_sharded_requests(sys, sessions, requests, shards).at(0);
}

TEST(ShardedAdmission, SecondTagOnAClaimedLinkIsRefused) {
  for (const std::size_t shards : {1u, 2u}) {
    SCOPED_TRACE(shards);
    // 25 kbps carries both edges: the return edge is admitted against the
    // link minus the outgoing edge's claim (15 left of 25).
    const core::CompositionOutcome roomy = run_there_and_back(25.0, shards);
    EXPECT_TRUE(roomy.success());
    EXPECT_EQ(roomy.candidates_examined, 1u);
    // 15 kbps carries either edge but not both. The return edge's admission
    // subtracts the outgoing edge's claim (5 left of 15) and refuses, so the
    // probe dies at the hop and nothing reaches the deputy.
    const core::CompositionOutcome tight = run_there_and_back(15.0, shards);
    EXPECT_FALSE(tight.success());
    EXPECT_EQ(tight.candidates_examined, 0u);
  }
}

// ---- TSan stress -------------------------------------------------------------

// Shaped for the CI thread-sanitizer job: many short fault-churn worlds at
// --shards 8 drive cross-shard claims, handoffs, cancellations, and barrier
// rounds under heavy interleaving. Results must still match shards=1.
TEST(ShardedStress, TsanChurnManyTrialsAtEightShards) {
  const auto sys_cfg = tiny_system();
  const auto fabric = build_fabric(sys_cfg);
  for (int trial = 0; trial < 20; ++trial) {
    ExperimentConfig cfg = tiny_run(trial % 2 == 0 ? Algorithm::kAcp : Algorithm::kRp, 1);
    cfg.duration_minutes = 0.5;
    cfg.schedule = {{0.0, 60.0}};
    cfg.faults = churn_plan();
    cfg.run_seed = 5000 + static_cast<std::uint64_t>(trial);
    const auto base = run_experiment(fabric, sys_cfg, cfg);
    cfg.shards = 8;
    const auto cur = run_experiment(fabric, sys_cfg, cfg);
    expect_same_result(base, cur, "trial " + std::to_string(trial));
  }
}

}  // namespace
}  // namespace acp::exp
