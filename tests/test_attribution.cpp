// Cost attribution (obs/attribution.h): deterministic aggregation, the
// enabled gate, key-wise merge (the ObsContext drain), the acp-attr/1
// artifact round-trip through the acptrace loader, the host rows a
// ProfScope feeds, and the engine's tagged queue-wait decomposition.
#include <sstream>

#include <gtest/gtest.h>

#include "acptrace/acptrace_lib.h"
#include "obs/attribution.h"
#include "obs/profile.h"
#include "sim/engine.h"
#include "util/error.h"

namespace acp::obs {
namespace {

TEST(Attribution, DisabledRecordsNothing) {
  Attribution a;  // disabled by default
  a.record(attr_phase::kProbe, 1, 2, 0.5);
  a.record_wait(attr_wait::kArrival, 1.0);
  a.record_wall(attr_phase::kProbe, 1, 0.1);
  EXPECT_EQ(a.row_count(), 0u);
}

TEST(Attribution, RecordAggregatesByPhaseNodeFn) {
  Attribution a;
  a.set_enabled(true);
  a.record(attr_phase::kProbe, 4, 2, 0.001);
  a.record(attr_phase::kProbe, 4, 2, 0.002, 3);
  a.record(attr_phase::kProbe, 4, 7, 0.004);  // different fn → own cell
  a.record(attr_phase::kRank, 4, 2, 0.0, 10);

  ASSERT_EQ(a.rows().size(), 3u);
  const Attribution::Cell& probe = a.rows().at({attr_phase::kProbe, 4, 2});
  EXPECT_EQ(probe.count, 4u);
  EXPECT_DOUBLE_EQ(probe.sim_s, 0.003);
  EXPECT_EQ(a.rows().at({attr_phase::kRank, 4, 2}).count, 10u);
}

TEST(Attribution, UntaggedWaitFallsBackToOther) {
  Attribution a;
  a.set_enabled(true);
  a.record_wait(nullptr, 2.5);
  a.record_wait(attr_wait::kProbeTransit, 1.0);
  ASSERT_EQ(a.waits().size(), 2u);
  EXPECT_DOUBLE_EQ(a.waits().at(attr_wait::kOther).sim_s, 2.5);
  EXPECT_EQ(a.waits().at(attr_wait::kProbeTransit).count, 1u);
}

TEST(Attribution, MergeIsKeywiseAdditive) {
  Attribution target, trial_a, trial_b;
  target.set_enabled(true);
  trial_a.set_enabled(true);
  trial_b.set_enabled(true);
  trial_a.record(attr_phase::kProbe, 1, 1, 0.5, 2);
  trial_a.record_wall(attr_phase::kProbe, 1, 0.1);
  trial_b.record(attr_phase::kProbe, 1, 1, 0.25);
  trial_b.record(attr_phase::kMigrate, 3, 2, 0.0);
  trial_b.record_wait(attr_wait::kArrival, 7.0);

  target.merge_from(trial_a);
  target.merge_from(trial_b);

  const Attribution::Cell& probe = target.rows().at({attr_phase::kProbe, 1, 1});
  EXPECT_EQ(probe.count, 3u);
  EXPECT_DOUBLE_EQ(probe.sim_s, 0.75);
  EXPECT_EQ(target.rows().count({attr_phase::kMigrate, 3, 2}), 1u);
  EXPECT_DOUBLE_EQ(target.waits().at(attr_wait::kArrival).sim_s, 7.0);
  EXPECT_EQ(target.host_rows().at({attr_phase::kProbe, 1}).count, 1u);
}

TEST(Attribution, MergeIntoDisabledTargetIsANoOp) {
  Attribution target, src;
  src.set_enabled(true);
  src.record(attr_phase::kProbe, 1, 1, 0.5);
  target.merge_from(src);
  EXPECT_EQ(target.row_count(), 0u);
}

TEST(Attribution, JsonlRoundTripsThroughAcptraceLoader) {
  Attribution a;
  a.set_enabled(true);
  a.record(attr_phase::kProbe, 2, 5, 0.125, 8);
  a.record(attr_phase::kFinalize, 0, -1, 1.5);
  a.record_wait(attr_wait::kProbeTransit, 40.0);
  a.record_wait(attr_wait::kProbeTransit, 2.0);
  a.record_wall(attr_phase::kProbe, 2, 0.25);

  std::ostringstream os;
  a.write_jsonl(os, "fig6", "abc123", 42, true);
  std::istringstream in(os.str());
  const tracecli::AttrDoc doc = tracecli::load_attribution(in);

  EXPECT_EQ(doc.schema, "acp-attr/1");
  EXPECT_EQ(doc.bench, "fig6");
  EXPECT_EQ(doc.git_sha, "abc123");
  EXPECT_EQ(doc.seed, 42u);
  EXPECT_TRUE(doc.quick);
  ASSERT_EQ(doc.rows.size(), 2u);
  // Rows come back in sorted key order: finalize < probe.
  EXPECT_EQ(doc.rows[0].phase, "finalize");
  EXPECT_EQ(doc.rows[0].fn, -1);
  EXPECT_EQ(doc.rows[1].phase, "probe");
  EXPECT_EQ(doc.rows[1].count, 8u);
  EXPECT_DOUBLE_EQ(doc.rows[1].sim_s, 0.125);
  ASSERT_EQ(doc.waits.size(), 1u);
  EXPECT_EQ(doc.waits[0].count, 2u);
  EXPECT_DOUBLE_EQ(doc.waits[0].sim_s, 42.0);
  ASSERT_EQ(doc.host.size(), 1u);
  EXPECT_DOUBLE_EQ(doc.host[0].wall_s, 0.25);
  EXPECT_EQ(doc.total_count, 9u);  // trailing attr_total row
  EXPECT_DOUBLE_EQ(doc.total_sim_s, 1.625);
}

TEST(Attribution, SaveRejectsUnwritablePath) {
  Attribution a;
  a.set_enabled(true);
  EXPECT_THROW(a.save("/nonexistent-dir/attr.jsonl", "b", "sha", 1, false), PreconditionError);
}

TEST(ProfScope, AttributionInertWithoutEnabledAttribution) {
  const ProfSlot inert;
  { const ProfScope null_scope(inert, nullptr, attr_phase::kProbe, 1); }
  Attribution disabled;
  { const ProfScope off_scope(inert, &disabled, attr_phase::kProbe, 1); }
  EXPECT_EQ(disabled.row_count(), 0u);

  Attribution on;
  on.set_enabled(true);
  { const ProfScope scope(inert, &on, attr_phase::kRank, 9); }
  const Attribution::HostCell& cell = on.host_rows().at({attr_phase::kRank, 9});
  EXPECT_EQ(cell.count, 1u);
  EXPECT_GE(cell.wall_s, 0.0);
}

TEST(ProfScope, OneClockFeedsProfilerAndAttribution) {
  // The profiler histogram and the attr_host row see the same elapsed times
  // in the same order, so counts and totals agree exactly — what
  // `acptrace reconcile` relies on.
  MetricsRegistry reg;
  const ProfSlot slot = Profiler(&reg).scope("test.scope");
  Attribution attr;
  attr.set_enabled(true);
  for (int i = 0; i < 3; ++i) {
    const ProfScope scope(slot, &attr, attr_phase::kFinalize, 4);
  }
  const Attribution::HostCell& cell = attr.host_rows().at({attr_phase::kFinalize, 4});
  EXPECT_EQ(cell.count, 3u);
  EXPECT_EQ(slot.wall->count(), 3u);
  EXPECT_EQ(cell.wall_s, slot.wall->sum());

  // Attribution off: the profiler side still records.
  Attribution off;
  { const ProfScope scope(slot, &off, attr_phase::kFinalize, 4); }
  EXPECT_EQ(off.row_count(), 0u);
  EXPECT_EQ(slot.wall->count(), 4u);
}

// ---- Engine queue-wait decomposition -------------------------------------------

TEST(EngineWaitAttribution, TaggedSchedulesDecomposeQueueWait) {
  sim::Engine engine;
  Attribution attr;
  attr.set_enabled(true);
  engine.set_attribution(&attr);

  engine.schedule_after(2.0, [] {}, attr_wait::kArrival);
  engine.schedule_after(5.0, [] {}, attr_wait::kArrival);
  engine.schedule_after(1.0, [] {});  // untagged → other
  engine.run_until(10.0);

  ASSERT_EQ(attr.waits().size(), 2u);
  const Attribution::Cell& arrival = attr.waits().at(attr_wait::kArrival);
  EXPECT_EQ(arrival.count, 2u);
  EXPECT_DOUBLE_EQ(arrival.sim_s, 7.0);
  EXPECT_DOUBLE_EQ(attr.waits().at(attr_wait::kOther).sim_s, 1.0);
}

TEST(EngineWaitAttribution, CancelledEventsChargeNoWait) {
  sim::Engine engine;
  Attribution attr;
  attr.set_enabled(true);
  engine.set_attribution(&attr);

  const sim::EventId id = engine.schedule_after(3.0, [] {}, attr_wait::kArrival);
  engine.cancel(id);
  engine.run_until(10.0);
  EXPECT_EQ(attr.waits().count(attr_wait::kArrival), 0u);
}

TEST(EngineWaitAttribution, DisabledAttributionCostsNothing) {
  sim::Engine engine;
  Attribution attr;  // disabled
  engine.set_attribution(&attr);
  engine.schedule_after(1.0, [] {}, attr_wait::kArrival);
  engine.run_until(2.0);
  EXPECT_EQ(attr.row_count(), 0u);
}

}  // namespace
}  // namespace acp::obs
