// Deterministic seeded-mutation fuzzing of every artifact reader: fault
// plans, trace lines, BENCH documents, timelines and attribution files, and
// the per-request trace reconstruction behind validate, analyze and export.
//
// Each seed input — the tools/acptrace/testdata fixtures plus inline fault
// plan, timeline and out-of-range integer samples — is mutated by flipping, inserting and
// truncating bytes, then fed to the reader that owns its format. A reader
// may accept a mutant or reject it with PreconditionError; anything else
// (a crash, a sanitizer report, any other exception) fails the test. The
// seed and iteration count are fixed, so every run replays the same
// mutants; the ASan/UBSan CI job runs this binary like any other ctest.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "acptrace/acptrace_lib.h"
#include "fault/fault.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/rng.h"

namespace acp {
namespace {

constexpr std::uint64_t kSeed = 0x5eed'f022;
constexpr int kMutantsPerSeed = 2000;

std::string read_fixture(const std::string& name) {
  std::ifstream in(std::string(ACP_TESTDATA_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << "missing fixture " << name;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// One to four edits: flip a bit, insert a byte (biased towards JSON
/// punctuation and digits, which reach deeper into the grammar), or
/// truncate.
std::string mutate(std::string s, util::Rng& rng) {
  static const std::string kInteresting = "{}[]\":,.-+eE0123456789\\u \n";
  const std::uint64_t edits = 1 + rng.below(4);
  for (std::uint64_t e = 0; e < edits; ++e) {
    const std::uint64_t op = rng.below(3);
    if (op == 0 && !s.empty()) {
      s[rng.below(s.size())] ^= static_cast<char>(1u << rng.below(8));
    } else if (op == 1) {
      const char c = rng.below(2) == 0 ? kInteresting[rng.below(kInteresting.size())]
                                       : static_cast<char>(rng.below(256));
      s.insert(s.begin() + static_cast<std::ptrdiff_t>(rng.below(s.size() + 1)), c);
    } else if (!s.empty()) {
      s.resize(rng.below(s.size()));
    }
  }
  return s;
}

/// Feeds the seed and its mutants to `reader`; returns how many mutants
/// were rejected (for a sanity check that mutation bites).
std::size_t fuzz(const std::string& seed_input,
                 const std::function<void(const std::string&)>& reader, util::Rng& rng) {
  std::size_t rejected = 0;
  for (int i = 0; i <= kMutantsPerSeed; ++i) {
    const std::string input = i == 0 ? seed_input : mutate(seed_input, rng);
    try {
      reader(input);
    } catch (const PreconditionError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "non-precondition exception " << e.what() << " on input:\n" << input;
    }
  }
  return rejected;
}

void read_fault_plan(const std::string& text) {
  std::istringstream in(text);
  fault::FaultPlan::parse_jsonl(in);
}

void read_trace(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) obs::parse_trace_line(line);
  }
}

/// A whole trace through the per-request reconstruction (validate and
/// analyze) and the Chrome-trace export with its run labels.
void reconstruct_trace(const std::string& text) {
  std::istringstream in(text);
  const tracecli::TraceData trace = tracecli::load_trace(in);
  tracecli::validate(trace);
  tracecli::analyze(trace);
  std::ostringstream sink;
  tracecli::export_chrome_trace(sink, trace);
}

void read_bench(const std::string& text) { tracecli::decode_bench(obs::parse_json(text)); }

void read_timeline(const std::string& text) {
  std::istringstream in(text);
  tracecli::load_timeline(in);
}

void read_attribution(const std::string& text) {
  std::istringstream in(text);
  tracecli::load_attribution(in);
}

const char* const kFaultPlan =
    "{\"kind\": \"rates\", \"node_crash_rate_per_min\": 2.5, \"probe_loss_prob\": 0.1, "
    "\"stop\": 300}\n"
    "{\"kind\": \"node_crash\", \"at\": 60, \"target\": 7, \"duration\": 30}\n"
    "{\"kind\": \"link_degrade\", \"at\": 90, \"magnitude\": 0.25}\n"
    "{\"kind\": \"transient_leak\", \"at\": 120, \"count\": 5, \"magnitude\": 2}\n";

const char* const kTimeline =
    "{\"schema\": \"acp-timeline/1\", \"type\": \"header\", \"bench\": \"fig5\", "
    "\"git_sha\": \"abc\", \"seed\": 42, \"quick\": true}\n"
    "{\"type\": \"run_start\", \"run\": 1, \"label\": \"ACP\"}\n"
    "{\"type\": \"sample\", \"run\": 1, \"t\": 30, \"events\": 3000, \"events_per_s\": 100, "
    "\"queue_depth\": 5, \"live_probes\": 1, \"active_sessions\": 2, \"requests\": 3, "
    "\"successes\": 2, \"success_rate\": 0.666666666667, \"mean_phi\": 0.5, \"allocs\": 0}\n"
    "{\"type\": \"host_sample\", \"run\": 1, \"t\": 30, \"wall_s\": 0.1, "
    "\"peak_rss_bytes\": 1000000}\n";

/// Integer fields a loader once cast from double unchecked: negative,
/// fractional, past 2^53 or past every integer type. Each line is one
/// artifact, for the reader paired with it.
const char* const kBenchOutOfRange[] = {
    R"({"schema": "acp-bench/2", "jobs": -1})",
    R"({"schema": "acp-bench/2", "headline": {"runs": 2.5}})",
    R"({"schema": "acp-bench/2", "headline": {"peak_rss_bytes": 1e300}})",
    R"({"schema": "acp-bench/2", "scopes": [{"scope": "s", "count": -3}]})",
    R"({"schema": "acp-bench/2", "counters": {"acp.x": 9007199254740994}})",
};
const char* const kTimelineOutOfRange[] = {
    R"({"schema": "acp-timeline/1", "type": "header", "seed": -1})",
    "{\"schema\": \"acp-timeline/1\", \"type\": \"header\", \"seed\": 1}\n"
    "{\"type\": \"run_start\", \"run\": 1e300, \"label\": \"ACP\"}",
};
const char* const kAttributionOutOfRange[] = {
    R"({"schema": "acp-attr/1", "type": "header", "seed": -1})",
    "{\"schema\": \"acp-attr/1\", \"type\": \"header\", \"seed\": 1}\n"
    "{\"type\": \"attr\", \"phase\": \"probe\", \"count\": 1e300}",
    "{\"schema\": \"acp-attr/1\", \"type\": \"header\", \"seed\": 1}\n"
    "{\"type\": \"attr\", \"phase\": \"probe\", \"node\": -2}",
    "{\"schema\": \"acp-attr/1\", \"type\": \"header\", \"seed\": 1}\n"
    "{\"type\": \"attr\", \"phase\": \"probe\", \"fn\": 0.5}",
};

/// A request and one of its probes: the prefix the probe-level inputs
/// below extend.
const std::string kAccepted =
    R"({"t": 0, "type": "request_accepted", "run": 1, "req": 1, "deputy": 5, "paths": 1})" "\n";
const std::string kSpawned =
    R"({"t": 0, "type": "probe_spawned", "run": 1, "req": 1, "probe": 1, "parent": 0, )"
    R"("path": 0, "hop": 0, "node": 5})" "\n";

/// Trace ids and counts the reconstruction once cast unchecked, each paired
/// with the field its rejection names.
const std::vector<std::pair<std::string, std::string>> kTraceOutOfRange = {
    {R"({"t": 0, "type": "request_accepted", "run": 1, "req": -1, "deputy": 5, "paths": 1})",
     "req"},
    {kAccepted + R"({"t": 0, "type": "probe_spawned", "run": 1, "req": 1, "probe": 1e300})",
     "probe"},
    {R"({"t": 0, "type": "run_started", "run": -2, "label": "ACP"})", "run"},
    {R"({"t": 0, "type": "request_accepted", "run": 1, "req": 1, "deputy": 0.5})", "deputy"},
    {R"({"t": 0, "type": "request_accepted", "run": 1, "req": 1, "paths": 1e19})", "paths"},
    {kAccepted + R"({"t": 0, "type": "probe_spawned", "run": 1, "req": 1, "probe": 1, )"
                 R"("parent": -1})",
     "parent"},
    {kAccepted + R"({"t": 0, "type": "probe_spawned", "run": 1, "req": 1, "probe": 1, "node": -5})",
     "node"},
    {kAccepted + R"({"t": 0, "type": "probe_spawned", "run": 1, "req": 1, "probe": 1, "hop": 1.5})",
     "hop"},
    {kAccepted + R"({"t": 0, "type": "probe_spawned", "run": 1, "req": 1, "probe": 1, )"
                 R"("path": 1e300})",
     "path"},
    {kAccepted + R"({"t": 0, "type": "probe_spawned", "run": 1, "req": 1, "probe": 1, )"
                 R"("component": -1})",
     "component"},
    {kAccepted + kSpawned +
         R"({"t": 1, "type": "probe_rejected", "run": 1, "req": 1, "probe": 1, )"
         R"("component": 1e300})",
     "component"},
    {kAccepted + R"({"t": 1, "type": "probe_timeout", "run": 1, "req": 1, "outstanding": -3})",
     "outstanding"},
    {kAccepted + R"({"t": 1, "type": "composition_confirmed", "run": 1, "req": 1, )"
                 R"("session": -1, "phi": 1})",
     "session"},
};

/// Rejects `input` with a PreconditionError naming `field`.
void expect_rejected(const std::string& input, void (*reader)(const std::string&),
                     const std::string& field) {
  SCOPED_TRACE(input);
  try {
    reader(input);
    ADD_FAILURE() << "accepted";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("\"" + field + "\""), std::string::npos) << e.what();
  }
}

TEST(JsonFuzz, LoadersRejectOutOfRangeIntegers) {
  const char* const bench_fields[] = {"jobs", "runs", "peak_rss_bytes", "count",
                                      "counters.acp.x"};
  for (std::size_t i = 0; i < std::size(kBenchOutOfRange); ++i) {
    expect_rejected(kBenchOutOfRange[i], read_bench, bench_fields[i]);
  }
  expect_rejected(kTimelineOutOfRange[0], read_timeline, "seed");
  expect_rejected(kTimelineOutOfRange[1], read_timeline, "run");
  const char* const attr_fields[] = {"seed", "count", "node", "fn"};
  for (std::size_t i = 0; i < std::size(kAttributionOutOfRange); ++i) {
    expect_rejected(kAttributionOutOfRange[i], read_attribution, attr_fields[i]);
  }
  // In range, including the -1 "no node / no function" of attribution rows.
  EXPECT_NO_THROW(read_bench(R"({"schema": "acp-bench/2", "jobs": 4, "counters": {"a": 0}})"));
  EXPECT_NO_THROW(read_attribution(
      "{\"schema\": \"acp-attr/1\", \"type\": \"header\", \"seed\": 9007199254740992}\n"
      "{\"type\": \"attr\", \"phase\": \"probe\", \"node\": -1, \"fn\": -1, \"count\": 3}"));
}

TEST(JsonFuzz, ReconstructionRejectsOutOfRangeIds) {
  for (const auto& [input, field] : kTraceOutOfRange) {
    expect_rejected(input, reconstruct_trace, field);
  }
  EXPECT_NO_THROW(reconstruct_trace(read_fixture("golden_trace.jsonl")));
}

TEST(JsonFuzz, ReadersAcceptOrRejectCleanly) {
  util::Rng rng(kSeed);
  struct Case {
    std::string input;
    void (*reader)(const std::string&);
  };
  std::vector<Case> cases = {
      {kFaultPlan, read_fault_plan},
      {kTimeline, read_timeline},
      {kTimeline, read_trace},
      {read_fixture("golden_trace.jsonl"), read_trace},
      {read_fixture("failed_trace.jsonl"), read_trace},
      {read_fixture("orphan_trace.jsonl"), read_trace},
      {read_fixture("double_return_trace.jsonl"), read_trace},
      {read_fixture("bench_base.json"), read_bench},
      {read_fixture("bench_current_ok.json"), read_bench},
      {read_fixture("bench_slow.json"), read_bench},
      {read_fixture("attr_golden.jsonl"), read_attribution},
      {read_fixture("golden_trace.jsonl"), reconstruct_trace},
      {read_fixture("failed_trace.jsonl"), reconstruct_trace},
      {read_fixture("orphan_trace.jsonl"), reconstruct_trace},
      {read_fixture("double_return_trace.jsonl"), reconstruct_trace},
  };
  for (const char* text : kBenchOutOfRange) cases.push_back({text, read_bench});
  for (const char* text : kTimelineOutOfRange) cases.push_back({text, read_timeline});
  for (const char* text : kAttributionOutOfRange) cases.push_back({text, read_attribution});
  for (const auto& c : kTraceOutOfRange) cases.push_back({c.first, reconstruct_trace});
  std::size_t rejected = 0;
  for (const Case& c : cases) rejected += fuzz(c.input, c.reader, rng);
  // Mutation must actually reach the error paths.
  EXPECT_GT(rejected, cases.size() * kMutantsPerSeed / 4);
}

}  // namespace
}  // namespace acp
