// The one JSON reader (obs/json.h) and its flattening for JSONL lines
// (obs::parse_trace_line): strict rejection of malformed numbers, escapes
// and trailing text — through both entry points and through the fault-plan
// loader, which must name the offending line — plus the json_escape round
// trip every writer relies on.
#include "obs/json.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"

namespace acp::obs {
namespace {

/// Inputs the old readers accepted, or let a non-Precondition exception
/// escape from.
const char* const kMalformed[] = {
    R"({"at": -})",                 // a lone sign
    R"({"at": 1e999})",             // overflows to infinity
    R"({"at": 1.2.3})",             // a number token with leftovers
    R"({"at": 1e})",                // a dangling exponent
    R"({"k": "\uZZZZ"})",           // bad \u hex
    R"({"kind": "node_crash"} x)",  // text after the document
};

TEST(JsonReader, MalformedInputIsRejectedByBothEntryPoints) {
  for (const char* text : kMalformed) {
    SCOPED_TRACE(text);
    EXPECT_THROW(parse_json(text), PreconditionError);
    EXPECT_THROW(parse_trace_line(text), PreconditionError);
  }
}

TEST(JsonReader, FaultPlanNamesTheLineOfEveryMalformedInput) {
  for (const char* text : kMalformed) {
    SCOPED_TRACE(text);
    std::istringstream in(std::string("{\"kind\": \"node_crash\", \"at\": 1}\n\n") + text + "\n");
    try {
      fault::FaultPlan::parse_jsonl(in);
      ADD_FAILURE() << "accepted";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("fault plan line 3"), std::string::npos) << e.what();
    }
  }
}

TEST(JsonReader, FaultPlanRejectsOutOfRangeCountsAndTargets) {
  for (const char* text : {R"({"kind": "transient_leak", "at": 1, "count": 2.5})",
                           R"({"kind": "transient_leak", "at": 1, "count": -1})",
                           R"({"kind": "node_crash", "at": 1, "target": -2})",
                           R"({"kind": "node_crash", "at": 1, "target": 1e300})"}) {
    SCOPED_TRACE(text);
    std::istringstream in(text);
    EXPECT_THROW(fault::FaultPlan::parse_jsonl(in), PreconditionError);
  }
}

TEST(JsonReader, AcceptsTheGrammarTheWritersUse) {
  const JsonValue doc = parse_json(
      " {\"a\": -0, \"b\": 0.5, \"c\": 1e-7, \"d\": 2.5E+3, \"e\": 1e308, \"f\": [], \"g\": {},"
      " \"h\": null, \"i\": \"\\u00e9\\u20ac\"}\r\n");
  EXPECT_EQ(doc.num_or("a", 1.0), 0.0);
  EXPECT_EQ(doc.num_or("b", 0.0), 0.5);
  EXPECT_EQ(doc.num_or("c", 0.0), 1e-7);
  EXPECT_EQ(doc.num_or("d", 0.0), 2500.0);
  EXPECT_EQ(doc.num_or("e", 0.0), 1e308);
  EXPECT_EQ(doc.find("f")->kind, JsonValue::Kind::kArray);
  EXPECT_EQ(doc.find("g")->kind, JsonValue::Kind::kObject);
  EXPECT_EQ(doc.find("h")->kind, JsonValue::Kind::kNull);
  // \u00XX is one byte (what json_escape writes); above 0xFF is UTF-8.
  EXPECT_EQ(doc.str_or("i", ""), "\xe9\xe2\x82\xac");
}

TEST(JsonReader, RejectsNonJsonNumberSpellings) {
  for (const char* text : {"[+1]", "[01]", "[.5]", "[1.]", "[0x10]", "[NaN]", "[-inf]"}) {
    SCOPED_TRACE(text);
    EXPECT_THROW(parse_json(text), PreconditionError);
  }
}

TEST(JsonReader, RejectsRunawayNesting) {
  EXPECT_THROW(parse_json(std::string(100000, '[')), PreconditionError);
  EXPECT_NO_THROW(parse_json(std::string(32, '[') + std::string(32, ']')));
}

TEST(JsonReader, TraceLineFlattensScalarsAndRejectsNesting) {
  const ParsedTraceEvent ev = parse_trace_line(R"({"s": "x", "n": 2, "b": true, "s": "y"})");
  EXPECT_EQ(ev.str("s"), "y");  // a repeated key: the last one wins
  EXPECT_EQ(ev.num("n"), 2.0);
  EXPECT_EQ(ev.num("b"), 1.0);
  EXPECT_THROW(parse_trace_line(R"({"o": {}})"), PreconditionError);
  EXPECT_THROW(parse_trace_line(R"({"a": []})"), PreconditionError);
  EXPECT_THROW(parse_trace_line(R"({"z": null})"), PreconditionError);
  EXPECT_THROW(parse_trace_line("[1]"), PreconditionError);
}

TEST(JsonReader, EveryByteRoundTripsThroughJsonEscape) {
  std::string all;
  for (int c = 1; c < 256; ++c) all += static_cast<char>(c);
  const std::string line = "{\"v\": \"" + json_escape(all) + "\"}";
  EXPECT_EQ(parse_json(line).str_or("v", ""), all);
  EXPECT_EQ(parse_trace_line(line).str("v"), all);
}

}  // namespace
}  // namespace acp::obs
