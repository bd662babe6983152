// The one JSON reader — every artifact this repo reads back goes through it:
// BENCH_*.json documents and attribution rows (tools/acptrace), and every
// flat JSONL line — traces, timelines, fault plans — via parse_trace_line
// (obs/trace.h), which flattens the object this reader returns.
//
// Strict by design, because a silently half-read artifact is worse than a
// rejected one: a number token must be consumed whole and be finite, only
// whitespace may follow the document, `\u` escapes need four hex digits,
// and every failure is a PreconditionError naming the byte offset. `\u00XX`
// (what json_escape writes for control characters) decodes to its byte;
// higher code points decode to UTF-8.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace acp::obs {

/// Recursive JSON value. Small and allocation-happy — the documents read
/// here are a few KB per line or file; clarity beats speed.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;  // insertion order

  /// Object member lookup (first match); nullptr when absent or not an
  /// object.
  const JsonValue* find(const std::string& key) const;
  /// Convenience accessors returning a fallback when absent/mistyped.
  double num_or(const std::string& key, double fallback) const;
  std::string str_or(const std::string& key, const std::string& fallback) const;
};

/// Parses one complete JSON document. Throws PreconditionError on any
/// malformed input, including trailing non-space text.
JsonValue parse_json(const std::string& text);

}  // namespace acp::obs
