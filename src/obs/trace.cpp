#include "obs/trace.h"

#include <cstdio>

#include "obs/guard.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "util/error.h"

namespace acp::obs {

// ---- TraceEvent -----------------------------------------------------------

TraceEvent::TraceEvent(Tracer* tracer, const char* type) : tracer_(tracer) {
  if (!tracer_) return;
  line_ = "{\"t\": ";
  line_ += json_number(tracer_->clock_ ? tracer_->clock_() : 0.0);
  line_ += ", \"type\": \"";
  line_ += json_escape(type);
  line_ += '"';
  if (tracer_->run_ > 0) {
    line_ += ", \"run\": ";
    line_ += std::to_string(tracer_->run_);
  }
}

TraceEvent::~TraceEvent() {
  if (!tracer_) return;
  line_ += '}';
  tracer_->write_line(line_);
}

TraceEvent& TraceEvent::field(const char* key, const char* value) {
  if (!tracer_) return *this;
  line_ += ", \"";
  line_ += key;
  line_ += "\": \"";
  line_ += json_escape(value);
  line_ += '"';
  return *this;
}

TraceEvent& TraceEvent::field(const char* key, const std::string& value) {
  return field(key, value.c_str());
}

TraceEvent& TraceEvent::field(const char* key, double value) {
  if (!tracer_) return *this;
  line_ += ", \"";
  line_ += key;
  line_ += "\": ";
  line_ += json_number(value);
  return *this;
}

TraceEvent& TraceEvent::field(const char* key, std::uint64_t value) {
  if (!tracer_) return *this;
  line_ += ", \"";
  line_ += key;
  line_ += "\": ";
  line_ += std::to_string(value);
  return *this;
}

TraceEvent& TraceEvent::field(const char* key, std::int64_t value) {
  if (!tracer_) return *this;
  line_ += ", \"";
  line_ += key;
  line_ += "\": ";
  line_ += std::to_string(value);
  return *this;
}

TraceEvent& TraceEvent::field(const char* key, bool value) {
  if (!tracer_) return *this;
  line_ += ", \"";
  line_ += key;
  line_ += "\": ";
  line_ += value ? "true" : "false";
  return *this;
}

// ---- Tracer ---------------------------------------------------------------

Tracer::~Tracer() { emergency_flush("tracer_destroyed_without_close"); }

void Tracer::open(const std::string& path) {
  auto f = std::make_unique<std::ofstream>(path, std::ios::trunc);
  if (!*f) throw PreconditionError("cannot open trace output file: " + path);
  emergency_flush("tracer_reopened");  // a previous file-owned sink, if any
  file_ = std::move(f);
  out_ = file_.get();
  guard_token_ = on_abnormal_exit([this] { emergency_flush("terminate"); });
}

void Tracer::set_stream(std::ostream* os) {
  emergency_flush("tracer_redirected");
  file_.reset();
  out_ = os;
}

void Tracer::close() {
  if (guard_token_ != 0) {
    cancel_abnormal_exit(guard_token_);
    guard_token_ = 0;
  }
  if (file_) file_->flush();
  file_.reset();
  out_ = nullptr;
}

void Tracer::flush() {
  if (file_) file_->flush();
}

void Tracer::emergency_flush(const char* why) {
  if (guard_token_ != 0) {
    cancel_abnormal_exit(guard_token_);
    guard_token_ = 0;
  }
  if (!file_) return;
  // The marker is a normal event line, so `python -c "json.loads(line)"`
  // style consumers keep working and acptrace can report the truncation.
  event("trace_truncated").field("why", why).field("events_before", events_);
  file_->flush();
  file_.reset();
  out_ = nullptr;
}

void Tracer::begin_run(const std::string& label) {
  ++run_;
  event("run_started").field("label", label);
}

TraceEvent Tracer::event(const char* type) { return TraceEvent(enabled() ? this : nullptr, type); }

void Tracer::append_raw(const std::string& chunk) {
  if (!out_ || chunk.empty()) return;
  *out_ << chunk;
  for (const char c : chunk) {
    if (c == '\n') ++events_;
  }
}

void Tracer::write_line(const std::string& line) {
  if (row_sink_) {
    std::string copy = line;
    row_sink_(std::move(copy));
    ++events_;
    return;
  }
  if (!out_) return;
  *out_ << line << '\n';
  ++events_;
}

// ---- Flat JSON parsing ----------------------------------------------------

const std::string& ParsedTraceEvent::str(const std::string& key) const {
  static const std::string empty;
  const auto it = strings.find(key);
  return it == strings.end() ? empty : it->second;
}

double ParsedTraceEvent::num(const std::string& key) const {
  const auto it = numbers.find(key);
  return it == numbers.end() ? 0.0 : it->second;
}

ParsedTraceEvent parse_trace_line(const std::string& line) {
  const JsonValue doc = parse_json(line);
  if (doc.kind != JsonValue::Kind::kObject) throw PreconditionError("trace line: not an object");
  ParsedTraceEvent ev;
  for (const auto& [key, v] : doc.object) {
    switch (v.kind) {
      case JsonValue::Kind::kString: ev.strings[key] = v.string; break;
      case JsonValue::Kind::kNumber: ev.numbers[key] = v.number; break;
      case JsonValue::Kind::kBool: ev.numbers[key] = v.boolean ? 1.0 : 0.0; break;
      default: throw PreconditionError("trace line: field \"" + key + "\" is not flat");
    }
  }
  return ev;
}

}  // namespace acp::obs
