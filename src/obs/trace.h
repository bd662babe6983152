// Probe-lifecycle tracer — structured span events as JSONL.
//
// Every consequential step of a composition request emits one event line:
//
//   run_started           one run of an experiment begins (run index, label)
//   request_accepted      deputy picked, probing starts (or a baseline runs)
//   probe_spawned         probe created (parent=0 for a path's root probe;
//                         parent=<probe> when a fork spawned it; carries the
//                         component the hop is probing for when known)
//   probe_hop             probe passed conformance at a node and evaluated
//                         next-hop candidates (counts per reject reason,
//                         children spawned)
//   probe_retry           deputy retransmitted after per-path loss
//   probe_rejected        probe died at a node, reason ∈ {qos_violation,
//                         node_reservation, link_reservation,
//                         component_moved, no_children, timeout}; a
//                         component_moved death names the moved component
//   probe_returned        probe completed its path back to the deputy
//   probe_timeout         deadline fired with probes still outstanding
//   transients_cancelled  the request's transient allocations were dropped
//                         (composition failed / losers after commit)
//   transients_reclaimed  expiry sweep reclaimed leaked transients
//   composition_confirmed winner committed (session id, φ, setup time)
//   composition_failed    no qualified composition
//   component_migrated    migration manager moved a component (fn, from, to)
//   fault_injected        chaos harness killed a node / dropped a link
//   fault_recovered       the injected fault healed
//   deputy_reelected      a session's deputy failed over
//   session_lost          a running session lost a node it depended on
//   session_repaired      repair relocated the failed component (names the
//                         session, fn, failed node/component, replacement)
//
// Events carry sim-time timestamps (`t`), the `run` index, and
// request / probe / parent-probe ids with hop depth — every hop, retry,
// migration, and repair links back to the event that spawned it, so a trace
// re-assembles into one causal span tree per request offline (`acptrace
// explain` / `acptrace export`, or jq — each line is one flat JSON object).
//
// The tracer is free when disabled: `event()` returns an inert builder and
// every field call is a no-op, so instrumentation can stay unconditionally
// in place on hot paths.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>

namespace acp::obs {

class Tracer;

/// Builder for one trace event; writes the JSONL line on destruction (or
/// does nothing when the tracer is disabled).
class TraceEvent {
 public:
  TraceEvent(TraceEvent&& o) noexcept : tracer_(o.tracer_), line_(std::move(o.line_)) {
    o.tracer_ = nullptr;
  }
  TraceEvent(const TraceEvent&) = delete;
  TraceEvent& operator=(const TraceEvent&) = delete;
  TraceEvent& operator=(TraceEvent&&) = delete;
  ~TraceEvent();

  TraceEvent& field(const char* key, const char* value);
  TraceEvent& field(const char* key, const std::string& value);
  TraceEvent& field(const char* key, double value);
  TraceEvent& field(const char* key, std::uint64_t value);
  TraceEvent& field(const char* key, std::int64_t value);
  TraceEvent& field(const char* key, int value) {
    return field(key, static_cast<std::int64_t>(value));
  }
  TraceEvent& field(const char* key, unsigned value) {
    return field(key, static_cast<std::uint64_t>(value));
  }
  TraceEvent& field(const char* key, bool value);

 private:
  friend class Tracer;
  TraceEvent(Tracer* tracer, const char* type);

  Tracer* tracer_;  ///< nullptr ⇒ inert
  std::string line_;
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// A file-owned sink still open at destruction means close() never ran —
  /// an abnormal exit path. The destructor appends a `trace_truncated`
  /// marker event and flushes, so the file stays parseable line-by-line and
  /// readers can tell it is cut short. Caller-owned set_stream() sinks are
  /// left untouched. open() additionally registers an abnormal-exit hook
  /// (obs/guard.h) covering std::terminate, where destructors never run.
  ~Tracer();

  /// Opens `path` as the JSONL sink (truncating); throws on I/O failure.
  void open(const std::string& path);

  /// Uses a caller-owned stream as the sink (tests). Pass nullptr to disable.
  void set_stream(std::ostream* os);

  /// Flushes and detaches the sink; the tracer becomes disabled.
  void close();

  /// Flushes the file-owned sink (no-op for caller-owned streams).
  void flush();

  bool enabled() const { return out_ != nullptr || row_sink_ != nullptr; }

  /// Diverts every subsequent event line (no trailing newline) into `sink`
  /// instead of the stream sink. The sharded engine uses this to capture
  /// rows with deterministic ordering keys while shards execute out of
  /// global timestamp order, merge-sorting them back before append_raw.
  /// A tracer with only a row sink counts as enabled. Pass nullptr to
  /// restore direct stream writes.
  void set_row_sink(std::function<void(std::string&&)> sink) { row_sink_ = std::move(sink); }

  /// Sim-clock used to stamp `t` on every event (seconds). Unset ⇒ t=0.
  void set_clock(std::function<double()> clock) { clock_ = std::move(clock); }

  /// Stamps every subsequent event with `"run":index` and emits a
  /// `run_started` marker carrying `label` (e.g. the algorithm name).
  /// Lets several experiment runs share one trace file unambiguously.
  void begin_run(const std::string& label);

  /// Starts run numbering at `base`: the next begin_run() stamps base + 1.
  /// The parallel trial runner gives each trial's private tracer the count
  /// of obs-enabled trials submitted before it, so the merged trace carries
  /// the same run indices the serial shared-tracer path would have written
  /// — for any worker count.
  void set_run_base(std::uint64_t base) { run_ = base; }

  /// Appends pre-rendered, newline-terminated JSONL lines verbatim (a
  /// completed trial's buffered trace) and counts them into
  /// events_emitted(). No-op when disabled or `chunk` is empty.
  void append_raw(const std::string& chunk);

  /// Starts an event of `type`; fields are added fluently and the line is
  /// written when the returned builder goes out of scope.
  TraceEvent event(const char* type);

  /// Fresh probe id, unique within this tracer's lifetime (never 0; 0 means
  /// "no parent").
  std::uint64_t next_probe_id() { return ++last_probe_id_; }

  std::uint64_t events_emitted() const { return events_; }
  std::uint64_t run_index() const { return run_; }

 private:
  friend class TraceEvent;
  void write_line(const std::string& line);
  /// Emits the `trace_truncated` marker + flush on a still-open file sink,
  /// then cancels the abnormal-exit hook. Idempotent.
  void emergency_flush(const char* why);

  std::unique_ptr<std::ofstream> file_;
  std::ostream* out_ = nullptr;
  std::function<void(std::string&&)> row_sink_;
  std::function<double()> clock_;
  std::uint64_t events_ = 0;
  std::uint64_t run_ = 0;
  std::uint64_t last_probe_id_ = 0;
  std::uint64_t guard_token_ = 0;  ///< abnormal-exit hook; 0 = none
};

/// One parsed flat JSONL event: string fields and numeric fields separated.
/// Sufficient for every event this tracer writes (no nesting).
struct ParsedTraceEvent {
  std::map<std::string, std::string> strings;
  std::map<std::string, double> numbers;

  const std::string& str(const std::string& key) const;
  double num(const std::string& key) const;  ///< 0.0 when absent
  bool has(const std::string& key) const {
    return strings.count(key) > 0 || numbers.count(key) > 0;
  }
};

/// Parses one trace line (a flat JSON object) with obs::parse_json and
/// flattens it: strings stay strings, numbers and bools (1/0) become
/// numbers. Throws PreconditionError on malformed input and on nested or
/// null values — used by tests (round-trip) and offline analysis.
ParsedTraceEvent parse_trace_line(const std::string& line);

}  // namespace acp::obs
