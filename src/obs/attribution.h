// Cost attribution — where does sim time (and host time) go, per overlay
// node, per function, per protocol phase?
//
// BENCH scopes and timelines say *that* the run spends its time in
// probing.process_probe; this layer says *where in the overlay* and *on
// whose behalf*. Three row families, written as JSONL at end of run
// (--attribution-out):
//
//   attr        deterministic sim-cost rows keyed (phase, node, fn):
//               count of occurrences plus the modeled sim seconds charged
//               to that (node, function) pair in that phase. Pure functions
//               of the simulation — byte-identical for any --jobs value.
//   attr_wait   deterministic event-queue wait decomposition keyed by the
//               scheduling tag (sim::Engine::schedule_* `tag` argument):
//               how many events fired under that tag and the total sim
//               seconds they sat in the queue (fire time − enqueue time).
//               Untagged events aggregate under "other".
//   attr_host   host wall-clock rows keyed (phase, node) — the real time
//               the process spent in that phase on behalf of that node.
//               Host-observable, so EXEMPT from identity gates (mirrors
//               the timeline sample / host_sample split).
//
// Phase semantics (who records what):
//   probe     one row increment per probe hop processed at a node;
//             sim_s = the modeled per-hop processing time; fn = the
//             function of the component hosted at the node (-1 at the
//             deputy's level-0 hop).
//   rank      candidate evaluation at a node; count = candidates
//             evaluated, sim_s = 0 (ranking is folded into the hop's
//             processing delay in the sim model).
//   finalize  one row per finalized request at its deputy; sim_s = the
//             request's end-to-end setup latency (the cost the deputy's
//             coordination inflicted on the requester).
//   migrate   one row per component move, charged to the source node;
//             fn = the moved component's function.
//   repair    one row per repaired placement, charged to the replacement
//             host; fn = the rebound function.
//
// Aggregation is additive over sorted maps, so ObsContext merges in
// submission order reproduce the serial accumulation exactly — the basis
// of the CI jobs-invariance gate on attribution rows.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>

namespace acp::obs {

inline constexpr const char* kAttrSchema = "acp-attr/1";

/// Protocol phases an attribution row can charge cost to.
namespace attr_phase {
inline constexpr const char* kProbe = "probe";
inline constexpr const char* kRank = "rank";
inline constexpr const char* kFinalize = "finalize";
inline constexpr const char* kMigrate = "migrate";
inline constexpr const char* kRepair = "repair";
}  // namespace attr_phase

/// Well-known scheduling tags for the event-queue wait decomposition
/// (sim::Engine::schedule_* `tag`). Tags must be string literals (the
/// engine stores the pointer, not a copy). Untagged events report as
/// kOther.
namespace attr_wait {
inline constexpr const char* kProbeTransit = "probe_transit";
inline constexpr const char* kRetryBackoff = "retry_backoff";
inline constexpr const char* kProbeTimeout = "probe_timeout";
inline constexpr const char* kMigrationTick = "migration_tick";
inline constexpr const char* kRepairDetect = "repair_detect";
inline constexpr const char* kStateTick = "state_tick";
inline constexpr const char* kArrival = "arrival";
inline constexpr const char* kSessionEnd = "session_end";
inline constexpr const char* kSuccessSample = "success_sample";
inline constexpr const char* kTimelineSample = "timeline_sample";
inline constexpr const char* kOther = "other";
}  // namespace attr_wait

/// In-memory cost aggregator. Free when disabled: every record_* call is a
/// single branch, and the engine skips its wait bookkeeping entirely.
/// Enable once before the run (set_enabled mirrors --attribution-out).
class Attribution {
 public:
  struct Key {
    std::string phase;
    std::int64_t node = -1;  ///< overlay node id; -1 = not node-specific
    std::int64_t fn = -1;    ///< function id; -1 = n/a
    bool operator<(const Key& o) const {
      if (phase != o.phase) return phase < o.phase;
      if (node != o.node) return node < o.node;
      return fn < o.fn;
    }
  };
  struct Cell {
    std::uint64_t count = 0;
    double sim_s = 0.0;
  };
  struct HostKey {
    std::string phase;
    std::int64_t node = -1;
    bool operator<(const HostKey& o) const {
      if (phase != o.phase) return phase < o.phase;
      return node < o.node;
    }
  };
  struct HostCell {
    std::uint64_t count = 0;
    double wall_s = 0.0;
  };

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// One deterministic cost increment for (phase, node, fn).
  void record(const char* phase, std::int64_t node, std::int64_t fn, double sim_s,
              std::uint64_t count = 1);

  /// One fired event's queue wait under `kind` (a scheduling tag).
  void record_wait(const char* kind, double sim_s);

  /// One host wall-clock increment for (phase, node). Rows land in the
  /// identity-exempt attr_host family. Fed by obs::ProfScope (obs/profile.h)
  /// at the profiler scope's call site.
  void record_wall(const char* phase, std::int64_t node, double wall_s);

  /// Additive merge (ObsContext submission-order drain). Sorted-map keys +
  /// per-key addition make the result independent of worker interleaving.
  void merge_from(const Attribution& src);

  /// Deterministic rows only (attr + attr_wait), one JSONL line each in
  /// sorted key order — what the jobs-invariance gate compares.
  void write_rows(std::ostream& os) const;

  /// Host rows (attr_host), sorted.
  void write_host_rows(std::ostream& os) const;

  /// Full artifact: header line (schema, bench identity), deterministic
  /// rows, host rows, and a trailing attr_total summary row.
  void write_jsonl(std::ostream& os, const std::string& bench, const std::string& git_sha,
                   std::uint64_t seed, bool quick) const;
  void save(const std::string& path, const std::string& bench, const std::string& git_sha,
            std::uint64_t seed, bool quick) const;

  std::uint64_t row_count() const {
    return static_cast<std::uint64_t>(rows_.size() + waits_.size() + host_.size());
  }

  const std::map<Key, Cell>& rows() const { return rows_; }
  const std::map<std::string, Cell>& waits() const { return waits_; }
  const std::map<HostKey, HostCell>& host_rows() const { return host_; }

 private:
  bool enabled_ = false;
  std::map<Key, Cell> rows_;
  std::map<std::string, Cell> waits_;
  std::map<HostKey, HostCell> host_;
};

}  // namespace acp::obs
