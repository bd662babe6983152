// Metrics registry — typed counters, gauges, and fixed-bucket histograms
// with label sets.
//
// The paper's evaluation is built on observables (setup-time distributions,
// probing overhead in messages/minute, success under dynamics). This
// registry is the machine-readable home for those observables: modules grab
// a metric once (`registry.counter("acp.probe.deaths", {{"reason",
// "qos_violation"}})`) and bump it on the hot path; the experiment harness
// snapshots everything into JSON at end of run.
//
// Naming convention (see docs/ARCHITECTURE.md "Observability"):
//   acp.request.*   request-level outcomes and setup-time histograms
//   acp.probe.*     probe lifecycle (spawns, deaths by reason, hops)
//   acp.state.*     coarse/local state maintenance (updates, staleness)
//   acp.sim.*       engine internals (events executed, queue depth)
//
// Identity: a metric is (name, label set). Label order does not matter —
// labels are sorted on construction, so {{"a","1"},{"b","2"}} and
// {{"b","2"},{"a","1"}} resolve to the same object. Re-requesting a name
// with a different metric type throws.
//
// Concurrency model (docs/ARCHITECTURE.md "Concurrency model"): a registry
// is single-owner — it is never locked. Parallel trials each write into
// their own per-context registry (obs/context.h) and the trial runner folds
// those into the shared registry with merge_from, serially, in submission
// order, so merged totals are identical for any worker count. References
// returned by the registry stay valid for its lifetime (metrics are never
// removed).
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "util/error.h"

namespace acp::obs {

/// Sorted key=value pairs identifying one series of a metric family.
class Labels {
 public:
  Labels() = default;
  Labels(std::initializer_list<std::pair<std::string, std::string>> kv);
  explicit Labels(std::vector<std::pair<std::string, std::string>> kv);

  bool empty() const { return kv_.empty(); }
  const std::vector<std::pair<std::string, std::string>>& pairs() const { return kv_; }

  /// Value for `key`, or "" when absent.
  const std::string& get(const std::string& key) const;

  /// Canonical rendering: {key="value",key2="value2"}; "" when empty.
  std::string render() const;

  bool operator<(const Labels& o) const { return kv_ < o.kv_; }
  bool operator==(const Labels& o) const { return kv_ == o.kv_; }

 private:
  std::vector<std::pair<std::string, std::string>> kv_;
};

class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

  void merge_from(const Counter& o) { value_ += o.value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-value gauge that also tracks the extremes seen over the run.
class Gauge {
 public:
  void set(double v);
  double value() const { return value_; }
  double max() const { return max_; }
  double min() const { return min_; }
  bool ever_set() const { return set_; }

  /// Folds `o` in as if its sets happened after this gauge's: extremes
  /// combine, and `o`'s last value (when it was ever set) wins.
  void merge_from(const Gauge& o);

 private:
  double value_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  bool set_ = false;
};

/// Fixed-bucket histogram. `bounds` are inclusive upper bounds of the
/// finite buckets; an implicit +inf bucket catches the rest. An observation
/// v lands in the first bucket with v <= bound.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }
  double min() const { return min_; }
  double max() const { return max_; }

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts; size() == bounds().size() + 1 (last is +inf).
  const std::vector<std::uint64_t>& bucket_counts() const { return buckets_; }

  /// Quantile estimate by linear interpolation within the winning bucket
  /// (the standard Prometheus-style approximation). q in [0, 1].
  double quantile(double q) const;

  /// Adds `o`'s observations bucket-wise; throws PreconditionError when the
  /// bucket bounds differ.
  void merge_from(const Histogram& o);

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Commonly useful default bounds for sim-time durations in seconds
/// (sub-millisecond to minutes, roughly logarithmic).
std::vector<double> duration_bounds_s();

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Gets or creates the metric for (name, labels). Throws PreconditionError
  /// if the name is already registered with a different type, or (for
  /// histograms) with different bucket bounds.
  Counter& counter(const std::string& name, const Labels& labels = {});
  Gauge& gauge(const std::string& name, const Labels& labels = {});
  Histogram& histogram(const std::string& name, std::vector<double> bounds,
                       const Labels& labels = {});

  /// Read-side lookups; nullptr when the series does not exist.
  const Counter* find_counter(const std::string& name, const Labels& labels = {}) const;
  const Gauge* find_gauge(const std::string& name, const Labels& labels = {}) const;
  const Histogram* find_histogram(const std::string& name, const Labels& labels = {}) const;

  /// Sum of counter values across every label set of `name`.
  std::uint64_t counter_family_total(const std::string& name) const;

  /// Visits every series in (name, labels) order.
  void for_each_counter(
      const std::function<void(const std::string&, const Labels&, const Counter&)>& fn) const;
  void for_each_gauge(
      const std::function<void(const std::string&, const Labels&, const Gauge&)>& fn) const;
  void for_each_histogram(
      const std::function<void(const std::string&, const Labels&, const Histogram&)>& fn) const;

  std::size_t series_count() const { return counters_.size() + gauges_.size() + hists_.size(); }

  /// Folds every series of `src` into this registry (creating series on
  /// first sight): counters add, gauges combine with src-last-wins,
  /// histograms add bucket-wise, meta keys overwrite. Deterministic: series
  /// merge in (name, labels) order, so repeated merges in a fixed submission
  /// order yield identical registries regardless of how the sources were
  /// produced. Throws on name/type or histogram-bound conflicts.
  void merge_from(const MetricsRegistry& src);

  /// Run-identity metadata carried into every snapshot and report (seed,
  /// git sha, bench name, …) so an artifact is reproducible from its own
  /// header. Last write per key wins.
  void set_meta(const std::string& key, const std::string& value);
  const std::map<std::string, std::string>& meta() const { return meta_; }

  /// Writes the whole registry as one JSON document:
  /// {"meta":{...},
  ///  "counters":[{"name":...,"labels":{...},"value":N}, ...],
  ///  "gauges":[...], "histograms":[...]}. "meta" is omitted when empty.
  void write_json(std::ostream& os) const;

  /// write_json to a file path; throws on I/O failure.
  void save_json(const std::string& path) const;

 private:
  using Key = std::pair<std::string, Labels>;
  enum class Kind { kCounter, kGauge, kHistogram };

  /// Guards one name → one metric type.
  void claim_name(const std::string& name, Kind kind);

  std::map<Key, std::unique_ptr<Counter>> counters_;
  std::map<Key, std::unique_ptr<Gauge>> gauges_;
  std::map<Key, std::unique_ptr<Histogram>> hists_;
  std::map<std::string, Kind> name_kinds_;
  std::map<std::string, std::string> meta_;
};

/// A counter handle resolved on its first add() — an add of 0 included — so
/// the series appears in the registry exactly when something is first
/// counted into it, and every later add is one pointer bump. The registry
/// must outlive the handle; a null registry makes the handle inert.
class LazyCounter {
 public:
  LazyCounter(MetricsRegistry* registry, const char* name) : registry_(registry), name_(name) {}

  void add(std::uint64_t n = 1) {
    if (counter_ == nullptr) {
      if (registry_ == nullptr) return;
      counter_ = &registry_->counter(name_);
    }
    counter_->add(n);
  }

 private:
  MetricsRegistry* registry_;
  const char* name_;
  Counter* counter_ = nullptr;
};

/// Escapes `s` for inclusion in a JSON string literal (no quotes added).
std::string json_escape(const std::string& s);

/// Formats a double as JSON (shortest round-trip-ish, never NaN/Inf —
/// those are clamped to very large magnitudes since JSON cannot carry them).
std::string json_number(double v);

}  // namespace acp::obs
