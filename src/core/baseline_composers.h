// Non-probing baseline composers (paper Sec. 4.1):
//
//   * Optimal — brute-force exhaustive search over all candidate
//     compositions, best-φ qualified pick. Its overhead is accounted as the
//     probes exhaustive probing would need (exponential); the paper uses it
//     as the quality upper bound.
//   * Random  — uniformly random candidate per function; succeeds only if
//     the resulting composition happens to be qualified.
//   * Static  — fixed candidate per function (the same component every
//     time); saturates quickly under load.
//
// All three evaluate against ground-truth state and commit directly (the
// paper grants the baselines free state access; their deficiency is the
// decision rule, not information starvation).
#pragma once

#include "core/composer.h"
#include "core/search.h"
#include "obs/observability.h"
#include "sim/engine.h"
#include "stream/session.h"
#include "util/rng.h"

namespace acp::core {

struct BaselineContext {
  stream::StreamSystem* sys = nullptr;
  stream::SessionTable* sessions = nullptr;
  sim::Engine* engine = nullptr;
  /// Message overhead (acp.probe.messages, acp.probe.confirmations).
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional observability sink (request-level spans/metrics only — the
  /// baselines have no probe lifecycle).
  obs::Observability* obs = nullptr;
};

class OptimalComposer final : public Composer {
 public:
  explicit OptimalComposer(BaselineContext ctx, std::size_t combo_cap = 200'000)
      : ctx_(ctx), combo_cap_(combo_cap) {}

  void compose(const workload::Request& req,
               std::function<void(const CompositionOutcome&)> done) override;
  std::string name() const override { return "Optimal"; }

 private:
  BaselineContext ctx_;
  std::size_t combo_cap_;
};

class RandomComposer final : public Composer {
 public:
  RandomComposer(BaselineContext ctx, util::Rng rng) : ctx_(ctx), rng_(rng) {}

  void compose(const workload::Request& req,
               std::function<void(const CompositionOutcome&)> done) override;
  std::string name() const override { return "Random"; }

 private:
  BaselineContext ctx_;
  util::Rng rng_;
};

class StaticComposer final : public Composer {
 public:
  explicit StaticComposer(BaselineContext ctx) : ctx_(ctx) {}

  void compose(const workload::Request& req,
               std::function<void(const CompositionOutcome&)> done) override;
  std::string name() const override { return "Static"; }

 private:
  BaselineContext ctx_;
};

}  // namespace acp::core
