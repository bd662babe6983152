// Experiment driver — runs one simulated evaluation of one composition
// algorithm under one workload, reproducing the paper's measurement
// methodology: composition success rate u(t) sampled per period, overhead
// in messages per minute (probes + global-state updates), over a 100–150
// minute simulated horizon.
#pragma once

#include <deque>
#include <string>

#include "core/migration.h"
#include "core/probing.h"
#include "core/tuner.h"
#include "exp/system_builder.h"
#include "fault/fault.h"
#include "obs/observability.h"
#include "state/global_state.h"
#include "state/local_state.h"
#include "util/stats.h"
#include "workload/generator.h"

namespace acp::exp {

/// Algorithms under evaluation, named as in the paper's figures.
enum class Algorithm { kAcp, kOptimal, kRandom, kStatic, kSp, kRp };

std::string algorithm_name(Algorithm a);
Algorithm algorithm_from_name(const std::string& name);

struct ExperimentConfig {
  Algorithm algorithm = Algorithm::kAcp;
  double duration_minutes = 100.0;  ///< paper: 100 (Figs 5–7), 150 (Fig 8)
  /// Measurement starts here (lets the system reach steady load first).
  double warmup_minutes = 0.0;
  std::vector<workload::RateStep> schedule{{0.0, 80.0}};
  workload::WorkloadConfig workload;
  double alpha = 0.3;          ///< fixed probing ratio (paper default)
  bool adaptive_alpha = false; ///< enable the Sec. 3.4 tuner (Fig 8(b))
  core::TunerConfig tuner;
  core::ProbingConfig probing;
  state::GlobalStateConfig global_state;
  state::LocalStateConfig local_state;
  /// Enable the dynamic component migration extension during the run.
  bool enable_migration = false;
  core::MigrationConfig migration;
  /// Fault injection: a non-empty plan attaches a FaultInjector (seeded from
  /// run_seed split 4) to the run — probing consults message fates, the
  /// global state honors freeze/tear faults, and crashed nodes shed their
  /// transient allocations.
  fault::FaultPlan faults;
  fault::RecoveryConfig recovery;
  /// Session failure detection + repair via the migration path (only
  /// meaningful with a non-empty fault plan). Off = crashed placements kill
  /// their sessions — the chaos suite's no-recovery ablation arm.
  bool enable_repair = true;
  core::RepairConfig repair;
  double sample_period_minutes = 5.0;  ///< u(t) sampling period
  std::uint64_t run_seed = 7;          ///< workload/probing randomness
  /// Sharded PDES (sim/sharded_engine.h): 0 = the serial engine (default;
  /// byte-identical to the pre-sharding driver). N >= 1 runs probing
  /// algorithms' request cascades on N shard lanes under the time-window
  /// barrier; observables are identical for every N >= 1 at a fixed
  /// shard_window_s, but form their own lineage distinct from the serial
  /// path (shard-phase admissions see window-frozen pool state).
  /// Non-probing algorithms always use the serial engine.
  std::size_t shards = 0;
  /// Barrier window in sim seconds. Clamped up to the mesh's conservative
  /// lookahead (min overlay-link delay). Larger windows expose more
  /// cross-request parallelism at the price of staler shard-phase
  /// admissions; must stay well below probe_timeout_s. Compare shard
  /// counts only at an identical window.
  double shard_window_s = 4.0;
  /// Optional observability sink. When set, the run streams probe-lifecycle
  /// trace spans, counts messages into its metrics registry, stamps
  /// log lines with sim time, and labels the trace with the algorithm name
  /// via Tracer::begin_run. Must outlive the call; the engine-backed trace
  /// clock and log time source are detached before returning.
  obs::Observability* obs = nullptr;
  /// Timeline sampling (obs/timeline.h): when `obs` is set, its timeline
  /// writer has a sink, and this interval is enabled, a sampler on the
  /// engine's event loop snapshots the run every sample_interval_s of sim
  /// time. Disabled (the default) registers nothing — zero events, zero
  /// cost.
  obs::TimelineConfig timeline;
};

struct ExperimentResult {
  Algorithm algorithm = Algorithm::kAcp;
  std::uint64_t requests = 0;   ///< outcomes observed in the measured window
  std::uint64_t successes = 0;
  double success_rate = 1.0;    ///< successes / requests (percentage basis 0..1)

  double overhead_per_minute = 0.0;      ///< probes + global-state updates
  double probe_rate_per_minute = 0.0;
  double state_update_rate_per_minute = 0.0;

  double mean_phi = 0.0;  ///< mean φ(λ) of committed compositions
  double mean_candidates_qualified = 0.0;

  util::TimeSeries success_series;  ///< u(t) per sampling period (minutes)
  util::TimeSeries alpha_series;    ///< probing ratio over time (minutes)

  std::uint64_t peak_active_sessions = 0;
  std::uint64_t component_migrations = 0;  ///< when enable_migration

  // Fault/recovery accounting (all zero on a fault-free run). Completed and
  // lost count sessions from measured (post-warmup) arrivals; repaired /
  // reclaimed / retries / re-elections are whole-run totals.
  std::uint64_t sessions_completed = 0;  ///< ran to their planned end
  std::uint64_t sessions_lost = 0;       ///< killed by faults before their end
  /// completed / (completed + lost); 1.0 when nothing finished either way.
  double session_survival_rate = 1.0;
  std::uint64_t sessions_repaired = 0;
  std::uint64_t probe_retries = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t deputy_reelections = 0;
  std::uint64_t transients_reclaimed = 0;
};

/// Runs one experiment on a fresh deployment over `fabric`. Deterministic
/// given (config, system_config.seed, config.run_seed).
ExperimentResult run_experiment(const Fabric& fabric, const SystemConfig& system_config,
                                const ExperimentConfig& config);

}  // namespace acp::exp
