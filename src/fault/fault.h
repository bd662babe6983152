// Seeded, deterministic fault injection for the simulated overlay.
//
// The paper's ACP design assumes a failure-prone substrate: probes carry
// transient allocations with timeouts, the coarse global state goes stale,
// and sessions must survive churn. The happy-path simulator never exercised
// any of that. FaultInjector schedules faults as ordinary engine events —
// node crash/restart, overlay-link failure and bandwidth degradation,
// probe-message loss/delay, stale or torn global-state updates, and
// transient-allocation leaks — either scripted from a declarative FaultPlan
// (JSONL or programmatic) or drawn from seeded stochastic processes, so a
// fixed seed reproduces the exact same fault sequence.
//
// Recovery hooks live next to the faults they answer:
//   * probe retry with exponential backoff        → core::ProbingProtocol
//   * transient reclamation sweeps on crash/leak  → here (run_reclamation_sweep)
//   * session failure detection + repair          → core::SessionRepairManager
//   * deputy re-election when the deputy dies     → core::ProbingProtocol
//
// Subsystems consult the injector through cheap status queries (node_up,
// link_up, message_fate); a null injector pointer means "no faults" and all
// call sites stay on the happy path.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

#include "obs/observability.h"
#include "sim/engine.h"
#include "stream/system.h"
#include "util/rng.h"

namespace acp::fault {

enum class FaultKind {
  kNodeCrash,      ///< node goes down (probes to it are lost, sessions break)
  kNodeRestart,    ///< crashed node rejoins
  kLinkFail,       ///< overlay link down (virtual links crossing it drop messages)
  kLinkRestore,    ///< failed link heals
  kLinkDegrade,    ///< link keeps only `magnitude` fraction of its bandwidth
  kStateFreeze,    ///< global-state check/publish suppressed (staleness injection)
  kStateTear,      ///< next aggregation publish applies only half the link states
  kTransientLeak,  ///< orphan transient allocations that never confirm or expire soon
};

const char* fault_kind_name(FaultKind k);
/// Throws PreconditionError on an unknown name.
FaultKind fault_kind_from_name(const std::string& name);

/// Sentinel target: pick a random live node/link when the event fires.
inline constexpr std::int64_t kRandomTarget = -1;

/// One scripted fault occurrence.
struct FaultEvent {
  double at_s = 0.0;
  FaultKind kind = FaultKind::kNodeCrash;
  std::int64_t target = kRandomTarget;  ///< node id / link index; -1 = random
  /// Kind-specific knob: kLinkDegrade = capacity fraction kept (0..1];
  /// kTransientLeak = CPU units leaked per allocation (memory scales 4×).
  double magnitude = 0.0;
  /// Auto-recovery delay: crash→restart, fail→restore, degrade→restore,
  /// freeze→thaw, leak TTL. <= 0 means the fault persists (leaks default to
  /// a long TTL so the sweep, not expiry, must reclaim them).
  double duration_s = 0.0;
  std::size_t count = 1;  ///< kTransientLeak: allocations leaked per event
};

/// Declarative fault schedule plus stochastic background fault processes.
/// Parseable from JSONL: one `{"kind": "node_crash", "at": 120, ...}` object
/// per line; a `{"kind": "rates", ...}` line sets the stochastic knobs.
struct FaultPlan {
  std::vector<FaultEvent> events;

  // Stochastic processes (all off at 0). Rates are per minute of sim time;
  // targets are drawn uniformly over live nodes/links at fire time.
  double node_crash_rate_per_min = 0.0;
  double node_downtime_s = 60.0;  ///< crash → restart delay for random crashes
  double link_fail_rate_per_min = 0.0;
  double link_downtime_s = 45.0;
  /// Per-transmission probe message loss probability (on top of down
  /// nodes/links, which always lose the message).
  double probe_loss_prob = 0.0;
  /// Probability a delivered probe message suffers extra delay, and the mean
  /// of that (exponential) delay.
  double probe_delay_prob = 0.0;
  double probe_delay_mean_s = 0.05;
  /// Stochastic processes and message perturbation are active in
  /// [start_s, stop_s); scripted events fire whenever scheduled.
  double start_s = 0.0;
  double stop_s = std::numeric_limits<double>::infinity();

  bool empty() const {
    return events.empty() && node_crash_rate_per_min == 0.0 && link_fail_rate_per_min == 0.0 &&
           probe_loss_prob == 0.0 && probe_delay_prob == 0.0;
  }

  /// Parses the JSONL form. Throws PreconditionError on malformed lines.
  static FaultPlan parse_jsonl(std::istream& in);
  static FaultPlan load_jsonl_file(const std::string& path);
};

/// Recovery knobs owned by the injector (probe retry and session repair have
/// their own configs next to their implementations).
struct RecoveryConfig {
  /// Crash → reclamation sweep of the dead node's transient allocations.
  /// Models the paper's transient-allocation timeout: resources a crashed
  /// node held for in-flight probes return to the pool after this delay.
  double reclaim_delay_s = 30.0;
  /// Periodic system-wide sweep reclaiming leaked transients (0 = off).
  double sweep_interval_s = 60.0;
  /// A live transient older than this is considered leaked and reclaimed by
  /// the sweep (well past any legitimate probing round-trip + TTL refresh).
  double max_transient_age_s = 120.0;
};

class FaultInjector {
 public:
  /// `metrics` (acp.fault.events, acp.recovery.transient_reclaims) and
  /// `obs` may be null. The system, engine, and registry must outlive the
  /// injector.
  FaultInjector(stream::StreamSystem& sys, sim::Engine& engine, util::Rng rng, FaultPlan plan,
                RecoveryConfig recovery = {}, obs::MetricsRegistry* metrics = nullptr,
                obs::Observability* obs = nullptr);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Schedules every scripted event, the stochastic fault processes, and the
  /// periodic reclamation sweep. Call once, before or after engine start.
  void start();

  const FaultPlan& plan() const { return plan_; }
  const RecoveryConfig& recovery() const { return recovery_; }

  // ---- Status queries (hot path: subsystems consult these) ----------------

  bool node_up(stream::NodeId n) const { return !node_down_[n]; }
  bool link_up(net::OverlayLinkIndex l) const { return !link_down_[l]; }
  std::size_t nodes_down() const { return nodes_down_; }
  std::size_t links_down() const { return links_down_; }

  /// Delivery fate of one probe transmission from→to: lost when either
  /// endpoint is down, when any overlay link of the virtual link is down, or
  /// by the stochastic loss process; otherwise delivered, possibly with
  /// injected extra delay. Deterministic given the seed and call order.
  struct MessageFate {
    bool lost = false;
    double extra_delay_s = 0.0;
  };
  MessageFate message_fate(stream::NodeId from, stream::NodeId to);

  /// Same fate logic, but stochastic draws (loss / extra delay) come from
  /// the caller's RNG instead of the injector's shared per-transmission
  /// stream. Sharded runs pass the request's private stream so the draw
  /// sequence is a function of the request — not of which shard count or
  /// worker interleaving processed the transmissions — while the
  /// deterministic node/link-down checks read injector state unchanged
  /// (frozen during shard phases).
  MessageFate message_fate(stream::NodeId from, stream::NodeId to, util::Rng& rng);

  // ---- Global-state fault queries (state::GlobalStateManager) -------------

  /// True while a staleness window (kStateFreeze) is active: check sweeps
  /// and aggregation publishes must be suppressed.
  bool state_updates_suppressed() const { return freeze_depth_ > 0; }
  /// Consumes one pending torn-publish marker (kStateTear). The consumer
  /// applies only half of the collected link states for that publish.
  bool consume_state_tear();

  // ---- Subscriptions ------------------------------------------------------

  /// `hook(node, up)` fires on every crash (up=false) and restart (up=true).
  /// Hooks run inside the fault event, in registration order.
  using NodeHook = std::function<void(stream::NodeId, bool)>;
  void on_node_change(NodeHook hook) { node_hooks_.push_back(std::move(hook)); }

  // ---- Manual injection (tests and scripted drivers) ----------------------

  void crash_node(stream::NodeId n, double downtime_s = 0.0);
  void restart_node(stream::NodeId n);
  void fail_link(net::OverlayLinkIndex l, double downtime_s = 0.0);
  void restore_link(net::OverlayLinkIndex l);
  /// Keeps `factor` (0..1] of the link's bandwidth; restores after
  /// `duration_s` when > 0.
  void degrade_link(net::OverlayLinkIndex l, double factor, double duration_s = 0.0);
  void freeze_state(double duration_s);
  void tear_state();
  /// Places `count` orphan transient allocations of (`cpu`, 4×`cpu` MB) on
  /// random live nodes under a synthetic request id that never confirms.
  void leak_transients(std::size_t count, double cpu, double ttl_s);

  // ---- Recovery machinery -------------------------------------------------

  /// Force-reclaims transients older than recovery().max_transient_age_s
  /// system-wide (the leak sweep). Returns the number reclaimed. Normally
  /// driven by the periodic tick; exposed for tests.
  std::size_t run_reclamation_sweep();

  // ---- Stats --------------------------------------------------------------

  std::uint64_t faults_injected() const { return faults_injected_; }
  std::uint64_t transients_reclaimed() const { return transients_reclaimed_; }

 private:
  void fire(const FaultEvent& ev);
  void schedule_random_crash();
  void schedule_random_link_fail();
  void schedule_sweep();
  void notify_node(stream::NodeId n, bool up);
  void count_fault(FaultKind kind);
  /// Uniform pick among live nodes (excluding none); false when < 2 remain
  /// live (never crash the last survivors).
  bool pick_live_node(stream::NodeId& out);
  bool pick_live_link(net::OverlayLinkIndex& out);
  bool stochastic_active() const {
    const double now = engine_->now();
    return now >= plan_.start_s && now < plan_.stop_s;
  }

  stream::StreamSystem* sys_;
  sim::Engine* engine_;
  util::Rng rng_;      ///< scheduled-fault stream: gaps, target picks
  util::Rng msg_rng_;  ///< per-transmission stream (message_fate), split off
                       ///< so probe traffic volume can't perturb the fault
                       ///< schedule — recovery arms see identical faults
  FaultPlan plan_;
  RecoveryConfig recovery_;
  obs::LazyCounter fault_events_;
  obs::LazyCounter transient_reclaims_;
  obs::Observability* obs_;

  std::vector<bool> node_down_;
  std::vector<bool> link_down_;
  std::size_t nodes_down_ = 0;
  std::size_t links_down_ = 0;
  int freeze_depth_ = 0;
  std::uint64_t pending_tears_ = 0;
  std::uint64_t faults_injected_ = 0;
  std::uint64_t transients_reclaimed_ = 0;
  stream::RequestId next_leak_request_;
  std::vector<NodeHook> node_hooks_;
  bool started_ = false;
};

}  // namespace acp::fault
