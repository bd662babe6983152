#include "core/migration.h"

#include <algorithm>

namespace acp::core {

MigrationManager::MigrationManager(stream::StreamSystem& sys, sim::Engine& engine,
                                   obs::MetricsRegistry& metrics, MigrationConfig config,
                                   obs::Observability* obs)
    : sys_(&sys),
      engine_(&engine),
      moves_counter_(&metrics, obs::metric::kMigrationMoves),
      config_(config),
      obs_(obs) {
  ACP_REQUIRE(config_.interval_s > 0.0);
  ACP_REQUIRE(config_.utilization_threshold > 0.0 && config_.utilization_threshold <= 1.0);
  ACP_REQUIRE(config_.target_headroom >= 0.0 &&
              config_.target_headroom < config_.utilization_threshold);
}

void MigrationManager::start() {
  ACP_REQUIRE_MSG(!started_, "start() may only be called once");
  started_ = true;
  schedule_tick();
}

void MigrationManager::schedule_tick() {
  engine_->schedule_after(
      config_.interval_s,
      [this] {
        run_round();
        schedule_tick();
      },
      obs::attr_wait::kMigrationTick);
}

double MigrationManager::utilization(stream::NodeId node, double now) const {
  const auto& pool = sys_->node_pool(node);
  const auto avail = pool.available(now);
  const auto& cap = pool.capacity();
  double worst = 0.0;
  for (std::size_t k = 0; k < stream::kResourceDims; ++k) {
    if (cap.dim(k) <= 0.0) continue;
    worst = std::max(worst, 1.0 - avail.dim(k) / cap.dim(k));
  }
  return worst;
}

std::size_t MigrationManager::run_round() {
  const double now = engine_->now();
  struct NodeLoad {
    stream::NodeId node;
    double utilization;
  };
  std::vector<NodeLoad> loads;
  loads.reserve(sys_->node_count());
  for (stream::NodeId n = 0; n < sys_->node_count(); ++n) {
    loads.push_back({n, utilization(n, now)});
  }
  std::sort(loads.begin(), loads.end(),
            [](const NodeLoad& a, const NodeLoad& b) { return a.utilization > b.utilization; });

  std::size_t moves = 0;
  std::size_t target_cursor = loads.size();  // scan targets from the cold end
  for (const auto& hot : loads) {
    if (moves >= config_.max_moves_per_round) break;
    if (hot.utilization < config_.utilization_threshold) break;  // sorted: rest are cooler
    const auto& hosted = sys_->components_on(hot.node);
    if (hosted.empty()) continue;

    // Coldest node still under the headroom bound that hasn't been used as
    // a target this round.
    stream::NodeId target = hot.node;
    while (target_cursor > 0) {
      const auto& cand = loads[--target_cursor];
      if (cand.utilization < config_.target_headroom && cand.node != hot.node) {
        target = cand.node;
        break;
      }
    }
    if (target == hot.node) break;  // no cold nodes left

    // Move the component whose function has the most alternative providers
    // — it is the cheapest to relocate in terms of composition diversity.
    stream::ComponentId pick = hosted.front();
    std::size_t best_alternatives = 0;
    for (stream::ComponentId c : hosted) {
      const auto k = sys_->components_providing(sys_->component(c).function).size();
      if (k > best_alternatives) {
        best_alternatives = k;
        pick = c;
      }
    }

    sys_->move_component(pick, target);
    moves_counter_.add();
    if (obs_ != nullptr) {
      obs_->tracer.event("component_migrated")
          .field("component", static_cast<std::uint64_t>(pick))
          .field("fn", static_cast<std::uint64_t>(sys_->component(pick).function))
          .field("from", static_cast<std::uint64_t>(hot.node))
          .field("to", static_cast<std::uint64_t>(target))
          .field("utilization", hot.utilization);
      // Move charged to the overloaded source node it relieves.
      obs_->attribution.record(obs::attr_phase::kMigrate, static_cast<std::int64_t>(hot.node),
                               static_cast<std::int64_t>(sys_->component(pick).function), 0.0);
    }
    ++total_moves_;
    ++moves;
  }
  return moves;
}

// ---- SessionRepairManager ---------------------------------------------------

SessionRepairManager::SessionRepairManager(stream::StreamSystem& sys,
                                           stream::SessionTable& sessions, sim::Engine& engine,
                                           obs::MetricsRegistry& metrics,
                                           fault::FaultInjector& faults, RepairConfig config,
                                           obs::Observability* obs)
    : sys_(&sys),
      sessions_(&sessions),
      engine_(&engine),
      repair_moves_(&metrics, obs::metric::kSessionRepairMoves),
      faults_(&faults),
      config_(config),
      obs_(obs) {
  ACP_REQUIRE(config_.detection_delay_s >= 0.0);
}

void SessionRepairManager::start() {
  ACP_REQUIRE_MSG(!started_, "start() may only be called once");
  started_ = true;
  faults_->on_node_change([this](stream::NodeId node, bool up) {
    if (up) return;
    engine_->schedule_after(
        config_.detection_delay_s, [this, node] { repair_node_failure(node); },
        obs::attr_wait::kRepairDetect);
  });
}

std::vector<stream::ComponentId> SessionRepairManager::ranked_candidates(
    stream::FunctionId function, stream::NodeId failed, double now) const {
  struct Ranked {
    stream::ComponentId component;
    double utilization;
  };
  std::vector<Ranked> ranked;
  for (stream::ComponentId c : sys_->components_providing(function)) {
    const stream::NodeId host = sys_->component(c).node;
    if (host == failed || !faults_->node_up(host)) continue;
    const auto& pool = sys_->node_pool(host);
    const auto avail = pool.available(now);
    const auto& cap = pool.capacity();
    double worst = 0.0;
    for (std::size_t k = 0; k < stream::kResourceDims; ++k) {
      if (cap.dim(k) <= 0.0) continue;
      worst = std::max(worst, 1.0 - avail.dim(k) / cap.dim(k));
    }
    ranked.push_back({c, worst});
  }
  std::sort(ranked.begin(), ranked.end(), [](const Ranked& a, const Ranked& b) {
    return a.utilization != b.utilization ? a.utilization < b.utilization
                                          : a.component < b.component;
  });
  if (ranked.size() > config_.max_candidates) ranked.resize(config_.max_candidates);
  std::vector<stream::ComponentId> out;
  out.reserve(ranked.size());
  for (const Ranked& r : ranked) out.push_back(r.component);
  return out;
}

std::size_t SessionRepairManager::repair_node_failure(stream::NodeId node) {
  const double now = engine_->now();
  // Snapshot the broken placements first: repairs mutate the session table.
  struct Broken {
    stream::SessionId session;
    stream::FnNodeIndex fn;
    stream::ComponentId component;
    bool probed;
  };
  std::vector<Broken> broken;
  for (const auto& [id, rec] : sessions_->records()) {
    for (const auto& p : rec.placements) {
      if (p.node == node) broken.push_back({id, p.fn, p.component, rec.probed});
    }
  }

  std::size_t repaired = 0;
  for (const Broken& b : broken) {
    if (sessions_->find(b.session) == nullptr) continue;  // lost via an earlier placement
    bool fixed = false;
    if (b.probed) {
      const stream::FunctionId function = sys_->component(b.component).function;
      for (stream::ComponentId cand : ranked_candidates(function, node, now)) {
        if (sessions_->repair_component(b.session, b.fn, cand, now)) {
          ++repaired;
          ++sessions_repaired_;
          repair_moves_.add();
          if (obs_ != nullptr) {
            obs_->metrics.counter(obs::metric::kSessionsRepaired).add();
            obs_->tracer.event("session_repaired")
                .field("session", b.session)
                .field("fn", static_cast<std::uint64_t>(b.fn))
                .field("failed_node", static_cast<std::uint64_t>(node))
                .field("failed_component", static_cast<std::uint64_t>(b.component))
                .field("component", static_cast<std::uint64_t>(cand))
                .field("node", static_cast<std::uint64_t>(sys_->component(cand).node));
            // Repair charged to the replacement host now carrying the load.
            obs_->attribution.record(
                obs::attr_phase::kRepair,
                static_cast<std::int64_t>(sys_->component(cand).node),
                static_cast<std::int64_t>(sys_->component(cand).function), 0.0);
          }
          fixed = true;
          break;
        }
      }
    }
    if (!fixed) {
      // No live replacement fits (or the session was committed directly and
      // its aggregated records cannot be rebound): the session is lost.
      sessions_->close(b.session);
      ++sessions_lost_;
      if (obs_ != nullptr) {
        obs_->metrics.counter(obs::metric::kSessionsLost).add();
        obs_->tracer.event("session_lost")
            .field("session", b.session)
            .field("failed_node", static_cast<std::uint64_t>(node))
            .field("probed", b.probed);
      }
    }
  }
  return repaired;
}

}  // namespace acp::core
