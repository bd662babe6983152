#include "discovery/registry.h"

namespace acp::discovery {

Registry::Registry(const stream::StreamSystem& sys, obs::MetricsRegistry& metrics,
                   DiscoveryConfig config, obs::Observability* obs)
    : sys_(&sys), lookup_messages_(&metrics, obs::metric::kDiscoveryLookups), config_(config) {
  ACP_REQUIRE(config_.min_lookup_latency_ms >= 0.0);
  ACP_REQUIRE(config_.max_lookup_latency_ms >= config_.min_lookup_latency_ms);
  if (obs != nullptr) prof_lookup_ = obs->profiler.scope(obs::prof_scope::kDiscoveryLookup);
}

const std::vector<stream::ComponentId>& Registry::lookup(stream::FunctionId f) const {
  const obs::ProfScope prof(prof_lookup_);
  ++lookups_;
  lookup_messages_.add();
  return sys_->components_providing(f);
}

double Registry::draw_lookup_latency_ms(util::Rng& rng) const {
  if (config_.max_lookup_latency_ms == 0.0) return 0.0;
  return rng.uniform(config_.min_lookup_latency_ms, config_.max_lookup_latency_ms);
}

}  // namespace acp::discovery
