// Quickstart: build a small distributed stream processing system, submit
// one request, and compose it with ACP.
//
//   ./build/examples/quickstart [--nodes N] [--alpha A] [--seed S]
//
// Walks through the whole public API surface: system building, workload
// generation, the probing protocol, and session management.
#include <cstdio>

#include "core/probing_composers.h"
#include "discovery/registry.h"
#include "exp/system_builder.h"
#include "state/global_state.h"
#include "stream/session.h"
#include "util/flags.h"
#include "workload/generator.h"

int main(int argc, char** argv) {
  using namespace acp;
  util::Flags flags(argc, argv);
  const auto nodes = static_cast<std::size_t>(flags.get_int("nodes", 200));
  const double alpha = flags.get_double("alpha", 0.3);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));

  // 1. Build the world: power-law IP topology, overlay mesh, components.
  exp::SystemConfig sys_cfg;
  sys_cfg.seed = seed;
  sys_cfg.topology.node_count = 800;  // small IP layer for a quick demo
  sys_cfg.overlay.member_count = nodes;
  exp::Fabric fabric = exp::build_fabric(sys_cfg);
  exp::Deployment dep = exp::build_deployment(fabric, sys_cfg);
  stream::StreamSystem& sys = *dep.sys;

  std::printf("System: %zu IP hosts, %zu stream nodes, %zu overlay links, %zu components\n",
              fabric.ip.node_count(), sys.node_count(), fabric.mesh->link_count(),
              sys.component_count());

  // 2. Wire up the runtime: event engine, state management, discovery.
  sim::Engine engine;
  obs::MetricsRegistry metrics;
  stream::SessionTable sessions(sys);
  discovery::Registry registry(sys, metrics);
  state::GlobalStateManager global_state(sys, engine, metrics);
  global_state.start();

  // 3. Draw a request from the paper's workload model.
  util::Rng rng(seed);
  workload::RequestGenerator generator(sys.catalog(), dep.templates, {}, {{0.0, 60.0}},
                                       fabric.ip.node_count(), rng.split(1));
  workload::Request req = generator.make_request(0.0);
  std::printf("Request %llu: %s\n  QoS req: %s\n",
              static_cast<unsigned long long>(req.id),
              req.graph.to_string(sys.catalog()).c_str(), req.qos_req.to_string().c_str());

  // 4. Compose with ACP (adaptive composition probing).
  core::ProbingProtocol protocol(sys, sessions, engine, metrics, registry, global_state.view(),
                                 rng.split(2));
  core::AcpComposer acp(protocol, alpha);

  core::CompositionOutcome outcome;
  acp.compose(req, [&](const core::CompositionOutcome& out) { outcome = out; });
  engine.run_until(30.0);  // let probes travel

  // 5. Inspect the outcome.
  if (outcome.success()) {
    std::printf("Composed! session=%llu  phi=%.3f  (%zu candidate graphs, %zu qualified)\n",
                static_cast<unsigned long long>(outcome.session), outcome.phi,
                outcome.candidates_examined, outcome.candidates_qualified);
    const std::uint64_t probes = metrics.counter_family_total(obs::metric::kProbeMessages);
    std::printf("Probe messages: %llu\n", static_cast<unsigned long long>(probes));
    const auto* rec = sessions.find(outcome.session);
    std::printf("Session components:");
    for (auto c : rec->components) {
      std::printf(" c%u@n%u", c, sys.component(c).node);
    }
    std::printf("\n");
    sessions.close(outcome.session);
    std::printf("Session closed; resources released.\n");
  } else {
    std::printf("Composition failed (qualified found: %s)\n",
                outcome.found_qualified ? "yes" : "no");
    return 1;
  }
  return 0;
}
