// Video surveillance pipeline (the paper's Fig. 1(c) motivating scenario):
// a camera stream is split into an audio branch (speech recognition) and a
// video branch (face detection), whose annotations are correlated at a
// merge function — a two-branch DAG composition.
//
//   ./build/examples/video_surveillance [--cameras N] [--alpha A] [--seed S]
//
// Demonstrates: hand-built function graphs over a named catalog, DAG
// probing with branch-path merging, and inspection of the chosen placement.
#include <cstdio>
#include <deque>

#include "core/probing_composers.h"
#include "discovery/registry.h"
#include "exp/system_builder.h"
#include "state/global_state.h"
#include "stream/session.h"
#include "util/flags.h"

using namespace acp;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const auto cameras = static_cast<std::size_t>(flags.get_int("cameras", 5));
  const double alpha = flags.get_double("alpha", 0.4);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));

  // A metro-scale deployment: 250 stream processing nodes.
  exp::SystemConfig sys_cfg;
  sys_cfg.seed = seed;
  sys_cfg.topology.node_count = 1500;
  sys_cfg.overlay.member_count = 250;
  sys_cfg.components_per_node = 2;  // dense deployment: many candidates
  exp::Fabric fabric = exp::build_fabric(sys_cfg);
  exp::Deployment dep = exp::build_deployment(fabric, sys_cfg);
  stream::StreamSystem& sys = *dep.sys;
  const auto& catalog = sys.catalog();

  sim::Engine engine;
  obs::MetricsRegistry metrics;
  stream::SessionTable sessions(sys);
  discovery::Registry registry(sys, metrics);
  state::GlobalStateManager global_state(sys, engine, metrics);
  global_state.start();
  util::Rng rng(seed ^ 0xfeed);
  core::ProbingProtocol protocol(sys, sessions, engine, metrics, registry, global_state.view(),
                                 rng.split(1));
  core::AcpComposer acp(protocol, alpha);

  // The Fig. 1(c) template: split → {speech branch | face branch} → merge.
  // Pick functions whose interfaces chain: split.out feeds both branches,
  // branch outputs feed the merge input.
  auto pick_chain = [&](stream::FunctionId from,
                        stream::FunctionId into) -> std::optional<stream::FunctionId> {
    for (stream::FunctionId f = 0; f < catalog.size(); ++f) {
      if (catalog.compatible(from, f) && catalog.compatible(f, into)) return f;
    }
    return std::nullopt;
  };

  std::printf("Video surveillance demo: %zu nodes, %zu components, %zu cameras\n",
              sys.node_count(), sys.component_count(), cameras);

  std::size_t established = 0;
  std::deque<workload::Request> requests;
  std::vector<stream::SessionId> session_ids;

  for (std::size_t cam = 0; cam < cameras; ++cam) {
    // Choose a split and a merge, then find branch functions that chain.
    const auto split_fn = static_cast<stream::FunctionId>(rng.below(catalog.size()));
    std::optional<stream::FunctionId> merge_fn, speech_fn, face_fn;
    for (stream::FunctionId m = 0; m < catalog.size() && !face_fn; ++m) {
      speech_fn = pick_chain(split_fn, m);
      if (!speech_fn) continue;
      // A distinct second branch function if available, else reuse.
      for (stream::FunctionId f = 0; f < catalog.size(); ++f) {
        if (f != *speech_fn && catalog.compatible(split_fn, f) && catalog.compatible(f, m)) {
          face_fn = f;
          break;
        }
      }
      if (!face_fn) face_fn = speech_fn;
      merge_fn = m;
    }
    if (!merge_fn) {
      std::printf("camera %zu: no compatible DAG functions found, skipping\n", cam);
      continue;
    }

    workload::Request req;
    req.id = cam + 1;
    req.client_ip = static_cast<net::NodeIndex>(rng.below(fabric.ip.node_count()));
    req.duration_s = 600.0;
    // Camera feed: split 2 Mbps, branches 500 kbps, annotations 100 kbps.
    const auto n_split = req.graph.add_node(split_fn, stream::ResourceVector(6.0, 64.0));
    const auto n_speech = req.graph.add_node(*speech_fn, stream::ResourceVector(10.0, 128.0));
    const auto n_face = req.graph.add_node(*face_fn, stream::ResourceVector(12.0, 256.0));
    const auto n_merge = req.graph.add_node(*merge_fn, stream::ResourceVector(4.0, 64.0));
    req.graph.add_edge(n_split, n_speech, 500.0);
    req.graph.add_edge(n_speech, n_merge, 100.0);
    req.graph.add_edge(n_split, n_face, 500.0);
    req.graph.add_edge(n_face, n_merge, 100.0);
    req.qos_req = stream::QoSVector::from_metrics(800.0, 0.05);
    requests.push_back(std::move(req));

    acp.compose(requests.back(), [&](const core::CompositionOutcome& out) {
      if (out.success()) {
        ++established;
        session_ids.push_back(out.session);
        const auto* rec = sessions.find(out.session);
        std::printf("  camera feed composed: session=%llu phi=%.3f placement:",
                    static_cast<unsigned long long>(out.session), out.phi);
        for (auto c : rec->components) std::printf(" n%u", sys.component(c).node);
        std::printf("\n");
      } else {
        std::printf("  camera feed FAILED (qualified=%s)\n",
                    out.found_qualified ? "yes" : "no");
      }
    });
  }

  engine.run_until(60.0);
  const std::uint64_t probes = metrics.counter_family_total(obs::metric::kProbeMessages);
  std::printf("Established %zu/%zu camera pipelines; probe messages: %llu\n", established,
              cameras, static_cast<unsigned long long>(probes));
  for (auto sid : session_ids) sessions.close(sid);
  std::printf("All sessions closed.\n");
  return established > 0 ? 0 : 1;
}
