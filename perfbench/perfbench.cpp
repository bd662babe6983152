// acp_perfbench — one workload of the repo benchmark, in one process.
//
// Calls the public exp API directly: exp::build_fabric, then
// exp::build_deployment (together the set-up), then exp::run_experiment on
// one trial at a time. Prints one JSON object of raw measurements on
// stdout; perfbench/run.py turns it into metrics and checks the outputs.
//
//   acp_perfbench --workload xl_acp --seed 1 --mode e2e --seconds 50
//   acp_perfbench --workload xl_acp --seed 1 --mode trace
//
// e2e   untraced (ExperimentConfig::obs == nullptr). Builds the set-up
//       several times, then repeats the same run for about --seconds.
//       Reports each set-up and each run, and the peak RSS.
// trace a traced run between two untraced runs of the same inputs. The traced
//       run attaches an obs::Observability and reports the profiler scopes
//       and counters that src/ records. The XL workload also runs the same
//       inputs on the sharded engine: on 3 lanes untraced and traced, and
//       on one lane untraced.
//
// All runs of a workload at one seed on one engine lineage (serial, or
// sharded with any lane count) must produce identical sim outputs; doubles
// are printed with 17 significant digits so run.py can compare them bit for
// bit.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "exp/experiment.h"
#include "obs/observability.h"
#include "util/resource.h"

namespace {

using namespace acp;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Why each workload exists is recorded in perfbench/NOTES.md.
struct Workload {
  const char* name;
  exp::Algorithm algorithm;
  bool torus;           ///< 64×80 torus, 1000 functions; else the paper's Inet world
  double rate_per_min;  ///< Poisson arrival rate, sim time
  double sim_minutes;   ///< horizon of one run
  /// Lanes of the sharded-engine runs in the traced pass; 0 = none. Every
  /// end-to-end run uses the serial engine: on a shared 4-vCPU VM the
  /// sharded engine's throughput swung by up to 28% between runs minutes
  /// apart (perfbench/NOTES.md), more than any bound could absorb.
  std::size_t lanes;
};

constexpr Workload kWorkloads[] = {
    {"xl_acp", exp::Algorithm::kAcp, true, 240.0, 20.0, 3},
    {"paper_acp", exp::Algorithm::kAcp, false, 80.0, 100.0, 0},
};

/// The world is part of the workload, not of its inputs: every run builds
/// it from one fixed system seed (42, as the figure benches do), and --seed
/// drives only the run seed (arrivals, request mix, probing). Worlds drawn
/// from --seed moved requests_per_s by up to 50% and overhead by 37%
/// between seeds (perfbench/NOTES.md), hiding any change under 25%.
constexpr std::uint64_t kWorldSeed = 42;

exp::SystemConfig system_config(const Workload& w) {
  exp::SystemConfig cfg;
  cfg.seed = kWorldSeed;
  if (w.torus) {
    cfg.torus_rows = 64;
    cfg.torus_cols = 80;
    cfg.torus_link_delay_ms = 1.0;
    cfg.function_count = 1000;
  } else {
    cfg.topology.node_count = 3200;
    cfg.overlay.member_count = 400;
  }
  return cfg;
}

exp::ExperimentConfig experiment_config(const Workload& w, std::uint64_t seed,
                                        std::size_t shards, obs::Observability* obs) {
  exp::ExperimentConfig cfg;
  cfg.algorithm = w.algorithm;
  cfg.alpha = 0.3;
  cfg.duration_minutes = w.sim_minutes;
  cfg.schedule = {{0.0, w.rate_per_min}};
  cfg.run_seed = seed + 7100;
  cfg.shards = shards;
  cfg.obs = obs;
  return cfg;
}

struct Run {
  double wall_s = 0.0;
  exp::ExperimentResult result;
};

Run timed_run(const exp::Fabric& fabric, const exp::SystemConfig& sys,
              const exp::ExperimentConfig& cfg) {
  Run r;
  const auto t0 = Clock::now();
  r.result = exp::run_experiment(fabric, sys, cfg);
  r.wall_s = seconds_since(t0);
  return r;
}

struct SetupTime {
  double fabric_s = 0.0;
  double deploy_s = 0.0;
};

/// Builds the set-up at least 5 times and for at least 0.5 s (at most 400
/// times); keeps the last fabric. On the torus one build takes a few ms and
/// its time is bimodal, so run.py takes the median of batch means.
std::vector<SetupTime> time_setup(const exp::SystemConfig& sys, exp::Fabric& fabric) {
  std::vector<SetupTime> out;
  double total = 0.0;
  while (out.size() < 400 && (out.size() < 5 || total < 0.5)) {
    SetupTime s;
    auto t0 = Clock::now();
    exp::Fabric f = exp::build_fabric(sys);
    s.fabric_s = seconds_since(t0);
    t0 = Clock::now();
    const exp::Deployment dep = exp::build_deployment(f, sys);
    s.deploy_s = seconds_since(t0);
    fabric = std::move(f);
    total += s.fabric_s + s.deploy_s;
    out.push_back(s);
  }
  return out;
}

/// Opens the JSON object. `expected_requests` is the Poisson mean of one
/// run's arrivals, for run.py's plausibility check.
void print_header(const Workload& w, const char* mode) {
  std::printf("{\"workload\":\"%s\",\"mode\":\"%s\",\"expected_requests\":%.17g,", w.name,
              mode, w.rate_per_min * w.sim_minutes);
}

void print_setups(const std::vector<SetupTime>& setups) {
  std::printf("\"setup\":[");
  for (std::size_t i = 0; i < setups.size(); ++i) {
    std::printf("%s{\"fabric_s\":%.17g,\"deploy_s\":%.17g}", i == 0 ? "" : ",",
                setups[i].fabric_s, setups[i].deploy_s);
  }
  std::printf("]");
}

void print_run(const Run& r) {
  const exp::ExperimentResult& x = r.result;
  std::printf(
      "{\"wall_s\":%.17g,\"requests\":%llu,\"successes\":%llu,\"success_rate\":%.17g,"
      "\"mean_phi\":%.17g,\"overhead_per_minute\":%.17g,\"mean_candidates_qualified\":%.17g}",
      r.wall_s, static_cast<unsigned long long>(x.requests),
      static_cast<unsigned long long>(x.successes), x.success_rate, x.mean_phi,
      x.overhead_per_minute, x.mean_candidates_qualified);
}

constexpr const char* kScopes[] = {
    obs::prof_scope::kSimDispatch,     obs::prof_scope::kProbingProcess,
    obs::prof_scope::kProbingRank,     obs::prof_scope::kProbingFinalize,
    obs::prof_scope::kDiscoveryLookup, obs::prof_scope::kStateCheckSweep,
    obs::prof_scope::kStatePublish,
};

/// Scope histograms (a scope that never ran reads zero) and every counter
/// family's total.
void print_observability(const obs::Observability& o) {
  std::printf("\"scopes\":{");
  bool first = true;
  for (const char* name : kScopes) {
    const obs::Histogram* h = o.metrics.find_histogram(obs::metric::kProfWall, {{"scope", name}});
    std::printf("%s\"%s\":{\"count\":%llu,\"sum_s\":%.17g,\"p50_s\":%.17g,\"p99_s\":%.17g}",
                first ? "" : ",", name,
                static_cast<unsigned long long>(h == nullptr ? 0 : h->count()),
                h == nullptr ? 0.0 : h->sum(), h == nullptr ? 0.0 : h->quantile(0.5),
                h == nullptr ? 0.0 : h->quantile(0.99));
    first = false;
  }
  std::map<std::string, std::uint64_t> families;
  o.metrics.for_each_counter(
      [&](const std::string& name, const obs::Labels&, const obs::Counter& c) {
        families[name] += c.value();
      });
  std::printf("},\"counters\":{");
  first = true;
  for (const auto& [name, total] : families) {
    std::printf("%s\"%s\":%llu", first ? "" : ",", name.c_str(),
                static_cast<unsigned long long>(total));
    first = false;
  }
  std::printf("}");
}

int run_e2e(const Workload& w, std::uint64_t seed, double seconds) {
  const exp::SystemConfig sys = system_config(w);
  exp::Fabric fabric;
  const auto setups = time_setup(sys, fabric);
  const exp::ExperimentConfig cfg = experiment_config(w, seed, 0, nullptr);

  // Repeat while another run of average length still fits in --seconds;
  // two runs at least, so every pass checks that a repeat reproduces.
  std::vector<Run> runs;
  const auto t0 = Clock::now();
  for (;;) {
    const double n = static_cast<double>(runs.size());
    if (n >= 2 && seconds_since(t0) * (n + 1) / n > seconds) break;
    runs.push_back(timed_run(fabric, sys, cfg));
  }

  print_header(w, "e2e");
  print_setups(setups);
  std::printf(",\"runs\":[");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (i > 0) std::printf(",");
    print_run(runs[i]);
  }
  std::printf("],\"peak_rss_bytes\":%llu}\n",
              static_cast<unsigned long long>(util::peak_rss_bytes()));
  return 0;
}

int run_trace(const Workload& w, std::uint64_t seed) {
  const exp::SystemConfig sys = system_config(w);
  exp::Fabric fabric;
  const auto setups = time_setup(sys, fabric);

  // Untraced runs on both sides of the traced one, so the first run's
  // warm-up does not land on one side of the tracing-overhead ratio.
  const exp::ExperimentConfig plain = experiment_config(w, seed, 0, nullptr);
  const Run before = timed_run(fabric, sys, plain);
  obs::Observability o;
  const Run traced = timed_run(fabric, sys, experiment_config(w, seed, 0, &o));
  const Run after = timed_run(fabric, sys, plain);

  print_header(w, "trace");
  print_setups(setups);
  std::printf(",\"untraced\":[");
  print_run(before);
  std::printf(",");
  print_run(after);
  std::printf("],\"traced\":");
  print_run(traced);
  std::printf(",");
  print_observability(o);
  if (w.lanes > 0) {
    // The sharded engine on the same inputs: its own lineage, identical for
    // every lane count. The traced run gives the global lane's dispatch
    // time, the rest of its wall being the lane phase.
    const Run lanes = timed_run(fabric, sys, experiment_config(w, seed, w.lanes, nullptr));
    const Run one_lane = timed_run(fabric, sys, experiment_config(w, seed, 1, nullptr));
    obs::Observability lanes_obs;
    const Run lanes_traced =
        timed_run(fabric, sys, experiment_config(w, seed, w.lanes, &lanes_obs));
    const obs::Histogram* global_dispatch = lanes_obs.metrics.find_histogram(
        obs::metric::kProfWall, {{"scope", obs::prof_scope::kSimDispatch}});
    std::printf(",\"sharded\":{\"lanes\":%zu,\"untraced\":", w.lanes);
    print_run(lanes);
    std::printf(",\"one_lane\":");
    print_run(one_lane);
    std::printf(",\"traced\":");
    print_run(lanes_traced);
    std::printf(",\"global_dispatch_s\":%.17g}",
                global_dispatch == nullptr ? 0.0 : global_dispatch->sum());
  }
  std::printf("}\n");
  return 0;
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: acp_perfbench --workload NAME --seed N "
               "--mode e2e|trace [--seconds S]\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string mode;
  std::string seed_arg;
  double seconds = 10.0;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--mode") {
      mode = value;
    } else if (flag == "--seed") {
      seed_arg = value;
    } else if (flag == "--seconds") {
      char* end = nullptr;
      seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(seconds > 0.0)) usage("bad --seconds");
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (seed_arg.empty() || seed_arg.find_first_not_of("0123456789") != std::string::npos ||
      seed_arg.size() > 19) {
    usage("--seed must be a non-negative integer");
  }
  const std::uint64_t seed = std::stoull(seed_arg);

  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) usage(("unknown workload '" + workload + "'").c_str());
  if (mode == "e2e") return run_e2e(*w, seed, seconds);
  if (mode == "trace") return run_trace(*w, seed);
  usage("--mode must be e2e or trace");
}
