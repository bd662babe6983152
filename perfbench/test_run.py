"""Tests of the benchmark's own arithmetic and output check, on synthetic
acp_perfbench output (no build needed):

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""
import json
import random
import unittest
from pathlib import Path

import run

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# Exclusive slices of the traced (serial-engine) wall: the hop split into
# its self time, ranking and discovery (which always nest inside it), the
# two state timers, and time outside any engine dispatch. They are disjoint,
# so their shares sum to at most 1. Finalize is left out: it is inclusive
# and can nest inside a hop when the last probe dies there.
EXCLUSIVE_SHARES = ("core.hop_self_share", "core.rank_share", "discovery.lookup_share",
                    "state.check_sweep_share", "state.publish_share", "exp.unscoped_share")


def make_run(wall_s=2.0, requests=1000, successes=700, phi=1.25, overhead=3000.0):
    return {"wall_s": wall_s, "requests": requests, "successes": successes,
            "success_rate": successes / requests, "mean_phi": phi,
            "overhead_per_minute": overhead, "mean_candidates_qualified": 12.5}


def scope(sum_s, count=100):
    return {"count": count if sum_s else 0, "sum_s": sum_s, "p50_s": sum_s / (count or 1),
            "p99_s": 2 * sum_s / (count or 1)}


def make_trace(wall=4.0, dispatch=3.8, hop=2.0, rank=1.0, lookup=0.1, finalize=0.9,
               sweep=0.05, publish=0.01, lanes=0):
    raw = {
        "workload": "synthetic", "mode": "trace", "expected_requests": 1000,
        "setup": [{"fabric_s": 0.3, "deploy_s": 0.01}],
        "untraced": [make_run(wall_s=wall / 2), make_run(wall_s=wall / 2)],
        "traced": make_run(wall_s=wall),
        "scopes": {run.DISPATCH: scope(dispatch), run.HOP: scope(hop), run.RANK: scope(rank),
                   run.LOOKUP: scope(lookup), run.FINALIZE: scope(finalize),
                   run.CHECK_SWEEP: scope(sweep), run.PUBLISH: scope(publish)},
        "counters": {"acp.request.accepted": 1000, "acp.request.confirmed": 700,
                     "acp.request.failed": 300, "acp.probe.spawned": 5000,
                     "acp.probe.returned": 2000, "acp.probe.candidates_evaluated": 9000,
                     "acp.probe.candidates_rejected": 5000, "acp.probe.messages": 40000,
                     "acp.sim.events_executed": 50000},
    }
    if lanes:
        # Another lineage than the serial runs: different outputs.
        raw["sharded"] = {"lanes": lanes, "untraced": make_run(wall_s=3.0, successes=690),
                          "one_lane": make_run(wall_s=6.0, successes=690),
                          "traced": make_run(wall_s=5.0, successes=690),
                          "global_dispatch_s": 1.0}
    return raw


def nested_trace(rng):
    """A serial traced run whose scopes nest as they do in src/: hop, the
    state timers and finalize inside dispatch; rank and lookup inside the
    hop."""
    wall = rng.uniform(0.5, 20.0)
    dispatch = wall * rng.uniform(0.5, 1.0)
    hop, sweep, publish = (dispatch * x for x in rng.choice([(0.6, 0.1, 0.05), (0.98, 0.01, 0.01),
                                                             (0.3, 0.3, 0.3)]))
    rank = hop * rng.uniform(0.0, 0.9)
    lookup = (hop - rank) * rng.uniform(0.0, 1.0)
    finalize = hop * rng.uniform(0.0, 1.0)
    return make_trace(wall, dispatch, hop, rank, lookup, finalize, sweep, publish)


class ScopeArithmetic(unittest.TestCase):
    def test_hop_self_time_is_never_negative(self):
        rng = random.Random(11)
        for _ in range(500):
            self.assertGreaterEqual(run.layer_metrics(nested_trace(rng))["core.hop_self_s"], 0.0)
        # Rank and lookup can cover the whole hop; float rounding must not
        # leave a negative remainder.
        tight = make_trace(hop=0.3, rank=0.1, lookup=0.2)
        self.assertGreaterEqual(run.layer_metrics(tight)["core.hop_self_s"], 0.0)

    def test_serial_layer_shares_sum_to_at_most_one(self):
        rng = random.Random(12)
        for _ in range(500):
            m = run.layer_metrics(nested_trace(rng))
            self.assertLessEqual(sum(m[k] for k in EXCLUSIVE_SHARES), 1.0 + 1e-12)
            self.assertTrue(all(m[k] >= 0.0 for k in EXCLUSIVE_SHARES))

    def test_unscoped_and_lane_phase_time(self):
        serial = run.layer_metrics(make_trace(wall=4.0, dispatch=3.0))
        self.assertAlmostEqual(serial["exp.unscoped_s"], 1.0)
        self.assertEqual(serial["sim.lane_phase_s"], 0.0)
        self.assertEqual(serial["sim.shard_speedup"], 0.0)
        m = run.layer_metrics(make_trace(wall=4.0, dispatch=3.0, lanes=3))
        self.assertAlmostEqual(m["exp.unscoped_s"], 1.0)
        self.assertAlmostEqual(m["sim.lane_phase_s"], 4.0)  # sharded traced 5.0 - global 1.0
        self.assertAlmostEqual(m["sim.lane_phase_share"], 0.8)
        self.assertAlmostEqual(m["sim.shard_speedup"], 2.0 / 3.0)  # serial untraced 2.0 / 3.0
        self.assertAlmostEqual(m["sim.window_tax"], 3.0)  # one lane 6.0 / serial 2.0


class SetupTime(unittest.TestCase):
    def test_batched_median_is_the_median_of_slice_means(self):
        self.assertEqual(run.batched_median([1.0, 2.0, 3.0, 4.0, 5.0]), 3.0)
        # Bimodal samples: a plain median lands on either mode, slice means
        # do not.
        self.assertAlmostEqual(run.batched_median([1.0, 9.0] * 50), 5.0)


class MetricNames(unittest.TestCase):
    def test_every_metric_name_is_well_formed(self):
        for name in list(run.END_TO_END_UNITS) + list(run.LAYER_UNITS):
            self.assertRegex(name, r"\A[A-Za-z0-9_.-]+\Z")

    def test_every_layer_metric_is_reported_even_when_the_layer_does_not_run(self):
        raw = make_trace(sweep=0.0, publish=0.0, rank=0.0)
        m = run.layer_metrics(raw)
        self.assertEqual(set(m), set(run.LAYER_UNITS))
        self.assertEqual(m["state.check_sweep_s"], 0.0)
        self.assertEqual(m["state.global_updates"], 0)
        self.assertEqual(m["core.rank_s"], 0.0)

    def test_end_to_end_metrics_match_their_units(self):
        raw = {"setup": [{"fabric_s": 0.3, "deploy_s": 0.01}], "runs": [make_run()],
               "peak_rss_bytes": 7e7}
        self.assertEqual(set(run.e2e_metrics(raw)), set(run.END_TO_END_UNITS))

    @unittest.skipUnless(BENCHMARK_JSON.is_file(), "BENCHMARK.json sits at the checkout root")
    def test_benchmark_json_lists_the_same_metrics_and_workloads(self):
        spec = json.loads(BENCHMARK_JSON.read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.LAYER_UNITS)
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), run.WORKLOADS)


class OutputCheck(unittest.TestCase):
    def test_identical_runs_pass(self):
        raw = {"expected_requests": 1000, "runs": [make_run(), make_run(wall_s=2.5)]}
        self.assertEqual(run.check_e2e(raw), [])
        self.assertEqual(run.check_trace(make_trace()), [])
        self.assertEqual(run.check_trace(make_trace(lanes=3)), [])

    def test_mismatched_repeat_fails(self):
        a = make_run(phi=1.25)
        b = make_run(phi=1.25 + 2.2e-16)  # one bit apart
        raw = {"expected_requests": 1000, "runs": [a, b]}
        problems = run.check_e2e(raw)
        self.assertEqual(len(problems), 1)
        self.assertIn("mean_phi", problems[0])
        result = run.result_line(run.e2e_metrics({**raw, "setup": [{"fabric_s": 1, "deploy_s": 1}],
                                                  "peak_rss_bytes": 1}),
                                 run.END_TO_END_UNITS, problems, 2000)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_traced_run_that_differs_from_untraced_fails(self):
        raw = make_trace()
        raw["traced"] = make_run(wall_s=4.0, successes=701)
        raw["counters"]["acp.request.confirmed"] = 701
        raw["counters"]["acp.request.failed"] = 299
        self.assertTrue(any("successes" in p for p in run.check_trace(raw)))

    def test_unbalanced_request_counters_fail(self):
        raw = make_trace()
        raw["counters"]["acp.request.failed"] = 299
        self.assertTrue(any("do not balance" in p for p in run.check_trace(raw)))

    def test_sharded_runs_must_match_each_other_but_not_the_serial_runs(self):
        raw = make_trace(lanes=3)
        self.assertNotEqual(raw["sharded"]["untraced"]["successes"], raw["traced"]["successes"])
        self.assertEqual(run.check_trace(raw), [])
        raw["sharded"]["one_lane"] = make_run(successes=690, overhead=3001.0)
        self.assertTrue(any("one_lane" in p for p in run.check_trace(raw)))

    def test_implausible_request_count_fails(self):
        raw = {"expected_requests": 1000, "runs": [make_run(requests=500, successes=350)]}
        self.assertTrue(any("expected about" in p for p in run.check_e2e(raw)))


if __name__ == "__main__":
    unittest.main()
