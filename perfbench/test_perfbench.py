"""Self-tests of the benchmark: the verdict oracle, the tracer, the host
speed adjustment and the agreement between BENCHMARK.json and what the
benchmark measures.

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import copy
import json
import random
import signal
import sys
import time
import unittest

from checkout import FIXTURES, ROOT, import_idealbar

idealbar = import_idealbar()

import hostspeed  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from tracer import COUNTERS, SPANS, Tracer, self_times  # noqa: E402


def _broken_report():
    ws = idealbar.Workspace.load(str(FIXTURES / "broken_action.json"))
    return idealbar.validate_crossed_module(ws.xmod("main"))


def _namespaces():
    """Every binding the tracer may touch, by identity."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "idealbar" or name.startswith("idealbar."):
            for key, value in vars(module).items():
                out[(name, key)] = value
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        out[(name, key, attr)] = member
    return out


class SignatureTest(unittest.TestCase):
    def setUp(self):
        self.report = _broken_report()
        self.cm2 = self.report.find("cm2")

    def test_fixture_fails_cm2_at_the_least_witness(self):
        self.assertEqual(self.cm2.status, "FAIL")
        self.assertEqual(self.cm2.witness, ((1,), (1,)))

    def test_bookkeeping_meta_is_ignored(self):
        changed = copy.deepcopy(self.report)
        cm2 = changed.find("cm2")
        cm2.meta.update(mode="generators", checked=1, seed=7, generator_pairs=1)
        self.assertEqual(oracle.signature(changed), oracle.signature(self.report))

    def test_flipped_status_is_caught(self):
        changed = copy.deepcopy(self.report)
        changed.find("cm2").status = "PASS"
        self.assertNotEqual(oracle.digest(oracle.signature(changed)),
                            oracle.digest(oracle.signature(self.report)))

    def test_changed_witness_is_caught(self):
        changed = copy.deepcopy(self.report)
        changed.find("cm2").witness = ((0,), (1,))
        self.assertNotEqual(oracle.digest(oracle.signature(changed)),
                            oracle.digest(oracle.signature(self.report)))

    def test_counts_of_note_leaves_are_kept(self):
        ws = idealbar.Workspace.load(str(FIXTURES / "nilsquare.json"))
        report = idealbar.perturb_and_filter(ws.xmod("main"), budget=20)
        changed = copy.deepcopy(report)
        changed.find("survivors").meta["count"] += 1
        self.assertNotEqual(oracle.signature(changed), oracle.signature(report))


class TracerTest(unittest.TestCase):
    def _traced(self, fn):
        tracer = Tracer()
        with tracer.installed():
            fn()
            return tracer.pass_metrics()

    def test_every_rebound_name_is_restored(self):
        before = _namespaces()
        original_sweep = idealbar.policy.sweep
        with Tracer().installed():
            self.assertIsNot(idealbar.policy.sweep, original_sweep)
            self.assertIsNot(idealbar.core.sweep, original_sweep)
            self.assertIs(idealbar.core.sweep, idealbar.xmod.sweep)
        self.assertIs(idealbar.policy.sweep, original_sweep)
        self.assertEqual(_namespaces(), before)

    def test_bindings_are_restored_after_an_exception(self):
        before = _namespaces()
        with self.assertRaises(ZeroDivisionError):
            with Tracer().installed():
                1 / 0
        self.assertEqual(_namespaces(), before)

    def test_every_target_is_rebound(self):
        with Tracer().installed():
            for target in [t for ts in SPANS.values() for t in ts] \
                    + list(COUNTERS.values()):
                module, _, qualname = target.partition(":")
                owner = sys.modules[module]
                for part in qualname.split("."):
                    owner = getattr(owner, part)
                self.assertTrue(hasattr(owner, "__wrapped__"), target)

    def test_counts_repeat_exactly(self):
        ws = idealbar.Workspace.load(str(FIXTURES / "nilsquare.json"))

        def op():
            idealbar.verify_bar(idealbar.build_bar_algebra(ws.xmod("main"), 2))
            idealbar.validate_crossed_module(ws.xmod("main"))

        first, second = self._traced(op), self._traced(op)
        counts = [k for k in first if not k.endswith("_s")]
        self.assertEqual({k: first[k] for k in counts},
                         {k: second[k] for k in counts})
        self.assertGreater(first["policy.sweep_calls"], 0)
        self.assertGreater(first["core.evaluate_calls"], 0)
        self.assertEqual(first["xmod.validate_calls"], 1)


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_span_tree(self):
        spans = [
            ["a", 0.0, 10.0, -1],
            ["b", 1.0, 4.0, 0],
            ["c", 5.0, 9.0, 0],
            ["b", 6.0, 8.0, 2],
            ["a", 11.0, 12.5, -1],
        ]
        self.assertEqual(self_times(spans),
                         {"a": 10.0 - 3.0 - 4.0 + 1.5, "b": 3.0 + 2.0,
                          "c": 4.0 - 2.0})


class HostSpeedTest(unittest.TestCase):
    def test_adjust_weighs_each_interval_by_its_length(self):
        ref = hostspeed.REFERENCE_S
        sampler = hostspeed.Sampler()
        sampler.samples = [ref, ref]
        self.assertAlmostEqual(sampler.adjust(3.0), 3.0)
        sampler.samples = [2 * ref, 2 * ref]
        self.assertAlmostEqual(sampler.adjust(3.0), 1.5)
        # half the time at full speed, half at half speed
        sampler.samples = [ref, 2 * ref]
        self.assertAlmostEqual(sampler.adjust(3.0), 1.5 + 0.75)

    def test_timed_samples_while_it_runs_and_restores_the_alarm(self):
        before = signal.getsignal(signal.SIGALRM)
        calls = []

        def fn():
            calls.append(len(calls))
            time.sleep(5 * hostspeed.INTERVAL_S)
            return "done"

        result, wall, adjusted = hostspeed.timed(fn)
        self.assertEqual((result, calls), ("done", [0]))
        # the sleep's own clock includes the sampling that wall leaves out
        self.assertAlmostEqual(wall, 5 * hostspeed.INTERVAL_S, delta=0.2)
        self.assertGreater(adjusted, 0)
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


class SpecTest(unittest.TestCase):
    def setUp(self):
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            self.spec = json.load(fh)

    def test_workloads_match(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(workloads.WORKLOADS))

    def test_per_layer_metrics_are_all_produced(self):
        produced = set(Tracer().pass_metrics())
        produced |= set(workloads.Workload(0).layer_counts([]))
        produced |= {"report.leaves", "trace.overhead_ratio"}
        self.assertEqual({m["name"] for m in self.spec["per_layer"]}, produced)

    def test_interaction_map_covers_every_per_layer_metric(self):
        with open(ROOT / "perfbench" / "map.json", encoding="utf-8") as fh:
            entries = json.load(fh)["interaction_map"]
        self.assertEqual(sorted(e["metric"] for e in entries),
                         sorted(m["name"] for m in self.spec["per_layer"]))
        names = {w["name"] for w in self.spec["workloads"]}
        metrics = {m["name"] for m in self.spec["end_to_end"]}
        for entry in entries:
            for ref in entry["moves"] + entry["no_change"]:
                self.assertIn(ref["workload"], names)
                self.assertIn(ref["metric"], metrics)

    def test_reference_covers_every_draw(self):
        for cls in (workloads.Perturb, workloads.CimFuzz):
            ref = oracle.load_reference(cls.name)
            cases = {str(c) for c in range(cls.CASES)}
            self.assertEqual(set(ref["entries"]), cases)
            self.assertEqual(set(ref["work"]), cases)
        ref = oracle.load_reference(workloads.Enumerate.name)
        sizes = {e["candidates"] for e in ref["entries"].values()}
        self.assertEqual(sizes, set(workloads.Enumerate.CANDIDATE_CLASSES))
        self.assertEqual(set(ref["work"]), set(ref["entries"]))

    def test_every_seed_draws_the_same_candidate_count(self):
        ref = oracle.load_reference(workloads.Enumerate.name)
        totals = set()
        for seed in range(5):
            wl = workloads.Enumerate(seed)
            wl.plan(ref)
            totals.add(sum(ref["entries"][key]["candidates"]
                           for key, _ in wl.ops))
        self.assertEqual(totals, {2 * sum(workloads.Enumerate.CANDIDATE_CLASSES)})


class FactsTest(unittest.TestCase):
    def test_perturb_seed_0_at_budget_1000_leaves_5_survivors(self):
        # ROADMAP baseline; the workload itself runs a smaller budget
        wl = workloads.Perturb(0)
        wl.BUDGET = 1000
        key, fn = wl.op(0)
        report = fn(wl.fresh())
        self.assertEqual(wl.facts(key, report), [])
        self.assertEqual(report.find("survivors").meta["count"], 5)
        changed = copy.deepcopy(report)
        changed.find("survivors").meta["count"] = 4
        self.assertNotEqual(wl.facts(key, changed), [])


class CouplesTest(unittest.TestCase):
    def test_couples_mirror_the_work_ranking(self):
        work = {"a": 5, "b": 1, "c": 9, "d": 3}
        self.assertEqual(workloads.couples(work), [("b", "c"), ("d", "a")])
        work["e"] = 4
        self.assertEqual(workloads.couples(work),
                         [("b", "c"), ("d", "a"), ("e", "e")])

    def test_every_case_is_in_one_couple(self):
        work = oracle.load_reference(workloads.CimFuzz.name)["work"]
        cases = [c for couple in workloads.couples(work) for c in couple]
        self.assertEqual(sorted(cases), sorted(work))


class StrataTest(unittest.TestCase):
    def test_one_key_from_each_stratum(self):
        work = {str(i): 10 * i for i in range(9)}
        for seed in range(20):
            drawn = workloads.strata(work, 3, random.Random(seed))
            self.assertEqual([int(k) // 3 for k in drawn], [0, 1, 2])

    def test_a_seed_draws_distinct_cases(self):
        ref = oracle.load_reference(workloads.Perturb.name)
        wl = workloads.Perturb(3)
        wl.plan(ref)
        keys = [key for key, _ in wl.ops]
        self.assertEqual(len(keys), workloads.Perturb.CALLS)
        self.assertEqual(len(set(keys)), len(keys))


if __name__ == "__main__":
    unittest.main()
