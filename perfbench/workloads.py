"""The four workloads: what each sets up, what one pass runs, and how its
verdicts are checked.

A workload's constructor is its set-up: everything a CLI invocation does
before its first operation can start.  plan() then draws the workload's
fixed list of operations from the seed; the package only ever sees the
inputs drawn here.  A pass resolves fresh objects (fresh()), runs every
operation and renders the reports the CLI would print, so lazy caches on
the objects are paid on every pass, as every CLI invocation pays them.

Entry points are looked up on the idealbar modules at call time so that
the traced run, which rebinds them, sees every call.
"""

from __future__ import annotations

import json
import random

import idealbar
import idealbar.enumeration
from idealbar.report import FAIL, NOTE, PASS, SKIP, group, leaf

import oracle
from checkout import FIXTURES

NILCUBE = FIXTURES / "nilcube.json"


class Workload:
    name = ""
    unit = ""  # what decided_per_s counts
    # whether the reference also keeps each operation's work, the exact
    # count of BilinearMap.evaluate plus ModuleHom.apply calls it makes,
    # from which the workload pairs its draws
    weighed = False

    def __init__(self, seed: int):
        self.seed = seed
        self.ops = []          # (reference key, callable taking fresh())
        self.reference = None

    def plan(self, reference: dict | None) -> None:
        self.reference = reference

    def fresh(self):
        return None

    def cli_reports(self, results) -> list:
        """The reports a CLI user would see for this pass's results."""
        return [r for _, r in results]

    def decided(self, key, result) -> int:
        raise NotImplementedError

    def reference_entry(self, result) -> dict:
        """What the frozen reference keeps for one operation: the digest
        of its verdict signature and a few readable counts."""
        return {"digest": oracle.digest(oracle.signature(result)),
                "exit": idealbar.exit_code(result)}

    def facts(self, key, result) -> list[str]:
        """Hand-written facts from the README and ROADMAP."""
        return []

    def check(self, key, result) -> list[str]:
        """Empty when the verdict matches the reference and the facts."""
        errors = self.facts(key, result)
        expected = self.reference["entries"].get(key)
        got = self.reference_entry(result)
        if got != expected:
            errors.append(f"verdict differs from the reference: "
                          f"got {got}, expected {expected}")
        return errors

    def layer_counts(self, results) -> dict:
        """Per-layer counts read off the pass's results; zero where the
        workload does not run the layer."""
        return {"roundtrip.survivors": 0, "enumeration.candidates": 0,
                "enumeration.valid_ratio": 0.0}


class _NilcubeWorkload(Workload):
    """Set-up shared by the workloads on fixtures/nilcube.json: load the
    workspace as the CLI does and keep its parsed JSON, from which every
    pass resolves fresh objects."""

    names = ()

    def __init__(self, seed: int):
        super().__init__(seed)
        ws = idealbar.Workspace.load(str(NILCUBE))
        for kind, name in self.names:
            getattr(ws, kind)(name)
        with open(NILCUBE, encoding="utf-8") as fh:
            self.data = json.load(fh)

    def fresh(self):
        return idealbar.Workspace(self.data, label=str(NILCUBE))


class SimplicialVerify(_NilcubeWorkload):
    """Seed unused: under the auto policy every sweep here is exhaustive."""

    name = "simplicial-verify"
    unit = "report leaves with status PASS or FAIL"
    names = (("xmod", "main"), ("morphism", "incl"))
    BAR_DEPTH = 4
    BIBAR_SHAPE = (3, 2)   # the largest bidegree that builds

    def plan(self, reference):
        super().plan(reference)
        policy = idealbar.Policy()
        rows, cols = self.BIBAR_SHAPE
        self.ops = [
            (f"bar-verify main depth {self.BAR_DEPTH}",
             lambda ws: idealbar.verify_bar(
                 idealbar.build_bar_algebra(ws.xmod("main"), self.BAR_DEPTH),
                 policy)),
            (f"bibar-verify incl ({rows},{cols})",
             lambda ws: idealbar.verify_bibar(
                 idealbar.build_bibar(ws.morphism("incl"), rows, cols),
                 policy)),
        ]

    def decided(self, key, report):
        return oracle.decided_leaves(report)

    def reference_entry(self, report):
        return {**super().reference_entry(report),
                "decided": self.decided(None, report)}

    def facts(self, key, report):
        # README: the fixtures verify, exit 0 with every check passing
        bad = [n.name for _, n in oracle.leaves(report)
               if n.status in (FAIL, SKIP)]
        if idealbar.exit_code(report) != 0 or bad:
            return [f"{key} does not pass everywhere: {bad[:3]}"]
        return []


class Perturb(_NilcubeWorkload):
    """perturb_and_filter on nilcube, on CALLS perturbation seeds drawn
    from the pool of CASES seeds the reference covers, one from each
    stratum of the pool ranked by frozen work."""

    name = "perturb"
    unit = "candidate structures filtered"
    names = (("xmod", "main"),)
    weighed = True
    # the work of one call varies tenfold between seeds with a long tail,
    # which mirrored couples do not even out, so a pass spreads its budget
    # over 24 seeds, one per stratum; the ROADMAP's budget-1000 fact is
    # checked by the self-tests, at that budget
    CASES = 128
    CALLS = 24
    DEPTH = 2
    BUDGET = 50

    def op(self, case: int):
        policy = idealbar.Policy(seed=case)
        return (str(case), lambda ws: idealbar.perturb_and_filter(
            ws.xmod("main"), depth=self.DEPTH, seed=case, budget=self.BUDGET,
            policy=policy))

    def plan(self, reference):
        super().plan(reference)
        self.ops = [self.op(int(c)) for c in strata(
            reference["work"], self.CALLS, random.Random(self.seed))]

    def decided(self, key, report):
        return report.find("candidates").meta["budget"]

    def reference_entry(self, report):
        return {**super().reference_entry(report),
                "survivors": report.find("survivors").meta["count"]}

    def facts(self, key, report):
        errors = []
        exact = report.find("survivors-roundtrip-exact")
        if exact is None or exact.status != PASS:
            errors.append("a survivor of the definition filter does not "
                          "round-trip")
        # ROADMAP baseline: seed 0 at budget 1000 leaves 5 survivors
        survivors = report.find("survivors").meta["count"]
        if key == "0" and self.BUDGET == 1000 and survivors != 5:
            errors.append(f"seed 0 has {survivors} survivors, expected 5")
        return errors

    def layer_counts(self, results):
        return {**super().layer_counts(results),
                "roundtrip.survivors": sum(
                    r.find("survivors").meta["count"] for _, r in results)}


class Enumerate(Workload):
    """classify_xmods on pairs of rank-2 algebras over Z/2.  Each pass
    takes from every candidate-count class a drawn pair and its partner
    by frozen work, so every seed classifies the same number of
    candidates at about the same cost."""

    name = "enumerate"
    unit = "crossed-module candidates classified"
    weighed = True
    MODULUS = 2
    RANK = 2
    CANDIDATE_CLASSES = (256, 512, 768, 1024)

    def __init__(self, seed: int):
        super().__init__(seed)
        # the algebra list is set-up, as for the CLI's enumerate command
        self.algebras = idealbar.enumerate_algebras(self.MODULUS, self.RANK)

    def plan(self, reference):
        super().plan(reference)
        rng = random.Random(self.seed)
        pairs = []
        for size in self.CANDIDATE_CLASSES:
            work = {k: reference["work"][k]
                    for k, v in reference["entries"].items()
                    if v["candidates"] == size}
            pairs += [pair_of(k) for k in rng.choice(couples(work))]
        self.use_pairs(pairs)

    def use_pairs(self, pairs) -> None:
        policy = idealbar.Policy()
        self.ops = [(f"{i},{j}", lambda algs, i=i, j=j:
                     idealbar.classify_xmods(algs[i], algs[j], policy))
                    for i, j in pairs]

    def fresh(self):
        return idealbar.enumerate_algebras(self.MODULUS, self.RANK)

    def cli_reports(self, results):
        rows = [leaf(f"xmod-candidates {key}", NOTE, None,
                     meta={"total": len(valid) + len(invalid),
                           "valid": len(valid), "invalid": len(invalid)})
                for key, (valid, invalid) in results]
        return [group(f"enumerate m={self.MODULUS} rank={self.RANK}", rows)]

    def decided(self, key, result):
        valid, invalid = result
        return len(valid) + len(invalid)

    def reference_entry(self, result):
        sig = oracle.classification_signature(*result)
        return {"digest": oracle.digest(sig),
                "candidates": self.decided(None, result),
                "valid": len(result[0])}

    def layer_counts(self, results):
        total = sum(self.decided(k, r) for k, r in results)
        valid = sum(len(r[0]) for _, r in results)
        return {**super().layer_counts(results),
                "enumeration.candidates": total,
                "enumeration.valid_ratio": valid / total if total else 0.0}


class CimFuzz(Workload):
    """fuzz_report on rank <= 2 algebras over Z/2, on a couple of fuzz
    seeds drawn from the pool of CASES seeds the reference covers: a
    seed and its mirror by frozen work, so that every pass does about
    the same work."""

    name = "cim-fuzz"
    unit = "crossed ideal map instances validated"
    weighed = True
    MODULUS = 2
    MAX_RANK = 2
    CASES = 64
    COUNT = 1000

    def op(self, case: int):
        policy = idealbar.Policy(seed=case)
        return (str(case), lambda _: idealbar.enumeration.fuzz_report(
            self.MODULUS, self.MAX_RANK, self.COUNT, case, policy))

    def plan(self, reference):
        super().plan(reference)
        [couple] = random.Random(self.seed).sample(
            couples(reference["work"]), 1)
        self.ops = [self.op(int(c)) for c in couple]

    def decided(self, key, report):
        return sum(1 for c in report.checks if c.name != "fuzz-summary")

    def reference_entry(self, report):
        return {**super().reference_entry(report),
                "failures": report.find("fuzz-summary").meta["failures"]}

    def facts(self, key, report):
        # README: every fuzzed crossed ideal map validates
        if report.find("fuzz-summary").meta["failures"] != 0:
            return ["fuzz-summary reports failures"]
        return []


WORKLOADS = {w.name: w for w in (SimplicialVerify, Perturb, Enumerate, CimFuzz)}


def couples(work: dict) -> list[tuple[str, str]]:
    """The keys of work ranked by it and coupled from both ends, so that
    each couple does about the median work twice; with an odd count the
    median key is coupled with itself."""
    ranked = sorted(work, key=lambda k: (work[k], k))
    n = len(ranked)
    return [(ranked[i], ranked[n - 1 - i]) for i in range((n + 1) // 2)]


def strata(work: dict, k: int, rng: random.Random) -> list[str]:
    """One key drawn from each of k strata of the keys of work ranked by
    it, so that every draw does about the same work in total."""
    ranked = sorted(work, key=lambda key: (work[key], key))
    n = len(ranked)
    return [ranked[rng.randrange(i * n // k, (i + 1) * n // k)]
            for i in range(k)]


def pair_of(key: str) -> tuple[int, int]:
    i, j = key.split(",")
    return int(i), int(j)
