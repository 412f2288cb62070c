"""Generator-decided checks against the element sweep they replace.

The multilinear clauses of the bar layer, of xmod, of crossed_ideal and
of roundtrip (and the absorption clause of is_ideal) are decided on
generator tuples at every size, and a failing one is witnessed by the
first failing generator tuple.  The slow path, an element sweep of every
tuple, is kept as the oracle: each case below runs once as shipped and
once with the maps dropped from every check call, which closes the
generator path, and the JSON reports must be identical, verdicts,
witnesses and meta alike.  Under the default policy that compares the
clauses within the exhaustive bound; with the bound lowered to 1 every
element sweep samples, and each leaf decided on generators must still
match the exhaustive sweep.  The image check handed a fuzz draw's sub
crossed module is held to the same standard against the image it would
otherwise assemble.
"""

import random

import pytest

import idealbar.bar as bar_mod
import idealbar.core as core_mod
import idealbar.crossed_ideal as crossed_ideal_mod
import idealbar.enumeration as enumeration_mod
import idealbar.policy as policy_mod
import idealbar.roundtrip as roundtrip_mod
import idealbar.xmod as xmod_mod
from idealbar.bar import build_bar_algebra, verify_bar
from idealbar.core import (Algebra, AlgebraHom, BilinearMap, FiniteModule,
                           ModuleHom, image)
from idealbar.crossed_ideal import (CrossedIdealMap, image_crossed_ideal_check,
                                    sub_crossed_module,
                                    validate_crossed_ideal_map)
from idealbar.enumeration import (all_valid_xmods, enumerate_algebras,
                                  enumerate_xmods, fuzz_cims, fuzz_report)
from idealbar.policy import EXHAUSTIVE, SAMPLE, Policy
from idealbar.report import AXIOM, FAIL
from idealbar.roundtrip import perturb_and_filter, verify_extracted
from idealbar.xmod import (CrossedModule, inclusion_xmod, phi_cm1_criterion,
                           phi_cm2_criterion, validate_crossed_module)
from oracles import workspace

CHECKERS = (bar_mod, core_mod, xmod_mod, crossed_ideal_mod, roundtrip_mod)
MULTIPLICATIVITY_CALLERS = (bar_mod, core_mod, crossed_ideal_mod,
                            enumeration_mod, roundtrip_mod)
LOWERED = Policy(exhaustive_bound=1)
_shipped_multiplicativity = core_mod.multiplicativity_report


def _without_generators(*args, maps=None, **kwargs):
    return policy_mod.check(*args, **kwargs)


def _multiplicativity_without_generators(name, hom, dom, cod, policy=None):
    # a PASS of multiplicativity_report stays on generator pairs: sweeping
    # the 2048^2 pairs of nilcube level 4 takes minutes.  A FAIL read off
    # the tables is swept under the caller's policy, and the lowered-bound
    # tests sweep its passes too.  With the gate closed the report already
    # sweeps through the patched check
    rep = _shipped_multiplicativity(name, hom, dom, cod, policy)
    if rep.passed or not all(m.well_defined()
                             for m in (hom, dom.mul, cod.mul)):
        return rep
    return policy_mod.check(name, AXIOM, [dom.carrier] * 2,
                            lambda u, v: hom.apply(dom.multiply(u, v))
                            == cod.multiply(hom.apply(u), hom.apply(v)),
                            policy, detail="f(uv) != f(u)f(v)")


def assert_same(monkeypatch, run):
    """run() gives the same JSON as shipped and with every check, and
    every failing multiplicativity read off the tables, swept element by
    element."""
    fast = run().to_json()
    with monkeypatch.context() as m:
        for mod in CHECKERS:
            m.setattr(mod, "check", _without_generators)
        for mod in MULTIPLICATIVITY_CALLERS:
            m.setattr(mod, "multiplicativity_report",
                      _multiplicativity_without_generators)
        assert run().to_json() == fast


def count_sweeps(monkeypatch):
    calls = []
    sweep = policy_mod.sweep

    def counting_sweep(*args, **kwargs):
        calls.append(args)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(policy_mod, "sweep", counting_sweep)
    return calls


@pytest.mark.parametrize("modulus", [2, 3, 4])
def test_every_valid_rank_one_xmod_at_depth_one_to_three(monkeypatch, modulus):
    xmods = all_valid_xmods(modulus, 1)
    assert xmods
    for xm in xmods:
        for depth in (1, 2, 3):
            assert_same(monkeypatch,
                        lambda: verify_bar(build_bar_algebra(xm, depth)))


def test_first_candidates_of_every_rank_one_pair_mod_4(monkeypatch):
    algebras = enumerate_algebras(4, 1)
    for r_alg in algebras:
        for s_alg in algebras:
            for xm in enumerate_xmods(r_alg, s_alg)[:40]:
                assert_same(monkeypatch,
                            lambda: verify_bar(build_bar_algebra(xm, 2)))


@pytest.mark.parametrize("name", ["nilsquare", "nilcube", "broken_action"],
                         ids=lambda name: f"default-{name}_xmod")
def test_fixtures_at_depth_four(monkeypatch, name):
    xm = workspace(name).xmod("main")
    assert_same(monkeypatch, lambda: verify_bar(build_bar_algebra(xm, 4)))


def _swept_exhaustively(name, kind, spaces, pred, policy=None, detail="",
                        maps=None):
    return policy_mod.check(name, kind, spaces, pred, Policy(mode=EXHAUSTIVE),
                            detail)


def _multiplicativity_swept(name, hom, dom, cod, policy=None):
    # multiplicativity_report as a predicate swept exhaustively, its
    # generator-pair leaf fields kept: the table read it makes must match
    gate = all(m.well_defined() for m in (hom, dom.mul, cod.mul))
    rep = _swept_exhaustively(
        name, AXIOM, [dom.carrier] * 2,
        lambda u, v: hom.apply(dom.multiply(u, v))
        == cod.multiply(hom.apply(u), hom.apply(v)),
        detail="f(uv) != f(u)f(v)" if gate else "f(uv) = f(u)f(v)")
    if gate and rep.passed:
        rep.detail = "f(uv) = f(u)f(v), generator pairs, complete by bilinearity"
        rep.meta["generator_pairs"] = dom.carrier.rank ** 2
    return rep


def assert_generator_leaves_match_the_sweep(monkeypatch, xm, depth):
    """verify_bar under LOWERED, where every element sweep samples, against
    the same report with every check, multiplicativity included, swept
    exhaustively without maps: each leaf decided on generators (mode
    exhaustive) must be the sweep's leaf, and a sampled FAIL must be a
    FAIL of the sweep.  Returns the report under LOWERED."""
    fast = verify_bar(build_bar_algebra(xm, depth), LOWERED)
    with monkeypatch.context() as m:
        for mod in CHECKERS:
            m.setattr(mod, "check", _swept_exhaustively)
            if hasattr(mod, "multiplicativity_report"):
                m.setattr(mod, "multiplicativity_report",
                          _multiplicativity_swept)
        slow = verify_bar(build_bar_algebra(xm, depth), LOWERED)
    for a, b in zip(fast.walk(), slow.walk(), strict=True):
        assert a.name == b.name
        if a.checks:
            continue
        if a.meta.get("mode") == "sampled":
            assert a.status != FAIL or b.status == FAIL, a.name
        else:
            assert a.to_dict() == b.to_dict(), a.name
    return fast


def _sampled(rep):
    return [node.name for node in rep.walk()
            if node.meta.get("mode") == "sampled"]


@pytest.mark.parametrize("name,depth", [("nilsquare", 3), ("nilcube", 2),
                                        ("broken_action", 3)],
                         ids=["nilsquare_xmod-3", "nilcube_xmod-2",
                              "broken_action_xmod-3"])
def test_lowered_bound_matches_the_exhaustive_sweep(monkeypatch, name, depth):
    # nilcube stops at depth 2: the exhaustive sweep of its level-3
    # multiplicativity pairs alone takes about 40 s
    rep = assert_generator_leaves_match_the_sweep(
        monkeypatch, workspace(name).xmod("main"), depth)
    assert rep.passed == (name != "broken_action")
    if rep.passed:
        assert not _sampled(rep)


def test_lowered_bound_on_every_valid_rank_one_xmod_mod_4(monkeypatch):
    # depth 1: at depth 2 the exhaustive sweeps of the 51 bars take 6 s,
    # and the fixtures above reach levels 2 and 3
    xmods = all_valid_xmods(4, 1)
    assert len(xmods) == 51
    for xm in xmods:
        rep = assert_generator_leaves_match_the_sweep(monkeypatch, xm, 1)
        assert rep.passed and not _sampled(rep)


def test_nilcube_depth_six_samples_nothing():
    rep = verify_bar(build_bar_algebra(workspace("nilcube").xmod("main"), 6))
    assert rep.passed and not _sampled(rep)


def test_perturbation_harness_on_nilcube(monkeypatch):
    xm = workspace("nilcube").xmod("main")
    for seed in range(10):
        assert_same(monkeypatch, lambda: perturb_and_filter(
            xm, depth=2, seed=seed, budget=30))


@pytest.mark.parametrize("modulus", [4, 6])
def test_every_rank_one_candidate(monkeypatch, modulus):
    algebras = enumerate_algebras(modulus, 1)
    verdicts = set()
    for r_alg in algebras:
        for s_alg in algebras:
            for xm in enumerate_xmods(r_alg, s_alg):
                assert_same(monkeypatch,
                            lambda: validate_crossed_module(xm))
                verdicts.add(validate_crossed_module(xm).passed)
    assert verdicts == {True, False}


def _by_letters(xm):
    """The semidirect criteria and the tail face check as sweeps over
    four letters, with the product formulas written out."""
    s_alg, r_alg = xm.s_alg, xm.r_alg
    sadd, radd, rmul = s_alg.carrier.add, r_alg.carrier.add, r_alg.multiply
    eta, act = xm.eta.apply, xm.action.evaluate
    s_el, r_el = s_alg.elements(), r_alg.elements()

    def cm1(s, r, s2, r2):
        prod_r = radd(radd(act(s, r2), act(s2, r)), rmul(r, r2))
        return sadd(s_alg.multiply(s, s2), eta(prod_r)) \
            == s_alg.multiply(sadd(s, eta(r)), sadd(s2, eta(r2)))

    def cm2(a, b, c, d):
        return (eta(rmul(a, c)), radd(radd(rmul(a, d), rmul(c, b)),
                                      rmul(b, d))) \
            == (s_alg.multiply(eta(a), eta(c)),
                radd(radd(act(eta(a), d), act(eta(c), b)), rmul(b, d)))

    bar = build_bar_algebra(xm, 2)
    d0 = bar.face(2, 0)

    def tail(a1, a2, b1, b2):
        u, v = bar.embed_r(2, [a1, a2]), bar.embed_r(2, [b1, b2])
        return d0.apply(bar.multiply(2, u, v)) \
            == bar.multiply(1, d0.apply(u), d0.apply(v))

    return [policy_mod.check("cm1-phi-criterion", AXIOM, [s_el, r_el] * 2,
                             cm1, None, phi_cm1_criterion(xm).detail),
            policy_mod.check("cm2-phi-criterion", AXIOM, [r_el] * 4, cm2,
                             None, phi_cm2_criterion(xm).detail),
            policy_mod.check("d0-on-tail-multiplicative @ 2", AXIOM,
                             [r_el] * 4, tail, None,
                             "fails exactly on CM2 violations")]


def test_semidirect_criteria_and_the_tail_face(monkeypatch):
    # cm1-phi-criterion, cm2-phi-criterion and d0-on-tail-multiplicative
    # @ 2 check pairs of elements of a semidirect product or of the
    # level-2 tail, and split the witness back into four letters; the
    # sweep over the four letters is the oracle
    algebras = enumerate_algebras(4, 1)
    cases = [xm for r_alg in algebras for s_alg in algebras
             for xm in enumerate_xmods(r_alg, s_alg)[::7]]
    cases += [workspace(name).xmod("main")
              for name in ("nilcube", "broken_action")]
    cases.append(_torsion_violating_xmod())
    statuses = set()
    for xm in cases:
        runs = [lambda: phi_cm1_criterion(xm), lambda: phi_cm2_criterion(xm),
                lambda: verify_extracted(build_bar_algebra(xm, 2)).find(
                    "d0-on-tail-multiplicative @ 2")]
        for run, oracle in zip(runs, _by_letters(xm)):
            assert run().to_json() == oracle.to_json()
            assert_same(monkeypatch, run)
            statuses.add(oracle.passed)
    assert statuses == {True, False}


def test_fuzz_report_mod_4(monkeypatch):
    assert_same(monkeypatch, lambda: fuzz_report(4, 2, 25, seed=3))


def _twisted(cim, rng):
    """cim with one coefficient of h moved, which may break the h
    identities and may break the torsion of h."""
    raw = [[list(vec) for vec in row] for row in cim.h.constants]
    row = rng.choice(raw)
    vec = rng.choice(row)
    l = rng.randrange(len(vec))
    vec[l] = (vec[l] + 1 + rng.randrange(cim.h.target.orders[l] - 1)) \
        % cim.h.target.orders[l]
    h = BilinearMap(cim.h.left, cim.h.right, cim.h.target, raw)
    return CrossedIdealMap(cim.morphism, cim.alpha1_xmod.action,
                           cim.alpha2_xmod.action, h, name="twisted")


def test_fuzzed_and_twisted_crossed_ideal_maps_mod_4(monkeypatch):
    rng = random.Random(5)
    statuses = set()
    for _, cim in fuzz_cims(4, 2, 25, 7):
        cases = [cim]
        if cim.h.left.rank and cim.h.right.rank and cim.h.target.rank:
            cases.append(_twisted(cim, rng))
        for case in cases:
            assert_same(monkeypatch,
                        lambda: validate_crossed_ideal_map(case))
            assert_same(monkeypatch,
                        lambda: image_crossed_ideal_check(case))
            statuses.add(validate_crossed_ideal_map(case).passed)
    assert statuses == {True, False}


def _count_sub_assembly(monkeypatch):
    calls = []
    assemble = crossed_ideal_mod.sub_crossed_module

    def counted(*args, **kwargs):
        calls.append(args)
        return assemble(*args, **kwargs)

    monkeypatch.setattr(crossed_ideal_mod, "sub_crossed_module", counted)
    return calls


@pytest.mark.parametrize("args", [(2, 2, 200, 0), (4, 2, 25, 7),
                                  (6, 1, 50, 2)])
def test_image_check_handed_the_drawn_sub_matches_the_assembled_image(
        monkeypatch, args):
    # the draw's sub spans the image, so it stands in for the assembled
    # image without a sub_crossed_module call, on the drawn cim and on
    # one with h twisted, under the default and a sampling policy; equal
    # JSON means every leaf agrees in status, kind, witness and meta
    rng = random.Random(11)
    policies = (None, Policy(mode=SAMPLE, sample_count=2, seed=3))
    draws = fuzz_cims(*args)
    calls = _count_sub_assembly(monkeypatch)
    for sx, cim in draws:
        cases = [cim]
        if cim.h.left.rank and cim.h.right.rank and cim.h.target.rank:
            cases.append(_twisted(cim, rng))
        for case in cases:
            for policy in policies:
                handed = image_crossed_ideal_check(case, policy, sub=sx)
                assert not calls
                assembled = image_crossed_ideal_check(case, policy)
                assert calls
                calls.clear()
                assert handed.to_json() == assembled.to_json()


def test_image_check_assembles_the_image_for_a_sub_that_does_not_span_it(
        monkeypatch):
    # draws on one (algebra, ideal) pair share their ambient: take two of
    # them whose spans differ, and a sub on the same spans as the first
    # over an equal ambient built anew
    draws = fuzz_cims(2, 2, 40, 0)
    (sx, cim), (other, _) = next(
        (a, b) for a in draws for b in draws
        if b[0].ambient is a[0].ambient
        and (b[0].r_subset, b[0].s_subset) != (a[0].r_subset, a[0].s_subset))
    ambient = cim.morphism.target
    twin = sub_crossed_module(
        inclusion_xmod(ambient.s_alg, image(ambient.eta.hom)),
        sx.r_subset, sx.s_subset)
    assert twin.ambient is not ambient and twin.sub is not None
    calls = _count_sub_assembly(monkeypatch)
    expected = image_crossed_ideal_check(cim).to_json()
    assert len(calls) == 1
    for sub in (other, twin):
        assert image_crossed_ideal_check(cim, sub=sub).to_json() == expected
    assert len(calls) == 3


def test_rank_one_candidates_never_sweep(monkeypatch):
    calls = count_sweeps(monkeypatch)
    for r_alg in enumerate_algebras(4, 1):
        for s_alg in enumerate_algebras(4, 1):
            for xm in enumerate_xmods(r_alg, s_alg):
                validate_crossed_module(xm)
    assert calls == []


def test_nilcube_depth_four_never_sweeps(monkeypatch):
    # the differential tests above would pass vacuously if the fast path
    # were never taken
    xm = workspace("nilcube").xmod("main")
    calls = count_sweeps(monkeypatch)
    rep = verify_bar(build_bar_algebra(xm, 4))
    assert rep.passed
    assert calls == []


def _torsion_violating_xmod():
    """R = Z/2 + Z/4 over Z/4 with e0*e0 = e1: the order-2 generator
    squares to an element of order 4, so R.mul is not well defined on
    the module.  S = Z/2 with zero product; eta and the action are zero."""
    r_mod = FiniteModule(4, [2, 4])
    s_mod = FiniteModule(4, [2])
    r_alg = Algebra(r_mod, BilinearMap(r_mod, r_mod, r_mod,
                                       [[[0, 1], [0, 0]], [[0, 0], [0, 0]]]),
                    name="R")
    s_alg = Algebra(s_mod, BilinearMap(s_mod, s_mod, s_mod, [[[0]]]),
                    name="S")
    eta = AlgebraHom(r_alg, s_alg, ModuleHom(r_mod, s_mod, [[0], [0]]))
    act = BilinearMap(s_mod, r_mod, r_mod, [[[0, 0], [0, 0]]])
    return CrossedModule(eta, act, name="torsion")


def test_torsion_violation_closes_the_gate(monkeypatch):
    xm = _torsion_violating_xmod()
    assert next(xm.r_alg.mul.torsion_violations(), None) is not None
    bar = build_bar_algebra(xm, 2)
    assert not all(t.well_defined() for t in bar.tensors)
    assert_same(monkeypatch, lambda: verify_bar(build_bar_algebra(xm, 2)))

    # the gate matters: with it forced open the generator pairs pass a
    # clause that the element sweep refutes at (0,0,e0)(0,e0,e0)
    assert not verify_bar(bar).find("tail-tail-product @ 2").passed
    monkeypatch.setattr(bar, "tensors", ())
    assert verify_bar(bar).find("tail-tail-product @ 2").passed


def test_torsion_violating_level_tensor_closes_the_gate(monkeypatch):
    # over Z/4 with S = Z/2 and R = Z/4, level 1 is Z/2 + Z/4; sending
    # the square of the order-2 base generator to the order-4 letter
    # breaks torsion
    xm = next(x for x in all_valid_xmods(4, 1)
              if x.s_alg.orders == (2,) and x.r_alg.orders == (4,))
    canonical = build_bar_algebra(xm, 1)
    assert all(t.well_defined() for t in canonical.tensors)
    lvl = canonical.levels[1]
    raw = [[list(v) for v in row] for row in canonical.level_tensors()[1].constants]
    raw[0][0] = [raw[0][0][0], 1]
    tensor = BilinearMap(lvl, lvl, lvl, raw)
    assert next(tensor.torsion_violations(), None) is not None
    mutant = canonical.with_level_tensor(1, tensor)
    assert not all(t.well_defined() for t in mutant.tensors)
    assert_same(monkeypatch, lambda: verify_bar(mutant))


def test_fuzzed_subsets_are_closed_on_generators(monkeypatch):
    # every subset fuzz_cims builds is a span, so the closures in
    # sub_crossed_module and the presentation inclusion_xmod builds pass
    # on generators
    calls = count_sweeps(monkeypatch)
    inside = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            before = len(calls)
            out = fn(*args, **kwargs)
            inside.append(len(calls) - before)
            return out
        return wrapper

    for mod, name in ((enumeration_mod, "sub_crossed_module"),
                      (crossed_ideal_mod, "sub_crossed_module"),
                      (crossed_ideal_mod, "_present_subalgebra"),
                      (xmod_mod, "_present_subalgebra")):
        monkeypatch.setattr(mod, name, counted(getattr(mod, name)))
    assert fuzz_report(2, 2, 100).passed
    assert inside and sum(inside) == 0


def test_ideal_enumeration_never_sweeps(monkeypatch):
    # enumerate_ideals grows ideal closures, so no span is swept for an
    # absorption witness
    calls = count_sweeps(monkeypatch)
    inside = []
    enumerate_ideals = enumeration_mod.enumerate_ideals

    def counted(alg):
        before = len(calls)
        out = enumerate_ideals(alg)
        inside.append(len(calls) - before)
        return out

    monkeypatch.setattr(enumeration_mod, "enumerate_ideals", counted)
    assert fuzz_report(2, 2, 100).passed
    assert inside and sum(inside) == 0
