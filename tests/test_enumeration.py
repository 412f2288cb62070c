"""Exhaustive enumeration at desk scale and the seeded fuzzer."""

import hashlib
import json
import random
from collections import Counter
from itertools import product

import pytest

import idealbar.core as core_mod
import idealbar.crossed_ideal as crossed_ideal_mod
import idealbar.enumeration as enumeration_mod
import idealbar.xmod as xmod_mod
from idealbar.core import (Algebra, BilinearMap, FiniteModule, Submodule,
                           UnsupportedScaleError, is_ideal,
                           multiplicativity_report, validate_algebra)
from idealbar.crossed_ideal import (
    validate_crossed_ideal,
    validate_crossed_ideal_map,
)
from idealbar.enumeration import (
    all_valid_xmods,
    classify_xmods,
    enumerate_algebras,
    enumerate_action_tensors,
    enumerate_homs,
    enumerate_ideals,
    enumerate_order_tuples,
    enumerate_xmods,
    enumeration_report,
    fuzz_cims,
    fuzz_report,
)
from idealbar.policy import Policy
from idealbar.report import AXIOM, FAIL, leaf
from idealbar.xmod import (cm1_report, cm2_report, validate_algebra_action,
                           validate_crossed_module)
from oracles import (fuzz_chain, fuzz_cims_oracle, fuzz_report_oracle,
                     workspace)


def nilsquare_pair():
    """The ideal (x) and k[x]/(x^2) of the nilsquare workspace."""
    ws = workspace("nilsquare")
    return ws.algebra("R"), ws.algebra("S")


def test_order_tuples():
    assert enumerate_order_tuples(2, 1) == [(2,)]
    assert enumerate_order_tuples(4, 2) == [(2, 2), (2, 4), (4, 4)]
    assert enumerate_order_tuples(5, 0) == [()]


def test_algebra_counts_at_rank_one():
    assert len(enumerate_algebras(2, 1)) == 2
    assert len(enumerate_algebras(3, 1)) == 3
    assert len(enumerate_algebras(4, 1)) == 6


def test_enumerated_algebras_all_validate():
    for alg in enumerate_algebras(4, 1):
        assert validate_algebra(alg).passed


def test_rank_zero_is_the_zero_algebra():
    algs = enumerate_algebras(2, 0)
    assert len(algs) == 1
    assert algs[0].carrier.size == 1


def test_hom_candidates_for_the_nilsquare_pair():
    r, s = nilsquare_pair()
    homs = enumerate_homs(r, s)
    assert [h.images for h in homs] == [((0, 0),), ((0, 1),)]


def test_action_tensor_and_candidate_counts():
    r, s = nilsquare_pair()
    assert len(enumerate_action_tensors(s, r)) == 4
    cands = enumerate_xmods(r, s)
    assert len(cands) == 8
    assert cands[0].name == "cand0"


def test_classification_of_the_nilsquare_pair():
    r, s = nilsquare_pair()
    valid, invalid = classify_xmods(r, s)
    assert len(valid) == 3
    assert len(invalid) == 5
    for _, rep in invalid:
        assert not rep.passed


def classify_by_candidate(r_alg, s_alg, policy=None):
    """The oracle of classify_xmods: validate_crossed_module on every
    candidate of enumerate_xmods."""
    valid, invalid = [], []
    for xm in enumerate_xmods(r_alg, s_alg):
        rep = validate_crossed_module(xm, policy)
        if rep.passed:
            valid.append(xm)
        else:
            invalid.append((xm, rep))
    return valid, invalid


def json_text(rep):
    # to_json without its indent: the same tokens, so equal exactly when
    # to_json is, and written by the C encoder, which indent turns off
    return json.dumps(rep.to_dict(), sort_keys=True)


def assert_same_classification(r_alg, s_alg, policy=None):
    valid, invalid = classify_xmods(r_alg, s_alg, policy)
    o_valid, o_invalid = classify_by_candidate(r_alg, s_alg, policy)
    assert valid == o_valid
    assert [xm.name for xm in valid] == [xm.name for xm in o_valid]
    assert [xm for xm, _ in invalid] == [xm for xm, _ in o_invalid]
    assert [(xm.name, json_text(rep)) for xm, rep in invalid] \
        == [(xm.name, json_text(rep)) for xm, rep in o_invalid]


@pytest.mark.parametrize("modulus", [3, 4])
def test_classification_matches_the_oracle_at_rank_one(modulus):
    algs = [a for rank in (0, 1) for a in enumerate_algebras(modulus, rank)]
    for r_alg in algs:
        for s_alg in algs:
            assert_same_classification(r_alg, s_alg)


RANK_TWO = enumerate_algebras(2, 2)
RANK_TWO_PAIRS = random.Random(8).sample(
    [(r, s) for r in range(len(RANK_TWO)) for s in range(len(RANK_TWO))], 8)


@pytest.mark.parametrize("pair", RANK_TWO_PAIRS, ids=str)
def test_classification_matches_the_oracle_at_rank_two(pair):
    assert_same_classification(RANK_TWO[pair[0]], RANK_TWO[pair[1]])


def test_classification_matches_the_oracle_under_sampling():
    policy = Policy(mode="sample", sample_count=3, seed=5)
    r, s = RANK_TWO_PAIRS[0]
    assert_same_classification(RANK_TWO[r], RANK_TWO[s], policy)
    assert_same_classification(*nilsquare_pair(), policy)


@pytest.mark.parametrize("policy", [None, Policy(mode="sample",
                                                 sample_count=3, seed=5)])
def test_classification_matches_the_oracle_off_torsion(policy):
    # over Z/4 + Z/2, g_2 g_2 = g_1 is not torsion-compatible (2 g_1 !=
    # 0), so every clause that reads this product is swept, on either
    # side of the pair
    mod = FiniteModule(4, [4, 2])
    broken = Algebra(mod, BilinearMap(mod, mod, mod, [[(0, 0), (0, 0)],
                                                      [(0, 0), (1, 0)]]))
    assert not broken.mul.well_defined()
    for other in enumerate_algebras(4, 1)[:3]:
        assert_same_classification(other, broken, policy)
        assert_same_classification(broken, other, policy)
    valid, invalid = classify_xmods(enumerate_algebras(4, 1)[0], broken)
    assert not valid and invalid


def test_each_factor_is_validated_once(monkeypatch):
    r, s = nilsquare_pair()
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def built(name, builder):
        # the function a builder returns decides one tensor per call
        def wrapper(*args, **kwargs):
            calls[f"{name} built"] += 1
            return counted(name, builder(*args, **kwargs))
        return wrapper

    for name in ("validate_algebra", "validate_hom"):
        for mod in (core_mod, xmod_mod, enumeration_mod):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    for name, builder in (
            ("validate_algebra_action", "algebra_action_validator"),
            ("cm1 and cm2", "crossed_module_clauses")):
        monkeypatch.setattr(enumeration_mod, builder,
                            built(name, getattr(xmod_mod, builder)))
    valid, invalid = classify_xmods(r, s)
    homs, tensors = enumerate_homs(r, s), enumerate_action_tensors(s, r)
    assert len(valid) + len(invalid) == len(homs) * len(tensors) == 8
    assert calls == {"validate_algebra": 2, "validate_hom": len(homs),
                     "validate_algebra_action built": 1,
                     "validate_algebra_action": len(tensors),
                     "cm1 and cm2 built": len(homs),
                     "cm1 and cm2": len(homs) * len(tensors)}


def test_rejects_share_their_factor_reports():
    # each factor is validated once per call, and its report is a node of
    # every reject built on it; a cm1 or cm2 leaf read off the tables is
    # kept once per eta and witness, and only the root is per reject
    r, s = nilsquare_pair()
    _, invalid = classify_xmods(r, s)
    assert len(invalid) == 5
    factors = [rep.checks[:4] for _, rep in invalid]
    for (xm, _), reps in zip(invalid, factors):
        for (other, _), other_reps in zip(invalid, factors):
            assert reps[0] is other_reps[0] and reps[1] is other_reps[1]
            assert (reps[2] is other_reps[2]) == (xm.eta == other.eta)
            assert (reps[3] is other_reps[3]) == (xm.action == other.action)
    assert len({id(reps[2]) for reps in factors}) == 2
    assert len({id(reps[3]) for reps in factors}) < len(invalid)

    assert all([c.name for c in rep.checks[4:]] == ["cm1", "cm2"]
               for _, rep in invalid)
    shared = 0
    for (xm, rep), (other, other_rep) in product(invalid, repeat=2):
        for mine, theirs in zip(rep.checks[4:], other_rep.checks[4:]):
            same = xm.eta == other.eta and mine.witness == theirs.witness
            assert (mine is theirs) == same
            shared += same and xm is not other
    assert shared
    assert len({id(rep) for _, rep in invalid}) == len(invalid)


def test_enumerated_homs_are_multiplicative_over_torsion_violating_products():
    # the codomain product is not torsion-compatible, so generator pairs
    # decide nothing: f = ((1,3), (0,2)) agrees with the product on them,
    # yet f((1,0)(2,0)) = (0,2) while f(1,0) f(2,0) = (0,0)
    dom_mod, cod_mod = FiniteModule(4, [4, 2]), FiniteModule(4, [2, 4])
    dom = Algebra(dom_mod, BilinearMap(dom_mod, dom_mod, dom_mod,
                                       [[(3, 0), (0, 0)], [(0, 0), (2, 1)]]))
    cod = Algebra(cod_mod, BilinearMap(cod_mod, cod_mod, cod_mod,
                                       [[(1, 3), (1, 0)], [(1, 0), (0, 2)]]))
    assert dom.mul.well_defined() and not cod.mul.well_defined()
    homs = enumerate_homs(dom, cod)
    assert ((1, 3), (0, 2)) not in [h.images for h in homs]
    for h in homs:
        assert multiplicativity_report("f", h.hom, dom, cod,
                                       Policy(mode="exhaustive")).passed


@pytest.mark.parametrize("modulus, total, valid",
                         [(3, 52, 16), (4, 201, 51), (6, 884, 144)])
def test_enumeration_counts_at_rank_one(modulus, total, valid):
    cand = enumeration_report(modulus, 1).find("xmod-candidates")
    assert cand.meta == {"total": total, "valid": valid,
                         "invalid": total - valid}


def test_action_tensors_beyond_the_bound_are_refused_before_any_is_built(
        monkeypatch):
    # S of rank 2 on R of rank 3 over Z/2 has 8^6 = 262,144 tensors
    s_mod, r_mod = FiniteModule(2, [2, 2]), FiniteModule(2, [2, 2, 2])
    s_alg = Algebra(s_mod, BilinearMap(s_mod, s_mod, s_mod,
                                       [[s_mod.zero] * 2] * 2))
    r_alg = Algebra(r_mod, BilinearMap(r_mod, r_mod, r_mod,
                                       [[r_mod.zero] * 3] * 3))
    built = Counter()

    class CountedBilinearMap(BilinearMap):
        # the constructor and the enumeration both set a tensor here
        def _set(self, *args):
            built["tensors"] += 1
            super()._set(*args)

    monkeypatch.setattr(enumeration_mod, "BilinearMap", CountedBilinearMap)
    with pytest.raises(UnsupportedScaleError, match="tensor space too large"):
        enumerate_action_tensors(s_alg, r_alg)
    assert built["tensors"] == 0
    # the counter sees the tensors of a space within the bound
    assert len(enumerate_action_tensors(s_alg, s_alg)) == built["tensors"] == 256


def test_enumerated_tensors_are_the_constructed_ones():
    # the enumeration sets its cells, elements of the target, without
    # the constructor's conversion; mixed orders make the reduction matter
    mod = FiniteModule(4, [2, 4])
    alg = Algebra(mod, BilinearMap(mod, mod, mod, [[mod.zero] * 2] * 2))
    tensors = enumerate_action_tensors(alg, alg)
    assert len(tensors) == len(set(tensors)) == 512
    for t in tensors:
        assert t.well_defined()
        assert t == BilinearMap(mod, mod, mod, t.constants)
        assert all(type(v) is int for row in t.constants
                   for vec in row for v in vec)


def test_a_cm1_only_candidate_exists():
    """Some candidate satisfies everything except CM2; it is the one the
    localization tests lean on.  The witnesses live over R = Z/2 with an
    idempotent generator: eta = 0 makes CM1 vacuous while r r' != 0."""
    algs = [a for rank in (0, 1) for a in enumerate_algebras(2, rank)]
    hits = [xm
            for r_alg in algs for s_alg in algs
            for xm in enumerate_xmods(r_alg, s_alg)
            if validate_algebra_action(xm).passed
            and cm1_report(xm).passed and not cm2_report(xm).passed]
    assert hits
    for xm in hits:
        gen = xm.r_alg.generators()[0]
        assert xm.r_alg.multiply(gen, gen) == gen
        assert xm.eta.apply(gen) == xm.s_alg.zero


def test_all_valid_xmods_total():
    assert len(all_valid_xmods(2, 1)) == 9


def test_ideal_lattice_of_the_nilcube():
    sizes = [i.size
             for i in enumerate_ideals(workspace("nilcube").algebra("S"))]
    assert sizes == [1, 2, 4, 8]


def ideals_by_subgroups(alg):
    """The oracle of enumerate_ideals: every subgroup, found by adding
    one element at a time, kept when is_ideal passes."""
    carrier = alg.carrier
    zero_sub = Submodule.from_generators(carrier, [])
    seen = {zero_sub.elements: zero_sub}
    frontier = [zero_sub]
    while frontier:
        base = frontier.pop()
        for e in carrier.elements():
            if base.contains(e):
                continue
            grown = Submodule.from_generators(carrier, base.gens + (e,))
            if grown.elements not in seen:
                seen[grown.elements] = grown
                frontier.append(grown)
    subs = sorted(seen.values(), key=lambda s: (s.size, s.elements))
    return [s for s in subs if is_ideal(alg, s).passed]


def _torsion_violating_algebra():
    # over Z/6 on Z/3 + Z/6 with e0*e1 = e1: 3*e0 = 0 but 3*e1 != 0, so
    # the product is not well defined on the module and closing on
    # generators would find 6 ideals where there are 5
    mod = FiniteModule(6, [3, 6])
    return Algebra(mod, BilinearMap(mod, mod, mod,
                                    [[[0, 0], [0, 1]], [[0, 1], [0, 0]]]))


def test_ideals_match_the_subgroups_that_are_ideals():
    algs = [a for modulus, rank in ((2, 0), (2, 1), (2, 2), (4, 1))
            for a in enumerate_algebras(modulus, rank)]
    for alg in algs + [_torsion_violating_algebra()]:
        assert [i.elements for i in enumerate_ideals(alg)] \
            == [s.elements for s in ideals_by_subgroups(alg)]


def test_ideals_are_sorted_and_reproducible():
    a = enumerate_ideals(workspace("nilcube").algebra("S"))
    b = enumerate_ideals(workspace("nilcube").algebra("S"))
    assert [i.elements for i in a] == [i.elements for i in b]


def test_fuzzer_yields_validated_instances():
    pairs = fuzz_cims(2, 2, 5, seed=7)
    assert len(pairs) == 5
    for sx, cim in pairs:
        assert validate_crossed_ideal(sx).passed
        assert validate_crossed_ideal_map(cim).passed


def test_fuzzer_is_seed_deterministic():
    a = fuzz_cims(2, 2, 6, seed=3)
    b = fuzz_cims(2, 2, 6, seed=3)
    sizes_a = [(sx.r_subset.size, sx.s_subset.size) for sx, _ in a]
    sizes_b = [(sx.r_subset.size, sx.s_subset.size) for sx, _ in b]
    assert sizes_a == sizes_b
    c = fuzz_cims(2, 2, 6, seed=4)
    sizes_c = [(sx.r_subset.size, sx.s_subset.size) for sx, _ in c]
    assert sizes_a != sizes_c


def test_fuzz_report_rolls_up():
    rep = fuzz_report(2, 2, 8, seed=1)
    assert rep.passed, rep.render()
    summary = rep.find("fuzz-summary")
    assert summary.meta["count"] == 8
    assert summary.meta["failures"] == 0
    # one row per instance on top of the summary
    assert len(rep.checks) == 9


def fuzz_chain_count(*args):
    """The number of distinct ideal chains among the draws, read off the
    draws built one by one."""
    return len({fuzz_chain(cim) for _, cim in fuzz_cims_oracle(*args)})


def test_fuzz_report_validates_each_draw_once(monkeypatch):
    # fuzz_cims validates nothing; the image check of fuzz_report is the
    # one validate_crossed_ideal call per distinct drawn chain, whose
    # verdict the later draws of the chain take
    chains = fuzz_chain_count(2, 2, 20)
    calls = []
    validate = crossed_ideal_mod.validate_crossed_ideal

    def counted(*args, **kwargs):
        calls.append(args)
        return validate(*args, **kwargs)

    monkeypatch.setattr(crossed_ideal_mod, "validate_crossed_ideal", counted)
    monkeypatch.setattr(enumeration_mod, "validate_crossed_ideal", counted,
                        raising=False)
    assert fuzz_report(2, 2, 20).passed
    assert len(calls) == chains < 20


def test_fuzz_report_builds_each_ambient_and_sub_once(monkeypatch):
    # one inclusion_xmod per drawn (algebra, ideal) pair, and one
    # sub_crossed_module per drawn chain: the image check is handed the
    # draw's sub instead of assembling the image again
    chains = fuzz_chain_count(2, 2, 100)
    ambients, subs = [], []
    include = xmod_mod.inclusion_xmod
    assemble = crossed_ideal_mod.sub_crossed_module

    def counted_include(alg, ideal, *args, **kwargs):
        ambients.append((id(alg), ideal.form))
        return include(alg, ideal, *args, **kwargs)

    def counted_assemble(*args, **kwargs):
        subs.append(args)
        return assemble(*args, **kwargs)

    monkeypatch.setattr(enumeration_mod, "inclusion_xmod", counted_include)
    for mod in (crossed_ideal_mod, enumeration_mod):
        monkeypatch.setattr(mod, "sub_crossed_module", counted_assemble)
    assert fuzz_report(2, 2, 100).passed
    assert len(subs) == chains < 100
    assert len(ambients) == len(set(ambients)) < chains


FUZZ_RUNS = [(2, 2, 300, 0), (3, 2, 50, 1), (4, 2, 25, 7), (6, 1, 50, 2)]


@pytest.mark.parametrize("args", FUZZ_RUNS)
def test_fuzz_report_matches_the_draw_by_draw_oracle(args):
    # each draw is the one built anew, under its own names, and the
    # report deciding each chain once is the one deciding every draw
    draws = fuzz_cims(*args)
    built = fuzz_cims_oracle(*args)
    assert len(draws) == len(built) == args[2]
    for (sx, cim), (bsx, bcim) in zip(draws, built):
        assert (sx.name, sx.sub.name, cim.name, cim.morphism.name) \
            == (bsx.name, bsx.sub.name, bcim.name, bcim.morphism.name)
        assert sx == bsx
        assert (sx.r_subset, sx.s_subset) == (bsx.r_subset, bsx.s_subset)
        assert (cim.alpha1_xmod, cim.alpha2_xmod, cim.h) \
            == (bcim.alpha1_xmod, bcim.alpha2_xmod, bcim.h)
    assert fuzz_chain_count(*args) < args[2]
    assert fuzz_report(*args).to_json() == fuzz_report_oracle(*args).to_json()


# (modulus, max_rank, count, seed) of the 29 runs whose JSON, written one
# after the other, is pinned by its SHA-256
PINNED_FUZZ_RUNS = (
    [(2, 2, 300, seed) for seed in range(12)]
    + [(2, 2, 1000, 3), (2, 2, 1000, 11)]
    + [(3, 2, 50, seed) for seed in range(4)]
    + [(4, 2, 25, seed) for seed in range(4)]
    + [(6, 1, 50, seed) for seed in range(4)]
    + [(8, 1, 50, seed) for seed in range(3)])
PINNED_FUZZ_SHA256 = \
    "c8c40b91cb954a520317acadca2c98cb9d615dc0b708c48763a2d9bcb2677f60"


def test_fuzz_reports_of_the_pinned_runs_are_byte_identical():
    digest = hashlib.sha256()
    for args in PINNED_FUZZ_RUNS:
        digest.update(fuzz_report(*args).to_json().encode())
    assert digest.hexdigest() == PINNED_FUZZ_SHA256


def test_fuzz_report_fails_exactly_the_draws_of_a_failing_chain(monkeypatch):
    # validate_crossed_ideal_map is made to fail on one chain J <= I <= S
    # drawn at both seeds, after a sibling chain on the same (S, I) was
    # drawn at seed 1: a verdict shared across sub-ideals of a pair, or
    # kept from the seed-0 run, gives rows other than the oracle's
    args0, args1 = (2, 2, 300, 0), (2, 2, 300, 1)
    before = {fuzz_chain(cim) for _, cim in fuzz_cims_oracle(*args0)}
    drawn = [fuzz_chain(cim) for _, cim in fuzz_cims_oracle(*args1)]
    target = next(c for n, c in enumerate(drawn) if c in before and any(
        d[:2] == c[:2] and d != c for d in drawn[:n]))
    assert fuzz_report(*args0).passed

    validate = crossed_ideal_mod.validate_crossed_ideal_map

    def failing(cim, *args, **kwargs):
        if fuzz_chain(cim) == target:
            return leaf("planted", FAIL, AXIOM)
        return validate(cim, *args, **kwargs)

    for mod in (crossed_ideal_mod, enumeration_mod):
        monkeypatch.setattr(mod, "validate_crossed_ideal_map", failing)
    rep = fuzz_report(*args1)
    oracle = fuzz_report_oracle(*args1)
    assert rep.find("fuzz-summary").meta["failures"] \
        == oracle.find("fuzz-summary").meta["failures"] \
        == drawn.count(target) > 0
    assert [(c.name, c.status) for c in rep.checks] \
        == [(c.name, c.status) for c in oracle.checks]
    assert rep.to_json() == oracle.to_json()


def test_census_lists_the_action_tensors_once_per_pair_of_carriers(
        monkeypatch):
    # over Z/2 up to rank 1 the three algebras lie on two carriers, so
    # the nine pairs of algebras share four tensor lists
    calls = Counter()
    tensors = enumeration_mod._tensors

    def counted(left, right, target, symmetric):
        if not symmetric:
            calls[left, right] += 1
        return tensors(left, right, target, symmetric)
    monkeypatch.setattr(enumeration_mod, "_tensors", counted)
    assert enumeration_report(2, 1).find("xmod-candidates").meta["total"] \
        == 17
    assert list(calls.values()) == [1] * 4


def test_enumeration_report_counts():
    rep = enumeration_report(2, 1)
    assert rep.find("algebras @ rank 0").meta == {"count": 1}
    assert rep.find("algebras @ rank 1").meta == {"count": 2}
    cand = rep.find("xmod-candidates")
    assert cand.meta["total"] == 17
    assert cand.meta["valid"] == 9
    assert cand.meta["invalid"] == 8
