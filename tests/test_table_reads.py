"""Checks read off tables, against the walks they replace.

multiplicativity_report compares the image matrix and the structure
constants instead of evaluating a predicate on generator pairs,
torsion_violations and order_violations read only the cells whose orders
allow a violation, and the perturbation harness derives each mutant from
the canonical tensor's changed cells.  The slow forms are kept here as
oracles: the generator-pair predicate through policy.check, the full
(i, j, l) walk, and the rebuild of a mutant from raw lists.
"""

import random
from math import gcd, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import idealbar.core as core_mod
from idealbar.bar import build_bar_algebra
from idealbar.core import (Algebra, BilinearMap, FiniteModule, ModuleHom,
                           identity_hom, multiplicativity_report)
from idealbar.fixtures import nilcube_xmod
from idealbar.policy import EXHAUSTIVE, Policy, check
from idealbar.report import AXIOM
from idealbar.roundtrip import _mutate_tensors
from idealbar.workspace import Workspace

MODULI = [4, 6, 8, 9]
CASES = settings(max_examples=150, deadline=None)
BROKEN_Z4 = str(Path(__file__).resolve().parent.parent / "fixtures"
                / "broken_z4.json")


# ---------------------------------------------------------------------------
# oracles


def predicate_multiplicativity(name, hom, dom, cod, policy=None, kind=AXIOM):
    """multiplicativity_report as it was: the predicate f(uv) = f(u)f(v)
    handed to check with the three maps, so a closed gate sweeps the
    elements and an open one takes the generator pairs."""
    maps = (hom, dom.mul, cod.mul)
    gate = all(m.well_defined() for m in maps)
    rep = check(name, kind, [dom.carrier] * 2,
                lambda u, v: hom.apply(dom.multiply(u, v))
                == cod.multiply(hom.apply(u), hom.apply(v)), policy,
                detail="f(uv) != f(u)f(v)" if gate else "f(uv) = f(u)f(v)",
                maps=maps)
    if gate and rep.passed:
        rep.detail = "f(uv) = f(u)f(v), generator pairs, complete by bilinearity"
        rep.meta["generator_pairs"] = dom.carrier.rank ** 2
    return rep


def walked_torsion_violations(tensor):
    d, e, f = tensor.left.orders, tensor.right.orders, tensor.target.orders
    return [(i, j, l)
            for i in range(len(d)) for j in range(len(e))
            for l in range(len(f))
            if d[i] * tensor.constants[i][j][l] % f[l]
            or e[j] * tensor.constants[i][j][l] % f[l]]


def walked_order_violations(hom):
    cod = hom.codomain
    return [i for i, (d, img) in enumerate(zip(hom.domain.orders, hom.images))
            if cod.scale(d, img) != cod.zero]


def rebuilt_mutants(bar, rng):
    """_mutate_tensors as it was: the mutated level rebuilt from raw
    lists of every cell."""
    tensors = bar.level_tensors()
    k = rng.randrange(1, bar.depth + 1)
    lvl = bar.levels[k]
    n = lvl.rank
    raw = [[list(vec) for vec in row] for row in tensors[k].constants]
    for _ in range(rng.randrange(1, 4)):
        i = rng.randrange(n)
        j = rng.randrange(n)
        l = rng.randrange(n)
        cur = raw[i][j][l]
        v = (cur + 1 + rng.randrange(lvl.orders[l] - 1)) % lvl.orders[l]
        raw[i][j][l] = v
        raw[j][i][l] = v
    tensors[k] = BilinearMap(lvl, lvl, lvl, raw)
    return tensors


# ---------------------------------------------------------------------------
# strategies


def module(data, m, max_size):
    divisors = [d for d in range(2, m + 1) if m % d == 0]
    orders = data.draw(st.lists(st.sampled_from(divisors), min_size=1,
                                max_size=3)
                       .filter(lambda o: prod(o) <= max_size))
    return FiniteModule(m, orders)


def coefficient(data, f, *sources, compatible=True):
    """A coefficient mod f; when compatible, one that every source order
    kills, so the map it sits in stays well defined."""
    step = f // gcd(f, *sources) if compatible else 1
    return step * data.draw(st.integers(0, f // step - 1))


def product_tensor(data, mod, compatible):
    return BilinearMap(mod, mod, mod, [
        [[coefficient(data, f, d, e, compatible=compatible)
          for f in mod.orders] for e in mod.orders] for d in mod.orders])


def redrawn_hom(data, base, compatible):
    """base with up to two image coefficients redrawn, so that a
    multiplicative hom turns into one failing on a few generator pairs."""
    images = [list(img) for img in base.images]
    dom, cod = base.domain, base.codomain
    for _ in range(data.draw(st.integers(0, 2))):
        i = data.draw(st.integers(0, dom.rank - 1))
        l = data.draw(st.integers(0, cod.rank - 1))
        images[i][l] = coefficient(data, cod.orders[l], dom.orders[i],
                                   compatible=compatible)
    return ModuleHom(dom, cod, images)


# ---------------------------------------------------------------------------
# multiplicativity


@given(st.data(), st.sampled_from(MODULI), st.booleans(), st.booleans(),
       st.booleans(), st.booleans())
@CASES
def test_multiplicativity_matches_the_predicate_path(data, m, endo, dom_ok,
                                                     cod_ok, hom_ok):
    # an endomorphism starts from the identity, so passes and failures on
    # a few generator pairs both occur; otherwise both algebras and the
    # hom are drawn outright.  A hom or product that is not well defined
    # closes the gate
    dom = module(data, m, 36)
    a = Algebra(dom, product_tensor(data, dom, dom_ok))
    if endo:
        b, base = a, identity_hom(dom)
    else:
        cod = module(data, m, 36)
        b = Algebra(cod, product_tensor(data, cod, cod_ok))
        base = ModuleHom(dom, cod, [[0] * cod.rank] * dom.rank)
    f = redrawn_hom(data, base, hom_ok)
    for policy in (None, Policy(mode=EXHAUSTIVE)):
        assert multiplicativity_report("mult", f, a, b, policy).to_json() \
            == predicate_multiplicativity("mult", f, a, b, policy).to_json()


def test_a_forward_scan_would_give_another_witness():
    # the identity of Z/4 + Z/2 from the zero product to the one where
    # both generators square to themselves fails on (e_1, e_1) and on
    # (e_2, e_2), and the least element witness is the pair of e_2
    mod = FiniteModule(4, [4, 2])
    dom = Algebra(mod, BilinearMap(mod, mod, mod, [[(0, 0)] * 2] * 2))
    cod = Algebra(mod, BilinearMap(mod, mod, mod, [[(1, 0), (0, 0)],
                                                   [(0, 0), (0, 1)]]))
    f = identity_hom(mod)
    rep = multiplicativity_report("mult", f, dom, cod)
    assert rep.witness == ((0, 1), (0, 1))
    assert rep.to_json() == predicate_multiplicativity(
        "mult", f, dom, cod).to_json()


def counting(monkeypatch, cls, attr):
    calls = []
    original = getattr(cls, attr)

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(cls, attr, counted)
    return calls


def test_a_passing_hom_costs_one_apply_and_one_evaluate_per_pair(monkeypatch):
    bar = build_bar_algebra(nilcube_xmod(), 2)
    face = bar.face(2, 1)
    dom, cod = bar.algebras[2], bar.algebras[1]
    for m in (face, dom.mul, cod.mul):
        assert m.well_defined()
    applies = counting(monkeypatch, core_mod.ModuleHom, "apply")
    evaluates = counting(monkeypatch, core_mod.BilinearMap, "evaluate")
    rep = multiplicativity_report("d1@2", face, dom, cod)
    assert rep.passed
    rank = dom.carrier.rank
    assert (len(applies), len(evaluates)) == (rank ** 2, rank ** 2)


# ---------------------------------------------------------------------------
# torsion and order compatibility


@given(st.data(), st.sampled_from(MODULI), st.booleans())
@CASES
def test_torsion_violations_match_the_full_walk(data, m, compatible):
    left, right, target = (module(data, m, 72) for _ in range(3))
    tensor = BilinearMap(left, right, target, [
        [[coefficient(data, f, d, e, compatible=compatible)
          for f in target.orders] for e in right.orders] for d in left.orders])
    walked = walked_torsion_violations(tensor)
    assert list(tensor.torsion_violations()) == walked
    assert next(tensor.torsion_violations(), None) \
        == (walked[0] if walked else None)
    assert tensor.well_defined() == (not walked)
    if compatible:
        assert not walked


@given(st.data(), st.sampled_from(MODULI))
@CASES
def test_order_violations_match_the_full_walk(data, m):
    dom, cod = module(data, m, 72), module(data, m, 72)
    hom = ModuleHom(dom, cod, [[data.draw(st.integers(0, f - 1))
                                for f in cod.orders] for _ in dom.orders])
    walked = walked_order_violations(hom)
    assert hom.order_violations() == walked
    assert hom.well_defined() == (not walked)


class Unreadable:
    def __getitem__(self, index):
        raise AssertionError(f"cell {index} was read")

    def __iter__(self):
        raise AssertionError("the cells were read")


@pytest.mark.parametrize("modulus,orders", [(2, [2, 2, 2]), (4, [4, 4]),
                                            (9, [9, 9, 9])])
def test_equal_orders_decide_without_reading_a_cell(modulus, orders):
    mod = FiniteModule(modulus, orders)
    ones = [1] * mod.rank
    tensor = BilinearMap(mod, mod, mod, [[ones] * mod.rank] * mod.rank)
    tensor.constants = Unreadable()
    assert tensor.well_defined()
    assert next(tensor.torsion_violations(), None) is None
    hom = ModuleHom(mod, mod, [ones] * mod.rank)
    hom.images = Unreadable()
    assert hom.well_defined()


def test_only_the_cells_an_order_allows_are_read():
    # over Z/4 + Z/2 with target Z/4 + Z/2, a violation needs gcd(d_i,
    # e_j) = 2 and l = 0, so the cells (i, j) with i = j = 0 are not read
    mod = FiniteModule(4, [4, 2])
    read = []

    class Row(tuple):
        def __getitem__(self, j):
            read.append((self.i, j))
            return tuple.__getitem__(self, j)

    tensor = BilinearMap(mod, mod, mod, [[(2, 1)] * 2] * 2)
    rows = []
    for i, row in enumerate(tensor.constants):
        rows.append(Row(row))
        rows[-1].i = i
    tensor.constants = tuple(rows)
    assert list(tensor.torsion_violations()) == []
    assert read == [(0, 1), (1, 0), (1, 1)]


# ---------------------------------------------------------------------------
# mutants from changed cells


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("fixture", ["nilcube", "broken_z4"])
def test_derived_mutants_equal_the_rebuild(fixture, depth):
    xm = (nilcube_xmod() if fixture == "nilcube"
          else Workspace.load(BROKEN_Z4).xmods["main"])
    canonical = build_bar_algebra(xm, depth)
    base = canonical.level_tensors()
    for seed in range(200):
        rng_new, rng_old = random.Random(seed), random.Random(seed)
        k, cells = _mutate_tensors(canonical, rng_new)
        tensor = base[k].with_cells(cells)
        old = rebuilt_mutants(canonical, rng_old)
        assert rng_new.getstate() == rng_old.getstate()
        new = base[:k] + [tensor] + base[k + 1:]
        for t_new, t_old, t_base in zip(new, old, base):
            assert t_new.constants == t_old.constants
            assert t_new == t_old and hash(t_new) == hash(t_old)
            if t_new is not t_base:
                assert sum(r is not b for r, b in zip(
                    t_new.constants, t_base.constants)) <= 6
        assert sum(t is not b for t, b in zip(new, base)) == 1


def test_with_cells_reduces_only_the_changed_cells():
    mod = FiniteModule(4, [4, 2])
    tensor = BilinearMap(mod, mod, mod, [[(1, 1), (2, 0)], [(3, 1), (0, 0)]])
    other = tensor.with_cells({(1, 0): [7, 3]})
    assert other.constants == (((1, 1), (2, 0)), ((3, 1), (0, 0)))
    assert other.constants[0] is tensor.constants[0]
    assert other == tensor and hash(other) == hash(tensor)
    changed = tensor.with_cells({(0, 1): (5, 5)})
    assert changed == BilinearMap(mod, mod, mod,
                                  [[(1, 1), (1, 1)], [(3, 1), (0, 0)]])
    assert changed.constants[1] is tensor.constants[1]
    with pytest.raises(core_mod.StructuralError):
        tensor.with_cells({(0, 0): (1,)})
