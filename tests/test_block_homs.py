"""Maps between bar levels, assembled by core.block_hom from their
blocks, against the element functions they replace (tests/oracles.py).

Every face and degeneracy, eta_k, the embedding of S and the generators
of the tail ideal R_k, every comparison map phi_n under each single
dropped letter, every bibar operator and both semidirect-criterion
homs are compared with their oracle as whole homs: image matrix, name,
domain and codomain.  The inputs are the four fixture workspaces, one
of them of mixed orders, every valid rank-1 crossed module over Z/2,
Z/3 and Z/4, and the nilcube inclusion bibar.
"""

from pathlib import Path

import pytest

import idealbar.bar
import idealbar.xmod
from idealbar.bar import build_bar_algebra, eta_k, verify_decomposition
from idealbar.bibar import BiBar
from idealbar.core import AlgebraHom, identity_hom
from idealbar.crossed_ideal import XModMorphism
from idealbar.enumeration import all_valid_xmods
from idealbar.workspace import Workspace
from idealbar.xmod import phi_cm1_criterion, phi_cm2_criterion
from oracles import (cm1_criterion_oracle, cm2_criterion_oracle,
                     degen_oracle, embed_s_oracle, eta_k_oracle, face_oracle,
                     phi_oracle, tail_generators_oracle, vertical_oracle)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
WORKSPACES = ("nilsquare", "nilcube", "broken_action", "broken_z4")

# (id, crossed module, deepest level): the fixtures to depth 5, every
# valid rank-1 crossed module to depth 3
CASES = [(name, Workspace.load(str(FIXTURES / f"{name}.json")).xmod("main"), 5)
         for name in WORKSPACES]
CASES += [(f"Z{m}-{i}", xm, 3) for m in (2, 3, 4)
          for i, xm in enumerate(all_valid_xmods(m, 1))]
IDS = [c[0] for c in CASES]


def assert_same_hom(got, want, shared=True):
    """Same image matrix and name; with shared, the very domain and
    codomain objects, so element caches stay shared."""
    assert (got.images, got.name) == (want.images, want.name)
    if shared:
        assert got.domain is want.domain and got.codomain is want.codomain
    else:
        assert (got.domain, got.codomain) == (want.domain, want.codomain)


def identity_morphism(xm):
    return XModMorphism(
        xm, xm, AlgebraHom(xm.r_alg, xm.r_alg, identity_hom(xm.r_alg.carrier)),
        AlgebraHom(xm.s_alg, xm.s_alg, identity_hom(xm.s_alg.carrier)))


def assert_operators_match(bm):
    for n in range(1, bm.depth + 1):
        for i in range(n + 1):
            assert_same_hom(bm.face(n, i), face_oracle(bm, n, i))
    for n in range(bm.depth):
        for i in range(n + 1):
            assert_same_hom(bm.degen(n, i), degen_oracle(bm, n, i))


@pytest.mark.parametrize("name,xm,depth", CASES, ids=IDS)
def test_bar_maps_match_oracles(name, xm, depth, monkeypatch):
    bar = build_bar_algebra(xm, depth)
    assert_operators_match(bar)

    # verify_decomposition hands the embedding of S to image and R_k to
    # is_ideal
    seen = {}
    image, is_ideal = idealbar.bar.image, idealbar.bar.is_ideal

    def image_spy(f):
        seen["embed"] = f
        return image(f)

    def is_ideal_spy(alg, sub, policy):
        seen["rk"] = sub
        return is_ideal(alg, sub, policy)

    monkeypatch.setattr(idealbar.bar, "image", image_spy)
    monkeypatch.setattr(idealbar.bar, "is_ideal", is_ideal_spy)
    for k in range(1, depth + 1):
        assert_same_hom(eta_k(bar, k)[0].hom, eta_k_oracle(bar, k))
        verify_decomposition(bar, k)
        assert_same_hom(seen["embed"], embed_s_oracle(bar, k))
        assert seen["rk"].gens == tuple(tail_generators_oracle(bar, k))


def morphism_cases():
    yield from ((name, identity_morphism(xm), depth)
                for name, xm, depth in CASES)
    yield "nilcube-incl", Workspace.load(
        str(FIXTURES / "nilcube.json")).morphism("incl"), 3


# the deepest bibar of the identity morphism that builds with one
# column, where it is shallower than the case: the bibar gate refuses
# |B2_n| |B1_n| above the enumeration bound
PHI_DEPTH = {"nilcube": 3, "broken_z4": 3}


@pytest.mark.parametrize("name,mor,depth", list(morphism_cases()),
                         ids=IDS + ["nilcube-incl"])
def test_phi_maps_match_oracles_under_each_single_drop(name, mor, depth):
    depth = PHI_DEPTH.get(name, depth)
    drops = [()] + [((n, j),) for n in range(1, depth + 1) for j in range(n)]
    for drop in drops:
        bb = BiBar(mor, depth, 1, drop=drop)
        for n, phi in enumerate(bb.phi):
            assert_same_hom(phi, phi_oracle(mor, n, drop), shared=False)
            # built on the bars' own levels
            assert phi.domain is bb.bar1.levels[n]
            assert phi.codomain is bb.bar2.levels[n]


@pytest.mark.parametrize("drop", [(), ((1, 0),), ((3, 2),)])
def test_bibar_operators_match_oracles(drop):
    mor = Workspace.load(str(FIXTURES / "nilcube.json")).morphism("incl")
    bb = BiBar(mor, 3, 2, drop=drop)
    for bm in [bb.bar1, bb.bar2] + bb.rows:
        assert_operators_match(bm)

    def base_and_letter(oracle, n, i):
        return oracle(bb.bar2, n, i), oracle(bb.bar1, n, i)

    for m in range(bb.m_depth + 1):
        for n in range(1, bb.n_depth + 1):
            for i in range(n + 1):
                assert_same_hom(bb.v_face(n, m, i), vertical_oracle(
                    bb, n, m, *base_and_letter(face_oracle, n, i), n - 1,
                    f"dv{i}@({n},{m})"))
        for n in range(bb.n_depth):
            for i in range(n + 1):
                assert_same_hom(bb.v_degen(n, m, i), vertical_oracle(
                    bb, n, m, *base_and_letter(degen_oracle, n, i), n + 1,
                    f"sv{i}@({n},{m})"))


@pytest.mark.parametrize("name,xm,depth", CASES, ids=IDS)
def test_semidirect_criterion_homs_match_oracles(name, xm, depth, monkeypatch):
    homs = []
    check = idealbar.xmod._four_letter_check

    def spy(name, detail, dom, cod, phi):
        homs.append(phi)
        return check(name, detail, dom, cod, phi)

    monkeypatch.setattr(idealbar.xmod, "_four_letter_check", spy)
    phi_cm1_criterion(xm)
    phi_cm2_criterion(xm)
    assert_same_hom(homs[0], cm1_criterion_oracle(xm), shared=False)
    assert_same_hom(homs[1], cm2_criterion_oracle(xm), shared=False)
