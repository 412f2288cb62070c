"""Truncated bar object: operators, level products, decomposition."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from idealbar.bar import (
    TruncatedBarModule,
    build_bar_algebra,
    build_bar_module,
    definition_checks,
    eta_k,
    rk_closed_formulas,
    verify_bar,
    verify_decomposition,
    verify_ideal_axiom,
    verify_level_homomorphisms,
    verify_simplicial_identities,
)
from idealbar.core import FiniteModule, ModuleHom, PreconditionError
from idealbar.fixtures import broken_action_xmod, nilcube_xmod, nilsquare_xmod
from idealbar.xmod import translation_action
from oracles import product_formula


@pytest.fixture(scope="module")
def bar2():
    return build_bar_algebra(nilsquare_xmod(), depth=2)


@pytest.fixture(scope="module")
def bar3():
    return build_bar_algebra(nilsquare_xmod(), depth=3)


def test_level_sizes(bar2):
    # base has 4 elements, each letter contributes a factor of 2
    assert [lvl.size for lvl in bar2.levels] == [4, 8, 16]


def test_split_join_roundtrip(bar2):
    # a level splits into its base and letters, and the blocks joined
    # back in order are the element again
    lvl, t = bar2.levels[2], (1, 0, 1, 0)
    assert lvl.blocks == (bar2.x_mod,) + (bar2.r_mod,) * 2
    assert lvl.split(t) == ((1, 0), (1,), (0,))
    assert sum(lvl.split(t), ()) == t
    assert lvl.inject(0, (1, 0)) == (1, 0, 0, 0)
    assert lvl.inject(2, (1,)) == (0, 0, 0, 1)


def test_face_values_at_level_two(bar2):
    t = (1, 0, 1, 0)
    # first face translates the base along the first letter
    assert bar2.face(2, 0).apply(t) == (1, 1, 0)
    # middle face merges the two letters
    assert bar2.face(2, 1).apply(t) == (1, 0, 1)
    # top face forgets the last letter
    assert bar2.face(2, 2).apply(t) == (1, 0, 1)


def test_degeneracy_inserts_zero_letter(bar2):
    t = (1, 1, 1)
    assert bar2.degen(1, 0).apply(t) == (1, 1, 0, 1)
    assert bar2.degen(1, 1).apply(t) == (1, 1, 1, 0)


def test_face_degen_section_identity(bar2):
    for i in range(2):
        for t in bar2.levels[1].elements():
            up = bar2.degen(1, i).apply(t)
            assert bar2.face(2, i).apply(up) == t
            assert bar2.face(2, i + 1).apply(up) == t


def test_level_one_product(bar2):
    # (1 + x e) squared: base 1*1, letter 1.x + 1.x + x x = 0
    assert bar2.multiply(1, (1, 0, 1), (1, 0, 1)) == (1, 0, 0)


def test_level_two_product(bar2):
    assert bar2.multiply(2, (1, 0, 1, 0), (1, 0, 0, 1)) == (1, 0, 1, 1)


def test_closed_formula_matches_tensor_route(bar2):
    for n in (1, 2):
        for u in bar2.levels[n].elements():
            for v in bar2.levels[n].elements():
                assert bar2.multiply(n, u, v) == product_formula(bar2, n, u, v)


@given(st.sampled_from(build_bar_algebra(nilcube_xmod(), depth=2)
                       .levels[2].elements()),
       st.sampled_from(build_bar_algebra(nilcube_xmod(), depth=2)
                       .levels[2].elements()))
def test_level_products_commute(u, v):
    bar = build_bar_algebra(nilcube_xmod(), depth=2)
    assert bar.multiply(2, u, v) == bar.multiply(2, v, u)


def test_embeddings(bar2):
    assert bar2.embed_s(2, (1, 1)) == (1, 1, 0, 0)
    assert bar2.embed_r(2, [(1,), (0,)]) == (0, 0, 1, 0)


def test_mixed_product_is_letterwise(bar2):
    u = bar2.embed_s(2, (1, 0))
    v = bar2.embed_r(2, [(1,), (1,)])
    assert bar2.multiply(2, u, v) == (0, 0, 1, 1)
    # x acts as zero on the letters
    assert bar2.multiply(2, bar2.embed_s(2, (0, 1)), v) == (0, 0, 0, 0)


def test_simplicial_identities_hold(bar3):
    rep = verify_simplicial_identities(bar3)
    assert rep.passed, rep.render()


def test_simplicial_checker_catches_a_corrupted_operator():
    bm = TruncatedBarModule(translation_action(nilsquare_xmod().eta), 2)
    good = bm.face(2, 1)
    # swap in the top face where the middle one should be
    bm._faces[(2, 1)] = ModuleHom(good.domain, good.codomain,
                                  bm.face(2, 2).images, name="d1@2")
    rep = verify_simplicial_identities(bm)
    assert not rep.passed
    assert any(n.name.startswith("d") and n.status == "FAIL"
               for n in rep.walk())


def test_faces_and_degens_are_algebra_maps(bar3):
    rep = verify_level_homomorphisms(bar3)
    assert rep.passed, rep.render()


def test_tail_absorption(bar2):
    rep = verify_ideal_axiom(bar2)
    assert rep.passed, rep.render()
    names = {n.name for n in rep.walk()}
    assert "mixed-into-tail @ 1" in names
    assert "base-subalgebra @ 2" in names
    assert "mixed-letterwise @ 2" in names


def test_broken_candidate_fails_the_definition_filter():
    bar = build_bar_algebra(broken_action_xmod(), depth=2)
    rep = definition_checks(bar)
    assert not rep.passed
    # the level algebras themselves stop being associative
    assert not rep.find("level-algebras").passed


def test_decomposition_at_level_two(bar2):
    rep = verify_decomposition(bar2, 2)
    assert rep.passed, rep.render()
    direct = rep.find("direct-sum @ 2")
    assert direct.meta == {"sk": 4, "rk": 4, "level": 16}
    ker = rep.find("rk-is-kernel-of-top-face-chain @ 2")
    assert ker.meta == {"kernel_size": 4, "tail_size": 4}


def test_decomposition_kinds_are_theorem_or_structural(bar2):
    rep = verify_decomposition(bar2, 2)
    for node in rep.walk():
        if node.kind is not None:
            assert node.kind in ("THEOREM", "STRUCTURAL")


def test_tail_ideal_closed_products(bar2):
    for k in (1, 2):
        rep = rk_closed_formulas(bar2, k)
        assert rep.passed, rep.render()


def test_eta_k_collapses_letters(bar2):
    hom, rep = eta_k(bar2, 2)
    assert rep.passed, rep.render()
    # letters sum to 0 in R here, so only the base survives
    assert hom.apply((1, 0, 1, 1)) == (1, 0)
    assert hom.apply((1, 0, 1, 0)) == (1, 1)
    assert hom.apply((0, 0, 0, 0)) == (0, 0)


def test_verify_bar_full_pass(bar3):
    rep = verify_bar(bar3)
    assert rep.passed, rep.render()


def test_build_bar_module_gates_on_action_validity():
    # R on Z/2 translating Z/4 through g -> 1: 2 * t(g) = 2 != 0, so
    # x^(g+g) = x differs from (x^g)^g = x + 2
    r_mod = FiniteModule(4, [2])
    x_mod = FiniteModule(4, [4])
    with pytest.raises(PreconditionError):
        build_bar_module(ModuleHom(r_mod, x_mod, [(1,)]), 2)


def test_bar_module_rejects_depth_zero():
    xm = nilsquare_xmod()
    with pytest.raises(PreconditionError):
        TruncatedBarModule(translation_action(xm.eta), 0)


def test_bar_algebra_builds_for_broken_input():
    # no gate here on purpose: verifiers need the object to exist
    bar = build_bar_algebra(broken_action_xmod(), depth=2)
    assert len(bar.algebras) == 3
