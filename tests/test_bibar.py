"""Bisimplicial object of a crossed module morphism."""

import pytest

from idealbar.bar import level_homomorphism_clauses
from idealbar.bibar import build_bibar, verify_bibar
from idealbar.core import StructuralError, UnsupportedScaleError
from oracles import bibar_multiply, bibar_split, join, workspace


@pytest.fixture(scope="module")
def bb():
    return build_bibar(workspace("nilcube").morphism("incl"), n_depth=2,
                       m_depth=2)


def test_bilevel_sizes(bb):
    # base bar levels have sizes 8, 32, 128; letter bar levels 2, 4, 8
    assert bb.level(0, 0).size == 8
    assert bb.level(1, 0).size == 32
    assert bb.level(1, 1).size == 32 * 4
    assert bb.level(2, 2).size == 128 * 8 * 8


def test_phi_is_the_morphism_blockwise(bb):
    # phi_1 sends (x^2 | x^2) through (alpha2 | alpha1)
    assert bb.phi[1].apply((1, 1)) == (0, 0, 1, 0, 1)
    assert bb.phi[0].apply((1,)) == (0, 0, 1)


def test_horizontal_face_translates_by_phi(bb):
    t = join((0, 1, 0, 1, 0), [(1, 1)])
    assert bb.h_face(1, 1, 0).apply(t) == (0, 1, 1, 1, 1)
    # the top horizontal face just forgets the letter
    assert bb.h_face(1, 1, 1).apply(t) == (0, 1, 0, 1, 0)


def test_vertical_face_acts_blockwise(bb):
    t = join((0, 1, 0, 1, 0), [(1, 1)])
    # dv0 applies d0 of the target bar to the base block and d0 of the
    # source bar to the letter; eta is an inclusion here, so the base
    # (x | x) collapses to x + x = 0
    base = bb.bar2.face(1, 0).apply((0, 1, 0, 1, 0))
    letter = bb.bar1.face(1, 0).apply((1, 1))
    assert bb.v_face(1, 1, 0).apply(t) == join(base, [letter])
    assert base == (0, 0, 0)
    assert letter == (0,)


def test_column_leaves_are_named_after_their_operators(bb):
    # column 1 is read by the bar's own clauses: every vertical face,
    # then every vertical degeneracy, each leaf called after its map
    col = bb.columns[1]
    ops = [bb.v_face(n, 1, i) for n in (1, 2) for i in range(n + 1)]
    ops += [bb.v_degen(n, 1, i) for n in (0, 1) for i in range(n + 1)]
    assert [run().name for _, run in level_homomorphism_clauses(col)] \
        == [f"{op.name} multiplicative" for op in ops]
    assert ops[0].name == "dv0@(1,1)" and ops[-1].name == "sv1@(1,1)"
    assert all(col.algebras[n] is bb.algebra(n, 1) for n in range(3))


def test_componentwise_product(bb):
    u = join((1, 0, 0, 1, 0), [(1, 0)])
    v = join((1, 0, 0, 0, 1), [(1, 0)])
    xu, _ = bibar_split(bb, u, 1, 1)
    xv, _ = bibar_split(bb, v, 1, 1)
    expect_base = bb.bar2.multiply(1, xu, xv)
    expect_letter = bb.bar1.multiply(1, (1, 0), (1, 0))
    assert bibar_multiply(bb, 1, 1, u, v) \
        == join(expect_base, [expect_letter])


def test_full_verification_passes(bb):
    rep = verify_bibar(bb)
    assert rep.passed, rep.render()
    names = {n.name for n in rep.walk()}
    assert {"horizontal-identities", "vertical-identities",
            "horizontal-vertical-commutation",
            "vertical-multiplicativity"} <= names


def test_conventions_are_notes_not_checks(bb):
    rep = verify_bibar(bb)
    conv = rep.find("conventions")
    assert conv.passed
    assert all(n.status == "NOTE" for n in conv.checks)


def test_corrupted_phi_breaks_commutation():
    mor = workspace("nilcube").morphism("incl")
    bb = build_bibar(mor, n_depth=2, m_depth=2, drop={(1, 0)})
    rep = verify_bibar(bb)
    assert not rep.passed
    # the damage shows up exactly where horizontal meets vertical
    assert rep.find("horizontal-identities").passed
    assert rep.find("vertical-identities").passed
    comm = rep.find("horizontal-vertical-commutation")
    assert not comm.passed
    first = next(n for n in comm.walk()
                 if n.status == "FAIL" and not n.checks)
    assert first.name == "dv0 dh0 = dh0 dv0 @ (1,1)"


@pytest.mark.parametrize("drop", [{(9, 0)}, {(1, 5)}, {(3, 0)}, {(2, 2)},
                                  {(0, 0)}, {(1, -1)}, {(1, 0), (2, 7)}])
def test_a_drop_naming_no_built_letter_is_refused(drop):
    # such a pair used to corrupt nothing, so the negative control passed
    with pytest.raises(StructuralError, match="names no built letter"):
        build_bibar(workspace("nilcube").morphism("incl"), n_depth=2,
                    m_depth=2, drop=drop)


def test_the_scale_gate_refuses_before_the_drop_is_read():
    with pytest.raises(UnsupportedScaleError):
        build_bibar(workspace("nilcube").morphism("incl"), n_depth=40,
                    m_depth=2, drop={(99, 0)})
