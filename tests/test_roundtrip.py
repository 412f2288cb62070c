"""Extraction from the bar structure and the round trip in both directions."""

import random
from pathlib import Path

import pytest

from idealbar.bar import build_bar_algebra, definition_checks, verify_bar
from idealbar.core import PreconditionError, algebra_axioms
from idealbar.enumeration import all_valid_xmods
from idealbar.fixtures import (
    broken_action_xmod,
    nilcube_inclusion_xmod,
    nilcube_xmod,
    nilsquare_xmod,
)
from idealbar.roundtrip import (
    MalformedStructureError,
    _mutate_tensors,
    _passes_definition,
    extract_action,
    extract_eta,
    perturb_and_filter,
    roundtrip_check,
    roundtrip_from_structure,
    verify_extracted,
)
from idealbar.workspace import Workspace

BROKEN_Z4 = str(Path(__file__).resolve().parent.parent / "fixtures"
                / "broken_z4.json")


def test_extraction_recovers_the_input():
    xm = nilsquare_xmod()
    bar = build_bar_algebra(xm, depth=2)
    assert extract_action(bar) == xm.action
    assert extract_eta(bar) == xm.eta


def test_extract_eta_is_first_face_on_letters():
    xm = nilsquare_xmod()
    bar = build_bar_algebra(xm, depth=1)
    eta = extract_eta(bar)
    for r in xm.r_alg.elements():
        d0 = bar.face(1, 0).apply(bar.embed_r(1, [r]))
        assert d0 == eta.apply(r)


def test_extraction_rejects_products_leaving_the_tail():
    xm = nilsquare_xmod()
    bar = build_bar_algebra(xm, depth=1)
    # corrupt the level-1 tensor so (s,0)(0,r) grows a base coordinate
    consts = [list(map(list, row)) for row in bar.level_tensors()[1].constants]
    consts[0][2] = (1, 0, 0)
    from idealbar.core import BilinearMap
    lvl = bar.levels[1]
    crooked = build_bar_algebra(xm, depth=1).with_level_tensor(
        1, BilinearMap(lvl, lvl, lvl, consts))
    with pytest.raises(MalformedStructureError):
        extract_action(crooked)


def test_roundtrip_exact_on_fixtures():
    for xm in (nilsquare_xmod(), nilcube_xmod(), nilcube_inclusion_xmod()):
        rep = roundtrip_check(xm, depth=3)
        assert rep.passed, rep.render()
        assert rep.find("action-extraction-exact").status == "PASS"
        assert rep.find("eta-readback-exact").status == "PASS"
        assert rep.find("rebuild-products-exact").status == "PASS"


def test_roundtrip_from_structure_direction():
    bar = build_bar_algebra(nilcube_xmod(), depth=2)
    rep = roundtrip_from_structure(bar)
    assert rep.passed, rep.render()


def test_broken_action_fails_at_the_detecting_faces():
    bar = build_bar_algebra(broken_action_xmod(), depth=2)
    rep = verify_extracted(bar)
    assert not rep.passed

    d0 = rep.find("d0-multiplicative @ 1")
    assert d0.status == "FAIL"
    assert d0.witness == ((0, 0, 1), (0, 1, 0))

    tail = rep.find("d0-on-tail-multiplicative @ 2")
    assert tail.status == "FAIL"
    assert tail.witness == ((0,), (1,), (1,), (0,))


def test_tail_face_check_skips_below_depth_two():
    bar = build_bar_algebra(nilsquare_xmod(), depth=1)
    rep = verify_extracted(bar)
    node = rep.find("d0-on-tail-multiplicative @ 2")
    assert node.status == "SKIP"


def test_perturbation_survivors_all_roundtrip():
    rep = perturb_and_filter(nilsquare_xmod(), depth=2, seed=0, budget=200)
    assert rep.passed, rep.render()
    # candidate 0 is canonical; mutants only survive by undoing themselves
    count = rep.find("survivors").meta["count"]
    assert count == 6
    assert rep.find("survivors-roundtrip-exact").status == "PASS"


def test_perturbation_is_seed_deterministic():
    a = perturb_and_filter(nilsquare_xmod(), depth=2, seed=3, budget=60)
    b = perturb_and_filter(nilsquare_xmod(), depth=2, seed=3, budget=60)
    assert a.to_json() == b.to_json()


def test_perturbation_without_tensor_cells_is_refused():
    # rank-0 S and R leave every bar level of rank 0, so no cell can be
    # drawn; when only one of them has rank 0 the levels still have cells
    xms = all_valid_xmods(4, 1)
    ranks = [(xm.s_alg.carrier.rank, xm.r_alg.carrier.rank) for xm in xms]
    with pytest.raises(PreconditionError, match="no tensor cell to perturb"):
        perturb_and_filter(xms[ranks.index((0, 0))], 2, 1, 40)
    for xm, pair in zip(xms, ranks):
        if min(pair) == 0 < max(pair):
            rep = perturb_and_filter(xm, 2, 1, 40)
            assert rep.find("survivors-roundtrip-exact").status == "PASS"


def test_mutants_share_the_canonical_module_and_verify_alike():
    # perturb_and_filter builds the bar module once and reuses every
    # unmutated level; a mutant so built must verify exactly like a bar
    # built from scratch with the same level tensor
    xm = nilcube_xmod()
    canonical = build_bar_algebra(xm, 2)
    rng = random.Random(4)
    for _ in range(12):
        k, tensor = _mutate_tensors(canonical, rng)
        base = canonical.level_tensors()
        shared = canonical.with_level_tensor(k, tensor)
        fresh = build_bar_algebra(xm, 2).with_level_tensor(k, tensor)
        assert sum(t is not c for t, c in
                   zip(shared.level_tensors(), base)) == 1
        assert shared.module is canonical.module
        assert all((a is c) == (n != k) for n, (a, c) in
                   enumerate(zip(shared.algebras, canonical.algebras)))
        assert shared.level_tensors() == base[:k] + [tensor] + base[k + 1:]
        assert shared.tensors == fresh.tensors
        assert definition_checks(shared).to_json() \
            == definition_checks(fresh).to_json()
        assert verify_bar(shared).to_json() == verify_bar(fresh).to_json()


@pytest.mark.parametrize("fixture", ["nilcube", "broken_z4"])
def test_with_level_tensor_shares_every_other_level(fixture):
    # a mutant is the canonical bar with one level algebra replaced: the
    # module and every other level algebra are the canonical objects, it
    # verifies like a fresh bar with that level tensor, and the filter's
    # canonical verdicts agree with the definition checks
    xm = (nilcube_xmod() if fixture == "nilcube"
          else Workspace.load(BROKEN_Z4).xmods["main"])
    canonical = build_bar_algebra(xm, 2)
    canonical_ok = [algebra_axioms(alg).passed for alg in canonical.algebras]
    assert _passes_definition(canonical, None, canonical_ok) \
        == definition_checks(canonical).passed
    rng = random.Random(9)
    for _ in range(8):
        k, tensor = _mutate_tensors(canonical, rng)
        mutant = canonical.with_level_tensor(k, tensor)
        fresh = build_bar_algebra(xm, 2).with_level_tensor(k, tensor)
        assert mutant.module is canonical.module
        assert mutant.levels is canonical.levels
        for n, (alg, base) in enumerate(zip(mutant.algebras,
                                            canonical.algebras)):
            assert (alg is base) == (n != k)
        assert mutant.algebras[k].carrier is canonical.levels[k]
        assert mutant.algebras[k].mul is tensor
        assert mutant.algebras[k].name == canonical.algebras[k].name
        assert canonical.algebras[k].mul is not tensor
        assert [n for n, (t, c) in enumerate(zip(mutant.tensors,
                                                 canonical.tensors))
                if t is not c] == [k]
        assert mutant.tensors == fresh.tensors
        assert verify_bar(mutant).to_json() == verify_bar(fresh).to_json()
        assert _passes_definition(mutant, None, canonical_ok, k) \
            == definition_checks(fresh).passed


def test_filter_checks_the_mutated_level_like_the_definition():
    # over Z/4 some depth-1 mutants keep every face, degeneracy and
    # absorption clause and fail only associativity of the changed
    # level, so the filter must run the algebra axioms on that level
    only_axioms = 0
    for xm in all_valid_xmods(4, 1):
        canonical = build_bar_algebra(xm, 1)
        if not canonical.levels[1].rank:
            continue
        canonical_ok = [algebra_axioms(a).passed for a in canonical.algebras]
        rng = random.Random(0)
        for _ in range(20):
            k, tensor = _mutate_tensors(canonical, rng)
            mutant = canonical.with_level_tensor(k, tensor)
            rep = definition_checks(mutant)
            assert _passes_definition(mutant, None, canonical_ok, k) \
                == rep.passed
            only_axioms += [c.passed for c in rep.checks] == [False, True, True]
    assert only_axioms
