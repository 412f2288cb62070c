"""Extraction from the bar structure and the round trip in both directions."""

import random

import pytest

from idealbar.bar import build_bar_algebra, definition_checks, verify_bar
from idealbar.fixtures import (
    broken_action_xmod,
    nilcube_inclusion_xmod,
    nilcube_xmod,
    nilsquare_xmod,
)
from idealbar.roundtrip import (
    MalformedStructureError,
    _mutate_tensors,
    extract_action,
    extract_eta,
    perturb_and_filter,
    roundtrip_check,
    roundtrip_from_structure,
    verify_extracted,
)


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
    tensors = list(bar.level_tensors())
    # corrupt the level-1 tensor so (s,0)(0,r) grows a base coordinate
    consts = [list(map(list, row)) for row in tensors[1].constants]
    consts[0][2] = (1, 0, 0)
    from idealbar.core import BilinearMap
    lvl = bar.levels[1]
    tensors[1] = BilinearMap(lvl, lvl, lvl, consts)
    crooked = build_bar_algebra(xm, depth=1).with_level_tensors(tensors)
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


def test_mutants_share_the_canonical_module_and_verify_alike():
    # perturb_and_filter builds the bar module once and reuses every
    # unmutated level tensor; a mutant so built must verify exactly like
    # a bar built from scratch on the same tensors
    xm = nilcube_xmod()
    canonical = build_bar_algebra(xm, 2)
    rng = random.Random(4)
    for _ in range(12):
        tensors = _mutate_tensors(canonical, rng)
        assert sum(t is not c for t, c in
                   zip(tensors, canonical.level_tensors())) == 1
        shared = canonical.with_level_tensors(tensors)
        fresh = build_bar_algebra(xm, 2).with_level_tensors(tensors)
        assert shared.module is canonical.module
        assert shared.level_tensors() == tensors
        assert shared.tensors == fresh.tensors
        assert definition_checks(shared).to_json() \
            == definition_checks(fresh).to_json()
        assert verify_bar(shared).to_json() == verify_bar(fresh).to_json()
