"""Extraction from the bar structure and the round trip in both directions."""

import json
import random
import subprocess
import sys
from itertools import product

import pytest

from idealbar.bar import build_bar_algebra, definition_checks, verify_bar
from idealbar.core import (Algebra, BilinearMap, PreconditionError,
                           algebra_axioms)
from idealbar.enumeration import all_valid_xmods
from idealbar.roundtrip import (
    MalformedStructureError,
    _definition_filter,
    _mutate_tensors,
    extract_crossed_module,
    perturb_and_filter,
    roundtrip_check,
    roundtrip_from_structure,
    verify_extracted,
)
from idealbar.report import FAIL, STRUCTURAL, exit_code
from oracles import fixture_xmods, workspace


def test_extraction_recovers_the_input():
    xm = workspace("nilsquare").xmod("main")
    ext = extract_crossed_module(build_bar_algebra(xm, depth=2))
    assert ext == xm
    assert ext.eta == xm.eta
    assert (ext.s_alg, ext.r_alg) == (xm.s_alg, xm.r_alg)


def extraction_cases():
    yield from fixture_xmods()
    yield workspace("broken_action").xmod("main")
    yield from all_valid_xmods(4, 1)


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_extract_crossed_module_gives_back_the_built_crossed_module(depth):
    # what the bar was built from, read back off its own levels
    for xm in extraction_cases():
        ext = extract_crossed_module(build_bar_algebra(xm, depth))
        assert ext.action.constants == xm.action.constants
        assert ext.eta.hom.images == xm.eta.hom.images
        assert ext.r_alg.mul.constants == xm.r_alg.mul.constants
        assert ext.s_alg.mul.constants == xm.s_alg.mul.constants
        assert (ext.s_alg.orders, ext.r_alg.orders) \
            == (xm.s_alg.orders, xm.r_alg.orders)


def test_extract_eta_is_first_face_on_letters():
    xm = workspace("nilsquare").xmod("main")
    bar = build_bar_algebra(xm, depth=1)
    eta = extract_crossed_module(bar).eta
    for r in xm.r_alg.elements():
        d0 = bar.face(1, 0).apply(bar.embed_r(1, [r]))
        assert d0 == eta.apply(r)


def test_extraction_rejects_products_leaving_the_tail():
    xm = workspace("nilsquare").xmod("main")
    bar = build_bar_algebra(xm, depth=1)
    # corrupt the level-1 tensor so (s,0)(0,r) grows a base coordinate
    consts = [list(map(list, row)) for row in bar.level_tensors()[1].constants]
    consts[0][2] = (1, 0, 0)
    from idealbar.core import BilinearMap
    lvl = bar.levels[1]
    crooked = build_bar_algebra(xm, depth=1).with_level_tensor(
        1, BilinearMap(lvl, lvl, lvl, consts))
    with pytest.raises(MalformedStructureError):
        extract_crossed_module(crooked)


def test_unreadable_structure_is_one_structural_leaf_in_each_direction():
    # a base coordinate planted in the level-1 cell (s,0)(0,r): both
    # directions turn the failed extraction into their one leaf
    xm = workspace("nilsquare").xmod("main")
    bar = build_bar_algebra(xm, depth=2)
    s_gen, lvl = xm.s_alg.generators()[0], bar.levels[1]
    cell = {(0, xm.s_alg.carrier.rank): lvl.inject(0, s_gen)}
    crooked = bar.with_level_tensor(1, bar.level_tensors()[1].with_cells(cell))
    for rep in (verify_extracted(crooked), roundtrip_from_structure(crooked)):
        assert [(c.name, c.status, c.kind) for c in rep.checks] \
            == [("extraction", FAIL, STRUCTURAL)]
        assert "base coordinate" in rep.checks[0].detail
        assert exit_code(rep) == 3


def test_letter_cell_with_a_base_coordinate_is_the_structural_leaf():
    # the letter product (0,a)(0,b) is read off level 1 like the action,
    # so a base coordinate there is the same one structural leaf
    xm = workspace("nilsquare").xmod("main")
    bar = build_bar_algebra(xm, depth=2)
    s_gen, lvl = xm.s_alg.generators()[1], bar.levels[1]
    letter = xm.s_alg.carrier.rank
    cell = {(letter, letter): lvl.inject(0, s_gen)}
    crooked = bar.with_level_tensor(1, bar.level_tensors()[1].with_cells(cell))
    for rep in (verify_extracted(crooked), roundtrip_from_structure(crooked)):
        assert [(c.name, c.status, c.kind) for c in rep.checks] \
            == [("extraction", FAIL, STRUCTURAL)]
        assert rep.checks[0].detail \
            == "(0,a)(0,b) has base coordinate (0, 1) at ((1,), (1,))"
        assert exit_code(rep) == 3


def test_action_cells_are_read_before_the_letter_cells():
    # a structure broken in both kinds of cell names (s,0)(0,r)
    xm = workspace("nilsquare").xmod("main")
    bar = build_bar_algebra(xm, depth=1)
    lvl, letter = bar.levels[1], xm.s_alg.carrier.rank
    cells = {(0, letter): lvl.inject(0, xm.s_alg.generators()[0]),
             (letter, letter): lvl.inject(0, xm.s_alg.generators()[1])}
    crooked = bar.with_level_tensor(1, bar.level_tensors()[1].with_cells(cells))
    with pytest.raises(MalformedStructureError, match=r"^\(s,0\)\(0,r\) "):
        extract_crossed_module(crooked)


def test_verify_extracted_checks_the_letter_product_the_structure_carries():
    # S = 0 and R = Z/2 with zero product, at depth 1, with the letter
    # cell (0,g)(0,g) set to (0,g): the definition holds, but the
    # structure's own crossed module, R' with g g = g and eta = 0, fails
    # CM2 at (g, g), which the product of bar.xm's R would hide
    xm = all_valid_xmods(4, 1)[7]
    assert (xm.s_alg.orders, xm.r_alg.orders) == ((), (2,))
    assert xm.r_alg.mul.constants == (((0,),),)
    bar = build_bar_algebra(xm, depth=1)
    crooked = bar.with_level_tensor(
        1, bar.level_tensors()[1].with_cells({(0, 0): (1,)}))
    assert definition_checks(crooked).passed
    assert extract_crossed_module(crooked).r_alg.mul.constants == (((1,),),)
    rep = verify_extracted(crooked)
    cm2 = rep.find("cm2")
    assert (cm2.status, cm2.witness) == (FAIL, ((1,), (1,)))
    assert not rep.passed and exit_code(rep) == 1


def xmod_workspace(path, xm):
    """A workspace holding xm as main, written from its structure
    constants."""
    path.write_text(json.dumps({
        "modulus": xm.s_alg.modulus,
        "algebras": {
            "S": {"orders": xm.s_alg.orders, "mul": xm.s_alg.mul.constants},
            "R": {"orders": xm.r_alg.orders, "mul": xm.r_alg.mul.constants}},
        "homs": {"eta": {"dom": "R", "cod": "S",
                         "images": xm.eta.hom.images}},
        "actions": {"act": {"actor": "S", "acted": "R",
                            "tensor": xm.action.constants}},
        "xmods": {"main": {"eta": "eta", "action": "act"}},
    }))
    return str(path)


def test_depth_one_survivors_are_rebuilt_from_their_own_letter_product(
        tmp_path):
    # S = 0 and R = Z/2 with zero product over Z/4: no clause of the
    # depth-1 definition ties the letter product to the product of R, so
    # every mutant survives, candidate 3 with g g = g, and each must be
    # rebuilt from the product it carries, not from the one of bar.xm
    xm = all_valid_xmods(4, 1)[7]
    assert (xm.s_alg.orders, xm.r_alg.orders) == ((), (2,))
    assert xm.r_alg.mul.constants == (((0,),),)
    rep = perturb_and_filter(xm, depth=1, seed=0, budget=60)
    assert rep.find("survivors").meta["count"] == 60
    exact = rep.find("survivors-roundtrip-exact")
    assert (exact.status, exact.witness) == ("PASS", None)

    # a workspace holds no rank-0 algebra, so the command line runs the
    # first rank-1 pair that failed the same way: S = Z/4 and R = Z/2,
    # both products, eta and the action zero
    xm = next(x for x in all_valid_xmods(4, 1)
              if (x.s_alg.orders, x.r_alg.orders) == ((4,), (2,)))
    assert {xm.s_alg.mul.constants, xm.r_alg.mul.constants,
            xm.action.constants} == {(((0,),),)}
    assert xm.eta.hom.images == ((0,),)
    res = subprocess.run(
        [sys.executable, "-m", "idealbar", "-w",
         xmod_workspace(tmp_path / "zero.json", xm), "--seed", "0",
         "roundtrip", "main", "--depth", "1", "--perturb", "--budget", "60"],
        capture_output=True, text=True)
    assert res.returncode == 0, res.stdout + res.stderr
    assert "survivors (count=10)" in res.stdout
    assert "PASS [THEOREM] survivors-roundtrip-exact" in res.stdout


@pytest.mark.parametrize("depth", [1, 2])
def test_no_perturbation_of_the_rank_one_census_fails_the_roundtrip(depth):
    for xm in all_valid_xmods(4, 1):
        if xm.s_alg.carrier.rank + xm.r_alg.carrier.rank:
            for seed in range(3):
                rep = perturb_and_filter(xm, depth, seed, 60)
                assert rep.find("survivors-roundtrip-exact").status \
                    == "PASS", (xm.name, seed)


def test_roundtrip_exact_on_fixtures():
    for xm in fixture_xmods():
        rep = roundtrip_check(xm, depth=3)
        assert rep.passed, rep.render()
        assert rep.find("action-extraction-exact").status == "PASS"
        assert rep.find("eta-readback-exact").status == "PASS"
        assert rep.find("rebuild-products-exact").status == "PASS"


def test_roundtrip_from_structure_direction():
    bar = build_bar_algebra(workspace("nilcube").xmod("main"), depth=2)
    rep = roundtrip_from_structure(bar)
    assert rep.passed, rep.render()


def test_broken_action_fails_at_the_detecting_faces():
    bar = build_bar_algebra(workspace("broken_action").xmod("main"), depth=2)
    rep = verify_extracted(bar)
    assert not rep.passed

    d0 = rep.find("d0-multiplicative @ 1")
    assert d0.status == "FAIL"
    assert d0.witness == ((0, 0, 1), (0, 1, 0))

    tail = rep.find("d0-on-tail-multiplicative @ 2")
    assert tail.status == "FAIL"
    assert tail.witness == ((0,), (1,), (1,), (0,))


def test_tail_face_check_skips_below_depth_two():
    bar = build_bar_algebra(workspace("nilsquare").xmod("main"), depth=1)
    rep = verify_extracted(bar)
    node = rep.find("d0-on-tail-multiplicative @ 2")
    assert node.status == "SKIP"


def test_perturbation_survivors_all_roundtrip():
    rep = perturb_and_filter(workspace("nilsquare").xmod("main"), depth=2,
                             seed=0, budget=200)
    assert rep.passed, rep.render()
    # candidate 0 is canonical; mutants only survive by undoing themselves
    count = rep.find("survivors").meta["count"]
    assert count == 6
    assert rep.find("survivors-roundtrip-exact").status == "PASS"


def test_perturbation_is_seed_deterministic():
    a, b = (perturb_and_filter(workspace("nilsquare").xmod("main"), depth=2,
                               seed=3, budget=60) for _ in range(2))
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


def test_perturbation_budget_below_one_is_refused():
    for budget in (0, -3):
        with pytest.raises(PreconditionError, match="budget"):
            perturb_and_filter(workspace("nilsquare").xmod("main"), 2, 0,
                               budget)


def test_no_survivor_is_a_skip_not_a_pass():
    # broken_z4 fails the definition, and so does every mutant of it
    xm = workspace("broken_z4").xmod("main")
    rep = perturb_and_filter(xm, depth=2, seed=11, budget=200)
    assert rep.find("survivors").meta["count"] == 0
    exact = rep.find("survivors-roundtrip-exact")
    assert (exact.status, exact.kind) == ("SKIP", None)
    assert exact.detail == "no candidate survived the definition filter"
    assert rep.status == "PASS" and exit_code(rep) == 0


def shares_levels_and_operators(bar, other):
    return (bar.levels is other.levels and bar._faces is other._faces
            and bar._degens is other._degens)


def mutant_tensor(canonical, k, cells):
    return canonical.level_tensors()[k].with_cells(cells)


def decided(decide, canonical, k, cells):
    """The mutant bar and decide's verdict on it.  decide builds no bar
    for a mutant it rejects before its level axioms pass, so that one
    is built here."""
    mutant, ok = decide(k, cells)
    if mutant is None:
        assert not ok
        mutant = canonical.with_level_tensor(
            k, mutant_tensor(canonical, k, cells))
    return mutant, ok


def test_mutants_share_the_canonical_module_and_verify_alike():
    # perturb_and_filter builds the bar module once and reuses every
    # unmutated level; a mutant so built must verify exactly like a bar
    # built from scratch with the same level tensor
    xm = workspace("nilcube").xmod("main")
    canonical = build_bar_algebra(xm, 2)
    rng = random.Random(4)
    for _ in range(12):
        k, cells = _mutate_tensors(canonical, rng)
        tensor = mutant_tensor(canonical, k, cells)
        base = canonical.level_tensors()
        shared = canonical.with_level_tensor(k, tensor)
        fresh = build_bar_algebra(xm, 2).with_level_tensor(k, tensor)
        assert sum(t is not c for t, c in
                   zip(shared.level_tensors(), base)) == 1
        assert shares_levels_and_operators(shared, canonical)
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
    # levels, faces, degeneracies and every other level algebra are the
    # canonical objects, it verifies like a fresh bar with that level
    # tensor, and the filter's verdicts agree with the definition checks
    # for a canonical bar that passes (nilcube) and one that fails
    # (broken_z4)
    xm = workspace(fixture).xmod("main")
    canonical = build_bar_algebra(xm, 2)
    passed, decide = _definition_filter(canonical)
    assert passed == definition_checks(canonical).passed \
        == (fixture == "nilcube")
    rng = random.Random(9)
    for _ in range(8):
        k, cells = _mutate_tensors(canonical, rng)
        mutant, ok = decided(decide, canonical, k, cells)
        tensor = mutant.algebras[k].mul
        fresh = build_bar_algebra(xm, 2).with_level_tensor(k, tensor)
        assert tensor == mutant_tensor(canonical, k, cells)
        assert shares_levels_and_operators(mutant, canonical)
        for n, (alg, base) in enumerate(zip(mutant.algebras,
                                            canonical.algebras)):
            assert (alg is base) == (n != k)
        assert mutant.algebras[k].carrier is canonical.levels[k]
        assert mutant.algebras[k].name == canonical.algebras[k].name
        assert canonical.algebras[k].mul is not tensor
        assert [n for n, (t, c) in enumerate(zip(mutant.tensors,
                                                 canonical.tensors))
                if t is not c] == [k]
        assert mutant.tensors == fresh.tensors
        assert verify_bar(mutant).to_json() == verify_bar(fresh).to_json()
        assert ok == definition_checks(fresh).passed


def test_a_mutant_failing_its_level_axioms_is_not_built(monkeypatch):
    # the changed cells are read against the canonical constants, so a
    # mutant that fails its level axioms gets no tensor and no bar, and
    # one that passes them gets one tensor
    canonical = build_bar_algebra(workspace("nilcube").xmod("main"), 2)
    _, decide = _definition_filter(canonical)
    built = []
    with_cells = BilinearMap.with_cells
    monkeypatch.setattr(BilinearMap, "with_cells", lambda self, cells: (
        built.append(cells), with_cells(self, cells))[1])
    rng = random.Random(0)
    rejected = 0
    for _ in range(100):
        k, cells = _mutate_tensors(canonical, rng)
        level_ok = algebra_axioms(Algebra(
            canonical.levels[k], mutant_tensor(canonical, k, cells))).passed
        built.clear()
        mutant, ok = decide(k, cells)
        assert (mutant is not None) == level_ok and len(built) == level_ok
        rejected += not level_ok
    assert rejected > 50


def z4_depth1_mutants():
    """Each depth-1 mutant of the Z/4 rank-1 crossed modules (seed 0,
    20 per module), with the filter's verdict and the definition
    report."""
    for xm in all_valid_xmods(4, 1):
        canonical = build_bar_algebra(xm, 1)
        if not canonical.levels[1].rank:
            continue
        _, decide = _definition_filter(canonical)
        rng = random.Random(0)
        for _ in range(20):
            mutant, ok = decided(decide, canonical,
                                 *_mutate_tensors(canonical, rng))
            yield mutant, ok, definition_checks(mutant)


def fails_only_the_level_axioms(rep):
    return [c.passed for c in rep.checks] == [False, True, True]


def test_filter_checks_the_mutated_level_like_the_definition():
    # over Z/4 some depth-1 mutants keep every face, degeneracy and
    # absorption clause and fail only associativity of the changed
    # level, so the filter must run the algebra axioms on that level.
    # Three more fail only their level axioms on representatives, but
    # break torsion, so every clause that reads the level fails
    # STRUCTURAL too
    only_axioms = 0
    for _, ok, rep in z4_depth1_mutants():
        assert ok == rep.passed
        only_axioms += fails_only_the_level_axioms(rep)
    assert only_axioms == 30


def test_filter_decides_no_op_mutants_of_a_bar_failing_its_level_axioms():
    # each Z/4 mutant above that fails only its level-1 axioms, taken as
    # the canonical bar: a mutant rewriting a symmetric cell pair of
    # level 1 to its own value is that bar again and fails, so the level
    # axioms of a level that failed them are decided on the whole level,
    # not on the changed cells
    bars = [mutant for mutant, _, rep in z4_depth1_mutants()
            if fails_only_the_level_axioms(rep)]
    cases = 0
    for bar in bars:
        passed, decide = _definition_filter(bar)
        assert not passed
        c, n = bar.algebras[1].mul.constants, bar.levels[1].rank
        for i, j in product(range(n), repeat=2):
            mutant, ok = decided(decide, bar, 1, {(i, j): list(c[i][j]),
                                                  (j, i): list(c[j][i])})
            assert ok == definition_checks(mutant).passed, (i, j)
            cases += 1
    assert len(bars) == 30 and cases == 120


def test_filter_decides_mutants_of_a_bar_with_one_broken_level():
    # nilcube at depth 3 with level n broken by a flip of coordinate l of
    # g_0 g_0: l = 0 breaks the level-n axioms and other clauses that
    # read level n, l = 2 only the latter.  Some broken clause skips
    # every other level, so each mutant of another level fails, a no-op
    # one included, while the mutant that flips the cell back passes
    canonical = build_bar_algebra(workspace("nilcube").xmod("main"), 3)
    cases = repaired = 0
    for n, l in product(range(1, 4), (0, 2)):
        mul = canonical.algebras[n].mul
        cell = list(mul.constants[0][0])
        cell[l] ^= 1
        broken = canonical.with_level_tensor(n, mul.with_cells({(0, 0): cell}))
        passed, decide = _definition_filter(broken)
        assert not passed and not definition_checks(broken).passed
        rng = random.Random(n)
        mutants = [(k, {}) for k in range(1, 4)]
        mutants.append((n, {(0, 0): list(mul.constants[0][0])}))
        mutants += [_mutate_tensors(broken, rng) for _ in range(20)]
        for k, cells in mutants:
            mutant, ok = decided(decide, broken, k, cells)
            assert ok == definition_checks(mutant).passed, (n, l, k, cells)
            cases += 1
            repaired += ok
    assert cases == 144 and repaired >= 6


def mixed_order_z4_xmods():
    """The valid rank-1 crossed modules over Z/4 whose bar level 1 has
    summands of different orders."""
    return [xm for xm in all_valid_xmods(4, 1)
            if len(set(build_bar_algebra(xm, 1).levels[1].orders)) > 1]


def filter_cases():
    # (name, crossed module, depth, seeds, mutants per seed).  Mutants of
    # broken_z4 at depth 3 that break torsion fail the definition checks
    # STRUCTURAL, with nothing swept
    yield from (("nilcube", workspace("nilcube").xmod("main"), depth,
                 range(3), 40) for depth in (1, 2, 3))
    yield ("nilsquare", workspace("nilsquare").xmod("main"), 2, range(3), 40)
    yield from (("broken_action", workspace("broken_action").xmod("main"),
                 depth, range(2), 40) for depth in (1, 2, 3))
    yield from (("broken_z4", workspace("broken_z4").xmod("main"), depth,
                 range(2), 40) for depth in (1, 2, 3))
    for n, xm in enumerate(mixed_order_z4_xmods()):
        yield f"z4-{n}", xm, 2, range(2), 20


def test_filter_decides_every_mutant_like_the_definition_checks():
    # the filter against the whole definition on every mutant of a few
    # seeds; broken_action and broken_z4 fail the definition, and some
    # mutant is let through both when the canonical bar passes and when
    # it fails
    survivors = {True: 0, False: 0}
    for name, xm, depth, seeds, count in filter_cases():
        canonical = build_bar_algebra(xm, depth)
        passed, decide = _definition_filter(canonical)
        assert passed == definition_checks(canonical).passed \
            == (not name.startswith("broken")), (name, depth)
        for seed in seeds:
            rng = random.Random(seed)
            for _ in range(count):
                mutant, ok = decided(decide, canonical,
                                     *_mutate_tensors(canonical, rng))
                assert ok == definition_checks(mutant).passed, \
                    (name, depth, seed)
                survivors[passed] += ok
    assert survivors[True] and survivors[False]
    assert len(mixed_order_z4_xmods()) == 15


def spy_on_clauses(monkeypatch):
    """The names of the face, degeneracy and absorption clauses run from
    now on, in the order they run."""
    import idealbar.bar as bar_mod
    names = []
    for fn in ("multiplicativity_report", "check"):
        def spy(name, *args, fn=getattr(bar_mod, fn), **kwargs):
            names.append(name)
            return fn(name, *args, **kwargs)
        monkeypatch.setattr(bar_mod, fn, spy)
    return names


def test_cellwise_filter_runs_only_the_clauses_of_the_changed_level(
        monkeypatch):
    # a mutant of a canonical bar that passes is decided on the faces and
    # degeneracies into and out of level k and the absorption clauses
    # that read level k; every other clause keeps the canonical verdict.
    # A mutant that changes no cell passes all of them, and every other
    # mutant stops at its first failure
    names = spy_on_clauses(monkeypatch)
    depth = 3
    canonical = build_bar_algebra(workspace("nilcube").xmod("main"), depth)
    _, decide = _definition_filter(canonical)

    def clauses(k):
        maps = [(f"d{i}@{n}", n) for n in (k, k + 1) for i in range(n + 1)]
        maps += [(f"s{i}@{n}", n + 1) for n in (k - 1, k) for i in range(n + 1)]
        out = [f"{m} multiplicative" for m, top in maps if top <= depth]
        out += [f"base-subalgebra @ {k}", f"mixed-letterwise @ {k}"]
        if k == 1:
            out += ["mixed-into-tail @ 1"] + [
                f"mixed-letterwise @ {n}" for n in range(2, depth + 1)]
        return sorted(out)

    for k in range(1, depth + 1):
        names.clear()
        assert decide(k, {})[1]
        assert sorted(names) == clauses(k), k
    rng = random.Random(2)
    for _ in range(100):
        names.clear()
        k, cells = _mutate_tensors(canonical, rng)
        ok = decide(k, cells)[1]
        assert set(names) <= set(clauses(k)), (k, names)
        if ok:
            assert sorted(names) == clauses(k), k


def test_filter_rejects_on_failed_clauses_that_skip_the_level(monkeypatch):
    # on broken_z4 at depth 3, d0@1, d0@2 and d0@3 fail on the canonical
    # bar and between them skip every level, so once the canonical bar is
    # decided each mutant is rejected without running a clause
    canonical = build_bar_algebra(workspace("broken_z4").xmod("main"), 3)
    rep = definition_checks(canonical)
    assert [c.name for group in rep.checks for c in group.checks
            if not c.passed] == [f"d0@{n} multiplicative" for n in (1, 2, 3)]
    names = spy_on_clauses(monkeypatch)
    passed, decide = _definition_filter(canonical)
    assert not passed and names
    names.clear()
    mutants = [(k, {}) for k in range(1, 4)]
    rng = random.Random(0)
    mutants += [_mutate_tensors(canonical, rng) for _ in range(100)]
    for k, cells in mutants:
        assert not decide(k, cells)[1]
    assert names == []
