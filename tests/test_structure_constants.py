"""Tensors read off structure constants against the element arithmetic
they replace.

The bar level tensors are the tensors of S |x R^n that
core.semidirect_power assembles with core.block_tensor from the
constants of S, R and the action, the bibar products are assembled
block-diagonally from the two bars by the same builder, and
associativity is decided on sums of constants.  The slow paths are kept
as the oracles: the closed product formula and the componentwise bibar
product on every generator pair (tests/oracles.py), and the
evaluate-based associativity loop, which also checks that the third of
the triples a commutative product is read on still gives the least
witness; the changed-cell decision of core.cellwise_axioms has the whole
algebra_axioms as its oracle.  The inputs are mixed-order modules with
torsion-violating tensors, where a missing reduction or a misplaced
block shows.
"""

from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import idealbar.core as core
from idealbar.bar import build_bar_algebra
from idealbar.bibar import BiBar
from idealbar.core import (MAX_ENUM, Algebra, AlgebraHom, BilinearMap,
                           FiniteModule, ModuleHom, StructuralError,
                           algebra_axioms, cellwise_axioms,
                           semidirect_power, semidirect_product)
from idealbar.crossed_ideal import XModMorphism
from idealbar.enumeration import all_valid_xmods
from idealbar.workspace import Workspace
from idealbar.xmod import CrossedModule
from oracles import bibar_multiply, product_formula, workspace

# summand orders above 1 for each modulus
ORDERS = {4: (2, 4), 6: (2, 3, 6), 8: (2, 4, 8), 9: (3, 9)}
moduli = st.sampled_from(sorted(ORDERS))


@st.composite
def modules(draw, m, max_rank=2):
    return FiniteModule(m, draw(st.lists(st.sampled_from(ORDERS[m]),
                                         min_size=1, max_size=max_rank)))


def elements(draw, mod):
    return tuple(draw(st.integers(0, d - 1)) for d in mod.orders)


def tensor(draw, left, right, target, sparse=False):
    # canonical coordinates, but no torsion condition, so torsion
    # violations are common; sparse tensors are mostly zero cells and
    # reach late associativity witnesses
    return BilinearMap(left, right, target, [
        [target.zero if sparse and draw(st.integers(0, 3))
         else elements(draw, target) for _ in range(right.rank)]
        for _ in range(left.rank)])


def hom(draw, dom, cod):
    return AlgebraHom(dom, cod, ModuleHom(
        dom.carrier, cod.carrier,
        [elements(draw, cod.carrier) for _ in range(dom.carrier.rank)]))


@st.composite
def xmods(draw, m, max_rank=2):
    s_mod = draw(modules(m, max_rank))
    r_mod = draw(modules(m, max_rank))
    s_alg = Algebra(s_mod, tensor(draw, s_mod, s_mod, s_mod))
    r_alg = Algebra(r_mod, tensor(draw, r_mod, r_mod, r_mod))
    return CrossedModule(hom(draw, r_alg, s_alg),
                         tensor(draw, s_mod, r_mod, r_mod))


def level_size(xm, n):
    return xm.s_alg.size * xm.r_alg.size ** n


def product_formula_constants(bar, n):
    gens = bar.levels[n].generators()
    return tuple(tuple(product_formula(bar, n, gi, gj) for gj in gens)
                 for gi in gens)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_level_constants_match_the_closed_formula(data):
    xm = data.draw(moduli.flatmap(xmods))
    depth = data.draw(st.integers(1, 3))
    while depth > 1 and level_size(xm, depth) > MAX_ENUM:
        depth -= 1
    bar = build_bar_algebra(xm, depth)
    for n in range(depth + 1):
        assert bar.algebras[n].mul.constants \
            == product_formula_constants(bar, n), n


@pytest.mark.parametrize("name", ["nilsquare", "nilcube", "broken_action"],
                         ids=lambda name: f"{name}_xmod")
def test_fixture_level_constants_match_the_closed_formula(name):
    bar = build_bar_algebra(workspace(name).xmod("main"), 4)
    for n in range(5):
        assert bar.algebras[n].mul.constants \
            == product_formula_constants(bar, n), n


def _torsion_violating_xmods():
    """Candidates whose product or action tensor is not a bilinear map
    of modules: over Z/4, R = Z/2 + Z/4 with e0^2 = e1, and S = Z/2
    acting on R = Z/4 by s.r = r."""
    r_mod, s_mod = FiniteModule(4, [2, 4]), FiniteModule(4, [2])
    r_alg = Algebra(r_mod, BilinearMap(r_mod, r_mod, r_mod,
                                       [[[0, 1], [0, 0]], [[0, 0], [0, 0]]]))
    s_alg = Algebra(s_mod, BilinearMap(s_mod, s_mod, s_mod, [[[0]]]))
    first = CrossedModule(
        AlgebraHom(r_alg, s_alg, ModuleHom(r_mod, s_mod, [[0], [0]])),
        BilinearMap(s_mod, r_mod, r_mod, [[[0, 0], [0, 0]]]))
    z4 = FiniteModule(4, [4])
    r4 = Algebra(z4, BilinearMap(z4, z4, z4, [[[0]]]))
    second = CrossedModule(
        AlgebraHom(r4, s_alg, ModuleHom(z4, s_mod, [[0]])),
        BilinearMap(s_mod, z4, z4, [[[1]]]))
    out = [first, second]
    assert all(not xm.r_alg.mul.well_defined()
               or not xm.action.well_defined() for xm in out)
    return out


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
BUILDER_INPUTS = {
    "fixtures": lambda: [xm for path in sorted(FIXTURES.glob("*.json"))
                         for xm in Workspace.load(str(path)).xmods.values()],
    "valid-rank1-m2": lambda: all_valid_xmods(2, 1),
    "valid-rank1-m3": lambda: all_valid_xmods(3, 1),
    "valid-rank1-m4": lambda: all_valid_xmods(4, 1),
    "torsion-violating": _torsion_violating_xmods,
}


@pytest.mark.parametrize("inputs", sorted(BUILDER_INPUTS))
def test_semidirect_power_matches_the_closed_formula(inputs):
    # one builder for S |x R^n: every bar level wraps it on the module's
    # own carrier, and semidirect_product is its one-letter case
    xmods = BUILDER_INPUTS[inputs]()
    assert xmods
    for xm in xmods:
        bar = build_bar_algebra(xm, 3)
        args = (xm.s_alg, xm.r_alg, xm.action)
        for n in range(4):
            alg = semidirect_power(*args, n)
            assert alg.carrier == bar.levels[n]
            assert alg.mul.constants == product_formula_constants(bar, n), n
            assert bar.algebras[n].carrier is bar.levels[n]
            assert bar.algebras[n].mul.constants == alg.mul.constants
        sd = semidirect_product(*args)
        assert sd.carrier == bar.algebras[1].carrier
        assert sd.mul.constants == bar.algebras[1].mul.constants
        assert sd.name == "semidirect"


def test_the_rank1_census_over_z4_has_rank_0_factors():
    # the letter x S block of semidirect_power reads the action cells
    # transposed, and a rank-0 slip there shows only when the census
    # compared above holds S or R of rank 0 beside the other of rank 1
    ranks = {(xm.s_alg.carrier.rank, xm.r_alg.carrier.rank)
             for xm in BUILDER_INPUTS["valid-rank1-m4"]()}
    assert {(0, 1), (1, 0)} <= ranks


@st.composite
def morphisms(draw):
    m = draw(moduli)
    source, target = draw(xmods(m, 1)), draw(xmods(m, 1))
    return XModMorphism(source, target, hom(draw, source.r_alg, target.r_alg),
                        hom(draw, source.s_alg, target.s_alg))


@settings(max_examples=60, deadline=None)
@given(morphisms(), st.integers(1, 2), st.integers(1, 2))
def test_bibar_constants_match_the_componentwise_product(mor, n_depth,
                                                         m_depth):
    def row_size(m):
        return level_size(mor.target, n_depth) \
            * level_size(mor.source, n_depth) ** m

    while m_depth > 1 and row_size(m_depth) > MAX_ENUM:
        m_depth -= 1
    while n_depth > 1 and row_size(m_depth) > MAX_ENUM:
        n_depth -= 1
    bb = BiBar(mor, n_depth, m_depth)
    for n in range(n_depth + 1):
        for m in range(m_depth + 1):
            gens = bb.level(n, m).generators()
            assert bb.algebra(n, m).mul.constants == tuple(
                tuple(bibar_multiply(bb, n, m, gi, gj) for gj in gens)
                for gi in gens), (n, m)


def associativity_by_evaluate(alg):
    """The loop algebra_axioms ran before it read associativity off the
    constants: (g_i g_j) g_k against g_i (g_j g_k) through evaluate."""
    gens = alg.generators()
    c = alg.mul.constants
    n = len(gens)
    for i, j, k in product(range(n), repeat=3):
        if alg.multiply(c[i][j], gens[k]) != alg.multiply(gens[i], c[j][k]):
            return (i, j, k)
    return None


def _bar_level_algebras():
    out = [alg for name, depth in (("nilsquare", 3), ("nilcube", 2),
                                   ("broken_action", 2))
           for alg in build_bar_algebra(workspace(name).xmod("main"),
                                        depth).algebras]
    for xm in all_valid_xmods(4, 1):
        out.extend(build_bar_algebra(xm, 2).algebras)
    return [alg for alg in out if alg.carrier.rank]


BAR_LEVELS = _bar_level_algebras()


@st.composite
def bar_level_changes(draw, levels=BAR_LEVELS):
    """A bar level algebra and up to three symmetric entry changes, as
    the perturbation harness makes them, as the changed cells
    (i, j) -> coefficient list."""
    alg = draw(st.sampled_from(levels))
    mod, c = alg.carrier, alg.mul.constants
    cells = {}
    for _ in range(draw(st.integers(0, 3))):
        i, j, l = (draw(st.integers(0, mod.rank - 1)) for _ in range(3))
        v = draw(st.integers(0, mod.orders[l] - 1))
        cells.setdefault((i, j), list(c[i][j]))[l] = v
        cells.setdefault((j, i), list(c[j][i]))[l] = v
    return alg, cells


def mutated_bar_levels():
    """The changed bar level: mostly associative before the change, with
    late witnesses after it."""
    return bar_level_changes().map(
        lambda change: Algebra(change[0].carrier,
                               change[0].mul.with_cells(change[1])))


@st.composite
def random_algebras(draw):
    mod = draw(moduli.flatmap(lambda m: modules(m, 3)))
    return Algebra(mod, tensor(draw, mod, mod, mod, draw(st.booleans())))


@settings(max_examples=300, deadline=None)
@given(st.one_of(random_algebras(), mutated_bar_levels()))
def test_associativity_witness_matches_the_evaluate_loop(alg):
    assert algebra_axioms(alg).find("associativity").witness \
        == associativity_by_evaluate(alg)


# summand orders above 1, with m = 12 beside the moduli of ORDERS
SYMMETRIC_ORDERS = {**ORDERS, 12: (2, 3, 4, 6, 12)}


@st.composite
def symmetric_algebras(draw):
    """Commutative products on mixed-order modules, sparse or dense,
    with no torsion condition, as algebra_axioms reads them on a third
    of the triples."""
    m = draw(st.sampled_from(sorted(SYMMETRIC_ORDERS)))
    mod = FiniteModule(m, draw(st.lists(st.sampled_from(SYMMETRIC_ORDERS[m]),
                                        min_size=1, max_size=4)))
    sparse = draw(st.booleans())
    c = [[None] * mod.rank for _ in range(mod.rank)]
    for i, j in product(range(mod.rank), repeat=2):
        if i <= j:
            c[i][j] = c[j][i] = (
                mod.zero if sparse and draw(st.integers(0, 3))
                else elements(draw, mod))
    return Algebra(mod, BilinearMap(mod, mod, mod, c))


@settings(max_examples=400, deadline=None)
@given(symmetric_algebras())
def test_commutative_associativity_witness_matches_the_evaluate_loop(alg):
    rep = algebra_axioms(alg)
    assert rep.find("commutativity").witness is None
    assert rep.find("associativity").witness \
        == associativity_by_evaluate(alg)


def _triples_handed(monkeypatch, alg):
    # the number of triples algebra_axioms hands the associativity scan
    handed = []
    scan = core._nonassociative_triple

    def counted(nz, cols, orders, triples):
        triples = list(triples)
        handed.append(len(triples))
        return scan(nz, cols, orders, triples)

    monkeypatch.setattr(core, "_nonassociative_triple", counted)
    rep = algebra_axioms(alg)
    monkeypatch.undo()
    assert len(handed) == 1
    return rep, handed[0]


def test_a_commutative_product_is_read_on_a_third_of_the_triples(
        monkeypatch):
    levels = build_bar_algebra(workspace("nilcube").xmod("main"),
                               4).algebras
    assert levels[4].carrier.rank == 11
    for alg in levels:
        n = alg.carrier.rank
        rep, handed = _triples_handed(monkeypatch, alg)
        assert rep.passed
        assert handed == (n ** 3 - n) // 3
        assert rep.find("associativity").meta == {"triples": n ** 3}
    assert handed == 440
    # one cell off the diagonal changed alone: no longer commutative,
    # and every triple is handed
    c = levels[4].mul.constants
    cells = {(0, 1): [(v + 1) % d for v, d in zip(c[0][1],
                                                  levels[4].orders)]}
    mutant = Algebra(levels[4].carrier, levels[4].mul.with_cells(cells))
    rep, handed = _triples_handed(monkeypatch, mutant)
    assert rep.find("commutativity").witness == (0, 1)
    assert handed == 11 ** 3


@settings(max_examples=300, deadline=None)
@given(bar_level_changes([alg for alg in BAR_LEVELS
                          if algebra_axioms(alg).passed]))
def test_cellwise_axioms_match_the_whole_check(change):
    # an algebra that passes, changed in a few cells, is decided on the
    # changed cells and the triples that read them
    alg, cells = change
    mul = alg.mul.with_cells(cells)
    assert cellwise_axioms(alg)(cells) \
        == algebra_axioms(Algebra(alg.carrier, mul)).passed


def _check_every_flip(levels):
    """Move each coefficient of each level to each other value, in one
    cell and in a symmetric pair of cells, and compare cellwise_axioms
    with the whole check.  Returns the number of flips."""
    flips = 0
    for alg in levels:
        assert algebra_axioms(alg).passed, alg.name
        mod, c = alg.carrier, alg.mul.constants
        passes = cellwise_axioms(alg)
        for i, j, l in product(range(mod.rank), repeat=3):
            for v in range(mod.orders[l]):
                if i > j or v == c[i][j][l]:
                    continue
                cells = {(i, j): list(c[i][j])}
                cells[i, j][l] = v
                # the flip alone, then with its mirror cell
                for mirror in (False, True):
                    if mirror:
                        cells.setdefault((j, i), list(c[j][i]))[l] = v
                    mul = alg.mul.with_cells(cells)
                    whole = algebra_axioms(Algebra(mod, mul)).passed
                    assert passes(cells) == whole, (alg.name, cells)
                    flips += 1
    return flips


def test_cellwise_axioms_match_the_whole_check_on_every_flip():
    # some flips of nilcube break associativity only at triples reached
    # through a nonzero coordinate: zeroing the g_2 coordinate of g_0 g_2
    # at level 0 leaves every triple that starts or ends in the changed
    # cells associative, but (g_1 g_1) g_0 = 0 while g_1 (g_1 g_0) = g_2.
    # The triples (., i, j) and (j, a, b) are not scanned: in a
    # commutative tensor each has minus the associator of its reverse,
    # which is scanned
    levels = [alg for name in ("nilcube", "nilsquare")
              for alg in build_bar_algebra(workspace(name).xmod("main"),
                                           2).algebras]
    levels += [alg for xm in all_valid_xmods(4, 1)
               for alg in build_bar_algebra(xm, 1).algebras
               if alg.carrier.rank]
    assert _check_every_flip(levels) > 2000


def test_cellwise_axioms_match_the_whole_check_on_every_flip_over_z12():
    # bar levels over Z/12 pair summands of different orders, so a
    # changed cell (i, j) can break torsion only at the coordinates l
    # whose f_l does not divide gcd(d_i, d_j), the ones read there: the
    # first census crossed module on each pair of distinct orders
    firsts = {}
    for xm in all_valid_xmods(12, 1):
        key = (xm.s_alg.carrier.orders, xm.r_alg.carrier.orders)
        if len(set(key[0] + key[1])) == 2:
            firsts.setdefault(key, xm)
    levels = [alg for xm in firsts.values()
              for alg in build_bar_algebra(xm, 2).algebras]
    assert len(firsts) == 20
    assert _check_every_flip(levels) > 2000


def test_associativity_makes_no_evaluate_call(monkeypatch):
    calls = []
    evaluate = BilinearMap.evaluate

    def counted(self, x, y):
        calls.append((x, y))
        return evaluate(self, x, y)

    monkeypatch.setattr(BilinearMap, "evaluate", counted)
    for alg in BAR_LEVELS[:12]:
        algebra_axioms(alg)
    assert calls == []


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_compose_matches_the_generator_images(data):
    m = data.draw(moduli)
    a, b, c = (data.draw(modules(m, 3)) for _ in range(3))
    inner = ModuleHom(a, b, [elements(data.draw, b) for _ in range(a.rank)])
    outer = ModuleHom(b, c, [elements(data.draw, c) for _ in range(b.rank)])
    assert outer.compose(inner).images == tuple(
        outer.apply(inner.apply(g)) for g in a.generators())


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_tensor_entries_are_reduced_like_module_elements(data):
    m = data.draw(moduli)
    left, right, target = (data.draw(modules(m)) for _ in range(3))
    raw = [[[data.draw(st.integers(-3 * m, 3 * m)) for _ in target.orders]
            for _ in right.orders] for _ in left.orders]
    assert BilinearMap(left, right, target, raw).constants == tuple(
        tuple(target.reduce(tuple(vec)) for vec in row) for row in raw)


M = FiniteModule(4, [2, 4])


@pytest.mark.parametrize("constants, message", [
    ([[(0, 0), (0, 0)]], "tensor has 1 rows, left rank is 2"),
    # a short row as well: the row count is checked first
    ([[(0, 0)]], "tensor has 1 rows, left rank is 2"),
    ([[(0, 0), (0, 0)], [(0, 0)]], "tensor row has 1 entries, right rank is 2"),
    ([[(0, 0), (0, 0)], [(0, 0), (0, 0), (0, 0)]],
     "tensor row has 3 entries, right rank is 2"),
    ([[(0, 0), (0,)], [(0, 0), (0, 0)]],
     "tensor entry has length 1, target rank is 2"),
    ([[(0, 0), (0, 0)], [(0, 0), (0, 0, 1)]],
     "tensor entry has length 3, target rank is 2"),
    # the first bad row decides which message is given
    ([[(0, 0), (0,)], [(0, 0)]], "tensor entry has length 1, target rank is 2"),
])
def test_malformed_constants_keep_their_messages(constants, message):
    with pytest.raises(StructuralError) as exc:
        BilinearMap(M, M, M, constants)
    assert str(exc.value) == message

