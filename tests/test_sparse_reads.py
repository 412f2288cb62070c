"""Multiplicativity read off sparse image terms, and the unit found by a
pruned search in element order, against the slow paths they replace.

core.multiplicativity_report reads f(g_i)f(g_j) off the nonzero terms of
the two images; oracles.rows_multiplicativity_oracle builds the row P_i
of f(g_i) g_b over every codomain generator b and combines F[j] with it.
core._unit_note searches the coordinates of the unit in element order,
pruning a prefix that fixes a coordinate of some e g_j wrong;
oracles.unit_scan_oracle scans the elements.  Both are compared at
moduli with several divisors and mixed orders: homs whose images have
several terms and coefficients above 1, products that do not commute,
and, for the unit, tensors that break torsion and tensors with several
left units, so the order of the search shows.
"""

from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealbar.bar import build_bar_algebra, level_homomorphism_clauses
from idealbar.bibar import build_bibar
from idealbar.core import (Algebra, BilinearMap, FiniteModule, ModuleHom,
                           multiplicativity_report, validate_algebra)
from oracles import rows_multiplicativity_oracle, unit_scan_oracle, workspace

MODULI = [4, 6, 8, 9, 12]
CASES = settings(max_examples=200, deadline=None)


def module(draw, m, max_rank, max_size):
    divisors = [d for d in range(2, m + 1) if m % d == 0]
    orders = draw(st.lists(st.sampled_from(divisors), min_size=1,
                           max_size=max_rank)
                  .filter(lambda o: prod(o) <= max_size))
    return FiniteModule(m, orders)


def compatible(draw, f, *sources):
    """A coefficient mod f that every source order kills."""
    step = f // gcd(f, *sources)
    return step * draw(st.integers(0, f // step - 1))


def product_tensor(draw, mod):
    """A well-defined product on mod, commuting or not."""
    o = mod.orders
    return BilinearMap(mod, mod, mod, [
        [[compatible(draw, f, d, e) for f in o] for e in o] for d in o])


def automorphism(draw, mod):
    """A triangular automorphism of mod: f(g_i) is a unit times g_i plus
    multiples of the later generators, so images have several terms and
    coefficients above 1, or the identity."""
    o = mod.orders
    if draw(st.booleans()):
        return ModuleHom(mod, mod, mod.generators())
    images = []
    for i, d in enumerate(o):
        img = [0] * mod.rank
        img[i] = draw(st.sampled_from([u for u in range(1, d)
                                       if gcd(u, d) == 1]))
        for l in range(i + 1, mod.rank):
            img[l] = compatible(draw, o[l], d)
        images.append(img)
    return ModuleHom(mod, mod, images)


@st.composite
def multiplicative_cases(draw):
    """(f, dom, cod): cod a product on a module of mixed orders, f an
    automorphism of that module, and dom cod's product pulled back
    along f, so that f is multiplicative; then, half the time, one
    well-defined cell of dom is redrawn, so that f fails somewhere."""
    mod = module(draw, draw(st.sampled_from(MODULI)), 3, 64)
    cod = Algebra(mod, product_tensor(draw, mod))
    f = automorphism(draw, mod)
    inverse = {f.apply(x): x for x in mod.elements()}
    cells = [[list(inverse[cod.multiply(a, b)]) for b in f.images]
             for a in f.images]
    if draw(st.booleans()):
        i = draw(st.integers(0, mod.rank - 1))
        j = draw(st.integers(0, mod.rank - 1))
        cells[i][j] = [compatible(draw, e, mod.orders[i], mod.orders[j])
                       for e in mod.orders]
    return f, Algebra(mod, BilinearMap(mod, mod, mod, cells)), cod


@st.composite
def drawn_maps(draw):
    """(f, dom, cod) drawn outright on two modules over one modulus,
    each image a sum of generators with any well-defined coefficients."""
    m = draw(st.sampled_from(MODULI))
    dom, cod = module(draw, m, 3, 64), module(draw, m, 3, 64)
    images = [[compatible(draw, e, d) for e in cod.orders]
              for d in dom.orders]
    return (ModuleHom(dom, cod, images),
            Algebra(dom, product_tensor(draw, dom)),
            Algebra(cod, product_tensor(draw, cod)))


@given(st.one_of(multiplicative_cases(), drawn_maps()))
@CASES
def test_multiplicativity_matches_the_row_oracle(case):
    f, dom, cod = case
    assert multiplicativity_report("mult", f, dom, cod).to_json() \
        == rows_multiplicativity_oracle("mult", f, dom, cod).to_json()


def test_pulled_back_products_pass_and_noncommuting_cells_are_read_in_order():
    # over Z/4 + Z/4 the codomain has g_1 g_2 = g_1 and g_2 g_1 = 0; the
    # product pulled back along f(g_1) = 3 g_1 + 2 g_2, f(g_2) = g_2 makes
    # f multiplicative, and the same f into the opposite product fails
    mod = FiniteModule(4, [4, 4])
    cells = [[(0, 0), (1, 0)], [(0, 0), (0, 0)]]
    cod = Algebra(mod, BilinearMap(mod, mod, mod, cells))
    opposite = Algebra(mod, BilinearMap(mod, mod, mod,
                                        [list(c) for c in zip(*cells)]))
    f = ModuleHom(mod, mod, [(3, 2), (0, 1)])
    inverse = {f.apply(x): x for x in mod.elements()}
    dom = Algebra(mod, BilinearMap(mod, mod, mod, [
        [inverse[cod.multiply(a, b)] for b in f.images] for a in f.images]))
    assert multiplicativity_report("mult", f, dom, cod).passed
    rep = multiplicativity_report("mult", f, dom, opposite)
    assert (rep.status, rep.witness) == ("FAIL", ((0, 1), (1, 0)))
    assert rep.to_json() == rows_multiplicativity_oracle(
        "mult", f, dom, opposite).to_json()


def operators():
    """Every operator whose multiplicativity the nilcube bar at depth 4
    and the columns of its bibar at (3, 2) are checked on, as
    (name, hom, domain algebra, codomain algebra)."""
    bar = build_bar_algebra(workspace("nilcube").xmod("main"), 4)
    bb = build_bibar(workspace("nilcube").morphism("incl"), 3, 2)
    for column in [bar] + bb.columns:
        for (n, out), clause in level_homomorphism_clauses(column):
            name, hom = clause.args[:2]
            yield name, hom, column.algebras[n], column.algebras[out]


def test_multiplicativity_matches_on_the_nilcube_bar_and_bibar_operators():
    ops = list(operators())
    assert len(ops) == 24 + 3 * 15
    for name, hom, dom, cod in ops:
        assert multiplicativity_report(name, hom, dom, cod).to_json() \
            == rows_multiplicativity_oracle(name, hom, dom, cod).to_json()


# ---------------------------------------------------------------------------
# the unit


@st.composite
def unit_candidates(draw):
    """Any tensor on a module of mixed orders, torsion-breaking and
    noncommuting ones included, biased three ways: none; some rows the
    identity rows, so each of their generators is a left unit; or a
    drawn element planted as a left unit by solving one row for it."""
    mod = module(draw, draw(st.sampled_from(MODULI)), 4, 300)
    n, o = mod.rank, mod.orders
    cells = [[[draw(st.integers(0, f - 1)) for f in o] for _ in range(n)]
             for _ in range(n)]
    bias = draw(st.sampled_from(["none", "rows", "planted"]))
    if bias == "rows":
        for u in draw(st.sets(st.integers(0, n - 1), min_size=1)):
            cells[u] = [[int(j == l) for l in range(n)] for j in range(n)]
    elif bias == "planted":
        r = draw(st.integers(0, n - 1))
        e = [draw(st.integers(0, d - 1)) for d in o]
        e[r] = 1
        for j in range(n):
            cells[r][j] = [(int(j == l) - sum(e[i] * cells[i][j][l]
                                             for i in range(n) if i != r))
                           % f for l, f in enumerate(o)]
    return Algebra(mod, BilinearMap(mod, mod, mod, cells))


@given(unit_candidates())
@CASES
def test_unit_search_matches_the_element_scan(alg):
    assert validate_algebra(alg).find("unital").detail \
        == unit_scan_oracle(alg)


@pytest.mark.parametrize("orders,cells,unit", [
    # x y = (x_1 + x_2) y: e_2 and e_1 are left units, and e_2 is less
    ([2, 2], [[(1, 0), (0, 1)], [(1, 0), (0, 1)]], "unit (0, 1)"),
    # x y = (3 x_1 + 2 x_2) y over Z/4: the left units are (1, 1),
    # (1, 3), (3, 0) and (3, 2), so the least needs both coordinates
    ([4, 4], [[(3, 0), (0, 3)], [(2, 0), (0, 2)]], "unit (1, 1)"),
    # g_1 g_1 = g_1 and nothing else: no row reaches coordinate 2 of
    # e g_2, so there is no unit, and the search stops at the root
    ([2, 2], [[(1, 0), (0, 0)], [(0, 0), (0, 0)]], "no unit"),
])
def test_the_least_of_several_left_units_is_found(orders, cells, unit):
    mod = FiniteModule(orders[0], orders)
    alg = Algebra(mod, BilinearMap(mod, mod, mod, cells))
    assert validate_algebra(alg).find("unital").detail == unit \
        == unit_scan_oracle(alg)


def test_unit_search_matches_on_the_nilcube_bar_and_bibar_levels():
    bar = build_bar_algebra(workspace("nilcube").xmod("main"), 4)
    bb = build_bibar(workspace("nilcube").morphism("incl"), 3, 2)
    details = set()
    for alg in bar.algebras + [a for col in bb.columns for a in col.algebras]:
        detail = validate_algebra(alg).find("unital").detail
        assert detail == unit_scan_oracle(alg)
        details.add(detail.split(" (")[0])
    # the bar levels have the unit (1, 0, ..), the bibar levels with a
    # letter block none, and the largest levels are past the gate
    assert details == {"unit", "no unit",
                       "unit detection skipped, carrier too large"}
