"""The least-witness rule against the element sweep.

Handed modules as spaces and the maps a multilinear clause reads,
policy.check decides the clause on generator tuples and, when one
fails, reports the first failing tuple of standard generators, taken in
element order, as the lexicographically least witness.  The element sweep under
Policy(mode="exhaustive") is the oracle: on random mixed-order modules
over Z/4, Z/6, Z/8 and Z/9 both must give the same leaf, witness, mode
and count included.  Maps that are not well defined (a torsion-violating
tensor, an order-violating hom) close the gate: the clause is not run,
its leaf is the STRUCTURAL non_map_leaf, and nothing is swept.
"""

from math import gcd, prod

from hypothesis import given, settings
from hypothesis import strategies as st

from idealbar.core import (Algebra, BilinearMap, FiniteModule, ModuleHom,
                           maps_equal_report, multiplicativity_report)
from idealbar.policy import EXHAUSTIVE, Policy, check, non_map_leaf
from idealbar.report import AXIOM, FAIL, PASS
from oracles import counted_sweeps, swept_leaf

MODULI = [4, 6, 8, 9]
ORACLE = Policy(mode=EXHAUSTIVE)
CASES = settings(max_examples=100, deadline=None)


def module(data, m, max_size):
    divisors = [d for d in range(2, m + 1) if m % d == 0]
    orders = data.draw(st.lists(st.sampled_from(divisors), min_size=1,
                                max_size=3)
                       .filter(lambda o: prod(o) <= max_size))
    return FiniteModule(m, orders)


def value(data, f, *sources, compatible=True):
    """A coefficient mod f; when compatible, one that every source order
    kills, so the map it sits in stays well defined."""
    step = f // gcd(f, *sources) if compatible else 1
    return step * data.draw(st.integers(0, f // step - 1))


def tensor_constants(data, left, right, target, compatible):
    return [[[value(data, f, d, e, compatible=compatible)
              for f in target.orders] for e in right.orders]
             for d in left.orders]


def hom_images(data, dom, cod, compatible):
    return [[value(data, f, d, compatible=compatible) for f in cod.orders]
            for d in dom.orders]


def two_tensors(data, left, right, target, compatible):
    """Two tensors left x right -> target, the second equal to the first
    but in up to two redrawn cells, so both verdicts occur."""
    first = tensor_constants(data, left, right, target, compatible)
    second = [[vec[:] for vec in row] for row in first]
    cells = [(i, j, l) for i in range(left.rank) for j in range(right.rank)
             for l in range(target.rank)]
    for _ in range(data.draw(st.integers(0, 2))):
        i, j, l = data.draw(st.sampled_from(cells))
        second[i][j][l] = value(data, target.orders[l], left.orders[i],
                                right.orders[j], compatible=compatible)
    return (BilinearMap(left, right, target, first),
            BilinearMap(left, right, target, second))


def two_homs(data, dom, cod, compatible):
    first = hom_images(data, dom, cod, compatible)
    second = [img[:] for img in first]
    cells = [(i, l) for i in range(dom.rank) for l in range(cod.rank)]
    for _ in range(data.draw(st.integers(0, 2))):
        i, l = data.draw(st.sampled_from(cells))
        second[i][l] = value(data, cod.orders[l], dom.orders[i],
                             compatible=compatible)
    return ModuleHom(dom, cod, first), ModuleHom(dom, cod, second)


def not_well_defined(m):
    if isinstance(m, BilinearMap):
        return next(m.torsion_violations(), None) is not None
    return bool(m.order_violations())


def assert_matches_the_sweep(name, maps, run, oracle):
    """run() gives the leaf of oracle(), the exhaustive element sweep,
    when every map is well defined, and otherwise the STRUCTURAL leaf
    of name; run() sweeps nothing either way."""
    gate = all(m.well_defined() for m in maps)
    assert gate != any(not_well_defined(m) for m in maps)
    with counted_sweeps() as calls:
        fast = run()
    assert calls == []
    slow = oracle() if gate else non_map_leaf(name)
    assert fast.to_json() == slow.to_json()
    return fast


def assert_check_matches_the_sweep(spaces, pred, maps, compatible):
    if compatible:
        assert all(m.well_defined() for m in maps)
    return assert_matches_the_sweep(
        "clause", maps,
        lambda: check("clause", AXIOM, spaces, pred, maps, policy=ORACLE),
        lambda: swept_leaf("clause", AXIOM, spaces, pred, ORACLE))


@given(st.data(), st.sampled_from(MODULI), st.booleans())
@CASES
def test_arity_one(data, m, compatible):
    dom, cod = module(data, m, 81), module(data, m, 81)
    f, g = two_homs(data, dom, cod, compatible)
    assert_check_matches_the_sweep([dom], lambda x: f.apply(x) == g.apply(x),
                                   (f, g), compatible)


@given(st.data(), st.sampled_from(MODULI), st.booleans())
@CASES
def test_arity_two(data, m, compatible):
    left, right, target = (module(data, m, 36) for _ in range(3))
    b1, b2 = two_tensors(data, left, right, target, compatible)
    assert_check_matches_the_sweep(
        [left, right], lambda x, y: b1.evaluate(x, y) == b2.evaluate(x, y),
        (b1, b2), compatible)


@given(st.data(), st.sampled_from(MODULI), st.booleans())
@CASES
def test_arity_three(data, m, compatible):
    # c(b(x, y), z) against c'(b(x, y), z) and a hom of the last argument
    a, b, c, mid, target = (module(data, m, 12) for _ in range(5))
    inner, _ = two_tensors(data, a, b, mid, compatible)
    outer1, outer2 = two_tensors(data, mid, c, target, compatible)
    f, g = two_homs(data, c, c, compatible)
    assert_check_matches_the_sweep(
        [a, b, c],
        lambda x, y, z: outer1.evaluate(inner.evaluate(x, y), f.apply(z))
        == outer2.evaluate(inner.evaluate(x, y), g.apply(z)),
        (inner, outer1, outer2, f, g), compatible)


@given(st.data(), st.sampled_from(MODULI), st.booleans())
@CASES
def test_core_reports_match_the_sweep(data, m, compatible):
    # maps_equal_report against the sweep of f(x) = g(x); equal image
    # matrices of a non-map decide nothing either
    dom, cod = module(data, m, 36), module(data, m, 36)
    f, g = two_homs(data, dom, cod, compatible)
    if data.draw(st.booleans()):
        g = ModuleHom(dom, cod, f.images)
    detail = "" if f.images == g.images else "maps differ"
    assert_matches_the_sweep(
        "equal", (f, g), lambda: maps_equal_report("equal", f, g),
        lambda: swept_leaf("equal", AXIOM, [dom],
                           lambda x: f.apply(x) == g.apply(x), ORACLE,
                           detail=detail))


def test_a_closed_gate_matters():
    # g: Z/4 -> Z/2 is a hom, but f: Z/2 -> Z/4 sending 1 to 1 is not
    # (2 * 1 != 0 mod 4), so x -> f(g(x)) is not additive: it agrees with
    # the image matrix of the composite on the generator 1, not at 2
    z4, z2 = FiniteModule(4, [4]), FiniteModule(4, [2])
    g = ModuleHom(z4, z2, [[1]])
    f = ModuleHom(z2, z4, [[1]])
    fg = f.compose(g)

    def pred(x):
        return f.apply(g.apply(x)) == fg.apply(x)

    assert not f.well_defined()
    swept = swept_leaf("clause", AXIOM, [z4], pred, ORACLE)
    assert swept.status == FAIL and swept.witness == ((2,),)
    with counted_sweeps() as calls:
        closed = check("clause", AXIOM, [z4], pred, (g, f, fg))
    assert calls == []
    assert closed.to_json() == non_map_leaf("clause").to_json()
    assert (closed.status, closed.kind, closed.witness) \
        == (FAIL, "STRUCTURAL", None)
    forced = check("clause", AXIOM, [z4], pred, ())
    assert forced.status == PASS


def test_multiplicativity_fails_structural_when_a_product_is_not_bilinear():
    # cod = Z/4 + Z/2 with g0*g0 = (1, 1), of order 4 in a summand of
    # order 2: the product is not bilinear, so the one generator pair,
    # which passes, decides nothing, and the representatives disagree:
    # f(2 * 1) = 0 but f(2) f(1) = (2, 0).  No multiplicativity is read
    # off a product that is no map
    dom_mod, cod_mod = FiniteModule(4, [4]), FiniteModule(4, [4, 2])
    dom = Algebra(dom_mod, BilinearMap(dom_mod, dom_mod, dom_mod, [[(0,)]]))
    cod = Algebra(cod_mod, BilinearMap(cod_mod, cod_mod, cod_mod,
                                       [[(1, 1), (2, 1)], [(3, 1), (2, 1)]]))
    f = ModuleHom(dom_mod, cod_mod, [(1, 1)])
    assert f.well_defined() and not cod.mul.well_defined()
    swept = swept_leaf("mult", AXIOM, [dom_mod] * 2,
                       lambda u, v: f.apply(dom.multiply(u, v))
                       == cod.multiply(f.apply(u), f.apply(v)))
    assert swept.witness == ((2,), (1,))
    with counted_sweeps() as calls:
        rep = multiplicativity_report("mult", f, dom, cod)
    assert calls == []
    assert rep.to_json() == non_map_leaf("mult").to_json()


@given(st.data(), st.sampled_from(MODULI), st.booleans(), st.booleans(),
       st.booleans())
@CASES
def test_multiplicativity_matches_the_exhaustive_sweep(data, m, dom_ok,
                                                       cod_ok, hom_ok):
    dom, cod = module(data, m, 36), module(data, m, 36)
    a = Algebra(dom, BilinearMap(dom, dom, dom, tensor_constants(
        data, dom, dom, dom, dom_ok)))
    b = Algebra(cod, BilinearMap(cod, cod, cod, tensor_constants(
        data, cod, cod, cod, cod_ok)))
    f = ModuleHom(dom, cod, hom_images(data, dom, cod, hom_ok))
    with counted_sweeps() as calls:
        rep = multiplicativity_report("mult", f, a, b)
    assert calls == []
    if not all(x.well_defined() for x in (f, a.mul, b.mul)):
        assert rep.to_json() == non_map_leaf("mult").to_json()
        return
    swept = swept_leaf("mult", AXIOM, [dom, dom],
                       lambda u, v: f.apply(a.multiply(u, v))
                       == b.multiply(f.apply(u), f.apply(v)), ORACLE)
    assert (rep.status, rep.witness, rep.meta["mode"], rep.meta["checked"]) \
        == (swept.status, swept.witness, swept.meta["mode"],
            swept.meta["checked"])
