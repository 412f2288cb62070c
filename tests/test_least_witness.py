"""The least-witness rule against the element sweep.

Handed modules as spaces and the maps a multilinear clause reads,
policy.check decides the clause on generator tuples and, when one
fails, reports the first failing tuple of standard generators, taken in
element order, as the lexicographically least witness.  The element sweep under
Policy(mode="exhaustive") is the oracle: on random mixed-order modules
over Z/4, Z/6, Z/8 and Z/9 both must give the same leaf, witness, mode
and count included.  Maps that are not well defined (a torsion-violating
tensor, an order-violating hom) close the gate, and the result still
matches.
"""

from math import gcd, prod
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import idealbar.core as core_mod
import idealbar.policy as policy_mod
from idealbar.core import (Algebra, BilinearMap, FiniteModule, ModuleHom,
                           maps_equal_report, multiplicativity_report)
from idealbar.policy import EXHAUSTIVE, Policy, check
from idealbar.report import AXIOM, FAIL, PASS

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


def assert_matches_the_sweep(spaces, pred, maps, compatible):
    gate = all(m.well_defined() for m in maps)
    assert gate != any(not_well_defined(m) for m in maps)
    if compatible:
        assert gate
    fast = check("clause", AXIOM, spaces, pred, ORACLE, maps=maps)
    slow = check("clause", AXIOM, [s.elements() for s in spaces], pred,
                 ORACLE)
    assert fast.to_json() == slow.to_json()
    return fast


@given(st.data(), st.sampled_from(MODULI), st.booleans())
@CASES
def test_arity_one(data, m, compatible):
    dom, cod = module(data, m, 81), module(data, m, 81)
    f, g = two_homs(data, dom, cod, compatible)
    assert_matches_the_sweep([dom], lambda x: f.apply(x) == g.apply(x),
                             (f, g), compatible)


@given(st.data(), st.sampled_from(MODULI), st.booleans())
@CASES
def test_arity_two(data, m, compatible):
    left, right, target = (module(data, m, 36) for _ in range(3))
    b1, b2 = two_tensors(data, left, right, target, compatible)
    assert_matches_the_sweep([left, right],
                             lambda x, y: b1.evaluate(x, y) == b2.evaluate(x, y),
                             (b1, b2), compatible)


@given(st.data(), st.sampled_from(MODULI), st.booleans())
@CASES
def test_arity_three(data, m, compatible):
    # c(b(x, y), z) against c'(b(x, y), z) and a hom of the last argument
    a, b, c, mid, target = (module(data, m, 12) for _ in range(5))
    inner, _ = two_tensors(data, a, b, mid, compatible)
    outer1, outer2 = two_tensors(data, mid, c, target, compatible)
    f, g = two_homs(data, c, c, compatible)
    assert_matches_the_sweep(
        [a, b, c],
        lambda x, y, z: outer1.evaluate(inner.evaluate(x, y), f.apply(z))
        == outer2.evaluate(inner.evaluate(x, y), g.apply(z)),
        (inner, outer1, outer2, f, g), compatible)


def _swept(*args, maps=None, **kwargs):
    return policy_mod.check(*args, **kwargs)


@given(st.data(), st.sampled_from(MODULI), st.booleans())
@CASES
def test_core_reports_match_the_sweep(data, m, compatible):
    dom, cod = module(data, m, 36), module(data, m, 36)
    dom_mul, _ = two_tensors(data, dom, dom, dom, compatible)
    cod_mul, _ = two_tensors(data, cod, cod, cod, compatible)
    f, g = two_homs(data, dom, cod, compatible)
    a, b = Algebra(dom, dom_mul), Algebra(cod, cod_mul)

    def run():
        return [multiplicativity_report("mult", f, a, b).to_json(),
                maps_equal_report("equal", f, g).to_json()]

    fast = run()
    with mock.patch.object(core_mod, "check", _swept):
        assert run() == fast


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
    swept = check("clause", AXIOM, [z4], pred, ORACLE)
    assert swept.status == FAIL and swept.witness == ((2,),)
    assert check("clause", AXIOM, [z4], pred, ORACLE,
                 maps=(g, f, fg)).to_json() == swept.to_json()
    forced = check("clause", AXIOM, [z4], pred, ORACLE, maps=())
    assert forced.status == PASS


def test_multiplicativity_sweeps_when_a_product_is_not_bilinear():
    # cod = Z/4 + Z/2 with g0*g0 = (1, 1), of order 4 in a summand of
    # order 2: the product is not bilinear, so the one generator pair,
    # which passes, decides nothing.  f(2 * 1) = 0 but f(2) f(1) = (2, 0)
    dom_mod, cod_mod = FiniteModule(4, [4]), FiniteModule(4, [4, 2])
    dom = Algebra(dom_mod, BilinearMap(dom_mod, dom_mod, dom_mod, [[(0,)]]))
    cod = Algebra(cod_mod, BilinearMap(cod_mod, cod_mod, cod_mod,
                                       [[(1, 1), (2, 1)], [(3, 1), (2, 1)]]))
    f = ModuleHom(dom_mod, cod_mod, [(1, 1)])
    assert f.well_defined() and not cod.mul.well_defined()
    rep = multiplicativity_report("mult", f, dom, cod)
    assert rep.status == FAIL
    assert rep.witness == ((2,), (1,))
    assert rep.meta == {"mode": "exhaustive", "checked": 16}


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
    rep = multiplicativity_report("mult", f, a, b, ORACLE)
    swept = check("mult", AXIOM, [dom, dom],
                  lambda u, v: f.apply(a.multiply(u, v))
                  == b.multiply(f.apply(u), f.apply(v)), ORACLE)
    assert (rep.status, rep.witness, rep.meta["mode"], rep.meta["checked"]) \
        == (swept.status, swept.witness, swept.meta["mode"],
            swept.meta["checked"])
