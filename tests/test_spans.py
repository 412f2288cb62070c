"""Spans as check spaces, against the sweep over their elements.

A Submodule built from generators keeps them, and policy.check reads
them off when the maps the predicate reads are well defined: the span's
generators may decide a PASS, and a failure is swept for the least
witness.  The oracle is the same clause over the span's elements given
as a plain list, for is_ideal's absorption leaf too.  Products are
drawn torsion-violating as well, which must close the gate: the leaf
is then the STRUCTURAL non_map_leaf, and nothing is swept.
"""

from math import prod

from hypothesis import given, settings
from hypothesis import strategies as st

from idealbar.core import (Algebra, BilinearMap, FiniteModule, Submodule,
                           is_ideal)
from idealbar.policy import EXHAUSTIVE, Policy, check, non_map_leaf
from idealbar.report import AXIOM, FAIL, PASS
from oracles import absorption_oracle, counted_sweeps, swept_leaf

MODULI = [4, 6, 8, 9]
ORACLE = Policy(mode=EXHAUSTIVE)
CASES = settings(max_examples=150, deadline=None)


def module(data, m, max_size):
    divisors = [d for d in range(2, m + 1) if m % d == 0]
    orders = data.draw(st.lists(st.sampled_from(divisors), min_size=1,
                                max_size=3)
                       .filter(lambda o: prod(o) <= max_size))
    return FiniteModule(m, orders)


def tensor(data, left, right, target):
    """Any tensor, so torsion-violating ones are drawn too."""
    return BilinearMap(left, right, target, [
        [[data.draw(st.integers(0, f - 1)) for f in target.orders]
         for _ in right.orders] for _ in left.orders])


def span(data, mod):
    gens = data.draw(st.lists(st.sampled_from(mod.elements()), max_size=2))
    return Submodule.from_generators(mod, gens)


@given(st.data(), st.sampled_from(MODULI))
@CASES
def test_is_ideal_on_a_span_matches_its_elements(data, m):
    mod = module(data, m, 36)
    alg = Algebra(mod, tensor(data, mod, mod, mod))
    sub = span(data, mod)
    with counted_sweeps() as calls:
        rep = is_ideal(alg, sub)
    assert rep.find("additive-closure").status == PASS
    oracle = (absorption_oracle(alg, sub.elements) if alg.mul.well_defined()
              else non_map_leaf("absorption"))
    assert rep.find("absorption").to_json() == oracle.to_json()
    assert len(calls) == (rep.find("absorption").kind == AXIOM
                          and not rep.passed)


@given(st.data(), st.sampled_from(MODULI))
@CASES
def test_check_on_a_span_matches_the_sweep(data, m):
    # b1(x, y) = b2(x, y) for x in a span and y in a module
    mod, other, target = (module(data, m, 12) for _ in range(3))
    b1 = tensor(data, mod, other, target)
    b2 = BilinearMap(mod, other, target, b1.constants) \
        if data.draw(st.booleans()) else tensor(data, mod, other, target)
    sub = span(data, mod)

    def pred(x, y):
        return b1.evaluate(x, y) == b2.evaluate(x, y)

    with counted_sweeps() as calls:
        fast = check("clause", AXIOM, [sub, other], pred, (b1, b2),
                     policy=ORACLE)
    slow = (swept_leaf("clause", AXIOM, [sub, other], pred, ORACLE)
            if b1.well_defined() and b2.well_defined()
            else non_map_leaf("clause"))
    assert fast.to_json() == slow.to_json()
    assert len(calls) == (fast.kind == AXIOM and not fast.passed)


def test_torsion_violating_product_closes_the_gate_on_a_span():
    # Z/2 + Z/3 over Z/6: e0 has order 2 but e0*e0 = (1, 1) does not, so
    # the product is not bilinear on the module.  The span of (0, 2) is
    # absorbed on generator pairs, yet e0*(0, 1) = (1, 2) leaves it: the
    # representatives disagree, and no absorption is read off them
    mod = FiniteModule(6, [2, 3])
    alg = Algebra(mod, BilinearMap(mod, mod, mod,
                                   [[(1, 1), (1, 2)], [(0, 2), (0, 2)]]))
    assert not alg.mul.well_defined()
    sub = Submodule.from_generators(mod, [(0, 2)])
    assert absorption_oracle(alg, sub.elements).witness == ((1, 0), (0, 1))
    with counted_sweeps() as calls:
        node = is_ideal(alg, sub).find("absorption")
    assert calls == []
    assert node.to_json() == non_map_leaf("absorption").to_json()


def test_a_failing_span_is_swept_for_the_least_witness():
    # e0*e0 = e0 on Z/4 + Z/4: the span of (3, 3) fails absorption first
    # at its generator, ((1, 0), (3, 3)), but the least failing pair is
    # ((1, 0), (1, 1))
    mod = FiniteModule(4, [4, 4])
    alg = Algebra(mod, BilinearMap(mod, mod, mod,
                                   [[(1, 0), (0, 0)], [(0, 0), (0, 0)]]))
    sub = Submodule.from_generators(mod, [(3, 3)])
    assert sub.gens == ((3, 3),)
    node = is_ideal(alg, sub).find("absorption")
    assert node.status == FAIL
    assert node.witness == ((1, 0), (1, 1))
    assert node.meta == {"mode": "exhaustive", "checked": 64}


def test_a_failing_generator_tuple_is_never_sampled_away():
    # the span of (3, 3) above, with the bound lowered so that its failure
    # is sampled: three draws under seed 5 miss every failing pair, and
    # the failing generator tuple, an element tuple, stays the witness
    mod = FiniteModule(4, [4, 4])
    alg = Algebra(mod, BilinearMap(mod, mod, mod,
                                   [[(1, 0), (0, 0)], [(0, 0), (0, 0)]]))
    sub = Submodule.from_generators(mod, [(3, 3)])
    lowered = Policy(exhaustive_bound=1, sample_count=3, seed=5)
    assert absorption_oracle(alg, sub.elements, lowered).passed
    node = is_ideal(alg, sub, lowered).find("absorption")
    assert node.status == FAIL
    assert node.witness == ((1, 0), (3, 3))
    assert node.meta == {"mode": "sampled", "checked": 3, "seed": 5}
