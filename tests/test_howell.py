"""Spans held as Howell forms, against their element lists.

core.Submodule reads membership, size, equality, coset representatives
and kernels off the Howell form of a generator list.  The oracles close
the generator list under addition and apply a well-defined hom to every
element of its domain; kernel refuses a hom that is not well defined.  Modules have mixed orders over m in {4, 6, 8, 9}; order-1
summands are drawn too, so a module may have rank 0, and generator lists
may be empty.  core.howell_form is compared with howell_oracle, the form
computed by rewriting every earlier row at each pivot, also at m = 12
and on generator lists with repeats.
"""

from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealbar.core import (FiniteModule, ModuleHom, PreconditionError,
                           Submodule, howell_form, kernel)
from oracles import howell_oracle, kernel_oracle, span_oracle

MODULI = [4, 6, 8, 9]
CASES = settings(max_examples=200, deadline=None)


def module(data, m, max_size=64):
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    orders = data.draw(st.lists(st.sampled_from(divisors), max_size=3)
                       .filter(lambda o: prod(o) <= max_size))
    return FiniteModule(m, orders)


def gen_list(data, mod, max_size=3):
    return data.draw(st.lists(st.sampled_from(mod.elements()),
                              max_size=max_size))


@given(st.data(), st.sampled_from(MODULI))
@CASES
def test_span_matches_its_breadth_first_closure(data, m):
    mod = module(data, m)
    gens = gen_list(data, mod)
    span, oracle = Submodule.from_generators(mod, gens), span_oracle(mod, gens)
    assert span.gens == tuple(gens)
    assert span.size == len(oracle)
    assert span.elements == oracle
    assert [span.contains(x) for x in mod.elements()] \
        == [x in oracle for x in mod.elements()]
    assert span == Submodule.from_generators(mod, oracle)
    assert all(span.least_in_coset(x) == min(mod.add(x, i) for i in oracle)
               for x in mod.elements())


@given(st.data(), st.sampled_from(MODULI))
@CASES
def test_one_span_has_one_form(data, m):
    # a second generator list of the same span: the first one shuffled,
    # with unit multiples and sums of its members added
    mod = module(data, m)
    gens = gen_list(data, mod)
    units = [u for u in range(1, m) if all(u % p for p in (2, 3) if m % p == 0)]
    more = [mod.scale(data.draw(st.sampled_from(units)), g) for g in gens]
    more += [mod.add(a, b) for a, b in zip(gens, gens[1:])]
    more = data.draw(st.permutations(more + gens))
    span = Submodule.from_generators(mod, gens)
    assert Submodule.from_generators(mod, more).form == span.form
    other = gen_list(data, mod)
    assert ((Submodule.from_generators(mod, other).form == span.form)
            == (span_oracle(mod, other) == span.elements))


@given(st.data(), st.sampled_from(MODULI))
@CASES
def test_kernel_matches_the_element_scan(data, m):
    # the image of a generator of order d is drawn among the elements
    # that d kills, so the hom is well defined
    dom, cod = module(data, m), module(data, m, 16)
    f = ModuleHom(dom, cod, [
        data.draw(st.sampled_from([y for y in cod.elements()
                                   if cod.scale(d, y) == cod.zero]))
        for d in dom.orders])
    assert f.well_defined()
    ker = kernel(f)
    assert ker.elements == kernel_oracle(f)
    assert ker.size == len(kernel_oracle(f))


@pytest.mark.parametrize("m, dom, cod, images", [
    (4, [2], [4], [(1,)]),          # 2 * 1 != 0 in Z/4
    (6, [2], [3], [(1,)]),          # 2 * 1 != 0 in Z/3
    (12, [2, 3], [12], [(6,), (1,)]),  # 3 * 1 != 0 in Z/12
    (8, [4, 8], [8, 2], [(1, 1), (0, 0)]),  # 4 * 1 != 0 in Z/8
])
def test_kernel_refuses_a_map_that_is_not_well_defined(m, dom, cod, images):
    # its graph span is no graph, so kernel refuses it as solve and
    # injective do
    f = ModuleHom(FiniteModule(m, dom), FiniteModule(m, cod), images)
    assert not f.well_defined()
    with pytest.raises(PreconditionError, match="kernel needs a well-defined"):
        kernel(f)


@given(st.data(), st.sampled_from([4, 6, 8, 9, 12]))
@CASES
def test_howell_form_matches_the_oracle(data, m):
    # no element is listed, so modules reach rank 4 and lists take
    # repeats of their own members
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    mod = FiniteModule(m, data.draw(st.lists(st.sampled_from(divisors),
                                             max_size=4)))
    vector = st.tuples(*(st.integers(0, d - 1) for d in mod.orders))
    gens = data.draw(st.lists(vector, max_size=5))
    if gens:
        gens += data.draw(st.lists(st.sampled_from(gens), max_size=3))
    assert howell_form(mod, gens) == howell_oracle(mod, gens)


def test_annihilator_rows_count():
    # over Z/12, (0, 0, 3, 1) in Z/3 + Z/2 + Z/6 + Z/3 embeds as
    # (0, 0, 6, 4), whose pivot 6 has order 2; the annihilator row
    # 2 (0, 0, 6, 4) = (0, 0, 0, 8) brings in the part of order 3
    mod = FiniteModule(12, [3, 2, 6, 3])
    span = Submodule.from_generators(mod, [(0, 0, 3, 1)])
    assert span.size == 6 == len(span_oracle(mod, [(0, 0, 3, 1)]))
    assert span.contains((0, 0, 0, 1))


def test_rank_zero_and_empty_spans():
    point = FiniteModule(6, [1])
    assert point.rank == 0
    span = Submodule.from_generators(point, [(), ()])
    assert span.form == () and span.size == 1 and span.elements == ((),)
    mod = FiniteModule(4, [2, 4])
    zero = Submodule.from_generators(mod, [])
    assert zero.size == 1 and zero.elements == ((0, 0),)
    assert zero == Submodule.from_generators(mod, [(0, 0), (2, 0)])
