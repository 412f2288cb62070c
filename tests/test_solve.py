"""Preimages solved off the Howell form of a hom's graph, against listing.

core.solve reduces (y, 0) by the Howell form of the graph rows
(f(g_i), g_i) and reads some x with f(x) = y off what is left; kernel
reads its rows off the same form.  The presentations of subalgebras, the
inclusion of an ideal and the sub crossed modules solve their structure
constants through their embeddings.  The oracles list every element of
the domain, or the coordinates of every element of a subgroup.  Modules
have mixed orders over m in {4, 6, 8, 9, 12}; order-1 summands are
drawn too, so a module may have rank 0.
"""

from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import idealbar.core as core_mod
from idealbar.core import (Algebra, BilinearMap, FiniteModule, ModuleHom,
                           PreconditionError, Submodule, _present_subalgebra,
                           injective, is_ideal, kernel, solve)
from idealbar.crossed_ideal import sub_crossed_module
from idealbar.enumeration import enumerate_ideals
from idealbar.xmod import inclusion_xmod
from oracles import presentation_oracle

MODULI = [4, 6, 8, 9, 12]
CASES = settings(max_examples=200, deadline=None)


def module(data, m, max_size=64):
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    orders = data.draw(st.lists(st.sampled_from(divisors), max_size=3)
                       .filter(lambda o: prod(o) <= max_size))
    return FiniteModule(m, orders)


def well_defined_hom(data, dom, cod):
    """A hom whose image of generator i is killed by its order d_i."""
    return ModuleHom(dom, cod, [
        data.draw(st.sampled_from([y for y in cod.elements()
                                   if cod.scale(d, y) == cod.zero]))
        for d in dom.orders])


@given(st.data(), st.sampled_from(MODULI))
@CASES
def test_solve_matches_the_element_scan(data, m):
    dom, cod = module(data, m), module(data, m)
    f = well_defined_hom(data, dom, cod)
    hits = {f.apply(z) for z in dom.elements()}
    for y in cod.elements():
        x = solve(f, y)
        if y in hits:
            assert x is not None and dom.contains(x) and f.apply(x) == y
        else:
            assert x is None


def test_solve_finds_a_preimage_of_a_map_that_is_not_injective():
    # Z/4 + Z/2 onto Z/4 by (a, b) -> a + 2b: (1, 0) is one preimage of 1
    # and (3, 1) another
    f = ModuleHom(FiniteModule(4, [4, 2]), FiniteModule(4, [4]), [(1,), (2,)])
    assert kernel(f).size == 2
    for y in range(4):
        assert f.apply(solve(f, (y,))) == (y,)
    # the negation of the domain part matters: over Z/4 a preimage of 1
    # un-negated would be (3, .), which maps to 3
    g = ModuleHom(FiniteModule(4, [4]), FiniteModule(4, [4]), [(1,)])
    assert solve(g, (1,)) == (1,)
    # 1 is outside the image of doubling
    assert solve(ModuleHom(g.domain, g.codomain, [(2,)]), (1,)) is None
    # Z/4 -> Z/2 + Z/4 by 1 -> (1, 1): (0, 2) is the image of 2, which
    # the graph row (1, 1 | 1) reaches only through its annihilator row
    # 2 (1, 1 | 1) = (0, 2 | 2)
    h = ModuleHom(g.domain, FiniteModule(4, [2, 4]), [(1, 1)])
    assert solve(h, (0, 2)) == (2,)


def test_solve_refuses_a_map_that_is_not_well_defined():
    f = ModuleHom(FiniteModule(4, [2]), FiniteModule(4, [4]), [(1,)])
    with pytest.raises(PreconditionError):
        solve(f, (1,))


def test_injective_refuses_a_map_that_is_not_well_defined():
    # Z/2 -> Z/4 by 1 -> 1: the representatives 0 and 1 have distinct
    # images, but 2 * 1 != 0, so there is no map to be injective
    f = ModuleHom(FiniteModule(4, [2]), FiniteModule(4, [4]), [(1,)])
    with pytest.raises(PreconditionError, match="well-defined"):
        injective(f)
    assert injective(ModuleHom(f.domain, f.codomain, [(2,)]))


def test_kernel_and_solve_read_one_graph_form(monkeypatch):
    f = ModuleHom(FiniteModule(12, [4, 6]), FiniteModule(12, [12, 2]),
                  [(3, 1), (2, 0)])
    calls = []
    howell_form = core_mod.howell_form
    monkeypatch.setattr(core_mod, "howell_form", lambda mod, vecs: (
        calls.append(mod) or howell_form(mod, vecs)))
    graph = f.graph()
    kernel(f)
    for y in f.codomain.elements():
        solve(f, y)
    assert f.graph() is graph
    # the graph form once, and the form of the kernel's own span
    assert len(calls) == 2 and calls[1] == f.domain


def algebra_with_ideals(data, m):
    """A torsion-compatible tensor on a small mixed-order module, with
    the subsets that enumerate_ideals finds and is_ideal passes: cell
    (i, j) is drawn among the values gcd(d_i, d_j) kills."""
    mod = module(data, m, 16)

    def cell(d, e):
        g = gcd(d, e)
        return [f // gcd(f, g) * data.draw(st.integers(0, gcd(f, g) - 1))
                for f in mod.orders]

    alg = Algebra(mod, BilinearMap(mod, mod, mod, [
        [cell(d, e) for e in mod.orders] for d in mod.orders]), name="a")
    return alg, [i for i in enumerate_ideals(alg) if is_ideal(alg, i).passed]


@given(st.data(), st.sampled_from(MODULI))
@settings(max_examples=60, deadline=None)
def test_presentations_match_the_coordinates_table(data, m):
    alg, ideals = algebra_with_ideals(data, m)
    ideal = data.draw(st.sampled_from(ideals))
    sub_alg, embed = _present_subalgebra(alg, ideal)
    want_alg, want_embed, coords = presentation_oracle(alg, ideal)
    assert sub_alg == want_alg and sub_alg.name == want_alg.name
    assert embed.hom == want_embed.hom
    # the inclusion of the ideal: S acts by multiplication
    xm = inclusion_xmod(alg, ideal)
    assert xm.eta.hom == want_embed.hom
    assert xm.action.constants == tuple(
        tuple(coords[alg.multiply(g, e)] for e in want_embed.images)
        for g in alg.generators())


@given(st.data(), st.sampled_from(MODULI))
@settings(max_examples=60, deadline=None)
def test_sub_crossed_modules_match_the_coordinates_table(data, m):
    alg, ideals = algebra_with_ideals(data, m)
    big = data.draw(st.sampled_from(ideals))
    small = data.draw(st.sampled_from(
        [j for j in ideals if all(map(big.contains, j.gens))]))
    ambient = inclusion_xmod(alg, big)
    r_coords = {ambient.eta.apply(x): x for x in ambient.r_alg.elements()}
    r_subset = Submodule.from_generators(ambient.r_alg.carrier,
                                         [r_coords[g] for g in small.gens])
    sx = sub_crossed_module(ambient, r_subset, small)
    assert sx.sub is not None, [p.name for p in sx.problems]
    r_alg, mu, r_sub = presentation_oracle(ambient.r_alg, r_subset)
    s_alg, nu, s_sub = presentation_oracle(alg, small)
    assert (sx.mu.hom, sx.nu.hom) == (mu.hom, nu.hom)
    assert (sx.sub.r_alg, sx.sub.s_alg) == (r_alg, s_alg)
    assert sx.sub.eta.images == tuple(s_sub[ambient.eta.apply(r)]
                                      for r in mu.images)
    assert sx.sub.action.constants == tuple(
        tuple(r_sub[ambient.action.evaluate(s, r)] for r in mu.images)
        for s in nu.images)
