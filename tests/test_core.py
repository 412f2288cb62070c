"""Finite modules, bilinear tensors, algebras, homs, ideals, presentations."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from idealbar.core import (
    Algebra,
    AlgebraHom,
    BilinearMap,
    FiniteModule,
    ModuleHom,
    StructuralError,
    Submodule,
    _present_subalgebra,
    algebra_axioms,
    decompose_abelian,
    direct_sum,
    identity_hom,
    image,
    is_ideal,
    kernel,
    multiplicativity_report,
    semidirect_product,
    validate_algebra,
    validate_hom,
)
from idealbar.report import AXIOM, FAIL, THEOREM, leaf, relabel
from oracles import absorption_oracle, presentation_oracle, workspace

M24 = FiniteModule(4, [2, 4])
elements_24 = st.sampled_from(M24.elements())


@given(elements_24, elements_24, elements_24)
def test_module_addition_is_an_abelian_group(x, y, z):
    assert M24.add(x, y) == M24.add(y, x)
    assert M24.add(M24.add(x, y), z) == M24.add(x, M24.add(y, z))
    assert M24.add(x, M24.zero) == x
    assert M24.add(x, M24.neg(x)) == M24.zero


@given(elements_24, st.integers(min_value=-8, max_value=8),
       st.integers(min_value=-8, max_value=8))
def test_scaling_is_linear(x, a, b):
    assert M24.scale(a + b, x) == M24.add(M24.scale(a, x), M24.scale(b, x))
    assert M24.scale(a * b, x) == M24.scale(a, M24.scale(b, x))


def test_module_basics():
    assert M24.rank == 2
    assert len(M24.elements()) == 8
    assert M24.generators() == [(1, 0), (0, 1)]
    assert M24.element_order((1, 0)) == 2
    assert M24.element_order((0, 1)) == 4
    assert M24.element_order((0, 0)) == 1
    assert M24.contains((1, 3))
    assert not M24.contains((1, 3, 0))
    assert M24.reduce([3, 5]) == (1, 1)


def test_rank_zero_module_has_one_element():
    z = FiniteModule(2, [])
    assert z.rank == 0
    assert z.elements() == [()]
    assert z.zero == ()


def test_orders_must_divide_the_modulus():
    with pytest.raises(StructuralError):
        FiniteModule(4, [3])


def test_direct_sum_concatenates():
    ds = direct_sum([FiniteModule(4, [2]), FiniteModule(4, [4])])
    assert ds.orders == (2, 4)
    assert ds.add((1, 3), (1, 2)) == (0, 1)


def test_bilinear_evaluate_matches_expansion():
    alg = workspace("nilsquare").algebra("S")
    # basis is (unit, x) with x^2 = 0, so (1 + x)^2 = 1
    assert alg.multiply((1, 1), (1, 1)) == (1, 0)
    assert alg.multiply((1, 1), (0, 1)) == (0, 1)
    assert alg.multiply((0, 1), (0, 1)) == (0, 0)


@st.composite
def tensors_and_operands(draw):
    """A tensor between mixed-order modules over Z/4, Z/6, Z/8 or Z/9,
    with operands whose support is often partial."""
    modulus = draw(st.sampled_from([4, 6, 8, 9]))
    divisors = [d for d in range(2, modulus + 1) if modulus % d == 0]

    def module():
        return FiniteModule(modulus, draw(st.lists(
            st.sampled_from(divisors), min_size=1, max_size=3)))

    def vector(mod):
        return tuple(draw(st.one_of(st.just(0), st.integers(0, d - 1)))
                     for d in mod.orders)

    left, right, target = module(), module(), module()
    constants = [[vector(target) for _ in right.orders] for _ in left.orders]
    return (BilinearMap(left, right, target, constants), vector(left),
            vector(right))


@given(tensors_and_operands())
def test_evaluate_is_the_double_sum(case):
    tensor, x, y = case
    c = tensor.constants
    expected = tuple(
        sum(x[i] * y[j] * c[i][j][l] for i in range(len(x))
            for j in range(len(y))) % d
        for l, d in enumerate(tensor.target.orders))
    assert tensor.evaluate(x, y) == expected
    hom = ModuleHom(tensor.left, tensor.target, [row[0] for row in c])
    assert hom.apply(x) == tuple(
        sum(x[i] * c[i][0][l] for i in range(len(x))) % d
        for l, d in enumerate(tensor.target.orders))
    with pytest.raises(StructuralError):
        tensor.evaluate(x + (0,), y)
    with pytest.raises(StructuralError):
        tensor.evaluate(x, y[1:])


def test_bilinear_shape_is_enforced():
    m = FiniteModule(2, [2])
    with pytest.raises(StructuralError):
        BilinearMap(m, m, m, [])
    with pytest.raises(StructuralError):
        BilinearMap(m, m, m, [[(1, 0)]])


def test_torsion_violation_detected():
    m2 = FiniteModule(4, [2])
    m4 = FiniteModule(4, [4])
    bad = BilinearMap(m2, m2, m4, [[(1,)]])
    assert list(bad.torsion_violations()) == [(0, 0, 0)]
    good = BilinearMap(m2, m2, m4, [[(2,)]])
    assert list(good.torsion_violations()) == []


def test_algebra_torsion_failure_is_pinned():
    # g0 has order 2 but g0 g1 = g1 has order 4: the first violation is
    # (i, j, l) = (0, 1, 1)
    m = FiniteModule(4, [2, 4])
    alg = Algebra(m, BilinearMap(m, m, m, [[(0, 0), (0, 1)],
                                           [(0, 1), (0, 0)]]))
    node = validate_algebra(alg).find("torsion-compatibility")
    assert (node.status, node.kind, node.witness, node.detail, node.meta) == (
        "FAIL", "STRUCTURAL", (0, 1, 1),
        "d_i*c[i][j] and d_j*c[i][j] vanish mod target orders", {})


def test_validate_algebra_passes_fixtures():
    for name in ("nilsquare", "nilcube"):
        alg = workspace(name).algebra("S")
        rep = validate_algebra(alg)
        assert rep.passed, rep.render()


def test_validate_algebra_catches_nonassociative():
    m = FiniteModule(2, [2, 2])
    # e0*e0 = e1, e0*e1 = e0: then (e0 e0) e1 = e0 e1 = e0
    # but e0 (e0 e1) = e0 e0 = e1
    mul = BilinearMap(m, m, m, [[(0, 1), (1, 0)], [(1, 0), (0, 0)]])
    rep = validate_algebra(Algebra(m, mul, name="bad"))
    node = rep.find("associativity")
    assert node is not None and node.status == "FAIL"
    # witness is a generator index triple: (g0 g0) g1 != g0 (g0 g1)
    assert node.witness == (0, 0, 1)


def _unit_by_element_scan(alg):
    # the scan the generator test replaced: e*x = x on every element
    for e in alg.elements():
        if all(alg.multiply(e, x) == x for x in alg.elements()):
            return f"unit {e}"
    return "no unit"


def _associativity_by_products(alg):
    # the four-product form the structure-constant lookup replaced
    gens = alg.generators()
    n = len(gens)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = alg.multiply(alg.multiply(gens[i], gens[j]), gens[k])
                rhs = alg.multiply(gens[i], alg.multiply(gens[j], gens[k]))
                if lhs != rhs:
                    return (i, j, k)
    return None


@st.composite
def any_algebras(draw):
    """Any tensor on a mixed-order module, torsion-violating and
    non-commutative ones included, biased towards a unit."""
    mod = draw(st.sampled_from(MIXED[:3] + [FiniteModule(8, [2, 8])]))
    n = mod.rank
    consts = [[[draw(st.integers(0, d - 1)) for d in mod.orders]
               for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        u = draw(st.integers(0, n - 1))
        for j in range(n):
            consts[u][j] = [int(j == l) for l in range(n)]
    return Algebra(mod, BilinearMap(mod, mod, mod, consts))


@given(any_algebras())
def test_unit_note_and_associativity_match_the_element_forms(alg):
    rep = validate_algebra(alg)
    assert rep.find("unital").detail == _unit_by_element_scan(alg)
    assert rep.find("associativity").witness == _associativity_by_products(alg)


def _twin(alg):
    """A new Algebra with alg's constants and name, which keeps nothing."""
    mod = alg.carrier
    return Algebra(mod, BilinearMap(mod, mod, mod, alg.mul.constants),
                   name=alg.name)


@pytest.mark.parametrize("validate", [validate_algebra, algebra_axioms])
def test_algebra_reports_are_new_on_every_call(validate):
    # what an algebra keeps are witnesses, not report nodes: a report a
    # caller renamed, relabelled and appended to changes no later one
    nilcube = workspace("nilcube").algebra("S")
    m = FiniteModule(2, [2, 2])
    broken = Algebra(m, BilinearMap(m, m, m, [[(0, 1), (1, 0)],
                                              [(1, 0), (0, 0)]]), name="bad")
    for alg in (nilcube, broken):
        rep = validate(alg)
        rep.name = "renamed"
        relabel(rep, THEOREM)
        rep.checks.append(leaf("appended", FAIL, AXIOM))
        for node in rep.checks:
            node.checks.append(leaf("appended", FAIL, AXIOM))
            node.meta["appended"] = 1
        assert validate(alg).to_json() == validate(_twin(alg)).to_json()


def test_a_mutant_product_gets_its_own_verdict():
    # the mutant shares the carrier and every row but one with the base:
    # 1 * x = 0 breaks associativity at (1, x, x)
    base = workspace("nilcube").algebra("S")
    assert validate_algebra(base).passed
    mutant = Algebra(base.carrier, base.mul.with_cells(
        {(0, 1): (0, 0, 0), (1, 0): (0, 0, 0)}), name=base.name)
    node = validate_algebra(mutant).find("associativity")
    assert (node.status, node.witness) == ("FAIL", (0, 1, 1))
    assert validate_algebra(mutant).to_json() \
        == validate_algebra(_twin(mutant)).to_json()
    assert validate_algebra(base).passed
    assert validate_algebra(base).to_json() \
        == validate_algebra(_twin(base)).to_json()


def test_a_span_is_presented_in_each_algebra_object_on_its_own():
    # <e0, e1> is a subalgebra of both products on (Z/2)^3, where it is
    # e0^2 = e1 in one and zero in the other; a third algebra equal to
    # the first under another name is another object and gets its own
    mod = FiniteModule(2, [2, 2, 2])
    zero = [[(0, 0, 0)] * 3 for _ in range(3)]
    square = [list(row) for row in zero]
    square[0][0] = (0, 1, 0)
    a = Algebra(mod, BilinearMap(mod, mod, mod, square), name="A")
    b = Algebra(mod, BilinearMap(mod, mod, mod, zero), name="B")
    twin = Algebra(mod, a.mul, name="A2")
    span = Submodule.from_generators(mod, [(1, 0, 0), (0, 1, 0)])
    for alg in (a, twin, b):
        sub_alg, embed = _present_subalgebra(alg, span)
        want, want_embed, _ = presentation_oracle(alg, span)
        assert sub_alg.name == want.name == f"{alg.name}-sub"
        assert sub_alg.carrier == want.carrier
        assert sub_alg.mul.constants == want.mul.constants
        assert embed.images == want_embed.images and embed.cod is alg
        again = _present_subalgebra(alg, span)
        assert again[0] is sub_alg and again[1] is embed
    assert _present_subalgebra(a, span)[0].mul.constants \
        != _present_subalgebra(b, span)[0].mul.constants


def test_validate_algebra_catches_noncommutative_tensor():
    m = FiniteModule(2, [2, 2])
    mul = BilinearMap(m, m, m, [[(0, 0), (0, 1)], [(0, 0), (0, 0)]])
    rep = validate_algebra(Algebra(m, mul))
    assert rep.find("commutativity").status == "FAIL"


def test_module_hom_rejects_order_violations():
    f = ModuleHom(FiniteModule(4, [2]), FiniteModule(4, [4]), [(1,)])
    assert f.order_violations() == [0]
    g = ModuleHom(FiniteModule(4, [2]), FiniteModule(4, [4]), [(2,)])
    assert g.order_violations() == []
    assert g.apply((1,)) == (2,)


def test_hom_compose_and_identity():
    m = FiniteModule(2, [2, 2])
    swap = ModuleHom(m, m, [(0, 1), (1, 0)])
    assert swap.compose(swap) == identity_hom(m)
    assert identity_hom(m).apply((1, 0)) == (1, 0)


def test_validate_hom_multiplicative_and_unital():
    alg = workspace("nilsquare").algebra("S")
    sq = AlgebraHom(alg, alg, ModuleHom(alg.carrier, alg.carrier,
                                        [(1, 0), (0, 0)]), name="kill-x")
    rep = validate_hom(sq)
    assert rep.passed, rep.render()


def test_multiplicativity_report_witness():
    alg = workspace("nilsquare").algebra("S")
    # sends x to 1, clearly not multiplicative: x*x = 0 but 1*1 = 1
    f = ModuleHom(alg.carrier, alg.carrier, [(1, 0), (1, 0)])
    rep = multiplicativity_report("f-mult", f, alg, alg)
    assert rep.status == "FAIL"
    assert rep.witness == ((0, 1), (0, 1))


def test_image_and_kernel():
    alg = workspace("nilcube").algebra("S")
    # projection onto the unit axis kills x and x^2
    f = ModuleHom(alg.carrier, alg.carrier,
                  [(1, 0, 0), (0, 0, 0), (0, 0, 0)])
    assert sorted(image(f).elements) == [(0, 0, 0), (1, 0, 0)]
    ker = kernel(f)
    assert ker.size == 4
    assert ker.contains((0, 1, 1))
    assert not ker.contains((1, 0, 0))


def test_submodule_from_generators_closes():
    m = FiniteModule(4, [4, 4])
    sub = Submodule.from_generators(m, [(2, 2)])
    assert sorted(sub.elements) == [(0, 0), (2, 2)]


MIXED = [FiniteModule(4, [2, 4]), FiniteModule(6, [2, 3]),
         FiniteModule(6, [6, 2]), FiniteModule(12, [2, 3, 4])]


def test_is_ideal_does_not_trust_generators_that_do_not_span():
    alg = workspace("nilcube").algebra("S")
    # span{1, x^2} is closed under addition but x * 1 = x escapes it; its
    # generators refute absorption, and the witness comes from the sweep
    sub = Submodule.from_generators(alg.carrier, [(1, 0, 0), (0, 0, 1)])
    node = is_ideal(alg, sub).find("absorption")
    assert node.status == "FAIL"
    assert node.witness == absorption_oracle(alg, sub.elements).witness


def test_is_ideal_accepts_and_rejects():
    alg = workspace("nilcube").algebra("S")
    xs = Submodule.from_generators(alg.carrier, [(0, 1, 0), (0, 0, 1)])
    rep = is_ideal(alg, xs)
    assert rep.passed, rep.render()

    # the span of x alone is not an ideal: x*x = x^2 escapes
    span_x = Submodule.from_generators(alg.carrier, [(0, 1, 0)])
    node = is_ideal(alg, span_x).find("absorption")
    assert node.status == "FAIL"
    assert node.witness == ((0, 1, 0), (0, 1, 0))

    units = Submodule.from_generators(alg.carrier, [(1, 0, 0)])
    node = is_ideal(alg, units).find("absorption")
    assert node.status == "FAIL"
    # lex-least violation: x^2 * 1 = x^2 leaves the span of 1
    assert node.witness == ((0, 0, 1), (1, 0, 0))


def test_decompose_abelian_recovers_orders():
    m = FiniteModule(4, [2, 4])
    sub = Submodule.from_generators(m, [(1, 2)])
    orders, gens = decompose_abelian(list(sub.elements), m.add, m.zero)
    assert list(orders) == [2]
    assert list(gens) == [(1, 2)]

    full = decompose_abelian(m.elements(), m.add, m.zero)
    assert sorted(full[0]) == [2, 4]


def test_subalgebra_presentation_roundtrips_products():
    alg = workspace("nilcube").algebra("S")
    sub = Submodule.from_generators(alg.carrier, [(0, 1, 0), (0, 0, 1)])
    sub_alg, embed = _present_subalgebra(alg, sub)
    assert sorted(sub_alg.carrier.orders) == [2, 2]
    for x in sub_alg.elements():
        for y in sub_alg.elements():
            assert embed.apply(sub_alg.multiply(x, y)) \
                == alg.multiply(embed.apply(x), embed.apply(y))


def test_semidirect_product_formula():
    xm = workspace("nilsquare").xmod("main")
    sd = semidirect_product(xm.s_alg, xm.r_alg, xm.action)
    assert sd.carrier.orders == (2, 2, 2)
    # (1, 0 | 0)(0, 0 | 1) = (0, 0 | 1): unit of S acts as identity on R
    assert sd.multiply((1, 0, 0), (0, 0, 1)) == (0, 0, 1)
    # (0, x | 0)(0, 0 | 1) = 0: x acts by zero and rr' = 0
    assert sd.multiply((0, 1, 0), (0, 0, 1)) == (0, 0, 0)
    assert validate_algebra(sd).passed


def test_algebra_equality_ignores_name():
    a = workspace("nilsquare").algebra("S")
    b = workspace("nilsquare").algebra("S")
    b.name = "renamed"
    assert a == b
    assert hash(a) == hash(b)
