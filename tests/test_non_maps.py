"""No verdict is read off representatives of a map that does not exist.

A hom that breaks orders, or a product, action tensor or h that breaks
torsion, is no map, so every clause that reads one is not run: its leaf
is policy.non_map_leaf, a FAIL of class STRUCTURAL with no witness, and
nothing is swept.  Each case draws one such non-map at m in {4, 8, 12}
on carriers Z/lo + Z/hi with hi not dividing lo, every other map zero,
and runs each in-process verifier that reads it with policy.sweep
wrapped: no sweep may run, each leaf that reads the non-map must be the
STRUCTURAL leaf, and the report must exit 3.  Two broken_z4
perturbation mutants at depth 3 whose level tensor breaks torsion are
held to the same standard.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from idealbar.bar import build_bar_algebra, definition_checks, verify_bar
from idealbar.core import (Algebra, AlgebraHom, BilinearMap, FiniteModule,
                           ModuleHom, Submodule, is_ideal, maps_equal_report,
                           multiplicativity_report)
from idealbar.crossed_ideal import (CrossedIdealMap, XModMorphism,
                                    validate_crossed_ideal_map,
                                    validate_morphism)
from idealbar.policy import non_map_leaf
from idealbar.report import exit_code
from idealbar.roundtrip import _mutate_tensors, roundtrip_check
from idealbar.xmod import (CrossedModule, consequence_checks,
                           phi_cm1_criterion, phi_cm2_criterion,
                           validate_crossed_module)
from oracles import counted_sweeps, workspace

CASES = settings(max_examples=40, deadline=None)

XM = "validate-crossed-module x"
HOM = "validate-hom eta"
ACT = "validate-algebra-action"
EXTRACTED = "verify-extracted"
LEVEL_HOMS = ("level-homomorphisms", [
    "d0@1 multiplicative", "d1@1 multiplicative", "d0@2 multiplicative",
    "d1@2 multiplicative", "d2@2 multiplicative", "s0@0 multiplicative",
    "s0@1 multiplicative", "s1@1 multiplicative"])
TAIL_ABSORPTION = ("tail-absorption", [
    "mixed-into-tail @ 1", "base-subalgebra @ 1", "mixed-letterwise @ 1",
    "base-subalgebra @ 2", "mixed-letterwise @ 2"])

# the leaves of validate_crossed_module that read each slot, as
# (group, leaf) names
XMOD_READERS = {
    "eta": {(HOM, "multiplicativity"), (XM, "cm1"), (XM, "cm2")},
    "R product": {(HOM, "multiplicativity"), (ACT, "product-compatibility"),
                  (XM, "cm2")},
    "S product": {(HOM, "multiplicativity"), (ACT, "actor-composition"),
                  (XM, "cm1")},
    "action": {(ACT, "product-compatibility"), (ACT, "actor-composition"),
               (XM, "cm1"), (XM, "cm2")},
}


def bar_readers(slot):
    """The leaves of verify_bar at depth 2 that read slot: eta only
    through d_0 and eta_k, a product or the action through every level
    above S (and S's product through level 0 too)."""
    if slot == "eta":
        return {("level-homomorphisms", "d0@1 multiplicative"),
                ("level-homomorphisms", "d0@2 multiplicative"),
                ("eta-k @ 1", "multiplicativity"),
                ("eta-k @ 2", "multiplicativity")}
    out = {(group, name) for group, names in (LEVEL_HOMS, TAIL_ABSORPTION)
           for name in names}
    for k in (1, 2):
        out |= {(f"tail-ideal-products @ {k}", f"tail-tail-product @ {k}"),
                (f"tail-ideal-products @ {k}", f"tail-base-product @ {k}"),
                (f"decomposition @ {k}",
                 f"sk-subalgebra-isomorphic-to-s @ {k}"),
                (f"rk-is-ideal @ {k}", "absorption"),
                (f"eta-k @ {k}", "multiplicativity")}
    return out


def roundtrip_readers(slot):
    """The leaves of roundtrip_check at depth 2 that read slot: those
    of validate_crossed_module on the input and on the crossed module
    read back from the bar, which carries the same non-map, and the
    faces d_0 at levels 1 and 2."""
    back = {(EXTRACTED if group == XM else group, name)
            for group, name in XMOD_READERS[slot] if group != HOM}
    return XMOD_READERS[slot] | back | {
        (EXTRACTED, "d0-multiplicative @ 1"),
        (EXTRACTED, "d0-on-tail-multiplicative @ 2")}


def unmapped(rep):
    """The (group, leaf) names of the leaves of rep that are the
    STRUCTURAL non-map leaf."""
    out = set()

    def walk(node, parent):
        if not node.checks and \
                node.to_json() == non_map_leaf(node.name).to_json():
            out.add((parent, node.name))
        for child in node.checks:
            walk(child, node.name)

    walk(rep, None)
    return out


def assert_unmapped(run, readers):
    """run() sweeps nothing, exits 3, and each leaf in readers is the
    STRUCTURAL non-map leaf."""
    with counted_sweeps() as calls:
        rep = run()
    assert calls == []
    assert readers <= unmapped(rep), readers - unmapped(rep)
    assert exit_code(rep) == 3
    return rep


@st.composite
def mixed_orders(draw):
    """m, carriers Z/lo + Z/hi over Z/m with hi not dividing lo, and a
    v with lo * v != 0 mod hi: a cell or image (0, v) at generator 0
    breaks torsion or orders."""
    m = draw(st.sampled_from([4, 8, 12]))
    divisors = [d for d in range(2, m + 1) if m % d == 0]
    lo, hi = draw(st.sampled_from([(a, b) for a in divisors
                                   for b in divisors if a % b]))
    v = draw(st.sampled_from([v for v in range(1, hi) if lo * v % hi]))
    return FiniteModule(m, [lo, hi]), v


def zero_tensor(mod, cell=None):
    """The zero tensor on mod, or the one that is zero but in cell
    (0, 0)."""
    rows = [[mod.zero] * mod.rank for _ in range(mod.rank)]
    if cell is not None:
        rows[0][0] = cell
    return BilinearMap(mod, mod, mod, rows)


def zero_hom(mod, image=None):
    images = [mod.zero] * mod.rank
    if image is not None:
        images[0] = image
    return ModuleHom(mod, mod, images)


def xmod_with(mod, v, slot=None):
    """The zero crossed module on R = S = mod, with the named slot set
    to the non-map whose cell or image at generator 0 is (0, v)."""
    def bad(name):
        return (0, v) if slot == name else None

    r_alg = Algebra(mod, zero_tensor(mod, bad("R product")))
    s_alg = Algebra(mod, zero_tensor(mod, bad("S product")))
    eta = AlgebraHom(r_alg, s_alg, zero_hom(mod, bad("eta")), name="eta")
    return CrossedModule(eta, zero_tensor(mod, bad("action")), name="x")


@given(mixed_orders(), st.sampled_from(sorted(XMOD_READERS)))
@CASES
def test_a_crossed_module_slot_that_is_not_a_map(orders, slot):
    mod, v = orders
    xm = xmod_with(mod, v, slot)
    assert not all(f.well_defined() for _, f in xm.maps("x"))
    assert_unmapped(lambda: validate_crossed_module(xm), XMOD_READERS[slot])
    for criterion in (phi_cm1_criterion, phi_cm2_criterion):
        rep = assert_unmapped(lambda: criterion(xm), set())
        assert unmapped(rep) == {(None, rep.name)}
    bar = build_bar_algebra(xm, 2)
    assert_unmapped(lambda: verify_bar(bar), bar_readers(slot))
    assert_unmapped(lambda: definition_checks(bar), {
        (group, name) for group, name in bar_readers(slot)
        if group in ("level-homomorphisms", "tail-absorption")})
    assert_unmapped(lambda: roundtrip_check(xm, 2), roundtrip_readers(slot))


def test_the_zero_crossed_module_passes():
    # the control: with no slot broken every verifier above passes
    mod = FiniteModule(12, [6, 4])
    xm = xmod_with(mod, 1)
    bar = build_bar_algebra(xm, 2)
    for rep in (validate_crossed_module(xm), phi_cm1_criterion(xm),
                phi_cm2_criterion(xm), verify_bar(bar),
                definition_checks(bar), roundtrip_check(xm, 2),
                consequence_checks(xm)):
        assert exit_code(rep) == 0 and not unmapped(rep)


CONSEQUENCES = "consequence-checks x"
QUOTIENT = "quotient-action-well-defined"


@given(mixed_orders())
@CASES
@example((FiniteModule(4, [2, 4]), 1))
def test_consequence_checks_on_an_eta_that_is_not_a_map(orders):
    # each clause reads the image or the kernel of eta; the NOTE stays
    xm = xmod_with(*orders, "eta")
    rep = assert_unmapped(lambda: consequence_checks(xm), {
        (CONSEQUENCES, "image-is-ideal"), (CONSEQUENCES, "kernel-is-ideal"),
        (CONSEQUENCES, "kernel-annihilates"),
        (QUOTIENT, "kernel-closed-under-action"),
        (QUOTIENT, "image-acts-trivially-on-kernel"),
        (QUOTIENT, "induced-action-composes")})
    assert rep.find("induced-action-reading").status == "NOTE"


@given(mixed_orders(), st.sampled_from(["alpha1", "alpha2"]))
@CASES
def test_a_morphism_leg_that_is_not_a_map(orders, leg):
    mod, v = orders
    xm = xmod_with(mod, v)
    legs = {name: AlgebraHom(alg, alg, zero_hom(
        mod, (0, v) if name == leg else None), name=name)
        for name, alg in (("alpha1", xm.r_alg), ("alpha2", xm.s_alg))}
    mor = XModMorphism(xm, xm, legs["alpha1"], legs["alpha2"], name="f")
    assert_unmapped(lambda: validate_morphism(mor), {
        (f"{leg}-hom", "multiplicativity"),
        ("validate-morphism f", "equivariance")})


@given(mixed_orders())
@CASES
def test_an_h_that_is_not_a_map(orders):
    mod, v = orders
    xm = xmod_with(mod, v)
    ident = {name: AlgebraHom(alg, alg, zero_hom(mod), name=name)
             for name, alg in (("alpha1", xm.r_alg), ("alpha2", xm.s_alg))}
    mor = XModMorphism(xm, xm, ident["alpha1"], ident["alpha2"], name="f")
    cim = CrossedIdealMap(mor, zero_tensor(mod), zero_tensor(mod),
                          zero_tensor(mod, (0, v)), name="c")
    assert_unmapped(lambda: validate_crossed_ideal_map(cim), {
        ("validate-crossed-ideal-map c", name)
        for name in ("alpha1-of-h", "eta1-of-h", "h-on-alpha1-image",
                     "h-on-eta1-image", "h-base-balance")})


@given(mixed_orders(), st.data())
@CASES
def test_core_reports_on_a_map_that_is_not_a_map(orders, data):
    mod, v = orders
    broken = Algebra(mod, zero_tensor(mod, (0, v)))
    sound = Algebra(mod, zero_tensor(mod))
    gens = data.draw(st.lists(st.sampled_from(mod.elements()), max_size=2))
    sub = Submodule.from_generators(mod, gens)
    assert_unmapped(lambda: is_ideal(broken, sub),
                    {("is-ideal", "absorption")})

    bad_hom = zero_hom(mod, (0, v))
    for f, dom, cod in ((bad_hom, sound, sound),
                        (zero_hom(mod), broken, sound),
                        (zero_hom(mod), sound, broken)):
        assert_unmapped(lambda: multiplicativity_report("mult", f, dom, cod),
                        {(None, "mult")})
    # equal image matrices decide nothing about a non-map either
    other = data.draw(st.sampled_from([bad_hom, zero_hom(mod)]))
    for f, g in ((bad_hom, other), (other, bad_hom)):
        assert_unmapped(lambda: maps_equal_report("equal", f, g),
                        {(None, "equal")})


def test_broken_z4_mutants_that_break_torsion_sweep_nothing():
    # the 10th mutant of seed 0 breaks level 2, the 4th of seed 1 level
    # 3; an element sweep of either reads about 1.1 M tuples
    canonical = build_bar_algebra(workspace("broken_z4").xmod("main"), 3)
    for seed, nth in ((0, 10), (1, 4)):
        rng = random.Random(seed)
        for _ in range(nth):
            k, cells = _mutate_tensors(canonical, rng)
        tensor = canonical.algebras[k].mul.with_cells(cells)
        assert not tensor.well_defined()
        mutant = canonical.with_level_tensor(k, tensor)
        rep = assert_unmapped(lambda: definition_checks(mutant), {
            ("tail-absorption", leaf.name) for leaf in
            definition_checks(canonical).find("tail-absorption").checks})
        assert not rep.passed
