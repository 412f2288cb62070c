"""Bisimplicial object attached to a morphism of crossed modules.

Bilevel (n, m) is B2_n x (B1_n)^m, where B1 and B2 are the bar objects
of the source and target crossed modules.  The comparison maps

    phi_n(s1, r_1 .. r_n) = (alpha2 s1, alpha1 r_1, .., alpha1 r_n)

are block matrices between the levels of the two bars.  They let B1_n
act on B2_n by translation, and row n of the bisimplicial object is the
bar module of that action, built on phi_n itself.
Columns are simplicial through the blockwise operators of the two bars.
The verifier checks simplicial identities in both directions,
commutation of every mixed pair, and multiplicativity of the vertical
operators for the componentwise level products, which core.block_tensor
assembles block-diagonally.  That multiplicativity is THEOREM class
when the source and target both pass validate_crossed_module, and AXIOM
class otherwise.
"""

from __future__ import annotations

from itertools import product

from .bar import (TruncatedBarAlgebra, TruncatedBarModule, level_size,
                  verify_simplicial_identities)
from .core import (Algebra, ModuleHom, StructuralError, block_hom,
                   block_tensor, identity_hom, maps_equal_report,
                   multiplicativity_report)
from .crossed_ideal import XModMorphism
from .policy import Policy
from .report import AXIOM, NOTE, THEOREM, Report, group, leaf
from .xmod import validate_crossed_module

CONVENTIONS = (
    ("rows-are-translation-bars",
     "row n is the bar object of B1_n acting on B2_n by translation "
     "through phi_n; the first letter block is the one d0 consumes"),
    ("columns-are-blockwise",
     "vertical operators apply the level-n bar operator of the target to "
     "the base block and the one of the source to every letter block"),
    ("commutation-scope",
     "every horizontal operator must commute with every vertical one "
     "inside the truncation, mixed degeneracy families included"),
)


class BiBar:
    """Truncated bisimplicial module of a crossed module morphism, with
    componentwise products at every bilevel.  drop is a collection of
    (n, j) pairs: letter j of phi_n is sent to zero there instead of
    through alpha1, which breaks the square with the face maps and
    serves as the negative control.  A pair that names no letter of a
    built phi_n is refused, so the control cannot corrupt nothing."""

    def __init__(self, morphism: XModMorphism, n_depth: int = 2,
                 m_depth: int = 2, drop=()):
        # the top bilevel B2_N x (B1_N)^M is the largest; refuse it
        # before any level is built
        src, tgt = morphism.source, morphism.target
        level_size(level_size(tgt.s_alg.size, tgt.r_alg.size, n_depth),
                   level_size(src.s_alg.size, src.r_alg.size, n_depth),
                   m_depth)
        # phi_n has letters 0..n-1, and phi_0..phi_N are built
        stray = [(n, j) for n, j in drop if not 0 <= j < n <= n_depth]
        if stray:
            n, j = min(stray)
            raise StructuralError(
                f"drop ({n}, {j}) names no built letter of phi: "
                f"need 0 <= j < n <= {n_depth}")
        self.morphism = morphism
        self.n_depth = n_depth
        self.m_depth = m_depth
        self.bar1 = TruncatedBarAlgebra(morphism.source, n_depth)
        self.bar2 = TruncatedBarAlgebra(morphism.target, n_depth)
        self.phi = []
        for n in range(n_depth + 1):
            route = [(0, morphism.alpha2.hom)] + [
                None if (n, j) in drop else (j + 1, morphism.alpha1.hom)
                for j in range(n)]
            self.phi.append(block_hom(self.bar1.levels[n],
                                      self.bar2.levels[n], route, f"phi@{n}"))
        self.notes = CONVENTIONS
        self.rows = [TruncatedBarModule(p, m_depth) for p in self.phi]

        self._vfaces = {}
        self._vdegens = {}
        for m in range(m_depth + 1):
            for n in range(1, n_depth + 1):
                for i in range(n + 1):
                    self._vfaces[(n, m, i)] = self._build_vertical(
                        n, m, self.bar2.face(n, i), self.bar1.face(n, i),
                        n - 1, f"dv{i}@({n},{m})")
            for n in range(n_depth):
                for i in range(n + 1):
                    self._vdegens[(n, m, i)] = self._build_vertical(
                        n, m, self.bar2.degen(n, i), self.bar1.degen(n, i),
                        n + 1, f"sv{i}@({n},{m})")
        self._algebras = {}

    def level(self, n, m):
        return self.rows[n].levels[m]

    def h_face(self, n, m, i) -> ModuleHom:
        return self.rows[n].face(m, i)

    def h_degen(self, n, m, i) -> ModuleHom:
        return self.rows[n].degen(m, i)

    def v_face(self, n, m, i) -> ModuleHom:
        return self._vfaces[(n, m, i)]

    def v_degen(self, n, m, i) -> ModuleHom:
        return self._vdegens[(n, m, i)]

    def _build_vertical(self, n, m, base_op, letter_op, n_out, name):
        # base_op on the base block, letter_op on every letter block
        return block_hom(
            self.level(n, m), self.level(n_out, m),
            [(0, base_op)] + [(j + 1, letter_op) for j in range(m)], name)

    def algebra(self, n, m) -> Algebra:
        """Componentwise product algebra at bilevel (n, m)."""
        key = (n, m)
        if key not in self._algebras:
            # block-diagonal: the base block holds the level-n product of
            # bar2 and each letter block the one of bar1
            base = self.bar2.algebras[n].mul.constants
            letter = self.bar1.algebras[n].mul.constants
            self._algebras[key] = block_tensor(
                self.level(n, m),
                lambda p, q: None if p != q else (p, letter if p else base),
                f"B({n},{m})")
        return self._algebras[key]


def build_bibar(morphism: XModMorphism, n_depth: int = 2, m_depth: int = 2,
                drop=()) -> BiBar:
    return BiBar(morphism, n_depth, m_depth, drop)


def verify_bibar(bb: BiBar, policy: Policy | None = None) -> Report:
    checks = [group("conventions", [
        leaf(name, NOTE, None, detail=detail) for name, detail in bb.notes])]

    rows = []
    for n in range(bb.n_depth + 1):
        rep = verify_simplicial_identities(bb.rows[n])
        rep.name = f"horizontal-simplicial @ row {n}"
        rows.append(rep)
    checks.append(group("horizontal-identities", rows))

    cols = []
    for m in range(bb.m_depth + 1):
        # bar2 only sets the depth; the operators are those of column m
        rep = verify_simplicial_identities(
            bb.bar2,
            face=lambda n, i, m=m: bb.v_face(n, m, i),
            degen=lambda n, i, m=m: bb.v_degen(n, m, i),
            identity=lambda n, m=m: identity_hom(bb.level(n, m)),
            names=("dv", "sv", f"({{}},{m})"))
        rep.name = f"vertical-simplicial @ column {m}"
        cols.append(rep)
    checks.append(group("vertical-identities", cols))

    # every vertical operator against every horizontal one: name, family,
    # the level shift it makes, and the levels it leaves from
    vertical = (("dv", bb.v_face, -1, range(1, bb.n_depth + 1)),
                ("sv", bb.v_degen, 1, range(bb.n_depth)))
    horizontal = (("dh", bb.h_face, -1, range(1, bb.m_depth + 1)),
                  ("sh", bb.h_degen, 1, range(bb.m_depth)))
    comm = []
    for (v, v_op, dn, ns), (h, h_op, dm, ms) in product(vertical, horizontal):
        for n in ns:
            for m in ms:
                for i in range(n + 1):
                    for j in range(m + 1):
                        comm.append(maps_equal_report(
                            f"{v}{i} {h}{j} = {h}{j} {v}{i} @ ({n},{m})",
                            v_op(n, m + dm, i).compose(h_op(n, m, j)),
                            h_op(n + dn, m, j).compose(v_op(n, m, i))))
    checks.append(group("horizontal-vertical-commutation", comm))

    # a vertical operator is a bar operator on every block, so it is
    # multiplicative whenever both crossed modules are valid; otherwise a
    # failure belongs to the input, not to the implementation
    kind = THEOREM if all(validate_crossed_module(bar.xm, policy).passed
                          for bar in (bb.bar1, bb.bar2)) else AXIOM
    mult = []
    for m in range(bb.m_depth + 1):
        for n in range(1, bb.n_depth + 1):
            for i in range(n + 1):
                mult.append(multiplicativity_report(
                    f"dv{i}@({n},{m}) multiplicative", bb.v_face(n, m, i),
                    bb.algebra(n, m), bb.algebra(n - 1, m), policy,
                    kind=kind))
        for n in range(bb.n_depth):
            for i in range(n + 1):
                mult.append(multiplicativity_report(
                    f"sv{i}@({n},{m}) multiplicative", bb.v_degen(n, m, i),
                    bb.algebra(n, m), bb.algebra(n + 1, m), policy,
                    kind=kind))
    checks.append(group("vertical-multiplicativity", mult))

    name = bb.morphism.name or "morphism"
    return group(f"bibar-verify {name} ({bb.n_depth},{bb.m_depth})", checks)
