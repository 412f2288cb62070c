"""Bisimplicial object attached to a morphism of crossed modules.

Bilevel (n, m) is B2_n x (B1_n)^m, where B1 and B2 are the bar objects
of the source and target crossed modules.  The comparison maps

    phi_n(s1, r_1 .. r_n) = (alpha2 s1, alpha1 r_1, .., alpha1 r_n)

are block matrices between the levels of the two bars.  They let B1_n
act on B2_n by translation, and row n of the bisimplicial object is the
bar module of that action, built on phi_n itself.  Column m is a
truncated simplicial algebra as a bar is, with the blockwise operators
of the two bars and the componentwise products, which core.block_tensor
assembles block-diagonally, so the bar's own verifiers check rows and
columns alike; the commutation of every mixed pair is the bibar's own
check.  Vertical multiplicativity is THEOREM class when the source and
target both pass validate_crossed_module, and AXIOM class otherwise.
A morphism that carries a map that is not well defined is refused.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product

from .bar import (TruncatedBarAlgebra, TruncatedBarModule, level_size,
                  level_homomorphism_clauses, verify_simplicial_identities)
from .core import (Algebra, ModuleHom, StructuralError, block_hom,
                   block_tensor, maps_equal_report, refuse_non_maps)
from .crossed_ideal import XModMorphism
from .policy import Policy
from .report import NOTE, THEOREM, Report, group, leaf, relabel
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


class _Column:
    """Column m of a bibar as a truncated simplicial algebra: level n is
    bilevel (n, m), each operator applies the level-n operator of bar2
    to the base block and the one of bar1 to every letter block, and
    level n carries the componentwise product, assembled on first use."""

    def __init__(self, bb: "BiBar", m: int):
        self.depth, self._m = bb.n_depth, m
        self.levels = [row.levels[m] for row in bb.rows]
        self._bars = (bb.bar2, bb.bar1)

        def vertical(op, n, i, n_out, name):
            base, letter = (getattr(bar, op)(n, i) for bar in self._bars)
            return block_hom(
                self.levels[n], self.levels[n_out],
                [(0, base)] + [(j + 1, letter) for j in range(m)],
                f"{name}{i}@({n},{m})")
        self._faces = {(n, i): vertical("face", n, i, n - 1, "dv")
                       for n in range(1, self.depth + 1)
                       for i in range(n + 1)}
        self._degens = {(n, i): vertical("degen", n, i, n + 1, "sv")
                        for n in range(self.depth) for i in range(n + 1)}

    def face(self, n, i) -> ModuleHom:
        return self._faces[(n, i)]

    def degen(self, n, i) -> ModuleHom:
        return self._degens[(n, i)]

    @cached_property
    def algebras(self) -> list[Algebra]:
        # block-diagonal: the base block holds the level-n product of
        # bar2 and each letter block the one of bar1
        bar2, bar1 = self._bars
        return [block_tensor(
            lvl, lambda p, q, n=n: None if p != q else
            (p, (bar1 if p else bar2).algebras[n].mul.constants),
            f"B({n},{self._m})") for n, lvl in enumerate(self.levels)]


class BiBar:
    """Truncated bisimplicial module of a crossed module morphism, with
    componentwise products at every bilevel.  drop is a collection of
    (n, j) pairs: letter j of phi_n is sent to zero there instead of
    through alpha1, which breaks the square with the face maps and
    serves as the negative control.  A pair that names no letter of a
    built phi_n is refused, so the control cannot corrupt nothing, and
    so is a morphism that carries a map that is not well defined."""

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
        refuse_non_maps((("alpha1", morphism.alpha1.hom),
                         ("alpha2", morphism.alpha2.hom),
                         *src.maps("source"), *tgt.maps("target")))
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
        self.rows = [TruncatedBarModule(p, m_depth) for p in self.phi]
        self.columns = [_Column(self, m) for m in range(m_depth + 1)]

    def level(self, n, m):
        return self.rows[n].levels[m]

    def h_face(self, n, m, i) -> ModuleHom:
        return self.rows[n].face(m, i)

    def h_degen(self, n, m, i) -> ModuleHom:
        return self.rows[n].degen(m, i)

    def v_face(self, n, m, i) -> ModuleHom:
        return self.columns[m].face(n, i)

    def v_degen(self, n, m, i) -> ModuleHom:
        return self.columns[m].degen(n, i)

    def algebra(self, n, m) -> Algebra:
        """Componentwise product algebra at bilevel (n, m)."""
        return self.columns[m].algebras[n]


def build_bibar(morphism: XModMorphism, n_depth: int = 2, m_depth: int = 2,
                drop=()) -> BiBar:
    return BiBar(morphism, n_depth, m_depth, drop)


def verify_bibar(bb: BiBar, policy: Policy | None = None) -> Report:
    checks = [group("conventions", [
        leaf(name, NOTE, None, detail=detail)
        for name, detail in CONVENTIONS])]

    rows = []
    for n, row in enumerate(bb.rows):
        rep = verify_simplicial_identities(row)
        rep.name = f"horizontal-simplicial @ row {n}"
        rows.append(rep)
    checks.append(group("horizontal-identities", rows))

    cols = []
    for m, col in enumerate(bb.columns):
        rep = verify_simplicial_identities(col, ("dv", "sv", f"({{}},{m})"))
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

    mult = group("vertical-multiplicativity", [
        run() for col in bb.columns
        for _, run in level_homomorphism_clauses(col, policy)])
    # a vertical operator is a bar operator on every block, so it is
    # multiplicative whenever both crossed modules are valid; otherwise a
    # failure belongs to the input, not to the implementation
    if all(validate_crossed_module(bar.xm, policy).passed
           for bar in (bb.bar1, bb.bar2)):
        relabel(mult, THEOREM)
    checks.append(mult)

    name = bb.morphism.name or "morphism"
    return group(f"bibar-verify {name} ({bb.n_depth},{bb.m_depth})", checks)
