"""Actions and crossed modules of commutative Z/m-algebras.

Each action is held as one map.  A module action of R on X is a
translation x^r = x + t(r) through a module hom t: R -> X and is held
as that ModuleHom alone; these are exactly the actions the bar
construction is built from.  An algebra action of S on R is held as its
bilinear tensor S x R -> R, a BilinearMap; together with an algebra hom
eta: R -> S, which supplies R and S, and the two crossed-module axioms

    CM1:  eta(s.r)    = s * eta(r)
    CM2:  eta(r).r'   = r * r'

it forms a crossed module.

An action is validated on two trilinear clauses, product compatibility
and actor composition, and a crossed module adds CM1 and CM2, which are
bilinear.  Each clause is written once, as a function of the action
tensor built for fixed algebras (and, for CM1 and CM2, a fixed eta):
what those fix is read once, and where every map the clause reads is
well defined the clause is read off the structure constants and the
image matrix of eta on generator tuples, with the leaf policy.check
gives.  Each read is core.combine, the linear combination that a hom's
apply and multiplicativity_report make too.  What a clause computes
from one cell, column or row of a tensor is kept in a table filled on
first use, actor composition's left sides per column and its right
sides per row and cell among them, and one leaf is kept per witness,
so tensors that share parts share that work and their leaves; the
action validator keeps its torsion-compatibility leaf per witness and
its k-bilinearity leaf once in the same way.  Where a map is not well
defined, the clause's element predicate goes to check and is swept.
classify_xmods builds these functions once per pair of algebras and
once per eta; the tables live as long as the function.
"""

from __future__ import annotations

from functools import partial
from math import prod

from .core import (Algebra, AlgebraHom, BilinearMap, ModuleHom,
                   PreconditionError, StructuralError, Submodule,
                   _present_subalgebra, block_hom, combine, image, is_ideal,
                   kernel, semidirect_product, solve, torsion_leaf,
                   torsion_witness, validate_algebra, validate_hom)
from .policy import EXHAUSTIVE, Policy, check, sweep  # noqa: F401 (see core)
from .report import (AXIOM, FAIL, NOTE, PASS, STRUCTURAL, THEOREM, Report,
                     group, leaf, relabel)


def translation_action(eta: AlgebraHom) -> ModuleHom:
    """Action of R on the module of S by x^r = x + eta(r), held as its
    translation hom eta from the carrier of R to that of S."""
    return eta.hom


class _Table(dict):
    """A table filled on first use: the value of a missing key is
    computed by fn and kept."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _scan(alg: Algebra):
    """The generators of alg with their indices, in element order
    e_n < .. < e_1, which is the order policy.check scans them in."""
    return list(enumerate(alg.generators()))[::-1]


def _clause(name, detail, spaces, maps, first_bad, pred, policy):
    """One clause of an action tensor, as a function of the tensor.

    maps are the fixed maps the clause reads besides the tensor.  When
    they and the tensor are well defined, first_bad reads the tensor's
    constants on generator tuples, scanned as policy.check scans them,
    and gives the first failing tuple or None; the leaf is then the one
    check gives.  That leaf depends on the witness alone, so one is kept
    per witness, None included, and every tensor with that witness gets
    the same node: the leaves are read-only.  Otherwise pred, the
    element predicate with the tensor as its first argument, is handed
    to check and swept under policy, and the leaf is the tensor's own."""
    fixed = all(m.well_defined() for m in maps)
    meta = {"mode": EXHAUSTIVE, "checked": prod(s.size for s in spaces)}
    leaves = _Table(lambda bad: leaf(name, PASS if bad is None else FAIL,
                                     AXIOM, detail=detail, witness=bad,
                                     meta=meta))

    def decide(tensor: BilinearMap) -> Report:
        if not (fixed and tensor.well_defined()):
            return check(name, AXIOM, spaces, partial(pred, tensor), policy,
                         detail)
        return leaves[first_bad(tensor)]
    return decide


def _product_compatibility(s_alg: Algebra, r_alg: Algebra, policy):
    # at (s_i, r_j, r_k): sum_l rc[j][k]_l c[i][l] against c[i][j] r_k
    # and r_j c[i][k], with r_k read as column k of R's product.  Only
    # row c[i] is read, so a row's first failing (r_j, r_k) is tabled
    rc, orders = r_alg.mul.constants, r_alg.orders
    cols = r_alg.mul.columns()
    s_scan, r_scan = _scan(s_alg), _scan(r_alg)

    def row_bad(ci):
        for j, r1 in r_scan:
            for k, r2 in r_scan:
                lhs = combine(rc[j][k], ci, orders)
                if (lhs != combine(ci[j], cols[k], orders)
                        or lhs != combine(ci[k], rc[j], orders)):
                    return r1, r2
        return None
    bad_pairs = _Table(row_bad)

    def first_bad(tensor):
        c = tensor.constants
        for i, s in s_scan:
            bad = bad_pairs[c[i]]
            if bad is not None:
                return (s, *bad)
        return None

    def pred(tensor, s, r1, r2):
        lhs = tensor.evaluate(s, r_alg.multiply(r1, r2))
        return (lhs == r_alg.multiply(tensor.evaluate(s, r1), r2)
                and lhs == r_alg.multiply(r1, tensor.evaluate(s, r2)))

    return _clause("product-compatibility",
                   "s.(r1 r2) = (s.r1) r2 = r1 (s.r2)", [s_alg, r_alg, r_alg],
                   (r_alg.mul,), first_bad, pred, policy)


def _actor_composition(s_alg: Algebra, r_alg: Algebra, policy):
    # at (s_i, s_j, r_k): sum_l sc[i][j]_l c[l][k], column k of the
    # tensor, against sum_l c[j][k]_l c[i][l].  The left sides over
    # (i, j) are tabled per column; the right sides per row c[i], in a
    # table of its own from cell to combination, so a row is hashed once
    # per i
    sc, orders = s_alg.mul.constants, r_alg.orders
    s_scan, r_scan = _scan(s_alg), _scan(r_alg)
    lefts_of = _Table(lambda col: [[combine(v, col, orders) for v in row]
                                   for row in sc])
    rights_of = _Table(lambda ci: _Table(lambda v: combine(v, ci, orders)))

    def first_bad(tensor):
        c = tensor.constants
        lefts = [lefts_of[col] for col in tensor.columns()]
        for i, s1 in s_scan:
            rights = rights_of[c[i]]
            for j, s2 in s_scan:
                cj = c[j]
                for k, r in r_scan:
                    if lefts[k][i][j] != rights[cj[k]]:
                        return s1, s2, r
        return None

    def pred(tensor, s1, s2, r):
        return (tensor.evaluate(s_alg.multiply(s1, s2), r)
                == tensor.evaluate(s1, tensor.evaluate(s2, r)))

    return _clause("actor-composition", "(s1 s2).r = s1.(s2.r)",
                   [s_alg, s_alg, r_alg], (s_alg.mul,), first_bad, pred,
                   policy)


def algebra_action_validator(s_alg: Algebra, r_alg: Algebra,
                             policy: Policy | None = None):
    """validate_algebra_action of every action of s_alg on r_alg, as a
    function of its tensor; what the algebras alone fix is read once,
    here.

    k-bilinearity is carried by the tensor encoding; what can fail is
    torsion, compatibility with the product of R, and composition of
    actors.  Both of these are trilinear, so where the tensor and the
    product they read are well defined they are read off the constants
    on generator triples (see _clause): product compatibility from a
    table of each row's first failing pair, and actor composition from
    a table of the left sides sum_l sc[i][j]_l c[l][k] per column and,
    per row c[i], one of the right sides sum_l v_l c[i][l] per cell v.
    The validator keeps one torsion-compatibility leaf per witness and
    one k-bilinearity leaf, as the clauses keep theirs, so the returned
    reports are read-only."""
    compat = _product_compatibility(s_alg, r_alg, policy)
    compose = _actor_composition(s_alg, r_alg, policy)
    torsion = _Table(torsion_leaf)
    bilinear = leaf("k-bilinearity", PASS, STRUCTURAL,
                    detail="holds by the tensor encoding")

    def validate(tensor: BilinearMap) -> Report:
        return group("validate-algebra-action", [
            torsion[torsion_witness(tensor)], bilinear, compat(tensor),
            compose(tensor)])
    return validate


def validate_algebra_action(xm: CrossedModule, policy: Policy | None = None) -> Report:
    """Torsion, product compatibility and actor composition of the
    action of S on R in xm (see algebra_action_validator)."""
    return algebra_action_validator(xm.s_alg, xm.r_alg, policy)(xm.action)


class CrossedModule:
    """An algebra hom eta: R -> S and the action of S on R, held as its
    tensor S x R -> R.  R and S are eta's domain and codomain, so the
    shape of the tensor is the one thing the constructor checks; the
    axioms are validate_crossed_module's."""

    def __init__(self, eta: AlgebraHom, action: BilinearMap, name: str = ""):
        r_mod = eta.dom.carrier
        if action.left != eta.cod.carrier or action.right != r_mod \
                or action.target != r_mod:
            raise StructuralError("action tensor must map S x R into R")
        self.eta = eta
        self.action = action
        self.name = name

    @property
    def r_alg(self) -> Algebra:
        return self.eta.dom

    @property
    def s_alg(self) -> Algebra:
        return self.eta.cod

    def maps(self, side: str):
        """Its homs and tensors, each named as a slot of side."""
        return ((f"{side} eta", self.eta.hom), (f"{side} action", self.action),
                (f"{side} R product", self.r_alg.mul),
                (f"{side} S product", self.s_alg.mul))

    def __eq__(self, other):
        return (isinstance(other, CrossedModule) and self.eta == other.eta
                and self.action == other.action)

    def __hash__(self):
        return hash((self.eta, self.action))

    def __repr__(self):
        return f"CrossedModule({self.name or 'unnamed'})"


def _cm1(eta: AlgebraHom, policy):
    # at (s_i, r_j): eta(c[i][j]) against s_i eta(r_j), the latter
    # sum_l E[j]_l sc[i][l] read once per eta and the former tabled per
    # cell value
    s_alg, images, orders = eta.cod, eta.images, eta.cod.orders
    rhs = [[combine(img, row, orders) for img in images]
           for row in s_alg.mul.constants]
    s_scan, r_scan = _scan(s_alg), _scan(eta.dom)
    eta_of = _Table(lambda v: combine(v, images, orders))

    def first_bad(tensor):
        c = tensor.constants
        for i, s in s_scan:
            ci, rhs_i = c[i], rhs[i]
            for j, r in r_scan:
                if eta_of[ci[j]] != rhs_i[j]:
                    return s, r
        return None

    def pred(tensor, s, r):
        return (eta.apply(tensor.evaluate(s, r))
                == s_alg.multiply(s, eta.apply(r)))

    return _clause("cm1", "eta(s.r) = s eta(r)", [s_alg, eta.dom],
                   (eta.hom, s_alg.mul), first_bad, pred, policy)


def _cm2(eta: AlgebraHom, policy):
    # at (r_i, r_j): sum_k E[i]_k c[k][j], column j of the tensor,
    # against rc[i][j]; those sums over i are tabled per column
    r_alg, images, orders = eta.dom, eta.images, eta.dom.orders
    rc = r_alg.mul.constants
    r_scan = _scan(r_alg)
    sums_of = _Table(lambda col: [combine(img, col, orders)
                                  for img in images])

    def first_bad(tensor):
        sums = [sums_of[col] for col in tensor.columns()]
        for i, r1 in r_scan:
            rci = rc[i]
            for j, r2 in r_scan:
                if sums[j][i] != rci[j]:
                    return r1, r2
        return None

    def pred(tensor, r1, r2):
        return tensor.evaluate(eta.apply(r1), r2) == r_alg.multiply(r1, r2)

    return _clause("cm2", "eta(r1).r2 = r1 r2", [r_alg, r_alg],
                   (eta.hom, r_alg.mul), first_bad, pred, policy)


def crossed_module_clauses(eta: AlgebraHom, policy: Policy | None = None):
    """CM1 and CM2 of every crossed module on eta, as a function of its
    action tensor giving the cm1 and cm2 leaves; what eta fixes, the
    right sides s_i eta(r_j) of CM1 among it, is read once, here.

    Both clauses are bilinear, so where eta, the tensor and the product
    each reads are well defined they are read off the image matrix and
    the constants on generator pairs (see _clause): CM1 from a table of
    eta on cell values and CM2 from a table of the sums eta(r_i).r_j of
    each tensor column, both filled on first use, and tensors with one
    witness get one leaf.  Otherwise the elements are swept under
    policy, and the leaf is the tensor's own."""
    cm1, cm2 = _cm1(eta, policy), _cm2(eta, policy)
    return lambda tensor: [cm1(tensor), cm2(tensor)]


def cm1_report(xm: CrossedModule, policy: Policy | None = None) -> Report:
    return _cm1(xm.eta, policy)(xm.action)


def cm2_report(xm: CrossedModule, policy: Policy | None = None) -> Report:
    return _cm2(xm.eta, policy)(xm.action)


def validate_crossed_module(xm: CrossedModule, policy: Policy | None = None) -> Report:
    """Full stack of checks.  Reported in layers rather than gated, so an
    input that is not even an action still gets CM1/CM2 verdicts."""
    return crossed_module_report(xm, [
        validate_algebra(xm.r_alg),
        validate_algebra(xm.s_alg),
        validate_hom(xm.eta, policy),
        validate_algebra_action(xm, policy),
        cm1_report(xm, policy),
        cm2_report(xm, policy),
    ])


def crossed_module_report(xm: CrossedModule, checks: list[Report]) -> Report:
    """The report of validate_crossed_module from its six parts:
    validate_algebra of R and of S, validate_hom of eta,
    validate_algebra_action, cm1 and cm2, in that order.  The parts
    become nodes of the returned tree, so a caller may share them."""
    return group(f"validate-crossed-module {xm.name or 'xmod'}", checks)


def inclusion_xmod(alg: Algebra, ideal: Submodule, name: str = "") -> CrossedModule:
    """The inclusion of an ideal, with S acting on I by multiplication.
    An ideal is closed under addition and, by absorption, under
    multiplication, so is_ideal is the one precondition check; it is
    exhaustive, so no sample can stand in for the closure."""
    if not is_ideal(alg, ideal, Policy(mode=EXHAUSTIVE)).passed:
        raise PreconditionError("inclusion_xmod requires an ideal")
    sub_alg, embed = _present_subalgebra(alg, ideal)
    constants = [[solve(embed.hom, alg.multiply(sg, emb))
                  for emb in embed.images] for sg in alg.generators()]
    tensor = BilinearMap(alg.carrier, sub_alg.carrier, sub_alg.carrier, constants)
    return CrossedModule(embed, tensor,
                         name=name or f"incl-{alg.name or 'ideal'}")


def consequence_checks(xm: CrossedModule, policy: Policy | None = None) -> Report:
    """Statements that follow from CM1/CM2; a failure on a validated
    crossed module is an implementation bug, so these are THEOREM class."""
    s_alg, r_alg, act = xm.s_alg, xm.r_alg, xm.action
    im = image(xm.eta.hom)
    ker = kernel(xm.eta.hom)
    checks = []

    for name, alg, sub in (("image-is-ideal", s_alg, im),
                           ("kernel-is-ideal", r_alg, ker)):
        rep = relabel(is_ideal(alg, sub, policy), THEOREM)
        rep.name = name
        checks.append(rep)

    checks.append(check("kernel-annihilates", THEOREM, [ker, r_alg],
                        lambda x, r: r_alg.multiply(x, r) == r_alg.zero,
                        policy, detail="x r = 0 for x in ker(eta)",
                        maps=(r_alg.mul,)))

    checks.append(group("quotient-action-well-defined", [
        check("kernel-closed-under-action", THEOREM, [s_alg, ker],
              lambda s, x: ker.contains(act.evaluate(s, x)), policy,
              maps=(act,)),
        check("image-acts-trivially-on-kernel", THEOREM, [im, ker],
              lambda t, x: act.evaluate(t, x) == r_alg.zero, policy,
              detail="makes the action of S/im(eta) well defined",
              maps=(act,)),
        check("induced-action-composes", THEOREM, [s_alg, s_alg, ker],
              lambda s1, s2, x: act.evaluate(s_alg.multiply(s1, s2), x)
              == act.evaluate(s1, act.evaluate(s2, x)), policy,
              maps=(act, s_alg.mul)),
        leaf("induced-action-reading", NOTE, None,
             detail="checked as a k-bilinear module action; translation-"
                    "style axioms are not imposed, they fail for linear "
                    "actions"),
    ]))

    name = xm.name or "xmod"
    return group(f"consequence-checks {name}", checks)


def _four_letter_check(name, detail, dom, cod, phi, policy):
    """Multiplicativity of the hom phi from dom to cod, over pairs of
    elements of the semidirect product dom; the witness is split back
    into its four letters."""
    rep = check(name, AXIOM, [dom, dom],
                lambda x, y: phi.apply(dom.multiply(x, y))
                == cod.multiply(phi.apply(x), phi.apply(y)), policy, detail,
                maps=(phi, dom.mul, cod.mul))
    if rep.witness is not None:
        rep.witness = tuple(half for x in rep.witness
                            for half in dom.carrier.split(x))
    return rep


def phi_cm1_criterion(xm: CrossedModule, policy: Policy | None = None) -> Report:
    """(s, r) -> s + eta(r) from S |x R to S is multiplicative exactly
    when CM1 holds."""
    dom = semidirect_product(xm.s_alg, xm.r_alg, xm.action)
    return _four_letter_check(
        "cm1-phi-criterion",
        "s + eta(r) multiplicative on S|xR, equivalent to CM1", dom, xm.s_alg,
        block_hom(dom.carrier, xm.s_alg.carrier, [(0, None), (0, xm.eta.hom)]),
        policy)


def phi_cm2_criterion(xm: CrossedModule, policy: Policy | None = None) -> Report:
    """(a, b) -> (eta(a), b) from R |x R (multiplication action) to S |x R
    is multiplicative exactly when CM2 holds."""
    dom = semidirect_product(xm.r_alg, xm.r_alg, xm.r_alg.mul)
    cod = semidirect_product(xm.s_alg, xm.r_alg, xm.action)
    return _four_letter_check(
        "cm2-phi-criterion",
        "(a, b) -> (eta(a), b) multiplicative into S|xR, equivalent to CM2",
        dom, cod,
        block_hom(dom.carrier, cod.carrier, [(0, xm.eta.hom), (1, None)]),
        policy)
