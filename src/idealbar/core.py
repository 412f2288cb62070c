"""Finite commutative algebra arithmetic over Z/m.

Everything here is desk scale and exact.  A module is a direct sum of
cyclic groups Z/d_i with every d_i dividing the base modulus m; its
elements are plain int tuples of coefficients, reduced componentwise.
Multiplications and actions are structure-constant tensors, so k-bilinear
identities hold by construction and the validators only search the
identities that can actually fail.

A direct sum keeps its summands as blocks, whose place in a flat tuple
only its split and inject know.  block_hom and block_tensor assemble the
maps and products of the bar levels and bibar from one route per block.

Every subset (an image, a kernel, an ideal, a listed subgroup) is a
span held as its Howell form, so its membership, size and equality need
no element list.  A hom's graph span, built once, gives both its kernel
and the preimages solve finds.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate, chain, product
from math import gcd, lcm, prod
from operator import mod

from .policy import EXHAUSTIVE, Policy, check, non_map_leaf
# sweep is re-exported: perfbench's tracer self-test reaches it as
# idealbar.core.sweep and idealbar.xmod.sweep
from .policy import sweep  # noqa: F401
from .report import (AXIOM, FAIL, NOTE, PASS, STRUCTURAL, Report, group,
                     leaf)

MAX_ENUM = 1 << 20


class IdealbarError(Exception):
    pass


class StructuralError(IdealbarError):
    """Shape, torsion or reference problems in the input data."""


class PreconditionError(IdealbarError):
    """An operation was handed data that fails its stated precondition."""


class UnsupportedScaleError(IdealbarError):
    """The requested enumeration exceeds the desk-scale bound."""


def refuse_non_maps(maps) -> None:
    """Refuse the first (name, hom or tensor) of maps that is not well
    defined, with one error that names it, before any clause runs: each
    clause that reads it would fail STRUCTURAL (policy.non_map_leaf)
    without saying which input slot is at fault."""
    bad = next((name for name, f in maps if not f.well_defined()), None)
    if bad:
        raise StructuralError(f"the {bad} is not a well-defined map")


class FiniteModule:
    """Finite Z/m-module presented as Z/d_1 + ... + Z/d_n.

    Order-1 summands carry no data and are dropped on construction.
    Elements are coefficient tuples in lexicographic order, first
    coordinate most significant; that order fixes every witness this
    package reports.
    """

    def __init__(self, modulus: int, orders):
        if modulus < 2:
            raise StructuralError(f"modulus must be at least 2, got {modulus}")
        orders = tuple(int(d) for d in orders)
        for d in orders:
            if d < 1:
                raise StructuralError(f"summand order {d} is not positive")
            if modulus % d != 0:
                raise StructuralError(
                    f"summand order {d} does not divide modulus {modulus}")
        self.modulus = modulus
        self.orders = tuple(d for d in orders if d > 1)
        self.rank = len(self.orders)
        self.zero = (0,) * self.rank
        size = 1
        for d in self.orders:
            size *= d
        self.size = size
        self._elements = None
        self._generators = None

    # a module that direct_sum did not build is its own single block;
    # direct_sum sets the blocks and the slice of a flat tuple each holds
    _blocks, _cuts = None, (slice(0, None),)

    @property
    def blocks(self):
        """The summands given to direct_sum, or the module itself."""
        return self._blocks or (self,)

    def split(self, x):
        """The coordinates of x in each block; x may be any sequence
        indexed by the generators, a row of cells say."""
        return tuple(x[cut] for cut in self._cuts)

    def inject(self, j, x):
        """The element that is x in block j and zero elsewhere."""
        start, x = self._cuts[j].start, tuple(x)
        return self.zero[:start] + x + self.zero[start + len(x):]

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, FiniteModule)
                and self.modulus == other.modulus
                and self.orders == other.orders)

    def __hash__(self):
        return hash((self.modulus, self.orders))

    def __repr__(self):
        return f"FiniteModule(mod {self.modulus}, orders {list(self.orders)})"

    def contains(self, x) -> bool:
        return (len(x) == self.rank
                and all(0 <= c < d for c, d in zip(x, self.orders)))

    def reduce(self, coeffs):
        if len(coeffs) != self.rank:
            raise StructuralError(
                f"element of length {len(coeffs)} in module of rank {self.rank}")
        return tuple(c % d for c, d in zip(coeffs, self.orders))

    def add(self, x, y):
        return tuple((a + b) % d for a, b, d in zip(x, y, self.orders))

    def neg(self, x):
        return tuple((-a) % d for a, d in zip(x, self.orders))

    def scale(self, k, x):
        return tuple((k * a) % d for a, d in zip(x, self.orders))

    def generators(self):
        # cached, so the witnesses taken from generators share one tuple
        # per generator, as sweep witnesses share the cached elements
        if self._generators is None:
            self._generators = tuple(
                tuple(int(i == j) for j in range(self.rank))
                for i in range(self.rank))
        return list(self._generators)

    def elements(self):
        if self._elements is None:
            if self.size > MAX_ENUM:
                raise UnsupportedScaleError(
                    f"module has {self.size} elements, bound is {MAX_ENUM}")
            self._elements = [tuple(t) for t in
                              product(*(range(d) for d in self.orders))]
        return self._elements

    def element_order(self, x) -> int:
        return additive_order(x, self.add, self.zero)


def additive_order(x, add, zero) -> int:
    """Least t >= 1 with t*x = zero, for an addition callable."""
    t, acc = 1, x
    while acc != zero:
        acc = add(acc, x)
        t += 1
    return t


def combine(coeffs, rows, orders):
    """sum_l coeffs[l] rows[l], reduced mod orders: the one linear
    combination, of a hom's image rows or of rows and columns of
    structure constants.  Each row is a reduced coefficient tuple, so a
    single coefficient 1 gives its stored row, and none the zero tuple."""
    out = None
    for v, row in zip(coeffs, rows):
        if v:
            if out is None:
                out, reduced = ((row, True) if v == 1
                                else ([v * w for w in row], False))
            else:
                out, reduced = [a + v * w for a, w in zip(out, row)], False
    if out is None:
        return (0,) * len(orders)
    return out if reduced else tuple(map(mod, out, orders))


def direct_sum(mods) -> FiniteModule:
    """The direct sum of mods, kept as its blocks: an element is the
    concatenation of its block coordinates."""
    mods = tuple(mods)
    out = FiniteModule(mods[0].modulus, [d for m in mods for d in m.orders])
    out._blocks = mods
    out._cuts = [slice(end - m.rank, end)
                 for m, end in zip(mods, accumulate(m.rank for m in mods))]
    return out


def block_hom(dom: FiniteModule, cod: FiniteModule, route,
              name: str = "") -> ModuleHom:
    """The hom from dom to cod given on their blocks: route[i] is (j, hom)
    when block i of dom goes into block j of cod through hom, (j, None)
    when it goes in by the identity, and None when it is killed.  Its
    image matrix is assembled from the image matrices of the block homs,
    with no element arithmetic."""
    images = []
    for blk, to in zip(dom.blocks, route):
        if to is None:
            images += [cod.zero] * blk.rank
            continue
        j, hom = to
        images += [cod.inject(j, img)
                   for img in (blk.generators() if hom is None else hom.images)]
    return ModuleHom(dom, cod, images, name=name)


def block_tensor(carrier: FiniteModule, route, name: str = "") -> Algebra:
    """The algebra on carrier whose product is given on its blocks:
    route(p, q) is (r, cells) when block p times block q lands in block
    r, cells[i][j] being generator i of p times generator j of q there,
    and None when it is zero.  No element arithmetic is made."""
    blocks, rows = carrier.blocks, []
    for p, left in enumerate(blocks):
        routes = [route(p, q) for q in range(len(blocks))]
        for i in range(left.rank):
            row = []
            for right, to in zip(blocks, routes):
                row += ([carrier.zero] * right.rank if to is None else
                        [carrier.inject(to[0], cell) for cell in to[1][i]])
            rows.append(row)
    return Algebra(carrier, BilinearMap(carrier, carrier, carrier, rows),
                   name=name)


class BilinearMap:
    """Structure-constant tensor for a k-bilinear map left x right -> target.

    constants[i][j] is the coefficient tuple of g_i * g_j in the target.
    Bilinearity over Z/m is automatic; whether the extension is well
    defined is exactly the torsion compatibility reported by the
    validators, so torsion-violating tensors are storable on purpose.
    with_cells derives a tensor that differs in a few cells, sharing the
    other rows, as the perturbation harness does for each mutant.
    columns() is the transpose, built on first use.
    """

    def __init__(self, left: FiniteModule, right: FiniteModule,
                 target: FiniteModule, constants):
        # each entry is converted and reduced once; the shape is checked
        # row count first, then row by row in order
        constants = tuple(constants)
        if len(constants) != left.rank:
            raise StructuralError(
                f"tensor has {len(constants)} rows, left rank is {left.rank}")
        orders = target.orders
        rows = []
        for row in constants:
            row = tuple(row)
            if len(row) != right.rank:
                raise StructuralError(
                    f"tensor row has {len(row)} entries, right rank is {right.rank}")
            cells = []
            for vec in row:
                vec = tuple(vec)
                if len(vec) != target.rank:
                    raise StructuralError(
                        f"tensor entry has length {len(vec)}, target rank is {target.rank}")
                cells.append(tuple(map(mod, map(int, vec), orders)))
            rows.append(tuple(cells))
        self._set(left, right, target, tuple(rows))

    def _set(self, left, right, target, constants):
        self.left = left
        self.right = right
        self.target = target
        self.constants = constants
        self._nz = None
        self._cols = None
        self._well_defined = None

    def with_cells(self, cells) -> "BilinearMap":
        """This tensor with the cells (i, j) -> vec of the mapping cells
        replaced.  Only the replaced cells are converted and reduced; the
        rows without one are self's own row tuples."""
        orders = self.target.orders
        rows = list(self.constants)
        for (i, j), vec in cells.items():
            vec = tuple(vec)
            if len(vec) != len(orders):
                raise StructuralError(
                    f"tensor entry has length {len(vec)}, target rank is {len(orders)}")
            row = list(rows[i])
            row[j] = tuple(map(mod, map(int, vec), orders))
            rows[i] = tuple(row)
        other = object.__new__(BilinearMap)
        other._set(self.left, self.right, self.target, tuple(rows))
        return other

    def _rows(self):
        # per left index i, the (j, nonzero (l, v) entries) of the cells
        # (i, j) that are not zero, so evaluate reads only the rows
        # where x[i] != 0
        if self._nz is None:
            zero = self.target.zero
            self._nz = tuple(
                tuple((j, tuple((l, v) for l, v in enumerate(vec) if v))
                      for j, vec in enumerate(row) if vec != zero)
                for row in self.constants)
        return self._nz

    def columns(self):
        """Column j of the tensor, the cells (i, j) over i, for each j.
        With no row there is still one empty column per right generator."""
        if self._cols is None:
            self._cols = (tuple(zip(*self.constants)) if self.constants
                          else ((),) * self.right.rank)
        return self._cols

    def evaluate(self, x, y):
        if len(x) != self.left.rank or len(y) != self.right.rank:
            raise StructuralError("operand length does not match the tensor")
        out = [0] * self.target.rank
        for xi, row in zip(x, self._rows()):
            if xi:
                for j, vec in row:
                    c = xi * y[j]
                    if c:
                        for l, v in vec:
                            out[l] += c * v
        return tuple(map(mod, out, self.target.orders))

    def torsion_violations(self):
        """Yield index triples (i, j, l) where the bilinear extension is
        not well defined, in lexicographic order.

        Cell (i, j, l) violates when d_i * c or e_j * c is not 0 mod f_l,
        that is when gcd(d_i, e_j) * c is not, so only a cell whose f_l
        does not divide gcd(d_i, e_j) can violate and the others are not
        read.  When every target order divides every left and right order
        (every module over Z/2, say) no constant is read at all."""
        d = self.left.orders
        e = self.right.orders
        f = self.target.orders
        if gcd(*d, *e) % lcm(*f) == 0:
            return
        for i in range(self.left.rank):
            for j in range(self.right.rank):
                g = gcd(d[i], e[j])
                for l in range(self.target.rank):
                    if g % f[l] and g * self.constants[i][j][l] % f[l]:
                        yield (i, j, l)

    def well_defined(self) -> bool:
        """No torsion violation: the tensor is a bilinear map of modules."""
        if self._well_defined is None:
            self._well_defined = next(self.torsion_violations(), None) is None
        return self._well_defined

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, BilinearMap)
                and self.left == other.left and self.right == other.right
                and self.target == other.target
                and self.constants == other.constants)

    def __hash__(self):
        return hash((self.left, self.right, self.target, self.constants))


class Algebra:
    """Commutative, not necessarily unital, finite Z/m-algebra.  What
    its product alone decides, the witnesses of algebra_axioms and the
    unit note, is kept on first use; reports are built from it fresh."""

    def __init__(self, carrier: FiniteModule, mul: BilinearMap, name: str = ""):
        if mul.left != carrier or mul.right != carrier or mul.target != carrier:
            raise StructuralError("multiplication tensor does not live on the carrier")
        self.carrier = carrier
        self.mul = mul
        self.name = name
        self._witnesses = self._unit = None

    @property
    def modulus(self):
        return self.carrier.modulus

    @property
    def orders(self):
        return self.carrier.orders

    @property
    def zero(self):
        return self.carrier.zero

    @property
    def size(self):
        return self.carrier.size

    def elements(self):
        return self.carrier.elements()

    def generators(self):
        return self.carrier.generators()

    def multiply(self, x, y):
        return self.mul.evaluate(x, y)

    def __eq__(self, other):
        # name is presentation only
        if self is other:
            return True
        return (isinstance(other, Algebra) and self.carrier == other.carrier
                and self.mul == other.mul)

    def __hash__(self):
        return hash((self.carrier, self.mul))

    def __repr__(self):
        tag = self.name or "Algebra"
        return f"{tag}(mod {self.modulus}, orders {list(self.orders)})"


class ModuleHom:
    """Z/m-linear map given by its image matrix: images[i] is the image
    of the i-th domain generator, and apply is the linear extension."""

    def __init__(self, domain: FiniteModule, codomain: FiniteModule,
                 images, name: str = ""):
        images = tuple(codomain.reduce(tuple(img)) for img in images)
        if len(images) != domain.rank:
            raise StructuralError(
                f"{len(images)} images for a domain of rank {domain.rank}")
        self._set(domain, codomain, images, name)

    def _set(self, domain, codomain, images, name):
        self.domain = domain
        self.codomain = codomain
        self.images = images
        self.name = name
        self._well_defined = None
        self._graph = None

    def order_violations(self):
        """Indices i where d_i * images[i] != 0, i.e. the map is not well
        defined on Z/d_i.  A summand whose order every codomain order
        divides cannot violate, so its image is not read."""
        f = self.codomain.orders
        top = lcm(*f)
        return [i for i, d in enumerate(self.domain.orders) if d % top
                and any(d * v % fl for v, fl in zip(self.images[i], f))]

    def well_defined(self) -> bool:
        if self._well_defined is None:
            self._well_defined = not self.order_violations()
        return self._well_defined

    def graph(self) -> "Submodule":
        """The span of the graph rows (f(g_i), g_i) in codomain + domain,
        built on first use: kernel and solve read its Howell form."""
        if self._graph is None:
            self._graph = Submodule.from_generators(
                direct_sum([self.codomain, self.domain]),
                map(tuple.__add__, self.images, self.domain.generators()))
        return self._graph

    def apply(self, x):
        """The image rows combined by the coordinates of x."""
        return combine(x, self.images, self.codomain.orders)

    def compose(self, inner: "ModuleHom") -> "ModuleHom":
        """self after inner, whose images apply gives already reduced."""
        if inner.codomain != self.domain:
            raise StructuralError("composite maps do not chain")
        out = object.__new__(ModuleHom)
        out._set(inner.domain, self.codomain,
                 tuple(map(self.apply, inner.images)),
                 f"{self.name}.{inner.name}" if self.name or inner.name else "")
        return out

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, ModuleHom)
                and self.domain == other.domain
                and self.codomain == other.codomain
                and self.images == other.images)

    def __hash__(self):
        return hash((self.domain, self.codomain, self.images))


def identity_hom(mod: FiniteModule, name: str = "id") -> ModuleHom:
    return ModuleHom(mod, mod, mod.generators(), name=name)


class AlgebraHom:
    """Module hom between the carriers of two algebras; multiplicativity
    is what validate_hom checks, not what the type enforces."""

    def __init__(self, dom: Algebra, cod: Algebra, hom: ModuleHom, name: str = ""):
        if hom.domain != dom.carrier or hom.codomain != cod.carrier:
            raise StructuralError("hom does not match the algebra carriers")
        self.dom = dom
        self.cod = cod
        self.hom = hom
        self.name = name or hom.name

    @property
    def images(self):
        return self.hom.images

    def apply(self, x):
        return self.hom.apply(x)

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, AlgebraHom) and self.dom == other.dom
                and self.cod == other.cod and self.hom == other.hom)

    def __hash__(self):
        return hash(self.hom)


def howell_form(mod: FiniteModule, vectors):
    """The Howell form (Howell 1986) of the span of vectors in mod, as
    (pivot column, row) pairs, computed with Z/d as the multiples of m/d
    in Z/m.  Two lists span one submodule exactly when their forms agree.
    Only work that changes a row is done: a row already zero in the
    column is passed over, a zero row is dropped, and a form row is
    reduced by a new pivot only when the pivot's multiple in it is not
    zero."""
    m, width = mod.modulus, mod.rank
    scales = [m // d for d in mod.orders]
    work = [[a * s for a, s in zip(v, scales)] for v in vectors if any(v)]
    form = []
    for c in range(width):
        piv, rest = None, []
        for r in work:  # Euclid gathers the gcd of column c in piv
            if not r[c]:
                rest.append(r)
            elif piv is None:
                piv = r
            else:
                while r[c]:
                    q = piv[c] // r[c]
                    piv, r = r, [(a - q * b) % m for a, b in zip(piv, r)]
                if any(r):
                    rest.append(r)
        if piv is not None:  # a unit makes the pivot p divide m
            g = gcd(piv[c], m)
            u = pow(piv[c] // g, -1, m // g)
            while gcd(u, m) > 1:
                u += m // g
            piv = [u * a % m for a in piv]
            # rows below then span the elements that are zero up to c
            ann = [m // g * a % m for a in piv]
            if any(ann):
                rest.append(ann)
            # the entries above the pivot reduced below it
            for k, (j, row) in enumerate(form):
                q = row[c] // g
                if q:
                    form[k] = j, [(a - q * b) % m for a, b in zip(row, piv)]
            form.append((c, piv))
        work = rest
    return tuple((c, tuple(a // s for a, s in zip(row, scales)))
                 for c, row in form)


class Submodule:
    """Subgroup of a module, held as a span: its reduced generator list
    gens and their Howell form.  Membership is reduction to zero, the
    size the product of the pivot orders, and spans are equal when their
    forms are.  Iteration is over the sorted elements, listed on first
    use; a listed span looks membership up in them."""

    # (algebra, presentation) once _present_subalgebra has presented it
    _presented = None

    @classmethod
    def from_generators(cls, ambient: FiniteModule, gens) -> "Submodule":
        span = object.__new__(cls)
        span.ambient = ambient
        span.gens = tuple(ambient.reduce(tuple(g)) for g in gens)
        span.form, span._set = howell_form(ambient, span.gens), None
        span.size = prod(ambient.orders[c] // row[c] for c, row in span.form)
        return span

    def least_in_coset(self, x):
        """The least element of x + span: pivot entries reduced in order."""
        x, orders = tuple(x), self.ambient.orders
        for c, row in self.form:
            q = x[c] // row[c]
            if q:
                x = tuple((a - q * b) % d for a, b, d in zip(x, row, orders))
        return x

    def contains(self, x) -> bool:
        if self._set is not None:
            return tuple(x) in self._set
        return self.least_in_coset(x) == self.ambient.zero

    @cached_property
    def elements(self):
        orders, out = self.ambient.orders, [self.ambient.zero]
        for c, row in self.form:
            out = [tuple((a + k * b) % d for a, b, d in zip(v, row, orders))
                   for v in out for k in range(orders[c] // row[c])]
        self._set = frozenset(out)  # membership by lookup from now on
        return tuple(sorted(out))

    def __iter__(self):
        return iter(self.elements)

    def __eq__(self, other):
        return (isinstance(other, Submodule) and self.ambient == other.ambient
                and self.form == other.form)

    def __hash__(self):
        return hash((self.ambient, self.size))


# ---------------------------------------------------------------------------
# validators


def validate_algebra(alg: Algebra) -> Report:
    """Torsion compatibility, commutativity and associativity of the
    multiplication tensor, then a NOTE on the unit."""
    rep = algebra_axioms(alg)
    rep.checks.append(_unit_note(alg))  # a NOTE leaves the status as is
    return rep


def axiom_witnesses(alg: Algebra):
    """The torsion, commutativity and associativity witnesses of
    algebra_axioms, None where an axiom holds, found once per algebra.
    A commuting product is read on the (n^3 - n)/3 triples with i < k
    and j >= i, in lexicographic order, and its first failure is the
    least of all.  Over Z, with c[i][j] = c[j][i], the associator a has
    a(i, j, k) = -a(k, j, i), a(i, j, i) = 0 and cyclic sum 0, so the
    least failing (i, j, k) has i < k, or (k, j, i) fails earlier, and
    j >= i, or a(i, j, k) = a(j, i, k) - a(j, k, i) fails earlier."""
    if alg._witnesses is None:
        n, c, nz = alg.carrier.rank, alg.mul.constants, _cell_terms(alg.mul)
        comm = next(((i, j) for i in range(n) for j in range(n)
                     if c[i][j] != c[j][i]), None)
        triples = (product(range(n), repeat=3) if comm else
                   ((i, j, k) for i in range(n) for j in range(i, n)
                    for k in range(i + 1, n)))
        alg._witnesses = (
            torsion_witness(alg.mul), comm,
            _nonassociative_triple(nz, list(zip(*nz)) if comm else nz,
                                   alg.carrier.orders, triples))
    return alg._witnesses


def algebra_axioms(alg: Algebra) -> Report:
    """validate_algebra without the unit search, for callers that read
    only the verdict.  Generator checks are complete here because every
    side of every identity is multilinear.  The leaves are new on every
    call; every triple is decided, if not read."""
    n = alg.carrier.rank
    torsion, comm, assoc = axiom_witnesses(alg)
    return group(f"validate-algebra {alg.name or 'algebra'}", [
        torsion_leaf(torsion,
                     "d_i*c[i][j] and d_j*c[i][j] vanish mod target orders"),
        leaf("commutativity", FAIL if comm else PASS, AXIOM,
             detail="c[i][j] = c[j][i] on generator pairs",
             witness=comm, meta={"pairs": n * n}),
        leaf("associativity", FAIL if assoc else PASS, AXIOM,
             detail="(g_i g_j) g_k = g_i (g_j g_k), complete by trilinearity",
             witness=assoc, meta={"triples": n ** 3})])


def _cell_terms(mul: BilinearMap):
    """Per cell (i, j) of the tensor, the nonzero (l, v) terms of c[i][j]."""
    return [[tuple((l, v) for l, v in enumerate(cell) if v) for cell in row]
            for row in mul.constants]


def _nonassociative_triple(nz, cols, orders, triples):
    """The first (i, j, k) of triples with (g_i g_j) g_k != g_i (g_j g_k),
    or None.  nz[i][j] holds the nonzero terms of cell (i, j) and
    cols[k][l] is nz[l][k]; the associator is read off them as
    sum_l c[i][j][l] c[l][k] - sum_l c[j][k][l] c[i][l]."""
    n = len(orders)

    def fails(i, j, k):
        out = [0] * n
        for l, v in nz[i][j]:
            for m, w in cols[k][l]:
                out[m] += v * w
        for l, v in nz[j][k]:
            for m, w in nz[i][l]:
                out[m] -= v * w
        return any(map(mod, out, orders))

    return next(((i, j, k) for i, j, k in triples
                 if (nz[i][j] or nz[j][k]) and fails(i, j, k)), None)


def cellwise_axioms(alg: Algebra):
    """For an algebra that passes algebra_axioms, a function of a
    mapping of cells (i, j) to coefficient lists, telling whether
    alg.mul with those cells replaced passes algebra_axioms too.  The
    changed cells are read against alg's constants, so no tensor is
    built for a change that fails.

    A check that reads no changed cell keeps alg's verdict, so torsion
    and commutativity are checked at the changed cells only.  Once the
    tensor commutes there, the cells that really changed come in pairs
    (i, j), (j, i), its rows serve as its columns, and the associator of
    (x, y, z) is minus that of (z, y, x).  A triple whose sides read a
    changed (i, j) is (i, j, .), or (a, b, j) for a cell (a, b) of alg
    nonzero at coordinate i, or the reverse of one of these for the
    mirror cell (j, i), so associativity is checked at the first two
    only.  Those cells are indexed once, here, as are the coordinates
    where torsion can fail for each pair of orders."""
    n = alg.carrier.rank
    orders = alg.carrier.orders
    base = _cell_terms(alg.mul)
    at = [[] for _ in range(n)]  # at[l]: the cells (a, b) nonzero at l
    for a, row in enumerate(base):
        for b, terms in enumerate(row):
            for l, _ in terms:
                at[l].append((a, b))
    loose = {(d, e): [(l, f) for l, f in enumerate(orders) if gcd(d, e) % f]
             for d in set(orders) for e in set(orders)}

    def passes(cells) -> bool:
        c = alg.mul.constants
        new = {ij: tuple(map(mod, vec, orders)) for ij, vec in cells.items()}
        nz = list(base)
        for (i, j), cell in new.items():
            # gcd(d_i, d_j) * c[i][j] vanishing mod f_l is torsion
            # compatibility at the cell, sure where f_l divides the gcd
            g = gcd(orders[i], orders[j])
            if cell != new.get((j, i), c[j][i]) or any(
                    g * cell[l] % f for l, f in loose[orders[i], orders[j]]):
                return False
            if nz[i] is base[i]:
                nz[i] = list(base[i])
            nz[i][j] = tuple((l, v) for l, v in enumerate(cell) if v)
        return _nonassociative_triple(nz, nz, orders, (
            t for i, j in new for t in chain(
                ((i, j, x) for x in range(n)),
                ((a, b, j) for a, b in at[i])))) is None

    return passes


def _unit_note(alg: Algebra) -> Report:
    # informational only, a unit is never required; the detail is found
    # once per algebra
    if alg._unit is None:
        if alg.carrier.size > 4096:
            alg._unit = "unit detection skipped, carrier too large"
        else:
            unit = _least_unit(alg)
            alg._unit = "no unit" if unit is None else f"unit {unit}"
    return leaf("unital", NOTE, None, detail=alg._unit)


def _least_unit(alg: Algebra):
    """The least e, in element order, with e g_j = g_j for every
    generator g_j, or None; no element is listed.

    Coordinate l of e g_j is sum_i e_i c[i][j][l] mod f_l on canonical
    representatives, whatever the tensor, and e x is linear in x there,
    so these equations decide e x = x on every element.  The search
    fixes e_0, e_1, .. in turn, each child in increasing order, so the
    first leaf it reaches is the first unit of the element scan.  Once
    e_0 .. e_k are fixed, every (j, l) whose rows i > k are zero at
    coordinate l is fixed too, and a prefix that fixes one wrong is
    pruned with its subtree.  With no pruning the search is the scan."""
    n, orders, c = alg.carrier.rank, alg.orders, alg.mul.constants
    # fixed[k]: the nonzero terms (i, c[i][j][l]), the target and f_l of
    # each (j, l) whose last nonzero row is k
    fixed = [[] for _ in range(n)]
    for j in range(n):
        for l, f in enumerate(orders):
            terms = [(i, row[j][l]) for i, row in enumerate(c) if row[j][l]]
            if terms:
                fixed[terms[-1][0]].append((terms, int(j == l), f))
            elif j == l:  # coordinate j of e g_j is 0 for every e
                return None
    unit = [0] * n

    def search(k):
        if k == n:
            return True
        for unit[k] in range(orders[k]):
            if all(sum(unit[i] * w for i, w in terms) % f == target
                   for terms, target, f in fixed[k]) and search(k + 1):
                return True
        return False

    return tuple(unit) if search(0) else None


def multiplicativity_report(name: str, hom: ModuleHom, dom: Algebra,
                            cod: Algebra) -> Report:
    """Check f(uv) = f(u)f(v).

    When hom and both products are well defined, both sides are bilinear
    in (u, v), so generator pairs decide the property at every size.
    f(g_i g_j) is f of the cell c[i][j] of dom's product, applied once
    per distinct cell.  f(g_i)f(g_j) is read off the nonzero image
    terms, sum v w c'[a][b] over (a, v) in f(g_i) and (b, w) in f(g_j),
    c' being cod's product; an image that is one generator with
    coefficient 1, as a bar operator's almost always is, reads the
    stored cell c'[a][b] alone.  The pairs are scanned e_n < .. < e_1 in
    both arguments, as policy.check takes them, so the first mismatch is
    the least element witness and the leaf is the one the exhaustive
    sweep gives.  Otherwise the leaf is policy.non_map_leaf: nothing is
    multiplicative that is not a map between algebras."""
    if not all(m.well_defined() for m in (hom, dom.mul, cod.mul)):
        return non_map_leaf(name)
    gens, orders = dom.carrier.generators(), cod.orders
    consts, cells = dom.mul.constants, cod.mul.constants
    f_cell = {cell: hom.apply(cell) for cell in set().union(*consts)}
    terms = [[(a, v) for a, v in enumerate(img) if v] for img in hom.images]
    # the generator a of a single-term image with coefficient 1, else None
    single = [t[0][0] if len(t) == 1 and t[0][1] == 1 else None
              for t in terms]

    def image_product(i, j):
        a, b = single[i], single[j]
        if a is not None and b is not None:
            return cells[a][b]
        s, t = terms[i], terms[j]
        return combine([v * w for _, v in s for _, w in t],
                       [cells[a][b] for a, _ in s for b, _ in t], orders)

    order = range(dom.carrier.rank - 1, -1, -1)
    bad = next(((gens[i], gens[j]) for i in order for j in order
                if f_cell[consts[i][j]] != image_product(i, j)), None)
    meta = {"mode": EXHAUSTIVE, "checked": dom.carrier.size ** 2}
    if bad is not None:
        return leaf(name, FAIL, AXIOM, detail="f(uv) != f(u)f(v)",
                    witness=bad, meta=meta)
    meta["generator_pairs"] = dom.carrier.rank ** 2
    return leaf(name, PASS, AXIOM,
                detail="f(uv) = f(u)f(v), generator pairs, complete by bilinearity",
                meta=meta)


def maps_equal_report(name: str, f: ModuleHom, g: ModuleHom,
                      detail: str = "") -> Report:
    """Equality of two linear maps.  Equal image matrices of a
    well-defined map decide a PASS; otherwise check decides on
    generators, and a map that is not well defined fails STRUCTURAL
    (policy.non_map_leaf), whatever its image matrix."""
    if f.domain != g.domain or f.codomain != g.codomain:
        return leaf(name, FAIL, STRUCTURAL,
                    detail="maps do not share domain and codomain")
    if f.images == g.images and f.well_defined():
        return leaf(name, PASS, AXIOM, detail=detail,
                    meta={"mode": EXHAUSTIVE, "checked": f.domain.size})
    return check(name, AXIOM, [f.domain], lambda x: f.apply(x) == g.apply(x),
                 (f, g), detail=detail or "maps differ")


def order_compatibility(hom: ModuleHom) -> Report:
    """Whether the image matrix defines a map on the domain: the least
    generator index i with d_i * f(g_i) != 0 is the witness."""
    bad = hom.order_violations()
    return leaf("order-compatibility", FAIL if bad else PASS, STRUCTURAL,
                detail="d_i * f(g_i) = 0 in the codomain",
                witness=(bad[0],) if bad else None)


def torsion_witness(tensor: BilinearMap):
    """The first torsion violation (i, j, l) of the tensor, or None."""
    return None if tensor.well_defined() else next(tensor.torsion_violations())


def torsion_leaf(bad, detail: str = "") -> Report:
    """The torsion-compatibility leaf of a tensor whose first violation
    is bad, None when there is none."""
    return leaf("torsion-compatibility", FAIL if bad else PASS, STRUCTURAL,
                detail=detail, witness=bad)


def validate_hom(f: AlgebraHom) -> Report:
    name = f.name or "hom"
    return group(f"validate-hom {name}", [
        order_compatibility(f.hom),
        multiplicativity_report("multiplicativity", f.hom, f.dom, f.cod)])


def image(f: ModuleHom) -> Submodule:
    return Submodule.from_generators(f.codomain, f.images)


def kernel(f: ModuleHom) -> Submodule:
    """The span of the Howell rows of f's graph whose image part is zero.
    A map that is not well defined is refused, as solve refuses it."""
    if not f.well_defined():
        raise PreconditionError("kernel needs a well-defined map")
    n = f.codomain.rank
    return Submodule.from_generators(f.domain, [row[n:] for c, row in
                                                f.graph().form if c >= n])


def solve(f: ModuleHom, y):
    """Some x with f(x) = y, or None when y is not in the image.  (y, 0)
    reduced by the Howell form of f's graph is (0, -x) exactly then, by
    the Howell property; a map that is not well defined is refused, as
    its graph span is not a graph."""
    if not f.well_defined():
        raise PreconditionError("solve needs a well-defined map")
    n = f.codomain.rank
    rest = f.graph().least_in_coset(tuple(y) + f.domain.zero)
    return None if any(rest[:n]) else f.domain.neg(rest[n:])


def injective(f: ModuleHom) -> bool:
    """No pivot of the graph form past the codomain: the kernel is zero.
    A map that is not well defined is refused, as solve refuses it."""
    if not f.well_defined():
        raise PreconditionError("injective needs a well-defined map")
    return all(c < f.codomain.rank for c, _ in f.graph().form)


def escaping_product(alg: Algebra, span: Submodule):
    """The first product a x of a generator a of alg and a generator x
    of span that leaves span, or None.  When alg.mul is well defined,
    absorption is bilinear, so None says that span is an ideal."""
    if span.ambient != alg.carrier:
        raise StructuralError("submodule does not live in the algebra carrier")
    return next((p for p in (alg.multiply(a, x) for a, x in
                             product(alg.generators(), span.gens))
                 if not span.contains(p)), None)


def is_ideal(alg: Algebra, sub: Submodule,
             policy: Policy | None = None) -> Report:
    """Additive closure and absorption of a span.  The closure leaf
    passes by construction, and absorption is decided on pairs of
    algebra and span generators, or fails STRUCTURAL when alg.mul is
    not torsion-compatible; only a failure is swept, under policy, for
    its least witness."""
    if sub.ambient != alg.carrier:
        raise StructuralError("submodule does not live in the algebra carrier")
    return group("is-ideal", [
        leaf("additive-closure", PASS, STRUCTURAL,
             detail="contains 0 and is closed under addition"),
        check("absorption", AXIOM, [alg, sub],
              lambda a, x: sub.contains(alg.multiply(a, x)), (alg.mul,),
              detail="a*x stays in the subset for a in the algebra",
              policy=policy)])


# ---------------------------------------------------------------------------
# presentations of subalgebras


def decompose_abelian(elements, add, zero):
    """Cyclic decomposition of a finite abelian group given by a sorted
    element list and an addition callable.  Returns (orders, generators)
    with every order at least 2.  Deterministic: the generator of maximal
    order is the least such element, and lifts are least in their coset.
    """
    elems = sorted(elements)
    if len(elems) <= 1:
        return (), []

    orders = {x: additive_order(x, add, zero) for x in elems}
    d = max(orders.values())
    g = min(x for x in elems if orders[x] == d)
    cyc = []
    acc = zero
    for _ in range(d):
        cyc.append(acc)
        acc = add(acc, g)

    rep = {}
    for x in elems:
        rep[x] = min(add(x, c) for c in cyc)
    reps = sorted(set(rep.values()))
    sub_orders, sub_gens = decompose_abelian(
        reps, lambda a, b: rep[add(a, b)], rep[zero])

    lifted = []
    for h, e in zip(sub_gens, sub_orders):
        # a lift of the same additive order exists because g has maximal
        # order in the group
        cand = None
        for c in cyc:
            y = add(h, c)
            if orders[y] == e and (cand is None or y < cand):
                cand = y
        if cand is None:
            raise IdealbarError("no order-preserving lift; input was not a group")
        lifted.append(cand)
    return (d,) + tuple(sub_orders), [g] + lifted


def multiplicatively_closed(alg: Algebra, sub: Submodule,
                            name: str = "multiplicatively-closed") -> Report:
    """Whether x*y stays in the subset for x, y in it, swept for the least
    witness.  A span decides a PASS on pairs of its generators."""
    return check(name, AXIOM, [sub, sub],
                 lambda x, y: sub.contains(alg.multiply(x, y)), (alg.mul,),
                 policy=Policy(mode=EXHAUSTIVE))


def _present_subalgebra(alg: Algebra, sub: Submodule):
    """(sub_algebra, embedding AlgebraHom) for a span that the caller
    found closed under multiplication: the embedding sends
    the carrier's generators to the cyclic ones decompose_abelian picks,
    and the product constants are solved through it.  The pair is kept
    on sub for the algebra object it was presented in, so presenting a
    span again in that algebra returns the same two objects."""
    if sub._presented is not None and sub._presented[0] is alg:
        return sub._presented[1]
    amb = alg.carrier
    orders, gens = decompose_abelian(list(sub.elements), amb.add, amb.zero)
    carrier = FiniteModule(amb.modulus, orders)
    embed = ModuleHom(carrier, amb, gens)
    if not injective(embed) or carrier.size != sub.size:
        raise IdealbarError("decomposition is not direct or does not span")
    constants = [[solve(embed, alg.multiply(gi, gj)) for gj in gens]
                 for gi in gens]
    sub_alg = Algebra(carrier, BilinearMap(carrier, carrier, carrier, constants),
                      name=f"{alg.name}-sub" if alg.name else "sub")
    sub._presented = alg, (sub_alg, AlgebraHom(sub_alg, alg, embed, name="embed"))
    return sub._presented[1]


def semidirect_power(s_alg: Algebra, r_alg: Algebra, act: BilinearMap, n: int,
                     carrier: FiniteModule | None = None,
                     name: str = "") -> Algebra:
    """S |x R^n, level n of the bar object, assembled by block_tensor: S x S
    is the product of S, S x letter q and letter q x S put the action cell
    into letter q, and letter p x letter q puts the product cell of R into
    letter max(p, q).  carrier is the direct sum S + R^n when the caller
    holds one, so that its element caches are shared."""
    if act.left != s_alg.carrier or act.right != r_alg.carrier \
            or act.target != r_alg.carrier:
        raise StructuralError("action tensor must map S x R into R")
    if carrier is None:
        carrier = direct_sum([s_alg.carrier] + [r_alg.carrier] * n)
    # letter x S: the action cells transposed, a row per R generator
    acted = [[row[k] for row in act.constants]
             for k in range(r_alg.carrier.rank)]

    def route(p, q):  # block 0 is S, block q > 0 is letter q
        if not p:
            return (q, act.constants) if q else (0, s_alg.mul.constants)
        return (max(p, q), r_alg.mul.constants) if q else (p, acted)

    return block_tensor(carrier, route, name)


def semidirect_product(s_alg: Algebra, r_alg: Algebra, act: BilinearMap,
                       name: str = "") -> Algebra:
    """S |x R with product (s,r)(s',r') = (ss', s.r' + s'.r + rr'), the
    one-letter case of semidirect_power."""
    return semidirect_power(s_alg, r_alg, act, 1, name=name or "semidirect")
