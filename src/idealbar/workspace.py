"""JSON workspaces.

A workspace file names every object the command line can check:

    {
      "modulus": 2,
      "algebras": {"S": {"orders": [2, 2], "mul": [[[1,0],[0,1]],
                                                   [[0,1],[0,0]]]}},
      "homs":     {"eta": {"dom": "R", "cod": "S", "images": [[0, 1]]}},
      "actions":  {"act": {"actor": "S", "acted": "R", "tensor": [[[1]],
                                                                  [[0]]]}},
      "xmods":    {"main": {"eta": "eta", "action": "act"}},
      "subsets":  {"rp": {"ambient": "R", "elements": [[0], [1]]}},
      "subxmods": {"sx": {"ambient": "main", "r_subset": "rp",
                          "s_subset": "sp"}},
      "morphisms": {"f": {"source": "sub", "target": "main",
                          "alpha1": "a1", "alpha2": "a2"}},
      "cims":     {"c": {"morphism": "f", "act1": "aa1", "act2": "aa2",
                         "h": [[[0]]]}},
      "options":  {"depth": 4}
    }

Every section must be a JSON object, coordinates must be canonical
(0 <= c < order of the summand), every summand order must be at least 2
and options.depth, when given, an integer of at least 1; true and false
are not integers anywhere.  A subset lists zero and is closed under
addition (the least listed pair whose sum is not listed is named); it
is held as the span of its elements.  Anything else is rejected with
the key path in the message, as is any reference to a name that does
not exist.
"""

from __future__ import annotations

import json
from itertools import product

from .core import (Algebra, AlgebraHom, BilinearMap, FiniteModule,
                   IdealbarError, ModuleHom, Submodule)
from .crossed_ideal import (CrossedIdealMap, SubXMod, XModMorphism,
                            sub_crossed_module)
from .xmod import CrossedModule


class WorkspaceError(IdealbarError):
    pass


def _expect(cond: bool, where: str, message: str) -> None:
    if not cond:
        raise WorkspaceError(f"{where}: {message}")


def _integer(v) -> bool:
    # JSON true and false load as bool, which is a subclass of int
    return isinstance(v, int) and not isinstance(v, bool)


def _element(mod: FiniteModule, raw, where: str) -> tuple:
    _expect(isinstance(raw, list) and len(raw) == mod.rank
            and all(_integer(c) for c in raw),
            where, f"expected a list of {mod.rank} integers")
    t = tuple(raw)
    _expect(mod.contains(t), where,
            f"coordinates out of range for orders {list(mod.orders)}")
    return t


def _tensor(left: FiniteModule, right: FiniteModule, target: FiniteModule,
            raw, where: str) -> BilinearMap:
    _expect(isinstance(raw, list) and len(raw) == left.rank,
            where, f"expected {left.rank} rows")
    constants = []
    for i, row in enumerate(raw):
        _expect(isinstance(row, list) and len(row) == right.rank,
                f"{where}[{i}]", f"expected {right.rank} entries")
        constants.append([_element(target, e, f"{where}[{i}][{j}]")
                          for j, e in enumerate(row)])
    return BilinearMap(left, right, target, constants)


class Workspace:
    """Parsed workspace.  Lookups raise WorkspaceError on unknown names,
    quoting the section searched."""

    def __init__(self, data: dict, label: str = "<workspace>"):
        _expect(isinstance(data, dict), label, "workspace must be an object")
        self.label = label
        modulus = data.get("modulus")
        _expect(_integer(modulus) and modulus >= 2, "modulus",
                "an integer modulus of at least 2 is required")
        self.modulus = modulus
        self.options = data.get("options", {})
        _expect(isinstance(self.options, dict), "options", "must be an object")
        depth = self.options.get("depth")
        _expect(depth is None or (_integer(depth) and depth >= 1),
                "options.depth", "expected an integer of at least 1")

        self.algebras: dict[str, Algebra] = {}
        self.homs: dict[str, AlgebraHom] = {}
        self.actions: dict[str, tuple[Algebra, Algebra, BilinearMap]] = {}
        self.xmods: dict[str, CrossedModule] = {}
        self.subsets: dict[str, Submodule] = {}
        self.morphisms: dict[str, XModMorphism] = {}
        self.subxmods: dict[str, SubXMod] = {}
        self.cims: dict[str, CrossedIdealMap] = {}

        # in dependency order: later sections name objects of earlier ones
        for section, parse in (("algebras", self._parse_algebra),
                               ("homs", self._parse_hom),
                               ("actions", self._parse_action),
                               ("xmods", self._parse_xmod),
                               ("subsets", self._parse_subset),
                               ("morphisms", self._parse_morphism),
                               ("subxmods", self._parse_subxmod),
                               ("cims", self._parse_cim)):
            specs = data.get(section, {})
            _expect(isinstance(specs, dict), section, "must be an object")
            table = getattr(self, section)
            for name, spec in specs.items():
                table[name] = parse(name, spec)

    @classmethod
    def load(cls, path: str) -> "Workspace":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                try:
                    data = json.load(fh)
                except json.JSONDecodeError as exc:
                    raise WorkspaceError(
                        f"{path}: not valid JSON ({exc})") from exc
        except OSError as exc:
            raise WorkspaceError(f"{path}: cannot read ({exc.strerror})") from exc
        return cls(data, label=path)

    def _get(self, table: dict, section: str, name, where: str):
        _expect(isinstance(name, str), where, "expected a name string")
        if name not in table:
            raise WorkspaceError(
                f"{where}: no {section} entry named '{name}'")
        return table[name]

    def algebra(self, name: str) -> Algebra:
        return self._get(self.algebras, "algebras", name, "lookup")

    def xmod(self, name: str) -> CrossedModule:
        return self._get(self.xmods, "xmods", name, "lookup")

    def subxmod(self, name: str) -> SubXMod:
        return self._get(self.subxmods, "subxmods", name, "lookup")

    def morphism(self, name: str) -> XModMorphism:
        return self._get(self.morphisms, "morphisms", name, "lookup")

    def cim(self, name: str) -> CrossedIdealMap:
        return self._get(self.cims, "cims", name, "lookup")

    def _parse_algebra(self, name: str, spec) -> Algebra:
        where = f"algebras.{name}"
        _expect(isinstance(spec, dict), where, "must be an object")
        orders = spec.get("orders")
        _expect(isinstance(orders, list) and orders
                and all(_integer(d) for d in orders),
                f"{where}.orders", "expected a non-empty list of integers")
        for d in orders:
            _expect(d >= 2, f"{where}.orders",
                    f"summand order {d} is below 2; drop unit summands")
            _expect(self.modulus % d == 0, f"{where}.orders",
                    f"summand order {d} does not divide modulus {self.modulus}")
        mod = FiniteModule(self.modulus, orders)
        mul = _tensor(mod, mod, mod, spec.get("mul"), f"{where}.mul")
        return Algebra(mod, mul, name=name)

    def _parse_hom(self, name: str, spec) -> AlgebraHom:
        where = f"homs.{name}"
        _expect(isinstance(spec, dict), where, "must be an object")
        dom = self._get(self.algebras, "algebras", spec.get("dom"),
                        f"{where}.dom")
        cod = self._get(self.algebras, "algebras", spec.get("cod"),
                        f"{where}.cod")
        raw = spec.get("images")
        _expect(isinstance(raw, list) and len(raw) == dom.carrier.rank,
                f"{where}.images",
                f"expected {dom.carrier.rank} generator images")
        images = [_element(cod.carrier, e, f"{where}.images[{i}]")
                  for i, e in enumerate(raw)]
        return AlgebraHom(dom, cod, ModuleHom(dom.carrier, cod.carrier, images),
                          name=name)

    def _parse_action(self, name: str, spec):
        where = f"actions.{name}"
        _expect(isinstance(spec, dict), where, "must be an object")
        actor = self._get(self.algebras, "algebras", spec.get("actor"),
                          f"{where}.actor")
        acted = self._get(self.algebras, "algebras", spec.get("acted"),
                          f"{where}.acted")
        tensor = _tensor(actor.carrier, acted.carrier, acted.carrier,
                         spec.get("tensor"), f"{where}.tensor")
        return actor, acted, tensor

    def _parse_xmod(self, name: str, spec) -> CrossedModule:
        where = f"xmods.{name}"
        _expect(isinstance(spec, dict), where, "must be an object")
        eta = self._get(self.homs, "homs", spec.get("eta"), f"{where}.eta")
        actor, acted, action = self._get(self.actions, "actions",
                                         spec.get("action"), f"{where}.action")
        _expect(actor == eta.cod and acted == eta.dom, where,
                "action does not match eta: the actor must be the codomain "
                "and the acted algebra the domain")
        return CrossedModule(eta, action, name=name)

    def _parse_subset(self, name: str, spec) -> Submodule:
        where = f"subsets.{name}"
        _expect(isinstance(spec, dict), where, "must be an object")
        amb = self._get(self.algebras, "algebras", spec.get("ambient"),
                        f"{where}.ambient")
        raw = spec.get("elements")
        _expect(isinstance(raw, list) and raw, f"{where}.elements",
                "expected a non-empty list of elements")
        elems = [_element(amb.carrier, e, f"{where}.elements[{i}]")
                 for i, e in enumerate(raw)]
        _expect(amb.carrier.zero in elems, f"{where}.elements",
                "the zero element must be listed")
        span, listed = Submodule.from_generators(amb.carrier, elems), set(elems)
        if span.size > len(listed):
            x, y = next(p for p in product(sorted(listed), repeat=2)
                        if amb.carrier.add(*p) not in listed)
            raise WorkspaceError(
                f"{where}.elements: not closed under addition, "
                f"{list(x)} + {list(y)} is not listed")
        return span

    def _parse_morphism(self, name: str, spec) -> XModMorphism:
        where = f"morphisms.{name}"
        _expect(isinstance(spec, dict), where, "must be an object")
        source = self._get(self.xmods, "xmods", spec.get("source"),
                           f"{where}.source")
        target = self._get(self.xmods, "xmods", spec.get("target"),
                           f"{where}.target")
        alpha1 = self._get(self.homs, "homs", spec.get("alpha1"),
                           f"{where}.alpha1")
        alpha2 = self._get(self.homs, "homs", spec.get("alpha2"),
                           f"{where}.alpha2")
        _expect(alpha1.dom == source.r_alg and alpha1.cod == target.r_alg,
                f"{where}.alpha1", "must map the source R to the target R")
        _expect(alpha2.dom == source.s_alg and alpha2.cod == target.s_alg,
                f"{where}.alpha2", "must map the source S to the target S")
        return XModMorphism(source, target, alpha1, alpha2, name=name)

    def _parse_subxmod(self, name: str, spec) -> SubXMod:
        where = f"subxmods.{name}"
        _expect(isinstance(spec, dict), where, "must be an object")
        if "morphism" in spec:
            mor = self._get(self.morphisms, "morphisms", spec["morphism"],
                            f"{where}.morphism")
            return SubXMod.from_inclusions(mor.target, mor.source,
                                           mor.alpha1, mor.alpha2, name=name)
        amb = self._get(self.xmods, "xmods", spec.get("ambient"),
                        f"{where}.ambient")
        r_subset = self._get(self.subsets, "subsets", spec.get("r_subset"),
                             f"{where}.r_subset")
        s_subset = self._get(self.subsets, "subsets", spec.get("s_subset"),
                             f"{where}.s_subset")
        _expect(r_subset.ambient == amb.r_alg.carrier, f"{where}.r_subset",
                "subset does not live in the R carrier of the ambient xmod")
        _expect(s_subset.ambient == amb.s_alg.carrier, f"{where}.s_subset",
                "subset does not live in the S carrier of the ambient xmod")
        return sub_crossed_module(amb, r_subset, s_subset, name=name)

    def _parse_cim(self, name: str, spec) -> CrossedIdealMap:
        where = f"cims.{name}"
        _expect(isinstance(spec, dict), where, "must be an object")
        mor = self._get(self.morphisms, "morphisms", spec.get("morphism"),
                        f"{where}.morphism")
        actor1, acted1, act1 = self._get(self.actions, "actions",
                                         spec.get("act1"), f"{where}.act1")
        actor2, acted2, act2 = self._get(self.actions, "actions",
                                         spec.get("act2"), f"{where}.act2")
        h = _tensor(mor.target.r_alg.carrier, mor.source.s_alg.carrier,
                    mor.source.r_alg.carrier, spec.get("h"), f"{where}.h")
        _expect(actor1 == mor.target.r_alg and acted1 == mor.source.r_alg,
                f"{where}.act1", "must let the target R act on the source R")
        _expect(actor2 == mor.target.s_alg and acted2 == mor.source.s_alg,
                f"{where}.act2", "must let the target S act on the source S")
        return CrossedIdealMap(mor, act1, act2, h, name=name)
