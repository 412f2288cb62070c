"""Outside-in tracing of idealbar's public functions.

While installed, a Tracer rebinds every traced function in each
idealbar.* module namespace that holds it (so core's `from .policy
import sweep` is traced too), replaces the traced methods on their
classes, and restores every binding on exit, after an exception as well.
Spans are kept in memory as [name, start, end, parent index]; self times
are computed from them after a pass.  Untraced runs never install it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# span name -> the functions it times; the per-layer metric is
# "<span>_s", the self time summed over the pass
SPANS = {
    "workspace.load": ["idealbar.workspace:Workspace.__init__"],
    "bar.build": ["idealbar.bar:build_bar_algebra"],
    "bar.simplicial": ["idealbar.bar:verify_simplicial_identities"],
    "bar.definition": ["idealbar.bar:definition_checks"],
    "bar.level_homs": ["idealbar.bar:verify_level_homomorphisms"],
    "bar.ideal_axiom": ["idealbar.bar:verify_ideal_axiom"],
    "bar.decomposition": ["idealbar.bar:verify_decomposition"],
    "bar.tail_products": ["idealbar.bar:rk_closed_formulas"],
    "bar.eta_k": ["idealbar.bar:eta_k"],
    "bibar.build": ["idealbar.bibar:build_bibar"],
    "bibar.verify": ["idealbar.bibar:verify_bibar"],
    "roundtrip.perturb": ["idealbar.roundtrip:perturb_and_filter"],
    "roundtrip.from_structure": ["idealbar.roundtrip:roundtrip_from_structure"],
    "xmod.validate": ["idealbar.xmod:validate_crossed_module"],
    "xmod.action": ["idealbar.xmod:validate_algebra_action"],
    "xmod.cm": ["idealbar.xmod:cm1_report", "idealbar.xmod:cm2_report"],
    "xmod.translation_action": ["idealbar.xmod:translation_action"],
    "crossed_ideal.validate_ideal": ["idealbar.crossed_ideal:validate_crossed_ideal"],
    "crossed_ideal.validate_cim": ["idealbar.crossed_ideal:validate_crossed_ideal_map"],
    "crossed_ideal.image_check": ["idealbar.crossed_ideal:image_crossed_ideal_check"],
    "crossed_ideal.sub_xmod": ["idealbar.crossed_ideal:sub_crossed_module"],
    "enumeration.algebras": ["idealbar.enumeration:enumerate_algebras"],
    "enumeration.candidates": ["idealbar.enumeration:enumerate_xmods"],
    "enumeration.ideals": ["idealbar.enumeration:enumerate_ideals"],
    "enumeration.fuzz_gen": ["idealbar.enumeration:fuzz_cims"],
    "policy.sweep": ["idealbar.policy:sweep"],
    "core.validate_algebra": ["idealbar.core:validate_algebra"],
    "core.multiplicativity": ["idealbar.core:multiplicativity_report"],
    "core.maps_equal": ["idealbar.core:maps_equal_report"],
    "core.is_ideal": ["idealbar.core:is_ideal"],
    "core.kernel": ["idealbar.core:kernel"],
    "report.render": ["idealbar.report:Report.to_json",
                      "idealbar.report:Report.render"],
}

# call counters without spans, for the two hottest primitives
COUNTERS = {
    "core.evaluate": "idealbar.core:BilinearMap.evaluate",
    "core.hom_apply": "idealbar.core:ModuleHom.apply",
}

# spans whose call count is a per-layer metric ("<span>_calls")
COUNTED_SPANS = ("bar.build", "xmod.validate", "policy.sweep")


def _resolve(target: str):
    """(owner, attribute, original) for "module:name" or
    "module:Class.method"; owner is the class for a method, else None."""
    module_name, _, qualname = target.partition(":")
    module = importlib.import_module(module_name)
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        owner = getattr(module, cls_name)
        return owner, attr, owner.__dict__[attr]
    return None, qualname, getattr(module, qualname)


def self_times(spans) -> dict:
    """Total self time per span name: a span's duration minus the
    durations of its direct children."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        out[name] += (end - start) - covered[i]
    return dict(out)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.calls: Counter = Counter()
        self.tuples_checked = 0
        self.failed_sweeps = 0
        self._bindings: list[tuple] = []

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self.calls.clear()
        self.tuples_checked = 0
        self.failed_sweeps = 0

    def _observe_sweep(self, result) -> None:
        self.tuples_checked += result.checked
        if not result.ok:
            self.failed_sweeps += 1

    def _span(self, name, fn, observe=None):
        spans, stack, calls = self.spans, self._stack, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            calls[name] += 1
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result
        return wrapper

    def _counter(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    def _bind(self, target: str, make) -> None:
        owner, attr, original = _resolve(target)
        wrapper = make(original)
        if owner is not None:
            self._bindings.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "idealbar" and not mod_name.startswith("idealbar."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._bindings.append((module, key, original))
                    setattr(module, key, wrapper)

    @contextmanager
    def installed(self):
        try:
            for name, targets in SPANS.items():
                observe = self._observe_sweep if name == "policy.sweep" else None
                for target in targets:
                    self._bind(target, lambda fn: self._span(name, fn, observe))
            for name, target in COUNTERS.items():
                self._bind(target, lambda fn: self._counter(name, fn))
            yield self
        finally:
            for owner, attr, original in reversed(self._bindings):
                setattr(owner, attr, original)
            self._bindings.clear()

    def pass_metrics(self) -> dict:
        """Per-layer metrics of the pass traced since the last reset."""
        selfs = self_times(self.spans)
        out = {f"{name}_s": selfs.get(name, 0.0) for name in SPANS}
        for name in COUNTED_SPANS + tuple(COUNTERS):
            out[f"{name}_calls"] = self.calls[name]
        sweeps = self.calls["policy.sweep"]
        out["policy.tuples_checked"] = self.tuples_checked
        out["policy.sweep_fail_ratio"] = (self.failed_sweeps / sweeps
                                          if sweeps else 0.0)
        return out
