"""Write the frozen verdict reference under perfbench/reference/.

The reference is the oracle every later run is checked against, so
regenerate it only from a source tree whose verdicts are known to be
right, and only when the workloads themselves change.

    python3 perfbench/freeze.py --workload perturb

Per-operation wall times go to stderr for information; they are not
part of the reference.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time

from checkout import import_idealbar

idealbar = import_idealbar()

import oracle  # noqa: E402
from tracer import COUNTERS, Tracer  # noqa: E402
from workloads import WORKLOADS, Enumerate  # noqa: E402


def _every_op(cls):
    """A workload holding every operation it can draw."""
    wl = cls(0)
    if cls is Enumerate:
        pairs = [(i, j) for i, r_alg in enumerate(wl.algebras)
                 for j, s_alg in enumerate(wl.algebras)
                 if len(idealbar.enumerate_xmods(r_alg, s_alg))
                 in Enumerate.CANDIDATE_CLASSES]
        wl.use_pairs(pairs)
    elif hasattr(cls, "CASES"):
        wl.ops = [wl.op(case) for case in range(cls.CASES)]
    else:
        wl.plan(None)
    return wl


def freeze(name: str) -> dict:
    """Verdict entries; for workloads that pair their draws, also the
    work of each operation: the exact count of BilinearMap.evaluate plus
    ModuleHom.apply calls it makes."""
    cls = WORKLOADS[name]
    wl = _every_op(cls)
    weighed = cls.weighed
    ref = {"workload": name, "entries": {}}
    if weighed:
        ref["work"] = {}
    tracer = Tracer()
    for key, fn in wl.ops:
        t0 = time.perf_counter()
        with tracer.installed() if weighed else contextlib.nullcontext():
            result = fn(wl.fresh())
        elapsed = time.perf_counter() - t0
        errors = wl.facts(key, result)
        if errors:
            raise SystemExit(f"{name} {key}: {errors}")
        ref["entries"][key] = wl.reference_entry(result)
        if weighed:
            ref["work"][key] = sum(tracer.calls[c] for c in COUNTERS)
            tracer.reset()
        print(f"{name} {key} {elapsed:.3f}s {ref['entries'][key]}",
              file=sys.stderr, flush=True)
    return ref


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    args = parser.parse_args(argv)
    ref = freeze(args.workload)
    oracle.REFERENCE_DIR.mkdir(exist_ok=True)
    path = oracle.REFERENCE_DIR / f"{args.workload}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(ref['entries'])} entries to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
