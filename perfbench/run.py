"""Outside-in benchmark of the idealbar verification kernel.

    python3 perfbench/run.py --workload perturb --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

One client runs a closed loop of passes in one process, with no threads.
A pass runs the workload's fixed list of operations through the public
entry points the CLI calls and renders the reports the CLI prints; every
verdict is then checked against the frozen reference (untimed).

--trace 0 reports the end-to-end metrics of BENCHMARK.json: set-up time
(the median over fresh interpreters started before the first pass and
after every pass, each timed from its start until its first operation
is ready), the median pass time, units
decided per second and peak RSS.  Every time is adjusted to a reference
host speed (see hostspeed.py); the wall times are logged beside them.
--trace 1 first times untraced passes,
then traced ones, and reports the per-layer metrics.  --workload all
runs every workload in its own interpreter and prints a table; it fails
when any operation failed.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 only when every
verdict was correct.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed
from checkout import ROOT, MissingSource, import_idealbar

HERE = Path(__file__).resolve()
SETUP_PROBES_FIRST = 5
SETUP_PROBES_PER_PASS = 4
PROBE_SAMPLES = 3   # host speed samples before and after each probe
MIN_PASSES = 2
UNTRACED_SHARE = 0.4   # of --seconds, spent on untraced passes in --trace 1
TRACE_DIR = ROOT / ".bench_trace"


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def probe_setup(workload: str, seed: int) -> float:
    """Time from starting a fresh interpreter until the workload's first
    operation is ready, at the reference host speed sampled just before
    and just after."""
    cmd = [sys.executable, str(HERE), "--probe", "--workload", workload,
           "--seed", str(seed)]
    sampler = hostspeed.Sampler()
    for _ in range(PROBE_SAMPLES):
        sampler.sample()
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe of {workload} failed "
                           f"(exit {proc.returncode})")
    for _ in range(PROBE_SAMPLES):
        sampler.sample()
    return sampler.adjust(elapsed)


def run_pass(wl):
    """One timed pass; returns (seconds at the reference host speed,
    wall seconds, results, errors, reports)."""
    results, errors, reports = [], [], []

    def body():
        try:
            ctx = wl.fresh()
        except Exception:
            errors.extend((key, traceback.format_exc()) for key, _ in wl.ops)
            return
        for key, fn in wl.ops:
            try:
                results.append((key, fn(ctx)))
            except Exception:
                errors.append((key, traceback.format_exc()))
        reports.extend(wl.cli_reports(results))
        for rep in reports:
            rep.to_json()
            rep.render()

    _, wall, seconds = hostspeed.timed(body)
    return seconds, wall, results, errors, reports


class Loop:
    """Runs passes, checks every verdict, and keeps the tallies."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.walls = []   # wall seconds of every pass, for the log

    def one(self):
        seconds, wall, results, errors, reports = run_pass(self.wl)
        self.walls.append(wall)
        self.attempted += len(self.wl.ops)
        for key, tb in errors:
            self.failed += 1
            print(f"{self.wl.name} {key}: raised\n{tb}", file=sys.stderr)
        decided = 0
        for key, result in results:
            try:
                problems = self.wl.check(key, result)
                decided += self.wl.decided(key, result)
            except Exception:  # a report too broken to read is a failure
                problems = [traceback.format_exc()]
            if problems:
                self.failed += 1
                print(f"{self.wl.name} {key}: {problems}", file=sys.stderr)
        return seconds, decided, results, reports

    def run(self, budget: float, min_passes: int = MIN_PASSES,
            on_pass=None) -> list[tuple]:
        """Passes until min_passes ran and a further pass, as long as the
        median one, would end after budget seconds; returns
        (seconds, decided) per pass."""
        out, laps = [], []
        start = time.perf_counter()
        while (len(out) < min_passes or time.perf_counter() - start
               + statistics.median(laps) <= budget):
            lap = time.perf_counter()
            # every pass starts from a settled heap, as a fresh CLI process
            # does, so neither its time nor peak RSS depends on the passes
            # before it
            gc.collect()
            seconds, decided, results, reports = self.one()
            out.append((seconds, decided))
            if on_pass is not None:
                on_pass(seconds, results, reports)
            del results, reports
            laps.append(time.perf_counter() - lap)
        return out


def end_to_end(wl, loop: Loop, seconds: float, seed: int) -> dict:
    # the host's speed drifts over seconds, so set-up probes are spread
    # over the run: some before the first pass, more after every pass
    def probe(n):
        setup.extend(probe_setup(wl.name, seed) for _ in range(n))

    setup = []
    probe(SETUP_PROBES_FIRST)
    passes = loop.run(seconds, on_pass=lambda *_: probe(SETUP_PROBES_PER_PASS))
    print(f"# {wl.name} {len(passes)} passes, wall s: "
          + " ".join(f"{s:.3f}" for s in loop.walls)
          + "; at the reference speed: "
          + " ".join(f"{s:.3f}" for s, _ in passes))
    return {
        "setup_s": statistics.median(setup),
        "pass_s": statistics.median(s for s, _ in passes),
        "decided_per_s": statistics.median(d / s for s, d in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(wl, loop: Loop, seconds: float, seed: int) -> dict:
    from tracer import Tracer

    untraced = loop.run(UNTRACED_SHARE * seconds, min_passes=1)
    tracer = Tracer()
    per_pass = []
    last = {}

    def collect(seconds, results, reports):
        m = tracer.pass_metrics()
        m.update(wl.layer_counts(results))
        m["report.leaves"] = sum(1 for rep in reports for node in rep.walk()
                                 if not node.checks)
        per_pass.append(m)
        # spans are in wall seconds, so the pass they share is too
        last.update(wall_s=loop.walls[-1], spans=tracer.spans[:])
        tracer.reset()

    with tracer.installed():
        traced = loop.run((1 - UNTRACED_SHARE) * seconds, min_passes=1,
                          on_pass=collect)
    TRACE_DIR.mkdir(exist_ok=True)
    with open(TRACE_DIR / f"{wl.name}-seed{seed}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"workload": wl.name, "seed": seed,
                   "fields": ["name", "start", "end", "parent"], **last}, fh)
    out = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    out["trace.overhead_ratio"] = (statistics.median(s for s, _ in traced)
                                   / statistics.median(s for s, _ in untraced))
    return out


def run_workload(args, spec) -> int:
    import oracle
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    if args.probe:
        cls(args.seed)
        print("ready", flush=True)
        return 0
    wl = cls(args.seed)
    wl.plan(oracle.load_reference(wl.name))
    loop = Loop(wl)
    measure, wanted = ((per_layer, spec["per_layer"]) if args.trace
                       else (end_to_end, spec["end_to_end"]))
    values = measure(wl, loop, args.seconds, args.seed)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(f"# {wl.name}: decided_per_s counts {wl.unit}")
    for name, m in metrics.items():
        print(f"# {wl.name} {name} = {m['value']:.6g} {m['unit']}")
    correct = loop.failed == 0
    print(json.dumps({"correct": correct, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args, spec) -> int:
    """Every workload in its own interpreter, one after the other."""
    names = [w["name"] for w in spec["workloads"]]
    ok = True
    rows = []
    for name in names:
        cmd = [sys.executable, str(HERE), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            ok = False
            continue
        ok = ok and proc.returncode == 0 and result["correct"]
        metrics = dict(result["metrics"])
        metrics["failed_ratio"] = {"value": result["failed"] / result["attempted"],
                                   "unit": "ratio"}
        rows.append((name, metrics))
    for name, metrics in rows:
        print(name)
        for metric, m in metrics.items():
            print(f"  {metric:32s} {m['value']:>14.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="Outside-in benchmark of the idealbar verification kernel")
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        import_idealbar()
    except MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
