"""Command line front end.

Every subcommand prints one report (text by default, JSON with
--format json) and exits with 0 when everything passed, 1 on an axiom
failure, 2 on a theorem failure and 3 on a structural failure.  Broken
input that cannot even be loaded also exits with 3.
"""

from __future__ import annotations

import argparse
import os
import sys

from .bar import DEFAULT_DEPTH, build_bar_algebra, verify_bar
from .bibar import build_bibar, verify_bibar
from .core import IdealbarError, validate_algebra
from .crossed_ideal import (image_crossed_ideal_check, validate_crossed_ideal,
                            validate_crossed_ideal_map)
from .enumeration import enumeration_report, fuzz_report
from .policy import Policy
from .report import NOTE, PASS, SKIP, STRUCTURAL, exit_code, group, leaf
from .roundtrip import perturb_and_filter, roundtrip_check
from .workspace import Workspace
from .xmod import (consequence_checks, phi_cm1_criterion, phi_cm2_criterion,
                   validate_crossed_module)


def _global_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # the same flags hang off the main parser and off every subcommand, so
    # they are accepted on either side of the subcommand word; the
    # subcommand copies suppress their defaults to not shadow given values
    def default(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument("-w", "--workspace", default=default(None),
                        help="path to a workspace JSON file")
    parser.add_argument("--policy", choices=["auto", "exhaustive", "sample"],
                        default=default("auto"),
                        help="policy for the element sweep that finds the "
                        "least witness of a clause failing on a subset; "
                        "every verdict is exact under every policy")
    parser.add_argument("--seed", type=int, default=default(0),
                        help="seed for sampled sweeps and the fuzzer")
    parser.add_argument("--samples", type=int, default=default(None),
                        help="tuples per sampled sweep")
    parser.add_argument("--format", choices=["text", "json"],
                        default=default("text"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idealbar",
        description="verification kernel for crossed modules of finite "
                    "commutative algebras and their bar objects")
    _global_flags(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _global_flags(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=lambda **kw: argparse.ArgumentParser(
                                    parents=[common], **kw))

    p = sub.add_parser("check-algebra", help="validate one algebra")
    p.add_argument("name")

    p = sub.add_parser("check-xmod",
                       help="validate a crossed module, including the "
                            "semidirect multiplicativity criteria")
    p.add_argument("name")
    p.add_argument("--consequences", action="store_true",
                   help="also run the derived-statement checks")

    p = sub.add_parser("bar-build", help="build the bar object and report "
                                         "its level sizes")
    p.add_argument("name")
    p.add_argument("--depth", type=int, default=None)

    p = sub.add_parser("bar-verify", help="run every bar-level check")
    p.add_argument("name")
    p.add_argument("--depth", type=int, default=None)

    p = sub.add_parser("roundtrip",
                       help="rebuild the crossed module from its bar object "
                            "and compare exactly")
    p.add_argument("name")
    p.add_argument("--depth", type=int, default=None,
                   help="truncation depth (default: the workspace's "
                        "options.depth, else 4); --perturb uses it only "
                        "when given, else depth 2")
    p.add_argument("--perturb", action="store_true",
                   help="also mutate level tensors and round-trip the "
                        "mutants that still satisfy the definition")
    p.add_argument("--budget", type=int, default=1000,
                   help="number of mutants for --perturb")

    p = sub.add_parser("ideal-check", help="validate a sub crossed module "
                                           "as a crossed ideal")
    p.add_argument("name")

    p = sub.add_parser("cim-check", help="validate a crossed ideal map and "
                                         "its image")
    p.add_argument("name")
    p.add_argument("--no-balance", action="store_true",
                   help="skip the mixed balance identity for h")

    p = sub.add_parser("bibar-verify", help="verify the bisimplicial object "
                                            "of a morphism")
    p.add_argument("name")
    p.add_argument("--rows", type=int, default=2)
    p.add_argument("--cols", type=int, default=2)
    p.add_argument("--corrupt-phi", metavar="N:J", default=None,
                   help="send letter J of phi_N to zero (negative control)")

    p = sub.add_parser("enumerate", help="count algebras and crossed module "
                                         "candidates at small rank")
    p.add_argument("--modulus", type=int, default=2)
    p.add_argument("--max-rank", type=int, default=1)

    p = sub.add_parser("fuzz", help="run the seeded crossed-ideal-map fuzzer")
    p.add_argument("--modulus", type=int, default=2)
    p.add_argument("--max-rank", type=int, default=2)
    p.add_argument("--count", type=int, default=100)

    return parser


def _at_least(value: int, flag: str, low: int = 1) -> int:
    if value < low:
        raise IdealbarError(f"{flag} must be at least {low}, got {value}")
    return value


def _policy(args) -> Policy:
    kwargs = {"mode": args.policy, "seed": args.seed}
    if args.samples is not None:
        kwargs["sample_count"] = _at_least(args.samples, "--samples")
    return Policy(**kwargs)


def _workspace(args) -> Workspace:
    if not args.workspace:
        raise IdealbarError(f"'{args.command}' needs --workspace")
    return Workspace.load(args.workspace)


def _depth(args, ws: Workspace) -> int:
    if args.depth is not None:
        return args.depth
    return ws.options.get("depth", DEFAULT_DEPTH)


def _on_valid(valid: "Report", name: str, theorems) -> "Report":
    """THEOREM checks claim what follows from valid input, so they run
    only when the validation report valid passed; otherwise a SKIP leaf
    takes the name of the group theorems() would have built."""
    if valid.passed:
        return theorems()
    return leaf(name, SKIP, None,
                detail="not run: the input failed validation")


def run(args) -> "Report":
    policy = _policy(args)

    if args.command == "enumerate":
        return enumeration_report(_at_least(args.modulus, "--modulus", 2),
                                  _at_least(args.max_rank, "--max-rank", 0))
    if args.command == "fuzz":
        return fuzz_report(_at_least(args.modulus, "--modulus", 2),
                           _at_least(args.max_rank, "--max-rank"),
                           _at_least(args.count, "--count"), args.seed,
                           policy)

    ws = _workspace(args)
    if args.command == "check-algebra":
        return validate_algebra(ws.algebra(args.name))

    if args.command == "check-xmod":
        xm = ws.xmod(args.name)
        valid = validate_crossed_module(xm)
        checks = [valid,
                  group("semidirect-criteria",
                        [phi_cm1_criterion(xm), phi_cm2_criterion(xm)])]
        if args.consequences:
            checks.append(_on_valid(
                valid, f"consequence-checks {xm.name or 'xmod'}",
                lambda: consequence_checks(xm, policy)))
        return group(f"check-xmod {args.name}", checks)

    if args.command == "bar-build":
        bar = build_bar_algebra(ws.xmod(args.name), _depth(args, ws))
        levels = [leaf(f"level {n}", NOTE, None,
                       meta={"size": lvl.size, "rank": lvl.rank})
                  for n, lvl in enumerate(bar.levels)]
        built = leaf("built", PASS, STRUCTURAL,
                     detail=f"bar object of {args.name} at depth {bar.depth}")
        return group(f"bar-build {args.name}", [built] + levels)

    if args.command == "bar-verify":
        bar = build_bar_algebra(ws.xmod(args.name), _depth(args, ws))
        return verify_bar(bar, policy)

    if args.command == "roundtrip":
        xm = ws.xmod(args.name)
        checks = [roundtrip_check(xm, _depth(args, ws))]
        if args.perturb:
            checks.append(perturb_and_filter(
                xm, depth=2 if args.depth is None else args.depth,
                seed=args.seed, budget=_at_least(args.budget, "--budget")))
        return group(f"roundtrip {args.name}", checks)

    if args.command == "ideal-check":
        return validate_crossed_ideal(ws.subxmod(args.name), policy)

    if args.command == "cim-check":
        cim = ws.cim(args.name)
        valid = validate_crossed_ideal_map(cim,
                                           check_balance=not args.no_balance)
        return group(f"cim-check {args.name}", [
            valid,
            _on_valid(valid, f"image-crossed-ideal {cim.name or 'cim'}",
                      lambda: image_crossed_ideal_check(cim, policy))])

    if args.command == "bibar-verify":
        mor = ws.morphism(args.name)
        drop = ()
        if args.corrupt_phi is not None:
            n, _, j = args.corrupt_phi.partition(":")
            try:
                drop = {(int(n), int(j))}
            except ValueError:
                raise IdealbarError("--corrupt-phi expects N:J with integers")
        bb = build_bibar(mor, args.rows, args.cols, drop)
        return verify_bibar(bb)

    raise IdealbarError(f"unknown command {args.command}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = run(args)
    except (IdealbarError, MemoryError) as exc:  # 1 means a failed axiom
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    try:
        if args.format == "json":
            print(report.to_json())
        else:
            print(report.render())
        sys.stdout.flush()
    except BrokenPipeError:
        # the consumer closed the pipe (head, grep -m); exit quietly with
        # the conventional 128+SIGPIPE instead of a shutdown traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return exit_code(report)


if __name__ == "__main__":
    sys.exit(main())
