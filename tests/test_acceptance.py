"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line with the
criterion label, bypassing capture so the line is visible in any run.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from idealbar.bar import build_bar_algebra, verify_bar
from idealbar.bibar import build_bibar, verify_bibar
from idealbar.crossed_ideal import (
    image_crossed_ideal_check,
    validate_crossed_ideal,
    validate_crossed_ideal_map,
)
from idealbar.enumeration import all_valid_xmods, enumerate_xmods, fuzz_report
from idealbar.fixtures import (
    broken_action_xmod,
    nilcube_cim,
    nilcube_inclusion_xmod,
    nilcube_morphism,
    nilcube_sub,
    nilsquare_algebra,
    nilsquare_ideal_algebra,
    nilsquare_xmod,
)
from idealbar.roundtrip import roundtrip_check, verify_extracted
from idealbar.xmod import (
    cm1_report,
    cm2_report,
    validate_algebra_action,
    validate_crossed_module,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def announce(capsys):
    def _announce(ok: bool, label: str):
        with capsys.disabled():
            print(f"{'PASS' if ok else 'FAIL'} {label}")
        assert ok, label
    return _announce


def test_criterion_1_fixture_verifies_fast(announce):
    """Nilsquare crossed module checks exhaustively and its depth-4 bar
    passes every verifier in under a second."""
    start = time.perf_counter()
    xm = nilsquare_xmod()
    xm_rep = validate_crossed_module(xm)
    cm1, cm2 = xm_rep.find("cm1"), xm_rep.find("cm2")
    bar_rep = verify_bar(build_bar_algebra(xm, depth=4))
    elapsed = time.perf_counter() - start
    ok = (xm_rep.passed and bar_rep.passed and elapsed < 1.0
          and cm1.meta["mode"] == "exhaustive" and cm1.meta["checked"] <= 32
          and cm2.meta["mode"] == "exhaustive" and cm2.meta["checked"] <= 32)
    announce(ok, "criterion 1: fixture crossed module and depth-4 bar "
                 f"verify exhaustively in {elapsed:.2f}s (< 1s)")


def test_criterion_2_roundtrip_exact_over_enumeration(announce):
    """Build then extract is tensor-identical, and extract then rebuild is
    level-product-identical, for every valid crossed module at moduli 2
    and 3 up to rank 1 and for both shipped fixtures.  Exact equality,
    no tolerance."""
    population = all_valid_xmods(2, 1) + all_valid_xmods(3, 1)
    population += [nilsquare_xmod(), nilcube_inclusion_xmod()]
    failures = [xm.name for xm in population
                if not roundtrip_check(xm, depth=4).passed]
    announce(not failures,
             f"criterion 2: round trip exact on {len(population)} crossed "
             f"modules at depth 4 (failures: {failures or 'none'})")


def test_criterion_3_negative_controls_are_localized(announce):
    """The broken action fails exactly where predicted: CM2 at (g, g) and
    the first face on the level-2 tail; a CM1-only violator from the
    enumeration fails the level-1 first face instead."""
    bad = broken_action_xmod()
    cm2 = cm2_report(bad)
    bad_bar = verify_extracted(build_bar_algebra(bad, depth=2))
    tail = bad_bar.find("d0-on-tail-multiplicative @ 2")

    cm1_only = [xm for xm in enumerate_xmods(nilsquare_ideal_algebra(),
                                             nilsquare_algebra())
                if validate_algebra_action(xm.action).passed
                and not cm1_report(xm).passed and cm2_report(xm).passed]
    localized = []
    for xm in cm1_only:
        rep = verify_extracted(build_bar_algebra(xm, depth=2))
        localized.append(rep.find("d0-multiplicative @ 1").status == "FAIL"
                         and rep.find("d0-on-tail-multiplicative @ 2").status
                         == "PASS")

    ok = (cm2.status == "FAIL" and cm2.witness == ((1,), (1,))
          and tail.status == "FAIL"
          and bool(cm1_only) and all(localized))
    announce(ok, "criterion 3: negative controls fail at the predicted "
                 f"checks (cm2 witness {cm2.witness}, "
                 f"{len(cm1_only)} cm1-only instances)")


def test_criterion_4_consequences_hold_on_every_valid_instance(announce):
    """Image ideal, kernel annihilation and quotient action checks pass
    on every enumerated valid crossed module."""
    from idealbar.xmod import consequence_checks
    population = all_valid_xmods(2, 1) + all_valid_xmods(3, 1)
    failures = [xm.name for xm in population
                if not consequence_checks(xm).passed]
    announce(not failures,
             f"criterion 4: consequence checks pass on all "
             f"{len(population)} valid crossed modules "
             f"(failures: {failures or 'none'})")


def test_criterion_5_crossed_ideal_suite(announce):
    """The worked sub crossed module passes CI1-CI4, its inclusion map
    passes the h-conditions, and the image construction holds on it and
    on 100 fuzzed validated maps, all within ten seconds."""
    start = time.perf_counter()
    ci = validate_crossed_ideal(nilcube_sub())
    cim_rep = validate_crossed_ideal_map(nilcube_cim())
    img = image_crossed_ideal_check(nilcube_cim())
    fuzz = fuzz_report(2, 2, 100, seed=0)
    elapsed = time.perf_counter() - start
    count = fuzz.find("fuzz-summary").meta["count"]
    ok = (ci.passed and cim_rep.passed and img.passed and fuzz.passed
          and count >= 100 and elapsed < 10.0)
    announce(ok, f"criterion 5: crossed ideal suite with {count} fuzzed "
                 f"instances in {elapsed:.2f}s (< 10s)")


def test_criterion_6_bisimplicial_suite(announce):
    """The bisimplicial object at (2,2) passes every identity and
    commutation check, the low-bidegree operator tables are bit-exact,
    and dropping one letter from the comparison map breaks commutation
    at bidegree (1,1)."""
    mor = nilcube_morphism()
    bb = build_bibar(mor, n_depth=2, m_depth=2)
    rep = verify_bibar(bb)

    tables_ok = (
        tuple(bb.h_face(1, 1, 0).images) == (
            (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0),
            (0, 0, 0, 1, 0), (0, 0, 0, 0, 1), (0, 0, 1, 0, 0),
            (0, 0, 0, 0, 1))
        and tuple(bb.h_face(1, 1, 1).images) == (
            (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0),
            (0, 0, 0, 1, 0), (0, 0, 0, 0, 1), (0, 0, 0, 0, 0),
            (0, 0, 0, 0, 0))
        and tuple(bb.v_face(1, 1, 0).images) == (
            (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0),
            (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 0, 1))
        and tuple(bb.v_face(1, 1, 1).images) == (
            (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 0),
            (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0))
        and tuple(bb.h_degen(1, 0, 0).images) == (
            (1, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0),
            (0, 0, 1, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0, 0),
            (0, 0, 0, 0, 1, 0, 0))
        and tuple(bb.v_degen(0, 1, 0).images) == (
            (1, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0),
            (0, 0, 1, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1, 0)))

    corrupted = build_bibar(mor, n_depth=2, m_depth=2, drop={(1, 0)})
    bad_rep = verify_bibar(corrupted)
    broken_at = bad_rep.find("dv0 dh0 = dh0 dv0 @ (1,1)")

    ok = (rep.passed and tables_ok and not bad_rep.passed
          and broken_at.status == "FAIL"
          and bad_rep.find("horizontal-identities").passed
          and bad_rep.find("vertical-identities").passed)
    announce(ok, "criterion 6: bisimplicial suite at (2,2) with bit-exact "
                 "operator tables; corrupted comparison map fails "
                 "commutation at (1,1)")


def test_criterion_7_reports_are_byte_deterministic(announce):
    """Two subprocess runs of every report-producing command with one
    seed emit byte-identical JSON."""
    commands = [
        ("-w", str(FIXTURES / "nilsquare.json"), "--format", "json",
         "--seed", "11", "bar-verify", "main", "--depth", "3"),
        ("-w", str(FIXTURES / "nilsquare.json"), "--format", "json",
         "--seed", "11", "--policy", "sample", "--samples", "128",
         "check-xmod", "main", "--consequences"),
        ("-w", str(FIXTURES / "nilcube.json"), "--format", "json",
         "--seed", "11", "cim-check", "incl_cim"),
        ("-w", str(FIXTURES / "nilcube.json"), "--format", "json",
         "--seed", "11", "bibar-verify", "incl"),
        ("--format", "json", "--seed", "11", "fuzz", "--count", "25"),
        ("-w", str(FIXTURES / "nilsquare.json"), "--format", "json",
         "--seed", "11", "roundtrip", "main", "--depth", "2", "--perturb",
         "--budget", "80"),
    ]
    identical = True
    for cmd in commands:
        first = subprocess.run([sys.executable, "-m", "idealbar", *cmd],
                               capture_output=True, text=True)
        second = subprocess.run([sys.executable, "-m", "idealbar", *cmd],
                                capture_output=True, text=True)
        if first.stdout != second.stdout or first.stdout == "":
            identical = False
            break
        json.loads(first.stdout)
    announce(identical, f"criterion 7: {len(commands)} report commands "
                        "are byte-identical across two seeded runs")
