"""Oversized bar, bibar and census requests are refused before anything
is built.

Each command runs in a subprocess whose address space is capped at
1 GiB.  A request over the enumeration bound must end with the one-line
refusal and exit code 3, not with an allocation that grows until the cap
(or the machine) stops it.
"""

import json
import resource
import subprocess
import sys
from pathlib import Path

import pytest

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
ADDRESS_SPACE = 1 << 30


HUGE = "10000000000"
PRIME = "1000000007"


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run_capped(args, timeout):
    return subprocess.run([sys.executable, "-m", "idealbar", *args],
                          capture_output=True, text=True, timeout=timeout,
                          preexec_fn=_cap_address_space)


def zero_algebra_workspace(path, modulus, rank):
    """The zero algebra on (Z/m)^rank with the identity as eta."""
    zero = [[[0] * rank for _ in range(rank)] for _ in range(rank)]
    ident = [[int(i == j) for j in range(rank)] for i in range(rank)]
    path.write_text(json.dumps({
        "modulus": modulus,
        "algebras": {"Z": {"orders": [modulus] * rank, "mul": zero}},
        "homs": {"id": {"dom": "Z", "cod": "Z", "images": ident}},
        "actions": {"zero": {"actor": "Z", "acted": "Z", "tensor": zero}},
        "xmods": {"main": {"eta": "id", "action": "zero"}},
    }))
    return str(path)


@pytest.mark.parametrize("args", [
    # level 1 is Z x Z with 4096 * 4096 elements
    lambda tmp: ("-w", zero_algebra_workspace(tmp / "rank6.json", 4, 6),
                 "bar-verify", "main", "--depth", "1"),
    # row 6 acts B1_6 (128 elements) on B2_6 (32768 elements)
    lambda tmp: ("-w", str(FIXTURES / "nilcube.json"), "bibar-verify",
                 "incl", "--rows", "6", "--cols", "1"),
    # a depth or row count whose power R^n alone would fill the cap
    lambda tmp: ("-w", str(FIXTURES / "nilcube.json"), "bar-build", "main",
                 "--depth", HUGE),
    lambda tmp: ("-w", str(FIXTURES / "nilcube.json"), "bibar-verify",
                 "incl", "--rows", HUGE),
    lambda tmp: ("-w", str(FIXTURES / "nilcube.json"), "bibar-verify",
                 "incl", "--cols", HUGE),
    lambda tmp: ("-w", str(FIXTURES / "nilcube.json"), "roundtrip", "main",
                 "--perturb", "--depth", HUGE),
    # the corrupted comparison maps are refused before any row is built
    lambda tmp: ("-w", str(FIXTURES / "nilcube.json"), "bibar-verify",
                 "incl", "--rows", "100000", "--corrupt-phi", "1:0"),
], ids=["bar-verify-rank6-z4", "bibar-verify-nilcube-rows6",
        "bar-build-huge-depth", "bibar-verify-huge-rows",
        "bibar-verify-huge-cols", "roundtrip-perturb-huge-depth",
        "bibar-verify-corrupt-phi-rows100000"])
def test_oversized_request_exits_3_under_a_memory_cap(tmp_path, args):
    res = run_capped(args(tmp_path), timeout=30)
    assert res.returncode == 3, res.stderr
    assert "exceed the enumeration bound" in res.stderr
    assert res.stdout == ""


def test_huge_census_modulus_is_refused_before_its_divisors():
    # rank 0 needs no divisor; at rank 1 the order tuple (m,) alone has
    # m > MAX_PAIR_ENUM tensors, so the modulus is refused up front
    res = run_capped(["enumerate", "--modulus", PRIME, "--max-rank", "0"],
                     timeout=10)
    assert res.returncode == 0, res.stderr
    assert "total=1 valid=1" in res.stdout
    for args in (["enumerate", "--modulus", PRIME, "--max-rank", "1"],
                 ["fuzz", "--modulus", PRIME, "--max-rank", "1",
                  "--count", "1"]):
        res = run_capped(args, timeout=10)
        assert res.returncode == 3, res.stderr
        assert res.stderr == \
            "error: tensor space too large to enumerate at this rank\n"
        assert res.stdout == ""
