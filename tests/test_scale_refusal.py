"""Oversized bar, bibar, census and fuzz requests are refused before
anything is built.

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


def test_huge_fuzz_count_is_refused_before_the_first_draw(monkeypatch):
    # a report of 10^10 rows used to grow until the cap ended it in a
    # MemoryError traceback
    res = run_capped(["fuzz", "--count", HUGE], timeout=10)
    assert res.returncode == 3, res.stderr
    assert res.stderr == ("error: fuzz count 10000000000 exceeds the row "
                          "bound of 200000\n")
    assert res.stdout == ""
    from idealbar import enumeration
    from idealbar.core import UnsupportedScaleError

    def drawn(*args):
        raise AssertionError("drawn before the bound was checked")
    monkeypatch.setattr(enumeration, "_fuzz_chains", drawn)
    with pytest.raises(UnsupportedScaleError):
        enumeration.fuzz_report(2, 2, enumeration.MAX_PAIR_ENUM + 1)
    with pytest.raises(AssertionError, match="drawn"):
        enumeration.fuzz_report(2, 2, enumeration.MAX_PAIR_ENUM)


def test_oversized_census_pair_is_refused_before_any_pair_is_classified():
    # (Z/4)^2 with itself has 4^4 module homs and 4^8 action tensors,
    # 16.8 M candidates: the census lists the algebras, bounds every pair
    # of carriers and exits before classifying the first pair
    res = run_capped(["enumerate", "--modulus", "4", "--max-rank", "2"],
                     timeout=30)
    assert res.returncode == 3, res.stderr
    assert res.stderr == ("error: crossed module candidates of a pair "
                          "exceed the enumeration bound of 1048576\n")
    assert res.stdout == ""


def test_census_pair_bound_is_arithmetic(monkeypatch):
    from idealbar import enumeration
    from idealbar.core import FiniteModule, UnsupportedScaleError
    # 3^4 homs times 3^8 tensors on (Z/3)^2 is 531,441 and is kept; the
    # same shape over Z/4 is refused.  Nothing is listed for the bound
    z3, z4 = FiniteModule(3, [3, 3]), FiniteModule(4, [4, 4])
    enumeration._check_pair_scale(z3, z3)
    enumeration._check_pair_scale(FiniteModule(4, [2, 4]),
                                  FiniteModule(4, [2, 4]))
    with pytest.raises(UnsupportedScaleError):
        enumeration._check_pair_scale(z4, z4)

    def listed(*args):
        raise AssertionError("listed before the bound was checked")
    z4_alg = enumeration.enumerate_algebras(4, 2)[-1]
    assert z4_alg.carrier == z4
    for name in ("enumerate_action_tensors", "enumerate_homs",
                 "validate_algebra"):
        monkeypatch.setattr(enumeration, name, listed)
    with pytest.raises(UnsupportedScaleError):
        enumeration.classify_xmods(z4_alg, z4_alg)


def test_census_at_modulus_3_and_rank_2_is_not_refused(monkeypatch):
    # every pair of carriers passes the bound, so each pair is handed on
    # to be classified; the classification itself is stubbed out here
    from idealbar import enumeration
    pairs = []
    monkeypatch.setattr(enumeration, "_classify",
                        lambda r, s, tensors, policy: (pairs.append(
                            (r, s)), ([], []))[1])
    rep = enumeration.enumeration_report(3, 2)
    algebras = sum(c.meta["count"] for c in rep.checks[:3])
    assert len(pairs) == algebras ** 2
