"""Oversized bar and bibar requests are refused before anything is built.

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


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


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
], ids=["bar-verify-rank6-z4", "bibar-verify-nilcube-rows6"])
def test_oversized_request_exits_3_under_a_memory_cap(tmp_path, args):
    res = subprocess.run([sys.executable, "-m", "idealbar", *args(tmp_path)],
                         capture_output=True, text=True, timeout=30,
                         preexec_fn=_cap_address_space)
    assert res.returncode == 3, res.stderr
    assert "exceed the enumeration bound" in res.stderr
    assert res.stdout == ""
