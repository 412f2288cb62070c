"""Where the benchmark finds the program it measures.

The benchmark always runs from the root of a checkout and imports
idealbar from that checkout's src/, never from an installed copy, so
two checkouts measured side by side each measure their own code.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"


class MissingSource(RuntimeError):
    """The checkout lacks the package or fixtures the benchmark runs."""


def import_idealbar():
    package = SRC / "idealbar"
    if not (package / "__init__.py").is_file():
        raise MissingSource(f"no idealbar package under {SRC}")
    if not (FIXTURES / "nilcube.json").is_file():
        raise MissingSource(f"no nilcube.json under {FIXTURES}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import idealbar
    if Path(idealbar.__file__).resolve().parent != package:
        raise MissingSource(f"idealbar was imported from {idealbar.__file__}, "
                            f"not from {package}")
    return idealbar
