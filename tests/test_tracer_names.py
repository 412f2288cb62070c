"""Every function that perfbench/tracer.py times or counts still exists.

The tracer names its targets as "module:qualname" strings, so a renamed
or removed function would only show up when a traced benchmark runs.
Each name is resolved here with the tracer's own _resolve, without
installing the tracer.  The tracer source is compiled in memory, so
nothing is written under perfbench/.
"""

import types
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    module = types.ModuleType("tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


tracer = load_tracer()
TARGETS = sorted({t for targets in tracer.SPANS.values() for t in targets}
                 | set(tracer.COUNTERS.values()))


def test_the_tracer_names_targets():
    assert "idealbar.xmod:translation_action" in TARGETS
    assert "idealbar.core:ModuleHom.apply" in TARGETS


@pytest.mark.parametrize("target", TARGETS)
def test_traced_name_resolves(target):
    _, _, original = tracer._resolve(target)
    assert callable(original)
    assert original.__module__.startswith("idealbar.")
