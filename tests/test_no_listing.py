"""No carrier is listed on the verify path.

Every verdict of a report command is decided on generators, spans and
image terms, and the unit is found by a pruned search, so no command
but enumerate and fuzz lists the elements of a module: each golden
command runs in process with FiniteModule.elements counted, and none is
called.  enumerate and fuzz list the census's and the fuzzer's values
by design.
"""

import contextlib
import io
from unittest import mock

import pytest

from idealbar import cli
from idealbar.core import FiniteModule
from test_golden import GOLDEN, _ident

VERIFY = [entry for entry in GOLDEN if "fuzz" not in entry[0]]


@pytest.mark.parametrize("args,code", [entry[:2] for entry in VERIFY],
                         ids=[_ident(entry) for entry in VERIFY])
def test_verify_commands_list_no_carrier(args, code):
    listed = []
    original = FiniteModule.elements

    def counted(self):
        listed.append(self)
        return original(self)

    with mock.patch.object(FiniteModule, "elements", counted), \
            contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(args)) == code
    assert listed == []
