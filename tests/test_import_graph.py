"""What importing the CLI costs, and the value classes that keep it small.

Every ``vknot`` command starts a fresh interpreter, so the modules that
``import vknot.cli`` pulls in are paid on every call.  The value classes
are ``collections.namedtuple`` subclasses with empty ``__slots__``
(``FReport``, ``KnotRecord``, ``MatchVerdict``, ``MoveScript``) and
``__slots__`` classes (``Diagram``, ``LaurentPoly2``) rather than
dataclasses or ``typing.NamedTuple``s, so neither ``dataclasses`` nor
``typing`` is imported.  ``json`` is imported only where JSON is written
or read, ``pathlib`` only when the table is located, and ``vknot.moves``
only by ``verify-moves``.  The cases below pin both the import graph and
the value semantics callers rely on: equality by value, and no attribute
set or deleted after construction.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import vknot
from vknot.gauss import parse_gauss
from vknot.invariants import f_sequence
from vknot.laurent import parse_poly
from vknot.moves import MoveScript
from vknot.table import KnotRecord, verify_record

_ADDED_MODULES = """\
import sys
started = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import vknot.cli, vknot.table
print(" ".join(sorted(set(sys.modules) - started)))
"""


def test_cli_import_leaves_out_heavy_stdlib_modules():
    # Run with -E -S, so that no site hook or .pth file preloads a module
    # and hides it; compared with the bare interpreter's start-up modules.
    src = str(Path(vknot.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-E", "-S", "-c", _ADDED_MODULES, src],
        capture_output=True, text=True, timeout=60, check=True,
    )
    added = set(proc.stdout.split())
    assert "vknot.cli" in added
    forbidden = {"dataclasses", "inspect", "ast", "json", "typing", "pathlib", "vknot.moves"}
    assert not added & forbidden, sorted(added & forbidden)


RECORD_CODE = "O1- U2+ U3- O2+ U1- O3-"


def _record():
    return KnotRecord("3.1", parse_gauss(RECORD_CODE), ((1, parse_poly("t-1")),))


# kind -> (a field, a factory); two calls of a factory give equal, distinct values.
VALUES = {
    "FReport": ("n_max", lambda: f_sequence(parse_gauss(RECORD_CODE))),
    "KnotRecord": ("diagram", _record),
    "MatchVerdict": ("status", lambda: verify_record(_record())),
    "MoveScript": ("steps", lambda: MoveScript(({"move": "R1-", "site": 0},))),
    "Diagram": ("_sign", lambda: parse_gauss(RECORD_CODE)),
    "LaurentPoly2": ("_terms", lambda: parse_poly("t-1")),
}


@pytest.mark.parametrize("kind", VALUES)
def test_values_compare_by_value(kind):
    _, make = VALUES[kind]
    a, b = make(), make()
    assert a is not b
    assert a == b and a != object()
    assert repr(a) == repr(b) and repr(a).startswith(f"{kind}(")


@pytest.mark.parametrize("kind", VALUES)
def test_values_reject_attribute_assignment(kind):
    field, make = VALUES[kind]
    value = make()
    for name in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert value == make()


def test_knot_records_differ_by_expected_rows():
    other = KnotRecord("3.1", parse_gauss(RECORD_CODE), ())
    assert other != _record()
    assert hash(other) == hash(KnotRecord("3.1", parse_gauss(RECORD_CODE), ()))
