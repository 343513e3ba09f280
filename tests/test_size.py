"""tools/size.py counts code lines and tokens by its one stated rule."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

SIZE = Path(__file__).resolve().parent.parent / "tools" / "size.py"


def size_module():
    spec = importlib.util.spec_from_file_location("tools_size", SIZE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FIXTURE = '''"""Module docstring: not counted."""

import math  # a comment: not counted


def f(x):
    """Function docstring: not counted."""
    # a comment line: not counted
    y = "a string that is code"
    z = f"{x} and {y!r}"
    total = (
        x
        + 1
    )
    """A string statement after the first: counted."""
    return math.sqrt(total) + len(y + z)


class C:
    """Class docstring: not counted."""

    s = """two
lines"""
'''

# per code line: tokens
FIXTURE_LINES = {
    "import math": 2,
    "def f(x):": 6,
    'y = "a string that is code"': 3,
    'z = f"{x} and {y!r}"': 3,  # an f-string is one token
    "total = (": 3,
    "x": 1,
    "+ 1": 2,
    ")": 1,
    '"""A string statement after the first: counted."""': 1,
    "return math.sqrt(total) + len(y + z)": 14,
    "class C:": 3,
    's = """two': 3,  # lines""" starts no token
}


def test_fixture_counts():
    assert size_module().count(FIXTURE) == {
        "lines": len(FIXTURE_LINES),
        "tokens": sum(FIXTURE_LINES.values()),
    }


def test_package_totals_are_module_sums(tmp_path):
    (tmp_path / "one.py").write_text(FIXTURE)
    (tmp_path / "two.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("not a module\n")
    out = subprocess.run(
        [sys.executable, str(SIZE), str(tmp_path)], capture_output=True, text=True, check=True
    )
    report = json.loads(out.stdout)
    assert report["modules"] == {
        "one": {"lines": 12, "tokens": 42},
        "two": {"lines": 1, "tokens": 3},
    }
    assert (report["lines"], report["tokens"]) == (13, 45)
