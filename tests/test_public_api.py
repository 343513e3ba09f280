"""The public list is declared once, in the module that defines each name,
and the README's library example runs as printed."""

import contextlib
import inspect
import io
import re
from pathlib import Path

import kineticlines
from kineticlines import (
    constructions,
    events,
    exact_numbers,
    kinematics,
    render,
    sceneio,
    surfaces,
)

MODULES = (exact_numbers, kinematics, surfaces, events, constructions, sceneio, render)
README = Path(__file__).resolve().parent.parent / "README.md"


def test_module_lists_make_the_package_list():
    seen = {}
    for module in MODULES:
        for name in module.__all__:
            assert name not in seen, f"{name} is in {seen.get(name)} and {module.__name__}"
            seen[name] = module.__name__
            obj = getattr(kineticlines, name)
            assert obj is getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                # defined here, not imported from a sibling and listed again
                assert obj.__module__ == module.__name__, name
    concatenated = [name for module in MODULES for name in module.__all__]
    assert kineticlines.__all__ == concatenated + ["__version__"]


def test_readme_quick_start_prints_its_comments():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    code_lines = block.rstrip("\n").split("\n")
    expected = []
    while code_lines and code_lines[-1].startswith("# "):
        expected.insert(0, code_lines.pop()[2:])
    assert expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile("\n".join(code_lines), str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
