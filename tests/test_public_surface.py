"""The public surface holds what the pipelines call.

Every name in `nscoding.__all__` and in each module's `__all__` must be
read somewhere in `src/`, `demos/` or `perfbench/`.  A name's definition,
its `__all__` entry and its re-export in `__init__.py` do not read it;
a definition only the tests use belongs in the tests, as an oracle.
"""

import ast
import functools
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "nscoding").glob("*.py"))


def reads(source):
    """The names one source reads: loads of bare names, and attributes.
    Definitions, import lines and the strings of `__all__` read nothing."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def exported(source):
    """The names of a module's `__all__`."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@functools.cache
def pipeline_reads():
    return set().union(*(reads(path.read_text(encoding="utf-8"))
                         for folder in ("src", "demos", "perfbench") for path in (ROOT / folder).rglob("*.py")))


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_exported_name_is_read_outside_the_tests(path):
    unread = sorted(exported(path.read_text(encoding="utf-8")) - pipeline_reads())
    assert unread == [], f"{path.name} exports names that only the tests read: {unread}"


def test_a_name_only_defined_exported_and_imported_is_unread():
    source = "from .m import lonely\n__all__ = ['lonely', 'used']\ndef used(): pass\nm.used()\n"
    assert exported(source) - reads(source) == {"lonely"}
