"""Every public function of the library layers (every module but ``cli``
and ``calibration``) has a caller in the program (``src/``, ``scripts/``
or ``perfbench/``), so API that only the tests use does not grow back.
Classes, exceptions and constants are exempt."""

import ast
import inspect
from pathlib import Path

import pytest

from omegaphase import chaitin, clock, dyadic, phase, qpe, tm, zoo

ROOT = Path(__file__).resolve().parents[1]
PROGRAM_DIRS = ("src", "scripts", "perfbench")


def referenced_names():
    """Every identifier the program's code uses as a name or an attribute.
    A ``def`` line, an ``__all__`` string and a docstring are not uses."""
    names = set()
    for directory in PROGRAM_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


@pytest.mark.parametrize(
    "module", [clock, chaitin, tm, dyadic, qpe, phase, zoo], ids=lambda m: m.__name__
)
def test_public_functions_have_program_callers(module):
    functions = [n for n in module.__all__ if inspect.isfunction(getattr(module, n))]
    assert functions
    unused = sorted(set(functions) - referenced_names())
    assert not unused, f"{module.__name__} exports functions no program code calls: {unused}"
