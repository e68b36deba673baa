"""Every public function of the library layers (every module but ``cli``
and ``calibration``), and every public method and property of their
exported classes, has a caller in the program (``src/``, ``scripts/`` or
``perfbench/``), so API that only the tests use does not grow back.
Exceptions, constants, dataclass fields and dunder methods are exempt."""

import ast
import inspect
from pathlib import Path

import pytest

from omegaphase import chaitin, clock, dyadic, phase, qpe, tm, zoo

ROOT = Path(__file__).resolve().parents[1]
PROGRAM_DIRS = ("src", "scripts", "perfbench")
MODULES = [clock, chaitin, tm, dyadic, qpe, phase, zoo]


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


def public_members(cls):
    """The methods and properties a class defines itself, not those
    starting with an underscore."""
    return [
        name
        for name, member in vars(cls).items()
        if not name.startswith("_")
        and (inspect.isfunction(member) or isinstance(member, (property, staticmethod, classmethod)))
    ]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_public_functions_have_program_callers(module):
    functions = [n for n in module.__all__ if inspect.isfunction(getattr(module, n))]
    assert functions
    unused = sorted(set(functions) - referenced_names())
    assert not unused, f"{module.__name__} exports functions no program code calls: {unused}"


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_public_methods_have_program_callers(module):
    classes = [
        getattr(module, n) for n in module.__all__
        if inspect.isclass(getattr(module, n)) and not issubclass(getattr(module, n), BaseException)
    ]
    members = {f"{cls.__name__}.{name}": name for cls in classes for name in public_members(cls)}
    names = referenced_names()
    unused = sorted(qualified for qualified, name in members.items() if name not in names)
    assert not unused, f"{module.__name__} classes have methods no program code calls: {unused}"
