import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import primesum

ROOT = Path(__file__).resolve().parents[1]
SUBMODULES = [
    info.name for info in pkgutil.iter_modules(primesum.__path__) if not info.ispkg
]


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_are_reexported(name):
    module = importlib.import_module(f"primesum.{name}")
    exported = getattr(module, "__all__", ())
    assert sorted(set(exported) - set(primesum.__all__)) == []
    for attr in exported:
        assert getattr(primesum, attr) is getattr(module, attr), attr


def test_every_export_resolves():
    assert len(set(primesum.__all__)) == len(primesum.__all__)
    for name in primesum.__all__:
        assert hasattr(primesum, name), name


def loaded_names(paths) -> set[str]:
    """Every name that the modules read, as a bare name or as an attribute."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(getattr(node, "ctx", None), ast.Load):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def test_every_public_function_has_a_caller_outside_the_tests():
    used = loaded_names(
        [*(ROOT / "src").rglob("*.py"), *(ROOT / "scripts").glob("*.py")]
    )
    modules = [primesum] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(primesum.__path__, "primesum.")
    ]
    public = {
        name
        for module in modules
        for name in getattr(module, "__all__", ())
        # public classes as well, so that a result type nothing builds fails too
        if inspect.isfunction(obj := getattr(module, name)) or inspect.isclass(obj)
    }
    uncalled = sorted(public - used)
    assert not uncalled, f"no caller in src/ or scripts/: {uncalled}"
