import importlib
import pkgutil

import pytest

import primesum

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
