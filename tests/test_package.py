import importlib
import pkgutil

import pytest

import cavity_loader

MODULES = ["cavity_loader"] + [
    f"cavity_loader.{info.name}" for info in pkgutil.iter_modules(cavity_loader.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a name deleted from a module must leave its __all__ and the package's
    module = importlib.import_module(name)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert not missing, missing
