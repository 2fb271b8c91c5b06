"""The package namespace: each library module's ``__all__``, declared once."""

import types

import banachdiff
from banachdiff import diffengine, gaussmeasure, oracles, projective, spaces, topology

LIBRARY = (spaces, oracles, diffengine, topology, gaussmeasure, projective)


def test_every_module_export_is_the_package_attribute_of_that_name():
    for module in LIBRARY:
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.__all__ names a missing {name!r}"
            assert getattr(banachdiff, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_the_package_exports_nothing_its_modules_do_not_declare():
    declared = {name for module in LIBRARY for name in module.__all__}
    for name in dir(banachdiff):
        if name.startswith("_") or name in declared:
            continue
        value = getattr(banachdiff, name)
        assert isinstance(value, types.ModuleType) and value.__name__ == f"banachdiff.{name}", name
    assert isinstance(banachdiff.__version__, str)
