"""Public names: every listed export exists."""

import importlib
import inspect
import pkgutil

import weaktame


def test_every_all_name_resolves_and_init_exports_match():
    names = [info.name for info in pkgutil.iter_modules(weaktame.__path__)]
    assert {"brownian", "schemes", "moments", "strong_error", "cli"} <= set(names)
    for name in names:
        module = importlib.import_module(f"weaktame.{name}")
        listed = module.__all__
        assert len(set(listed)) == len(listed), name
        missing = [attr for attr in listed if not hasattr(module, attr)]
        assert not missing, f"weaktame.{name}.__all__ lists {missing}"
    reexports = {
        attr
        for attr, obj in vars(weaktame).items()
        if not attr.startswith("_") and not inspect.ismodule(obj)
    }
    assert sorted(weaktame.__all__) == sorted(reexports)
