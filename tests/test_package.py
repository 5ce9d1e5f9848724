import importlib
import pkgutil

import rma_tse


def test_every_all_name_resolves():
    # The benchmark's span tracer wraps each ``__all__`` name, so a stale one breaks it.
    checked = 0
    for info in pkgutil.iter_modules(rma_tse.__path__):
        module = importlib.import_module(f"rma_tse.{info.name}")
        assert hasattr(module, "__all__"), info.name
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], f"rma_tse.{info.name}.__all__ names missing: {missing}"
        checked += 1
    assert checked >= 6
