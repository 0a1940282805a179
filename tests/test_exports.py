"""Every name a ``repro`` module exports in ``__all__`` resolves.

A stale ``__all__`` entry only fails when someone star-imports the
package or looks the name up, so walk every module once here.
"""

import importlib
import pkgutil

import repro


def _modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        # Running a ``__main__`` module would start its entry point.
        if info.name.rsplit(".", 1)[-1] != "__main__":
            yield importlib.import_module(info.name)


def test_every_all_entry_resolves():
    missing = [
        f"{module.__name__}.{name}"
        for module in _modules()
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []


def test_star_import_of_repro_succeeds():
    namespace = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
