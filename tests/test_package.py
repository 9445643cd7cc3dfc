"""The package's public surface: ``__all__`` lists every exported name once."""

from types import ModuleType

import prestigesim


def test_all_names_resolve_and_star_import_binds_exactly_them():
    names = prestigesim.__all__
    assert len(names) == len(set(names)) == 67
    assert all(not isinstance(getattr(prestigesim, name), ModuleType) for name in names)
    namespace: dict = {}
    exec("from prestigesim import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(names)
    assert all(namespace[name] is getattr(prestigesim, name) for name in names)
