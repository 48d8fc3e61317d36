"""Every name that a u4class module lists in ``__all__`` exists, so an
export left behind by a deleted function fails here; and no module keeps
a cache at module level."""

import fnmatch
import importlib
import pkgutil

import pytest

import u4class

MODULES = sorted(info.name for info in
                 pkgutil.walk_packages(u4class.__path__, "u4class."))


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing


@pytest.mark.parametrize("name", MODULES)
def test_no_module_level_cache(name):
    """Memo state lives on the values it belongs to (an ``IntMatrix``, a
    resolution), not in a module-level cache whose hits depend on what ran
    before."""
    module = importlib.import_module(name)
    cached = [n for n, v in vars(module).items()
              if hasattr(v, "cache_info")
              or fnmatch.fnmatchcase(n, "_*CACHE*")]
    assert not cached
