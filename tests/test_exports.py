"""Every name a module exports through ``__all__`` exists in it."""

import importlib
import pkgutil

import lti2mpc


def test_every_all_entry_resolves():
    names = [m.name for m in pkgutil.iter_modules(lti2mpc.__path__)]
    assert "sim" in names
    for name in names:
        module = importlib.import_module(f"lti2mpc.{name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, (name, missing)
