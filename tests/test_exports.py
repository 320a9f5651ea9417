"""Every name a ``repro`` module lists in ``__all__`` must resolve.

A class or module deleted from the package but still listed in some
``__all__`` breaks ``from repro.x import *`` and any caller reading the
export list; this walks the whole package so such a stale name fails here.
"""

from __future__ import annotations

import importlib
import pkgutil

import repro


def _modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(info.name)


def test_every_exported_name_resolves():
    stale = [
        f"{module.__name__}.{name}"
        for module in _modules()
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert stale == []
