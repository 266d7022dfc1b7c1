"""Modules loaded on first use: numpy, and pvstab's own numerical layers.

`_lazy` returns the module already imported, if any; otherwise a module that
`importlib.util.LazyLoader` executes on its first attribute access, after
which it is a plain module.  The module is in ``sys.modules`` from the start
and, for a submodule, bound on its package, so ``import pvstab.dispersion``
and ``from . import dispersion`` find it without loading it.  So `classify`
and `sweep` without ``cross_check``, which compute in ``math`` alone, load
neither numpy nor the ``dispersion``, ``modes`` and ``oracle`` that
`pvstab/__init__` registers here.  Python 3.11's `LazyLoader` takes no
lock: a program that first uses pvstab from several threads at once
imports numpy and the pvstab modules it uses first.
"""

import importlib.util
import sys


def _lazy(name: str):
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    package, _, child = name.rpartition(".")
    if package:
        setattr(sys.modules[package], child, module)
    return module


numpy = _lazy("numpy")
