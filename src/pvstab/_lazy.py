"""numpy, loaded on first use.

``numpy`` is the module already imported, if any; otherwise a module that
`importlib.util.LazyLoader` executes on its first attribute access, after
which it is plain numpy.  So `classify` and `sweep` without ``cross_check``,
which compute in ``math`` alone, never load numpy, while every pvstab module
is imported as before.  Python 3.11's `LazyLoader` takes no lock: a program
that first uses pvstab from several threads at once imports numpy first.
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
    return module


numpy = _lazy("numpy")
