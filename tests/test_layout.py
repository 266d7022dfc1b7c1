"""Module layering: the independent cross-checks stay in ``oracle``, only
``dispersion`` builds a counting region or sizes a scan batch, only
``agreement`` bands a margin, numpy, ``dispersion``, ``modes`` and
``oracle`` are imported on first use only, and every name the benchmark's
tracer binds exists."""

import ast
from pathlib import Path

import pytest

import pvstab

SRC = Path(pvstab.__file__).parent

# the layers the package loads on first use (`pvstab._lazy`)
LAZY_LAYERS = {"dispersion", "modes", "oracle"}

# cross-checks that ``oracle`` holds and the product path must not
ORACLE_ONLY = {
    "BranchKind", "SeriesRoot", "transitional_tolerance", "_series_mul",
    "_series_shift", "_sqrt1p_series", "_lopatinski_series",
    "_generic_coefficients", "series_root_generic", "series_root_transitional",
    "lopatinski_raw", "local_winding",
}


def _tree(name):
    return ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))


def _imports_oracle(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.split(".")[-1] == "oracle" for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            if module[-1] == "oracle" or (
                    module in ([""], ["pvstab"])
                    and any(a.name == "oracle" for a in node.names)):
                return True
    return False


def _load_time_imports(tree):
    # the import statements that run when the module is imported: anywhere
    # but inside a function
    nodes = list(tree.body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        nodes.extend(ast.iter_child_nodes(node))


def _imports_numpy_on_load(tree):
    for node in _load_time_imports(tree):
        if isinstance(node, ast.Import):
            if any(a.name.split(".")[0] == "numpy" for a in node.names):
                return True
        elif node.level == 0 and (node.module or "").split(".")[0] == "numpy":
            return True
    return False


def _binds_lazy_names(tree):
    # an import run at load time that binds a name of a layer loaded on
    # first use, and so loads it: ``from .dispersion import x``, ``import
    # pvstab.modes`` or ``from . import scan_directions``; only ``from .
    # import dispersion`` binds the module without loading it
    for node in _load_time_imports(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                package, *inner = alias.name.split(".")
                if package == "pvstab" and set(inner) & LAZY_LAYERS:
                    return True
        elif node.level or node.module.split(".")[0] == "pvstab":
            module = (node.module or "").split(".")
            if module[-1] in LAZY_LAYERS:
                return True
            if module in ([""], ["pvstab"]) and any(
                    a.name in pvstab._LAZY_NAMES for a in node.names):
                return True
    return False


def _defined(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def _builds_region(tree, name="HalfDiskRegion"):
    # whether the module calls ``name``, bare or as an attribute
    return any(isinstance(node, ast.Call) and (
        getattr(node.func, "id", None) == name
        or getattr(node.func, "attr", None) == name) for node in ast.walk(tree))


def test_only_init_and_oracle_import_oracle():
    modules = sorted(p.stem for p in SRC.glob("*.py"))
    assert {"dispersion", "oracle", "cli"} <= set(modules)
    importers = {m for m in modules if _imports_oracle(_tree(m))}
    assert importers <= {"__init__", "oracle"}


def test_detects_oracle_imports():
    for source in ("from .oracle import eigen_fmin", "from . import oracle",
                   "import pvstab.oracle", "from pvstab import oracle",
                   "def f():\n    from pvstab.oracle import grid_fmin"):
        assert _imports_oracle(ast.parse(source)), source
    assert not _imports_oracle(ast.parse("from . import dispersion"))


def test_numpy_is_imported_through_the_helper_only():
    # an eager import would load numpy in every process, ``classify`` and
    # ``sweep`` included, which never use it (``pvstab._lazy``)
    modules = {p.stem for p in SRC.glob("*.py")} - {"_lazy"}
    assert {"state", "dispersion", "cli"} <= modules
    assert not {m for m in modules if _imports_numpy_on_load(_tree(m))}


def test_detects_numpy_imports():
    for source in ("import numpy as np", "import numpy.linalg", "from numpy import pi",
                   "from numpy.linalg import eigvals", "import math, numpy",
                   "try:\n    import numpy\nexcept ImportError:\n    pass",
                   "class A:\n    import numpy"):
        assert _imports_numpy_on_load(ast.parse(source)), source
    for source in ("from ._lazy import numpy as np", "import numbers",
                   "def f():\n    import numpy", "from .numpy import x"):
        assert not _imports_numpy_on_load(ast.parse(source)), source


def test_eager_modules_bind_no_lazy_names():
    # a name bound from dispersion, modes or oracle when cli, agreement,
    # criterion, state or errors is imported would load that layer in every
    # process, ``classify`` and ``sweep`` included, which never run it
    for name in ("cli", "agreement", "criterion", "state", "errors"):
        assert not _binds_lazy_names(_tree(name)), name


def test_detects_lazy_name_bindings():
    for source in ("from .dispersion import scan_states", "from .modes import mode_records",
                   "from pvstab.oracle import eigen_fmin", "import pvstab.dispersion",
                   "import pvstab.modes as m", "from . import scan_directions",
                   "from pvstab import build_mode", "from .dispersion import *",
                   "try:\n    from .dispersion import default_delta\nexcept ImportError:\n"
                   "    pass", "class A:\n    from .modes import mode_records"):
        assert _binds_lazy_names(ast.parse(source)), source
    for source in ("from . import criterion, dispersion, modes", "from pvstab import oracle",
                   "def f():\n    from .dispersion import scan_states",
                   "from .state import N_DIRS", "from .criterion import classify",
                   "import dispersion", "from modes import x", "import pvstab"):
        assert not _binds_lazy_names(ast.parse(source)), source


def test_lazy_public_names_resolve_to_their_modules():
    # each name of the package's table is its defining module's own object,
    # and listed by dir(); a name outside it is an AttributeError
    import importlib

    table = pvstab._LAZY_NAMES
    assert {"scan_directions", "build_mode", "eigen_fmin"} <= set(table)
    assert set(table.values()) == LAZY_LAYERS
    listed = dir(pvstab)
    for name, layer in table.items():
        assert name in _defined(_tree(layer)), name
        assert getattr(pvstab, name) is getattr(importlib.import_module(
            f"pvstab.{layer}"), name), name
        assert name in listed, name
    assert {"classify", "EquilibriumState", "dispersion"} <= set(listed)
    with pytest.raises(AttributeError, match="no_such_name"):
        pvstab.no_such_name


def test_cross_checks_live_in_oracle_only():
    assert not _defined(_tree("dispersion")) & ORACLE_ONLY
    assert ORACLE_ONLY <= _defined(_tree("oracle"))


@pytest.mark.parametrize("name", ["HalfDiskRegion", "default_region"])
def test_only_dispersion_builds_regions(name):
    # a region built by hand keeps a radius proven at another delta, and one
    # built by default_region outside dispersion is a second place a region
    # comes from: every other module passes dispersion a delta
    builders = {p.stem for p in SRC.glob("*.py") if _builds_region(_tree(p.stem), name)}
    assert builders == {"dispersion"}


def test_only_agreement_bands_a_margin():
    # which points the three answers can be compared at is decided in one
    # place: ``agreement.expected`` bands a point for every command
    callers = {p.stem for p in SRC.glob("*.py") if _builds_region(_tree(p.stem), "margin_band")}
    assert callers == {"agreement"}
    functions = [node for node in _tree("agreement").body if isinstance(node, ast.FunctionDef)]
    assert {f.name for f in functions if _builds_region(f, "margin_band")} == {"expected"}


def _reads_batch_size(tree):
    # whether the module names the batch cap or a batch size of a scan, bare,
    # as an attribute or imported
    names = {"_MAX_BATCH", "states_per_batch"}
    return any(getattr(node, "id", None) in names or getattr(node, "attr", None) in names
               or isinstance(node, ast.alias) and node.name in names
               for node in ast.walk(tree))


def test_only_dispersion_reads_batch_sizes():
    # how many states a scan counts together is decided where they are
    # counted: every other module hands dispersion its states as they come
    readers = {p.stem for p in SRC.glob("*.py") if _reads_batch_size(_tree(p.stem))}
    assert readers == {"dispersion"}


def test_detects_batch_size_reads():
    for source in ("dispersion._MAX_BATCH", "from .dispersion import _MAX_BATCH",
                   "n = dispersion.states_per_batch(8)", "x = _MAX_BATCH // 5"):
        assert _reads_batch_size(ast.parse(source)), source
    for source in ("dispersion.scan_states(states, 8)", "batch = 12", "MAX_N_DIRS"):
        assert not _reads_batch_size(ast.parse(source)), source


@pytest.mark.parametrize("name, built, not_built", [
    ("HalfDiskRegion",
     ("HalfDiskRegion(0.1, 10.0)", "pv.HalfDiskRegion(delta=1, radius=2)",
      "def f(r):\n    return dispersion.HalfDiskRegion(r.delta, 1.0)"),
     ("from .dispersion import HalfDiskRegion",
      "x: HalfDiskRegion = default_region(st)", "isinstance(r, HalfDiskRegion)")),
    ("default_region",
     ("default_region(st)", "pv.default_region(st, 1e-3).radius",
      "def f(st):\n    return dispersion.default_region(st, delta=0.1)"),
     ("from .dispersion import default_region", "f(default_region)",
      "default_delta(st)", "find_unstable_roots(ctx, delta)")),
])
def test_detects_region_builds(name, built, not_built):
    for source in built:
        assert _builds_region(ast.parse(source), name), source
    for source in not_built:
        assert not _builds_region(ast.parse(source), name), source


def test_traced_names_exist():
    # the benchmark's tracer binds each (module, attribute) of its TARGETS,
    # read here without importing it; a dotted attribute is a method
    import importlib

    tracing = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    tree = ast.parse(tracing.read_text(encoding="utf-8"))
    [targets] = [node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)]
    names = [ast.literal_eval(t)[1:] for t in targets.elts]
    assert ("pvstab.dispersion", "scan_directions") in names
    for module, attr in names:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            assert hasattr(owner, part), (module, attr)
            owner = getattr(owner, part)
    assert hasattr(importlib.import_module("pvstab.dispersion"), "LopatinskiContext")
