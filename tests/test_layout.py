"""Module layering: the independent cross-checks stay in ``oracle``, and
only ``dispersion`` builds a counting region."""

import ast
from pathlib import Path

import pvstab

SRC = Path(pvstab.__file__).parent

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


def _builds_region(tree):
    return any(isinstance(node, ast.Call) and (
        getattr(node.func, "id", None) == "HalfDiskRegion"
        or getattr(node.func, "attr", None) == "HalfDiskRegion") for node in ast.walk(tree))


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


def test_cross_checks_live_in_oracle_only():
    assert not _defined(_tree("dispersion")) & ORACLE_ONLY
    assert ORACLE_ONLY <= _defined(_tree("oracle"))


def test_only_dispersion_builds_regions():
    # a region built by hand keeps a radius proven at another delta; every
    # other module asks dispersion.default_region for one
    builders = {p.stem for p in SRC.glob("*.py") if _builds_region(_tree(p.stem))}
    assert builders == {"dispersion"}


def test_detects_region_builds():
    for source in ("HalfDiskRegion(0.1, 10.0)", "pv.HalfDiskRegion(delta=1, radius=2)",
                   "def f(r):\n    return dispersion.HalfDiskRegion(r.delta, 1.0)"):
        assert _builds_region(ast.parse(source)), source
    for source in ("from .dispersion import HalfDiskRegion",
                   "x: HalfDiskRegion = default_region(st)", "isinstance(r, HalfDiskRegion)"):
        assert not _builds_region(ast.parse(source)), source
