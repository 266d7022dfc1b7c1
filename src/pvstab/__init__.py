"""Stability analysis of planar plasma-vacuum interfaces in incompressible
MHD with a nonzero vacuum displacement current.

Layers:

  state       equilibrium parameters, validation, frame reduction
  criterion   closed-form violent-instability classification
  dispersion  Lopatinski determinant, root counting and location
  modes       explicit exponentially growing mode sequences with residual checks
  oracle      independent verifiers (grids, dense scans, small-eps series,
              raw determinant, local winding)
  agreement   the margin band, the judge of a verdict against a root scan,
              and the mode job of an unstable point
  cli         scenario files, sweeps, and the criterion-vs-numerics gate

state, criterion and errors are imported with the package; dispersion, modes
and oracle are loaded when first used.
"""

from ._lazy import _lazy
from .criterion import (Classification, MinimizationResult, Verdict, classify,
                        critical_e1_squared, f_of_omega, minimize_f,
                        transitional_discriminant)
from .errors import (DegenerateSymbolError, DirectionError, NotTransitionalError,
                     PvstabError, ScenarioParseError, SingularFrameError,
                     StateValidationError, TransitionalAtThisDirectionError)
from .state import (EquilibriumState, FrequencyBundle, WaveDirection,
                    b0_matrix, default_delta, frequency_bundle, galilean_transform,
                    validate_state)

# The public names of the layers loaded on first use (`pvstab._lazy`), each
# with the module that defines it: ``pvstab.scan_directions`` loads
# ``dispersion`` and is its ``scan_directions``.
_LAZY_NAMES = {
    **dict.fromkeys(("LopatinskiContext", "RootReport", "StateCounts",
                     "find_unstable_roots", "locate_roots", "lopatinski",
                     "lopatinski_deriv", "lopatinski_scale", "make_context",
                     "newton_refine", "scan_directions", "scan_states",
                     "vacuum_decay_root"), "dispersion"),
    **dict.fromkeys(("ModeSolution", "ResidualReport", "build_mode", "growth_table",
                     "residuals"), "modes"),
    **dict.fromkeys(("BranchKind", "ConvergenceRecord", "SeriesRoot", "dense_root_scan",
                     "eigen_fmin", "grid_fmin", "lopatinski_raw", "series_root_generic",
                     "series_root_transitional", "series_vs_numeric",
                     "transitional_tolerance"), "oracle"),
}
for _module in dict.fromkeys(_LAZY_NAMES.values()):
    _lazy(f"{__name__}.{_module}")
del _module


def __getattr__(name):
    if name not in _LAZY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_LAZY_NAMES[name]], name)


def __dir__():
    return sorted({*globals(), *_LAZY_NAMES})


__version__ = "0.1.0"
