"""Stability analysis of planar plasma-vacuum interfaces in incompressible
MHD with a nonzero vacuum displacement current.

Layers:

  state       equilibrium parameters, validation, frame reduction
  criterion   closed-form violent-instability classification
  dispersion  Lopatinski determinant, root counting and location
  modes       explicit exponentially growing mode sequences with residual checks
  oracle      independent verifiers (grids, dense scans, small-eps series,
              raw determinant, local winding)
  cli         scenario files, sweeps, and the criterion-vs-numerics gate
"""

from .criterion import (Classification, MinimizationResult, Verdict, classify,
                        critical_e1_squared, f_of_omega, minimize_f,
                        transitional_discriminant)
from .dispersion import (LopatinskiContext, RootReport, StateCounts,
                         default_delta, find_unstable_roots, locate_roots,
                         lopatinski, lopatinski_deriv, lopatinski_scale,
                         make_context, newton_refine, scan_directions,
                         scan_states, vacuum_decay_root)
from .errors import (DegenerateSymbolError, DirectionError, NotTransitionalError,
                     PvstabError, ScenarioParseError, SingularFrameError,
                     StateValidationError, TransitionalAtThisDirectionError)
from .modes import (ModeSolution, ResidualReport, build_mode, growth_table,
                    residuals)
from .oracle import (BranchKind, ConvergenceRecord, SeriesRoot, dense_root_scan,
                     eigen_fmin, grid_fmin, lopatinski_raw, series_root_generic,
                     series_root_transitional, series_vs_numeric,
                     transitional_tolerance)
from .state import (EquilibriumState, FrequencyBundle, WaveDirection,
                    b0_matrix, frequency_bundle, galilean_transform,
                    validate_state)

__version__ = "0.1.0"
