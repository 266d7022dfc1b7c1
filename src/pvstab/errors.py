"""Exception types shared across the package."""


class PvstabError(Exception):
    """Base class for all package-specific errors."""


class StateValidationError(PvstabError, ValueError):
    """Equilibrium parameters outside the admissible domain."""


class SingularFrameError(PvstabError, ValueError):
    """Frame change undefined: eps*|sigma| >= 1."""


class DirectionError(PvstabError, ValueError):
    """Zero or non-finite tangential wave vector."""


class TransitionalAtThisDirectionError(PvstabError, ValueError):
    """Generic series requested where the leading coefficient degenerates."""


class NotTransitionalError(PvstabError, ValueError):
    """Transitional series requested away from the critical direction."""


class DegenerateSymbolError(PvstabError, ValueError):
    """Mode construction would divide by a vanishing symbol factor."""


class ScenarioParseError(PvstabError, ValueError):
    """Scenario file is malformed; carries a line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
