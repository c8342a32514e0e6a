"""Exception types shared across the library."""


class ParactlError(Exception):
    """Base class for all library errors."""


class DegenerateGeometry(ParactlError):
    """An actuator length collapsed to zero, so its direction is undefined."""


class NoConvergence(ParactlError):
    """An iterative solver ran out of iterations."""


class RankDeficient(ParactlError):
    """A jacobian or normal-equations matrix lost full column rank."""


class SingularMass(ParactlError):
    """The generalized mass matrix is not invertible."""


class InfeasibleWrench(ParactlError):
    """No admissible actuator-force vector realizes the requested wrench."""


class NumericBlowup(ParactlError):
    """Simulation state left the finite range (divergence or NaN)."""


class ParseError(ParactlError):
    """A config, trajectory or trace file could not be parsed."""


class ValidationError(ParactlError):
    """An input (a parsed config, a function argument) violates a structural
    or physical invariant."""
