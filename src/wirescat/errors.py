"""Exception taxonomy for wirescat.

Every guarded numerical situation maps to a dedicated exception so callers
(and the CLI) can distinguish usage errors from physical singularities.
"""


class WireError(Exception):
    """Base class for all wirescat errors."""


class DomainError(WireError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class ModeOpeningSingularity(WireError):
    """Wavenumber within the guard band of a transverse-mode threshold.

    At kd = n*pi the longitudinal wavenumber of mode n vanishes and divides
    several downstream formulas; evaluation there is refused.  One-sided
    behaviour is available through the dedicated edge-asymptote operations.
    """

    def __init__(self, kd: float, n: int, guard: float):
        self.kd = kd
        self.n = n
        self.guard = guard
        super().__init__(
            f"kd={kd!r} lies within {guard:g} of the mode-{n} opening at n*pi"
        )


class CoincidentPoints(WireError):
    """Field point coincides with a source (or image) point."""


class TruncationLimit(WireError):
    """A series truncation plan cannot bring its error bound below the tolerance.

    Raised instead of returning a value whose own tail bound misses tol, as
    the Kummer plan does for G_w very close to the source on or next to the
    axis x = x0, and for G_r with y0 very close to a wall or at large kd, where
    it would need more modes than its cap: a cap ends the doubling of the mode
    count, at below 131,072 Kummer modes or at the starting 4N past kd = 51,472.
    """


class PoleEncountered(WireError):
    """1 - s*G_r vanishes: bound-state/resonance pole of the effective strength."""


class DegenerateMode(WireError):
    """The newly opening transverse mode has a node at the impurity position."""


class SingularSystem(WireError):
    """Multiple-scattering linear system is numerically singular."""
