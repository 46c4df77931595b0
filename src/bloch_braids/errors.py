"""Exception types shared across the package."""


class BlochBraidsError(Exception):
    """Base class for all package-specific errors."""


class NumericalFailure(BlochBraidsError):
    """Base of the failures of a numerical method on valid input: a
    degenerate point, a loop that did not converge, a pole or an undefined
    closed form. The CLI exits 2 on any of them."""


class ZeroModulus(NumericalFailure):
    """z = 0 requested for a model with negative Fourier exponents."""


class DegeneracyEncountered(NumericalFailure):
    """A sampled spectrum has two eigenvalues closer than the degeneracy
    tolerance; the parameters sit on (or numerically on) an exceptional
    point and band identity is undefined."""


class RefinementExhausted(NumericalFailure):
    """Grid refinement hit its cap without reaching a stable matching."""


class DegenerateCrossing(NumericalFailure):
    """Two strands cross with both real and imaginary parts equal: an
    exceptional point, where no braid letter is defined."""


class UnresolvedCrossing(NumericalFailure):
    """Two crossings could not be separated within one refined step."""


class StrandMismatch(BlochBraidsError):
    """Braid words on different strand counts cannot be concatenated."""


class UnsupportedDegree(BlochBraidsError):
    """Discriminant requested for a polynomial degree outside {2, 3}."""


class DegenerateModel(NumericalFailure):
    """A model parameter combination for which the requested object is
    undefined: a closed form (e.g. alpha*beta = 0) or the exceptional points
    of a discriminant that vanishes identically."""


class ReferenceOnBand(NumericalFailure):
    """The winding-number reference energy lies on (or numerically on) a
    band, so det(H(k) - E_ref) vanishes somewhere on the grid."""


class NonConvergent(NumericalFailure):
    """An adaptive numerical loop failed to converge within its cap."""
