"""Complex band structures: eigenvalues, tracking, and loop trajectories.

Eigenvalues are computed from the entries of the model kernel in
:mod:`bloch_braids.models`, with the solver chosen by band count: the
quadratic formula for two bands, a polished Cardano cubic on the kernel's
characteristic coefficients for three, LAPACK beyond. Bands sampled over
one zone period are stitched into continuous trajectories by
minimal-total-distance matching between consecutive samples, with the grid
refined adaptively until the largest matched jump is below half the
smallest inter-band gap. Refinement doubles a uniform grid; each doubling
keeps the samples already computed and evaluates only the new midpoints.
The permutation of band labels after one full traversal (the closure
permutation) is recorded on the trajectory.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .braid import Permutation
from .errors import DegeneracyEncountered, RefinementExhausted
from .models import (DimerParams, ModelSpec, _char_coeffs, _det_minus, _dimer_entries,
                     _entries)

__all__ = [
    "dimer_bands_analytic",
    "solve_cubic",
    "eigenvalues",
    "BandSample",
    "sample_bands",
    "BandTrajectory",
    "track_bands",
    "riemann_loop",
    "DEGENERACY_RTOL",
    "TRACK_SAMPLES_DEFAULT",
    "TRACK_SAMPLES_MAX",
]

DEGENERACY_RTOL = 1e-8          # min gap below this (times scale) is an EP
TRACK_SAMPLES_DEFAULT = 512
TRACK_SAMPLES_MAX = 65536
_TWO_PI = 2.0 * np.pi


# -- closed-form solvers ---------------------------------------------------

def dimer_bands_analytic(p: DimerParams, k):
    """The two dimer bands at momentum k (scalar or array).

    E_{1,2}(k) = delta*sin(mk) -/+ sqrt(alpha^2 + beta^2
                 + 2*alpha*beta*cos(mk) + (i*gamma + delta*sin(mk))^2)

    with the principal square root. Both values satisfy the characteristic
    polynomial of the dimer matrix; continuity across the branch cut is the
    tracker's job, not this formula's.
    """
    k = np.asarray(k, dtype=float)
    return _quadratic(_dimer_entries(p.alpha, p.beta, p.delta, p.gamma, np.exp(1j * p.m * k)))


def _quadratic(e, sqrt=np.sqrt):
    """Both eigenvalues of a 2x2 H from its entries, as (mean - root, mean + root).

    The half-difference of the diagonal avoids the cancellation that
    b^2/4 - c suffers when the trace is large. Pass ``cmath.sqrt`` for
    Python scalars.
    """
    (e11, e12), (e21, e22) = e
    # Release the off-diagonal arrays before the results are allocated: on
    # (cells, samples) rows of a two-worker dimer sweep, holding them raised
    # the process's peak resident memory by ~20% through heap fragmentation.
    del e
    product = e12 * e21
    del e12, e21
    mean = 0.5 * (e11 + e22)
    off = sqrt((0.5 * (e11 - e22)) ** 2 + product + 0j)
    return mean - off, mean + off


def _cubic_roots_vec(b, c, d):
    """Roots of E^3 + b E^2 + c E + d, elementwise over arrays.

    Cardano in depressed form with the better-conditioned cube-root branch,
    then one Newton step per root. Multiple roots are returned with
    multiplicity (the Newton step is skipped where the derivative is tiny).
    """
    b = np.asarray(b, dtype=complex)
    c = np.asarray(c, dtype=complex)
    d = np.asarray(d, dtype=complex)
    p = c - b * b / 3.0
    q = 2.0 * b ** 3 / 27.0 - b * c / 3.0 + d
    s = np.sqrt((q / 2.0) ** 2 + (p / 3.0) ** 3)
    u3a = -q / 2.0 + s
    u3b = -q / 2.0 - s
    u3 = np.where(np.abs(u3a) >= np.abs(u3b), u3a, u3b)
    tiny = np.abs(u3) == 0.0
    u = np.where(tiny, 1.0, u3) ** (1.0 / 3.0)
    v = np.where(tiny, 0.0, -p / (3.0 * u))
    u = np.where(tiny, 0.0, u)
    omega = np.exp(2j * np.pi / 3.0)
    t0 = u + v
    t1 = u * omega + v / omega
    t2 = u / omega + v * omega
    roots = np.stack([t0, t1, t2], axis=-1) - b[..., None] / 3.0

    bb = b[..., None]
    cc = c[..., None]
    dd = d[..., None]
    f = ((roots + bb) * roots + cc) * roots + dd
    df = (3.0 * roots + 2.0 * bb) * roots + cc
    scale = 1.0 + np.abs(bb) + np.abs(cc) + np.abs(dd)
    safe = np.abs(df) > 1e-12 * scale
    roots = np.where(safe, roots - f / np.where(safe, df, 1.0), roots)
    return roots


def _cubic_scalar(c2, c1, c0) -> np.ndarray:
    """:func:`_cubic_roots_vec` for one cubic, in cmath arithmetic."""
    pp = c1 - c2 * c2 / 3.0
    qq = 2.0 * c2 ** 3 / 27.0 - c2 * c1 / 3.0 + c0
    s = cmath.sqrt((qq / 2.0) ** 2 + (pp / 3.0) ** 3)
    u3 = -qq / 2.0 + s
    alt = -qq / 2.0 - s
    if abs(alt) > abs(u3):
        u3 = alt
    if u3 == 0.0:
        base = -c2 / 3.0
        return np.array([base, base, base])
    u = u3 ** (1.0 / 3.0)
    v = -pp / (3.0 * u)
    omega = complex(-0.5, 0.8660254037844386)
    roots = [u + v - c2 / 3.0,
             u * omega + v / omega - c2 / 3.0,
             u / omega + v * omega - c2 / 3.0]
    scale = 1.0 + abs(c2) + abs(c1) + abs(c0)
    out = []
    for rt in roots:
        df = (3.0 * rt + 2.0 * c2) * rt + c1
        if abs(df) > 1e-12 * scale:
            f = ((rt + c2) * rt + c1) * rt + c0
            rt = rt - f / df
        out.append(rt)
    return np.array(out)


def solve_cubic(coefficients) -> np.ndarray:
    """Roots of a monic cubic given as ``[1, b, c, d]`` (descending powers)."""
    coefficients = np.asarray(coefficients, dtype=complex)
    if coefficients.shape != (4,):
        raise ValueError(f"need 4 coefficients of a monic cubic, got shape {coefficients.shape}")
    if coefficients[0] != 1.0:
        raise ValueError(f"cubic must be monic, got leading coefficient {coefficients[0]}")
    b, c, d = coefficients[1], coefficients[2], coefficients[3]
    return _cubic_roots_vec(b, c, d).reshape(3)


def _matrix(e) -> np.ndarray:
    """Rows of entries (numbers or broadcastable arrays) as one (..., N, N) array."""
    flat = np.broadcast_arrays(*(np.asarray(x, dtype=complex) for row in e for x in row))
    return np.stack(flat, axis=-1).reshape(flat[0].shape + (len(e), len(e)))


def _roots(e) -> np.ndarray:
    """Unordered eigenvalues from rows of entries, shape (..., N)."""
    n = len(e)
    if n == 2:
        return np.stack(_quadratic(e), axis=-1)
    if n == 3:
        return _cubic_roots_vec(*_char_coeffs(e))
    return np.linalg.eigvals(_matrix(e))


def _roots_scalar(e) -> np.ndarray:
    """:func:`_roots` for entries that are Python scalars, without numpy per-call cost."""
    n = len(e)
    if n == 2:
        return np.array(_quadratic(e, cmath.sqrt))
    if n == 3:
        return _cubic_scalar(*_char_coeffs(e))
    return np.linalg.eigvals(np.array(e, dtype=complex))


def eigenvalues(matrix) -> np.ndarray:
    """Eigenvalues of a Bloch matrix: closed forms for N in {2, 3}, else LAPACK."""
    return _roots(np.asarray(getattr(matrix, "entries", matrix), dtype=complex))


# -- grid evaluation -------------------------------------------------------

def _points(tvals, radius):
    tvals = np.asarray(tvals, dtype=float)
    z = np.exp(1j * tvals)
    if radius is not None:
        z = radius * z
    return z


def _eig_grid(spec: ModelSpec, tvals, radius=None) -> np.ndarray:
    """Raw (unordered) eigenvalues over a parameter grid, shape (T, N)."""
    return _roots(_entries(spec, _points(tvals, radius)))


def _det_grid(spec: ModelSpec, tvals, e_ref: complex) -> np.ndarray:
    """det(H - E_ref) over a momentum grid."""
    e = _entries(spec, _points(tvals, None))
    if len(e) > 3:
        return np.linalg.det(_matrix(e) - e_ref * np.eye(len(e)))
    return _det_minus(e, e_ref)


def _raw_scalar_factory(spec: ModelSpec, radius) -> Callable[[float], np.ndarray]:
    """Scalar evaluator of raw eigenvalues at one loop parameter.

    Crossing bisection calls this thousands of times per sweep, so it stays
    in Python complex arithmetic: a one-point numpy grid costs an order of
    magnitude more per call.
    """
    r = 1.0 if radius is None else float(radius)
    return lambda t: _roots_scalar(_entries(spec, r * cmath.exp(1j * t)))


# -- matching --------------------------------------------------------------

_PERMS3 = tuple(itertools.permutations(range(3)))
_PERMS3_ARR = np.array(_PERMS3)
# _COMPOSE3[a, b] = index of the permutation (P_a after P_b): x -> P_a[P_b[x]]
_COMPOSE3 = np.array([[ _PERMS3.index(tuple(pa[pb[x]] for x in range(3)))
                        for pb in _PERMS3] for pa in _PERMS3])


def _pair_gaps(raw: np.ndarray) -> np.ndarray:
    """Smallest distance between two eigenvalues of each sample, over the last axis."""
    n = raw.shape[-1]
    return np.minimum.reduce([np.abs(raw[..., i] - raw[..., j])
                              for i, j in itertools.combinations(range(n), 2)])


def _match_chain(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Chain consecutive samples into continuous bands.

    Returns ``(indices, jumps)``: ``indices[j, n]`` is the raw column of
    band n at sample j (bands start in ascending real-part order with
    imaginary-part tie-break), and ``jumps[j]`` is the largest matched step
    between samples j and j+1.
    """
    t, n = raw.shape
    p0 = np.lexsort((raw[0].imag, raw[0].real))
    if n == 2:
        keep0 = np.abs(raw[1:, 0] - raw[:-1, 0])
        keep1 = np.abs(raw[1:, 1] - raw[:-1, 1])
        swap0 = np.abs(raw[1:, 1] - raw[:-1, 0])
        swap1 = np.abs(raw[1:, 0] - raw[:-1, 1])
        swap = swap0 + swap1 < keep0 + keep1
        jumps = np.where(swap, np.maximum(swap0, swap1), np.maximum(keep0, keep1))
        flips = np.concatenate([[0], np.cumsum(swap) % 2])
        indices = np.where(flips[:, None] == 0, p0[None, :], p0[None, ::-1])
        return indices.astype(np.intp), jumps
    if n == 3:
        # d[a, b, j] = |raw[j+1, a] - raw[j, b]|; permutation P sends column
        # b to P[b], and its cost adds the terms in the order of b
        cols = raw.T
        d = np.abs(cols[:, None, 1:] - cols[None, :, :-1])
        costs = np.empty((6, t - 1))
        for i, (a0, a1, a2) in enumerate(_PERMS3):
            costs[i] = d[a0, 0] + d[a1, 1] + d[a2, 2]
        decisions = np.argmin(costs, axis=0)
        jumps = d[_PERMS3_ARR[decisions], np.arange(3), np.arange(t - 1)[:, None]].max(axis=1)
        # the prefix permutation changes only at non-identity steps: compose
        # there, and carry each value forward to the next such step
        moves = np.flatnonzero(decisions)
        values = np.zeros(len(moves) + 1, dtype=np.intp)  # identity is _PERMS3[0]
        pr = 0
        for i, decision in enumerate(decisions[moves].tolist()):
            pr = _COMPOSE3[decision, pr]
            values[i + 1] = pr
        marks = np.zeros(t, dtype=np.intp)
        marks[moves + 1] = 1
        prefix = values[np.cumsum(marks)]
        indices = _PERMS3_ARR[prefix][:, p0]
        return indices.astype(np.intp), jumps
    from scipy.optimize import linear_sum_assignment
    indices = np.empty((t, n), dtype=np.intp)
    indices[0] = p0
    jumps = np.empty(t - 1)
    current = np.arange(n)
    chain = [np.arange(n)]
    for j in range(t - 1):
        cost = np.abs(raw[j + 1][None, :] - raw[j][:, None])
        _, cols = linear_sum_assignment(cost)
        jumps[j] = cost[np.arange(n), cols].max()
        current = cols[current]
        chain.append(current.copy())
    for j in range(1, t):
        indices[j] = chain[j][p0]
    return indices, jumps


# -- trajectories ----------------------------------------------------------

@dataclass(frozen=True)
class BandSample:
    """Raw spectrum at one momentum: the N eigenvalues in solver order."""

    k: float
    energies: np.ndarray

    @property
    def n_bands(self) -> int:
        return len(self.energies)


def sample_bands(spec: ModelSpec, k: float) -> BandSample:
    """Unordered eigenvalues of H(k); band identity is the tracker's job."""
    return BandSample(float(k), _eig_grid(spec, np.array([k]))[0])


@dataclass
class BandTrajectory:
    """Continuity-tracked bands over one closed loop in parameter space.

    ``t_grid`` holds the loop parameter: momentum k for zone trajectories,
    the angle of z = r*exp(i*theta) for circles in the complex plane.
    ``bands[n]`` is the n-th tracked band, ordered at the base point by
    ascending real part (ties by imaginary part). ``closure`` satisfies
    bands[n][-1] == bands[closure(n)][0] within the closure tolerance.
    """

    model: ModelSpec
    t_grid: np.ndarray
    bands: np.ndarray
    closure: Permutation
    initial_order: np.ndarray
    radius: float | None = None
    scale: float = 1.0
    min_gap: float = 0.0
    max_jump: float = 0.0
    _evaluator: Callable[[float], np.ndarray] | None = field(default=None, repr=False)

    @property
    def n_bands(self) -> int:
        return self.bands.shape[0]

    @property
    def samples(self) -> int:
        return len(self.t_grid) - 1

    @property
    def k0(self) -> float:
        return float(self.t_grid[0])

    @property
    def k_grid(self) -> np.ndarray:
        return self.t_grid

    @property
    def closure_permutation(self) -> Permutation:
        return self.closure

    def evaluate_raw(self, t: float) -> np.ndarray:
        """Unordered eigenvalues at an arbitrary loop parameter."""
        if self._evaluator is None:
            self._evaluator = _raw_scalar_factory(self.model, self.radius)
        return self._evaluator(t)


def _closure_permutation(bands: np.ndarray, tol: float) -> Permutation | None:
    starts = bands[:, 0]
    ends = bands[:, -1]
    n = bands.shape[0]
    image = []
    for i in range(n):
        dist = np.abs(starts - ends[i])
        j = int(np.argmin(dist))
        if dist[j] > tol:
            return None
        image.append(j)
    if sorted(image) != list(range(n)):
        return None
    return Permutation(tuple(image))


def _track(spec: ModelSpec, t0: float, samples: int, radius) -> BandTrajectory:
    if samples < 64:
        raise ValueError(f"need at least 64 samples, got {samples}")
    k = int(samples)
    t0 = float(t0)
    nudges = 0
    kept = None  # the previous level's samples: the even points of this grid
    while True:
        tvals = t0 + np.linspace(0.0, _TWO_PI, k + 1)
        if kept is None:
            raw = _eig_grid(spec, tvals, radius)
        else:
            raw = np.empty((k + 1, kept.shape[1]), dtype=complex)
            raw[::2] = kept
            raw[1::2] = _eig_grid(spec, tvals[1::2], radius)
            kept = None
        scale = 1.0 + float(np.abs(raw).max())
        min_gap = float(_pair_gaps(raw).min())
        if min_gap < DEGENERACY_RTOL * scale:
            raise DegeneracyEncountered(
                f"minimum band gap {min_gap:.3e} below tolerance "
                f"{DEGENERACY_RTOL * scale:.3e}; parameters sit on an exceptional point")
        # a real-part tie at the base point leaves the initial order, and any
        # crossing pinned there, ill-defined: shift the base by one grid step
        first = np.sort(raw[0].real)
        if np.min(np.diff(first)) < 1e-9 * scale and nudges < 8:
            t0 += _TWO_PI / k
            nudges += 1
            continue
        indices, jumps = _match_chain(raw)
        bands = raw[np.arange(k + 1)[:, None], indices].T
        max_jump = float(jumps.max())
        closure = _closure_permutation(bands, 1e-8 * scale)
        if max_jump < 0.5 * min_gap and closure is not None:
            return BandTrajectory(
                model=spec, t_grid=tvals, bands=bands, closure=closure,
                initial_order=indices[0].copy(), radius=radius, scale=scale,
                min_gap=min_gap, max_jump=max_jump)
        if k >= TRACK_SAMPLES_MAX:
            raise RefinementExhausted(
                f"no stable matching at {k} samples "
                f"(max jump {max_jump:.3e}, min gap {min_gap:.3e})")
        kept = raw
        k *= 2


def track_bands(spec: ModelSpec, k0: float = 0.0,
                samples: int = TRACK_SAMPLES_DEFAULT) -> BandTrajectory:
    """Track the complex bands over one Brillouin-zone period [k0, k0+2pi].

    The sample count doubles (up to a cap) until the largest matched jump is
    below half the smallest inter-band gap and the endpoint multiset closes
    onto the starting one. The grid stays uniform: a doubling keeps the
    samples it already has and evaluates only the new midpoints. Raises
    :class:`DegeneracyEncountered` on (or numerically on) an exceptional
    point and :class:`RefinementExhausted` when the cap is reached.
    """
    return _track(spec, k0, samples, None)


def riemann_loop(spec: ModelSpec, radius: float, samples: int = TRACK_SAMPLES_DEFAULT,
                 theta0: float = 0.0) -> BandTrajectory:
    """Track eigenvalues of H(z) along the circle z = radius * exp(i*theta).

    radius = 1 reproduces :func:`track_bands` up to sampling. The loop shows
    which branch points in the z-plane the bands wind around.
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    return _track(spec, theta0, samples, float(radius))
