"""Complex band structures: eigenvalues, tracking, and loop trajectories.

Eigenvalues are computed from the entries of the model kernel in
:mod:`bloch_braids.models`, with the solver chosen by band count: the
quadratic formula for two bands, a polished Cardano cubic on the kernel's
characteristic coefficients for three, LAPACK beyond. One tracker, written
for a batch of cells (a phase-diagram row, or the one model of
:func:`track_bands` and :func:`riemann_loop`), stitches the samples of one
period into continuous bands by minimal-total-distance matching, and
doubles a uniform grid, keeping the samples already computed, until the
largest matched jump is below half the smallest inter-band gap. The
permutation of band labels after one full traversal (the closure
permutation) is recorded on the trajectory. The cubic takes its cube root as
cbrt(|u^3|) exp(i arg(u^3) / 3), the same principal branch as ``u3 ** (1/3)``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .braid import Permutation, _match, _ranks
from .errors import (DegeneracyEncountered, NonConvergent, ReferenceOnBand, RefinementExhausted,
                     UnresolvedCrossing)
from .models import (DimerParams, ModelSpec, _char_coeffs, _det_minus, _dimer_entries,
                     _entries, _top_exponent)

__all__ = [
    "dimer_bands_analytic",
    "solve_cubic",
    "eigenvalues",
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
_SAMPLES_MIN = 64               # the floor of every tracked or wound grid
_WINDING_SAMPLES_DEFAULT = 1024
_WINDING_SAMPLES_MAX = 1 << 20
# The largest |k0| or |theta0|. At 1000 the ulp of a base point is 1.1e-13, nine
# orders below the finest step 2pi / 65536; near 1e16 the ulp reaches the step,
# the grid t0 + linspace(0, 2pi, k + 1) loses it, and the bands look constant.
_BASE_POINT_MAX = 1000.0
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


def _quadratic(e):
    """Both eigenvalues of a 2x2 H from its entries, as (mean - root, mean + root).

    The half-difference of the diagonal avoids the cancellation that
    b^2/4 - c suffers when the trace is large. Entries may be numbers or
    broadcastable arrays.
    """
    (e11, e12), (e21, e22) = e
    # Release the off-diagonal arrays before the results are allocated: on
    # (cells, samples) rows of a two-worker dimer sweep, holding them raised
    # the process's peak resident memory by ~20% through heap fragmentation.
    del e
    product = e12 * e21
    del e12, e21
    mean = 0.5 * (e11 + e22)
    off = np.sqrt((0.5 * (e11 - e22)) ** 2 + product + 0j)
    return mean - off, mean + off


_OMEGA = np.exp(2j * np.pi / 3.0)
_CUBIC_BLOCK = 4096     # points per pass: the pass's temporaries stay in a core's cache


def _cubic_roots_vec(b, c, d):
    """Roots of E^3 + b E^2 + c E + d, elementwise over arrays, shape (..., 3).

    Cardano in depressed form with the larger-modulus root u^3 of the
    resolvent quadratic, then one Newton step per root, block by block. The
    cube root is cbrt(|u^3|) exp(i arg(u^3) / 3): the same principal branch as
    ``u3 ** (1/3)``, without the clog and cexp of libm's complex power.
    Multiple roots are returned with multiplicity (the Newton step is skipped
    where the derivative is tiny).
    """
    coeffs = np.broadcast_arrays(*(np.asarray(x, dtype=complex) for x in (b, c, d)))
    roots = np.empty(coeffs[0].shape + (3,), dtype=complex)
    flat, coeffs = roots.reshape(-1, 3), [x.ravel() for x in coeffs]
    for at in range(0, len(flat), _CUBIC_BLOCK):
        b, c, d = (x[at:at + _CUBIC_BLOCK] for x in coeffs)
        b3 = b / 3.0
        p3 = (c - b * b3) / 3.0
        h = -(b3 * (2.0 * b3 * b3 - c) + d) / 2.0
        s = np.sqrt(h * h + p3 * p3 * p3)
        u3 = np.where(np.abs(h + s) >= np.abs(h - s), h + s, h - s)
        r, arg = np.cbrt(np.abs(u3)), np.angle(u3) / 3.0
        u = np.empty_like(u3)
        u.real, u.imag = r * np.cos(arg), r * np.sin(arg)
        v = np.divide(-p3, u, out=np.zeros_like(u), where=r > 0.0)
        floor = 1e-12 * (1.0 + np.abs(b) + np.abs(c) + np.abs(d))
        for j, t in enumerate((u + v, u * _OMEGA + v / _OMEGA, u / _OMEGA + v * _OMEGA)):
            t -= b3
            f = ((t + b) * t + c) * t + d
            df = (3.0 * t + 2.0 * b) * t + c
            safe = np.abs(df) > floor
            np.subtract(t, np.divide(f, df, out=f, where=safe), out=t, where=safe)
            flat[at:at + _CUBIC_BLOCK, j] = t
    return roots


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


def _eig_grid(spec: ModelSpec, tvals, radius=None, values=None) -> np.ndarray:
    """Raw (unordered) eigenvalues over a grid, shape (T, N); ``values`` as in ``_entries``."""
    return _roots(_entries(spec, _points(tvals, radius), values))


def _det_grid(spec: ModelSpec, tvals, e_ref: complex, values=None) -> np.ndarray:
    """det(H - E_ref) over a momentum grid; ``values`` as in ``_entries``."""
    e = _entries(spec, _points(tvals, None), values)
    if len(e) > 3:
        return np.linalg.det(_matrix(e) - e_ref * np.eye(len(e)))
    return _det_minus(e, e_ref)


# -- matching --------------------------------------------------------------

def _pair_gaps(raw: np.ndarray) -> np.ndarray:
    """Smallest distance between two eigenvalues of each sample, over the last axis."""
    n = raw.shape[-1]
    return functools.reduce(np.minimum, (np.abs(raw[..., i] - raw[..., j])
                                         for i, j in itertools.combinations(range(n), 2)))


def _match_chain(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chain consecutive samples into continuous bands.

    ``raw`` has shape (..., T, N): samples along the second-to-last axis.
    Returns ``(indices, bands, jumps)``: ``indices[..., j, n]`` is the raw
    column of band n at sample j and ``bands[..., j, n]`` its value, and
    ``jumps[..., j]`` is the largest matched step between samples j and j+1.
    Bands start in base-point order (see :func:`bloch_braids.braid._below`)
    and each step is matched by :func:`bloch_braids.braid._match`.
    """
    *lead, t, n = raw.shape
    raw = raw.reshape(-1, t, n)
    perms, choice, jumps = _match(raw[:, :-1], raw[:, 1:])
    # the column of a band changes only at steps matched by a permutation
    # other than the identity: compose there, and repeat each value up to
    # the next such step; each chain starts from the base-point order
    marks = np.ones((len(raw), t), dtype=bool)
    marks[:, 1:] = np.any(perms != np.arange(n), axis=-1)[choice]
    moves = iter(perms[choice[marks[:, 1:]]].tolist())
    starts = iter(np.argsort(_ranks(raw[:, 0]), axis=-1).tolist())
    at = np.flatnonzero(marks)
    values = []
    for start in (at % t == 0).tolist():
        values.append(next(starts) if start else itemgetter(*values[-1])(next(moves)))
    indices = np.repeat(np.array(values, dtype=np.intp), np.diff(at, append=marks.size), axis=0)
    bands = raw.reshape(-1)[indices + n * np.arange(len(indices))[:, None]]
    return (indices.reshape(*lead, t, n), bands.reshape(*lead, t, n),
            jumps.reshape(*lead, t - 1))


def _closures(bands: np.ndarray, tol: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closure permutations of tracked bands of shape (cells, N, T).

    Returns ``(image, closed)``: band i of cell c ends nearest the start of
    band ``image[c, i]``, and the cell closes when every such distance is
    within its ``tol`` and no start is reached twice.
    """
    dist = np.abs(bands[:, None, :, 0] - bands[:, :, None, -1])  # [c, i, j]: end i to start j
    image = dist.argmin(axis=-1)
    closed = ((dist.min(axis=-1) <= tol[:, None]).all(axis=-1)
              & (np.sort(image, axis=-1) == np.arange(bands.shape[1])).all(axis=-1))
    return image, closed


# -- trajectories ----------------------------------------------------------

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
    radius: float | None = None
    scale: float = 1.0
    min_gap: float = 0.0
    max_jump: float = 0.0

    @property
    def n_bands(self) -> int:
        return self.bands.shape[0]

    @property
    def samples(self) -> int:
        return len(self.t_grid) - 1

    @property
    def k0(self) -> float:
        return float(self.t_grid[0])

    def evaluate_raw(self, t) -> np.ndarray:
        """Unordered eigenvalues at loop parameters ``t`` (a number or an array), shape (..., N)."""
        return _eig_grid(self.model, t, self.radius)


@dataclass
class _Tracked:
    """Cells of a batch that settled together on one grid."""

    cells: np.ndarray       # (C,) indices into the batch
    t_grid: np.ndarray      # (T,)
    bands: np.ndarray       # (C, N, T)
    closure: np.ndarray     # (C, N) closure images
    scale: np.ndarray       # (C,)
    min_gap: np.ndarray     # (C,)
    max_jump: np.ndarray    # (C,)


# Samples one tracker batch holds: 63 cells on a first grid of 513, one cell
# at the cap. Cells of many phase-diagram rows share batches under these caps.
_FIRST_BATCH_SAMPLES = 1 << 15
_REFINE_BATCH_SAMPLES = 1 << 16


def _track(raw_at, cells, t0: float, k: int, failures: list, kept=None, nudges: int = 0,
           floor: int = 0):
    """Track a batch of cells over [t0, t0 + 2pi] on k samples.

    ``raw_at(cells, t)`` gives the raw eigenvalues (..., N) of the cells
    indexed by ``cells`` at loop parameters ``t``, broadcast against each
    other. Each cell follows the rules of :func:`track_bands`. The cells
    that settle are yielded as :class:`_Tracked` groups, one per grid; a
    cell that fails is not, and ``failures[cell]`` holds its exception.
    A cell with a sample that is not finite fails on the level that
    evaluated it. A level below ``floor`` samples (4S, S the largest Fourier
    exponent of the entries, which a coarser grid can alias) settles no cell,
    nudges none, and refines. ``kept`` holds the previous level's samples.
    A first grid is split into batches of at most ``_FIRST_BATCH_SAMPLES``
    samples, a refined one into batches of at most
    ``_REFINE_BATCH_SAMPLES``, unless a batch holds one cell.
    """
    if k < _SAMPLES_MIN:
        raise ValueError(f"need at least {_SAMPLES_MIN} samples, got {k}")
    if kept is None and len(cells) > 1 and len(cells) * (k + 1) > _FIRST_BATCH_SAMPLES:
        batch = max(1, _FIRST_BATCH_SAMPLES // (k + 1))
        for s in range(0, len(cells), batch):
            yield from _track(raw_at, cells[s:s + batch], t0, k, failures, None, nudges, floor)
        return
    tvals = t0 + np.linspace(0.0, _TWO_PI, k + 1)
    # a sample that overflows fails its cell below, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        if kept is None:
            raw = raw_at(cells[:, None], tvals).reshape(len(cells), k + 1, -1)
        else:
            # the previous level's samples are the even points of this grid
            raw = np.empty((len(cells), k + 1, kept.shape[-1]), dtype=complex)
            raw[:, ::2] = kept
            raw[:, 1::2] = raw_at(cells[:, None], tvals[1::2])
            del kept
    scale = 1.0 + np.abs(raw).max(axis=(1, 2))     # NaN or inf where a sample is not finite
    min_gap = _pair_gaps(raw).min(axis=1)
    finite = np.isfinite(scale)
    for i in np.flatnonzero(~finite).tolist():
        failures[cells[i]] = NonConvergent(f"eigenvalues are not finite at {k} samples")
    on_ep = finite & (min_gap < DEGENERACY_RTOL * scale)
    for i in np.flatnonzero(on_ep).tolist():
        failures[cells[i]] = DegeneracyEncountered(
            f"minimum band gap {min_gap[i]:.3e} below tolerance "
            f"{DEGENERACY_RTOL * scale[i]:.3e}; parameters sit on an exceptional point")
    # a real-part tie at the base point leaves the initial order, and any
    # crossing pinned there, ill-defined: shift the base by one grid step, from
    # the floor on (below it a level settles nothing, and a step can be a period)
    first = np.sort(raw[:, 0].real, axis=-1)
    tie = finite & ~on_ep & (k >= floor) & (np.diff(first, axis=-1).min(axis=-1) < 1e-9 * scale)
    if tie.any() and nudges < 8:
        yield from _track(raw_at, cells[tie], t0 + _TWO_PI / k, k, failures, None, nudges + 1,
                          floor)
    elif tie.any():
        for i in np.flatnonzero(tie).tolist():
            failures[cells[i]] = UnresolvedCrossing(
                f"real parts tie at the base point t={t0:.9f} after {nudges} shifts of it; "
                f"the band order is undefined")
    live = finite & ~(on_ep | tie)
    if not live.any():
        return
    if not live.all():
        raw, cells, scale, min_gap = raw[live], cells[live], scale[live], min_gap[live]
    bands, jumps = _match_chain(raw)[1:]
    max_jump, bands = jumps.max(axis=1), bands.transpose(0, 2, 1)
    closure, closed = _closures(bands, 1e-8 * scale)
    done = closed & (max_jump < 0.5 * min_gap) & (k >= floor)
    rest = np.flatnonzero(~done)
    # what refines keeps its samples; the rest of the level is released first
    kept = raw[rest] if len(rest) and k < TRACK_SAMPLES_MAX else None
    del raw, jumps
    if done.any():
        sel = done if len(rest) else slice(None)
        yield _Tracked(cells[sel], tvals, bands[sel], closure[sel], scale[sel],
                       min_gap[sel], max_jump[sel])
    del bands
    if kept is None:
        for i in rest.tolist():
            failures[cells[i]] = RefinementExhausted(
                f"no stable matching at {k} samples "
                f"(max jump {max_jump[i]:.3e}, min gap {min_gap[i]:.3e})")
        return
    cells = cells[rest]
    batch = max(1, _REFINE_BATCH_SAMPLES // (2 * k + 1))
    for s in range(0, len(cells), batch):
        yield from _track(raw_at, cells[s:s + batch], t0, 2 * k, failures,
                          kept[s:s + batch], nudges, floor)


def _check_base_point(name: str, value: float) -> None:
    if not abs(value) <= _BASE_POINT_MAX:
        raise ValueError(f"{name} must be within +-{_BASE_POINT_MAX}, got {value!r}")


def _track_one(spec: ModelSpec, t0: float, samples: int, radius) -> BandTrajectory:
    _check_base_point("k0" if radius is None else "theta0", t0)
    failures: list = [None]
    for g in _track(lambda cells, t: _eig_grid(spec, t, radius), np.arange(1), float(t0),
                    int(samples), failures, floor=4 * _top_exponent(spec)):
        return BandTrajectory(
            model=spec, t_grid=g.t_grid, bands=g.bands[0],
            closure=Permutation(tuple(g.closure[0].tolist())), radius=radius,
            scale=float(g.scale[0]), min_gap=float(g.min_gap[0]), max_jump=float(g.max_jump[0]))
    raise failures[0]


def track_bands(spec: ModelSpec, k0: float = 0.0,
                samples: int = TRACK_SAMPLES_DEFAULT) -> BandTrajectory:
    """Track the complex bands over one Brillouin-zone period [k0, k0+2pi].

    The sample count doubles (up to a cap) until the largest matched jump is
    below half the smallest inter-band gap and the endpoint multiset closes
    onto the starting one, and never settles below 4S samples, S the largest
    Fourier exponent of H. The grid stays uniform: a doubling keeps the
    samples it already has and evaluates only the new midpoints. A
    real-part tie at the base point shifts it by one grid step, at most 8
    times, on grids of at least 4S samples. Raises
    :class:`DegeneracyEncountered` on (or numerically on) an exceptional
    point, :class:`RefinementExhausted` when the cap is reached,
    :class:`UnresolvedCrossing` when the tie survives the shifts,
    :class:`NonConvergent` on the first grid with an eigenvalue that is not
    finite, and ``ValueError`` unless |k0| <= 1000 (``_BASE_POINT_MAX``).
    """
    return _track_one(spec, k0, samples, None)


def riemann_loop(spec: ModelSpec, radius: float, samples: int = TRACK_SAMPLES_DEFAULT,
                 theta0: float = 0.0) -> BandTrajectory:
    """Track eigenvalues of H(z) along the circle z = radius * exp(i*theta).

    radius = 1 reproduces :func:`track_bands` up to sampling. The loop shows
    which branch points in the z-plane the bands wind around. ``theta0`` is
    bounded as ``k0`` is there.
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    return _track_one(spec, theta0, samples, float(radius))


# -- spectral winding --------------------------------------------------------

_WIND_STEP = np.pi / 4.0        # the largest phase step a settled winding may take
_WIND_RESIDUAL = 1e-6           # the largest distance of a settled total from an integer


def _phase_steps(values: np.ndarray) -> np.ndarray:
    """Phase steps of curves sampled along the last axis, wrapped into [-pi, pi).

    A step d, a difference of angles, becomes (d + pi) mod 2pi - pi. As
    d + pi lies in [-pi, 3pi], the remainder is one masked shift by 2pi, with
    the bits of ``np.remainder`` at half its cost: the shift down is exact
    (Sterbenz), the shift up is the remainder's own last addition.
    """
    steps = np.diff(np.angle(values), axis=-1)
    steps += np.pi
    np.subtract(steps, _TWO_PI, out=steps, where=steps >= _TWO_PI)
    np.add(steps, _TWO_PI, out=steps, where=steps < 0.0)
    steps -= np.pi
    return steps


def _winding(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The winding rule, for closed curves sampled along the last axis.

    Returns ``(nu, raw, fine, integral)``: the nearest integer to the total
    phase in turns, the total itself, whether every phase step
    (:func:`_phase_steps`) is below pi/4, and whether the total is an
    integer to 1e-6.
    """
    steps = _phase_steps(values)
    raw = steps.sum(axis=-1) / _TWO_PI
    nu = np.rint(raw)
    return nu, raw, np.abs(steps).max(axis=-1) < _WIND_STEP, np.abs(raw - nu) < _WIND_RESIDUAL


def _wind(det_at, n: int, samples: int, cap: int) -> list:
    """Windings of det(H - E_ref) about zero over [0, 2pi], for a batch of n cells.

    ``det_at(cells, t)`` gives det(H - E_ref) of the cells indexed by
    ``cells`` at loop parameters ``t``, broadcast against each other. Each
    cell's grid doubles, keeping its samples and evaluating only the new
    midpoints, until every phase step is below pi/4, up to ``cap`` samples.
    Per cell: ``(nu, raw, residual, samples)``, or the exception it failed
    with (:class:`ReferenceOnBand`, :class:`NonConvergent`, the latter also
    on the level that evaluated a determinant that is not finite).
    """
    if samples < _SAMPLES_MIN:
        raise ValueError(f"need at least {_SAMPLES_MIN} samples, got {samples}")
    results: list = [None] * n
    todo = [(np.arange(n), int(samples), None)]
    while todo:
        cells, k, kept = todo.pop()
        tvals = np.linspace(0.0, _TWO_PI, k + 1)
        # a determinant that overflows fails its cell below, without a warning
        with np.errstate(over="ignore", invalid="ignore"):
            if kept is None:
                det = det_at(cells[:, None], tvals).reshape(len(cells), k + 1)
            else:   # the previous level's determinants are the even points of this grid
                det = np.empty((len(cells), k + 1), dtype=complex)
                det[:, ::2], det[:, 1::2] = kept, det_at(cells[:, None], tvals[1::2])
        mags = np.abs(det)
        nus, raws, fines, integrals = _winding(det)
        rest = []
        for i, (low, high, nu, raw, fine, integral) in enumerate(zip(
                mags.min(axis=1).tolist(), mags.max(axis=1).tolist(), nus.tolist(),
                raws.tolist(), fines.tolist(), integrals.tolist())):
            high = 1.0 + high
            on_band, coarse = low < 1e-12 * high, not fine
            if not math.isfinite(high):     # NaN or inf where a determinant is not finite
                results[cells[i]] = NonConvergent(f"det(H - E_ref) is not finite at {k} samples")
            elif coarse and not on_band and k < cap:
                rest.append(i)
            elif on_band or coarse and low < 1e-4 * high:
                # at the cap: a zero pinned between samples keeps a step near pi
                results[cells[i]] = ReferenceOnBand(
                    f"det(H - E_ref) dips to {low:.3e} at {k} samples; the reference "
                    f"energy lies on (or numerically on) a band")
            elif coarse:
                results[cells[i]] = NonConvergent(f"phase steps still above pi/4 at {k} samples")
            else:
                nu = int(nu)
                results[cells[i]] = ((nu, raw, abs(raw - nu), k) if integral else
                                     NonConvergent(f"winding {raw} is not integral "
                                                   f"(residual {abs(raw - nu):.3e})"))
        batch = max(1, _REFINE_BATCH_SAMPLES // (2 * k + 1))
        todo += [(cells[rest[s:s + batch]], 2 * k, det[rest[s:s + batch]])
                 for s in range(0, len(rest), batch)]
        del det, mags
    return results
