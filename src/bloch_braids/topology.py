"""Exceptional points, spectral winding numbers, and phase diagrams.

An exceptional point (EP) is a momentum or complex-plane point where two
eigenvalues and their eigenvectors coalesce; algebraically, the discriminant
of the characteristic polynomial vanishes there. Braid phases of the band
structure are separated by lines of EPs in parameter space, and each phase
carries an integer invariant: the total winding of det(H(k) - E_ref) around
zero as k sweeps the zone, summed over the EP reference energies between the
phase and the trivial (small gain-loss) regime.

The discriminant Disc_E det(E - H(z)) is a Laurent polynomial in z. Its
coefficients are read off by one discrete Fourier transform of the kernel's
discriminant at roots of unity, and every exceptional point comes from its
zeros: those on |z| = 1 are the momentum-space EPs, all of them are the
z-plane branch points. Its winding over the zone (zeros inside |z| < 1
minus the pole order at z = 0) equals the exponent sum of the braid word.
A braid label can change only where one of its zeros crosses |z| = 1, so
the gain-loss phase boundaries that fix the reference energies are found
from that count and polished by Newton onto the exceptional point itself,
without tracking any band.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import logging
import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import sweep
# track_bands and extract_braid_word are looked up here by name by the
# perfbench span tracer, although no function of this module calls them
from .braid import (BraidWord, Permutation, _ranks, cyclic_canonical, exponent_sum,
                    extract_braid_word, word_to_text)
from .errors import DegenerateModel, NonConvergent, UnsupportedDegree
from .models import (DimerParams, ModelSpec, _char_coeffs, _disc, _entries, bloch_matrix,
                     bloch_matrix_z)
from .spectrum import (TRACK_SAMPLES_DEFAULT, _WIND_RESIDUAL, _WIND_STEP, _det_grid, _eig_grid,
                       _pair_gaps, _roots, _wind, _winding, eigenvalues, track_bands)

__all__ = [
    "discriminant",
    "dimer_ep_lines",
    "dimer_ep_zplane",
    "zone_boundary_degeneracy_residual",
    "ExceptionalPoint",
    "find_eps_k",
    "most_degenerate_point",
    "ep_zplane_numeric",
    "WindingResult",
    "winding_number",
    "BraidIndex",
    "gamma_axis_references",
    "reference_energies",
    "total_braid_index",
    "AxisSpec",
    "PhaseCell",
    "PhaseDiagram",
    "phase_diagram",
    "DEGENERATE",
]

_TWO_PI = 2.0 * np.pi
DEGENERATE = "DEGENERATE"
_LOG = logging.getLogger("bloch_braids")

# -- discriminants ---------------------------------------------------------

def discriminant(coefficients) -> complex:
    """Discriminant of a monic quadratic or cubic.

    ``[1, b, c]``       -> b^2 - 4c
    ``[1, b, c, d]``    -> 18bcd - 4b^3 d + b^2 c^2 - 4c^3 - 27d^2

    Zero iff the polynomial has a multiple root.
    """
    coeffs = np.asarray(coefficients, dtype=complex)
    if coeffs.ndim != 1 or coeffs.shape[0] not in (3, 4):
        raise UnsupportedDegree(f"need degree 2 or 3, got {coeffs.shape[0] - 1 if coeffs.ndim == 1 else '?'}")
    if coeffs[0] != 1.0:
        raise ValueError(f"polynomial must be monic, got leading coefficient {coeffs[0]}")
    return complex(_disc(tuple(coeffs[1:])))


def dimer_ep_lines(alpha: float, beta: float, m: int = 1) -> tuple[tuple[float, float], ...]:
    """The four dimer exceptional lines as (gamma, k) pairs.

    gamma = +/-(beta - alpha) at k = pi/m and gamma = +/-(beta + alpha) at
    k = 0. On each line both bands coalesce at energy zero.
    """
    k_edge = math.pi / m
    return ((beta - alpha, k_edge), (-(beta - alpha), k_edge),
            (beta + alpha, 0.0), (-(beta + alpha), 0.0))


def dimer_ep_zplane(p: DimerParams) -> list[complex]:
    """Complexified locations of the dimer degeneracy condition.

    Solves the zone-boundary coalescence condition continued off the unit
    circle, alpha^2 + beta^2 - gamma^2 + 2*alpha*beta*z^m = 0, giving m
    points z = ((alpha^2+beta^2-gamma^2)/(2*alpha*beta))^(1/m) * e^{i(2j-1)pi/m}.
    For one m-th-order two-band braid these are the m branch-point markers
    inside (or outside) the zone circle; use
    :func:`zone_boundary_degeneracy_residual` to check membership and
    :func:`ep_zplane_numeric` for the exact discriminant zeros of H(z).
    """
    if p.alpha * p.beta == 0.0:
        raise DegenerateModel("alpha*beta = 0 leaves the z-plane condition degenerate")
    target = -(p.alpha ** 2 + p.beta ** 2 - p.gamma ** 2) / (2.0 * p.alpha * p.beta)
    radius = abs(target) ** (1.0 / p.m)
    if target == 0.0:
        return [0j] * p.m
    base = np.angle(target)
    return [radius * np.exp(1j * (base + _TWO_PI * j) / p.m) for j in range(p.m)]


def zone_boundary_degeneracy_residual(p: DimerParams, z: complex) -> float:
    """|alpha^2 + beta^2 - gamma^2 + 2*alpha*beta*z^m| at a candidate point."""
    return abs(p.alpha ** 2 + p.beta ** 2 - p.gamma ** 2 + 2.0 * p.alpha * p.beta * z ** p.m)


# -- exceptional point search ----------------------------------------------

@dataclass(frozen=True)
class ExceptionalPoint:
    """A two-band coalescence: where, at what energy, which band pair."""

    location: complex
    space: str                  # "k" (real momentum) or "z" (complex plane)
    energy: complex
    bands: tuple[int, int]      # 1-based indices in ascending-real-part order
    model: ModelSpec

    @property
    def k(self) -> float:
        if self.space != "k":
            raise ValueError("not a momentum-space point")
        return float(self.location.real)


def _normalized_disc(spec: ModelSpec, k: float) -> float:
    """|discriminant| scaled by the eigenvalue magnitude, dimensionless."""
    e = _entries(spec, cmath.exp(1j * k))
    n = len(e)
    scale = (1.0 + float(np.abs(_roots(e)).max())) ** (n * (n - 1))
    return abs(_disc(_char_coeffs(e))) / scale


def _golden_min(f, a: float, b: float, tol: float = 1e-12) -> float:
    """Golden-section minimiser of a unimodal scalar function on [a, b]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _coalescing_pair(ev) -> tuple[complex, tuple[int, int]]:
    """Mean energy and (1-based, real-part-ranked) indices of the closest pair."""
    ev = ev[np.argsort(_ranks(ev))]
    i, j = min(itertools.combinations(range(len(ev)), 2), key=lambda p: abs(ev[p[0]] - ev[p[1]]))
    return 0.5 * (ev[i] + ev[j]), (i + 1, j + 1)


_EP_ACCEPT_TOL = 1e-10     # normalized |discriminant| below which a zero's k is an EP


def find_eps_k(spec: ModelSpec) -> list[ExceptionalPoint]:
    """Locate momentum-space exceptional points of a 2- or 3-band model.

    Every zero z of the Laurent discriminant (:func:`_disc_zeros`) whose
    momentum k = arg z, in [0, 2pi), has a normalized |discriminant| below
    1e-10 is an EP. Zeros closer than dk = 1e-6 are merged (a
    double zero splits under rounding, and a zero off the circle can share
    the argument of one on it); the zero nearest |z| = 1 gives the k. An
    empty list means no EP at these parameters; :class:`DegenerateModel`
    means every k is degenerate.
    """
    if spec.n_bands not in (2, 3):
        raise ValueError("exceptional-point search supports 2- and 3-band models")
    found: list[ExceptionalPoint] = []
    for z in sorted(_disc_zeros(spec)[1].tolist(), key=lambda z: abs(abs(z) - 1.0)):
        k = cmath.phase(z) % _TWO_PI
        # a zero on the positive real axis can come out at an angle of
        # -1e-16, which the modulus maps to (or just below) 2pi
        k = 0.0 if _TWO_PI - k < 1e-12 else k
        if _normalized_disc(spec, k) >= _EP_ACCEPT_TOL:
            continue
        if any(abs(k - ep.k) < 1e-6 or abs(abs(k - ep.k) - _TWO_PI) < 1e-6 for ep in found):
            continue
        energy, pair = _coalescing_pair(eigenvalues(bloch_matrix(spec, k)))
        found.append(ExceptionalPoint(complex(k), "k", complex(energy), pair, spec))
    found.sort(key=lambda ep: ep.k)
    return found


def most_degenerate_point(spec: ModelSpec, grid_samples: int = 2048) -> ExceptionalPoint:
    """Global minimum of the band gap over the zone, refined by golden section.

    Unlike :func:`find_eps_k` this applies no acceptance threshold, so it
    reports the nearest approach of two bands near (not only on) a phase
    boundary. Where the gap is smooth in k, golden section fixes k only to
    about sqrt(machine epsilon); :func:`gamma_axis_references` places a
    boundary on its exceptional point by Newton on the discriminant instead.
    """
    ks = np.linspace(0.0, _TWO_PI, grid_samples, endpoint=False)
    idx = int(np.argmin(_pair_gaps(_eig_grid(spec, ks))))
    step = _TWO_PI / grid_samples

    def gap_at(k: float) -> float:
        return float(_pair_gaps(_eig_grid(spec, k)))

    k_star = _golden_min(gap_at, ks[idx] - step, ks[idx] + step) % _TWO_PI
    energy, pair = _coalescing_pair(eigenvalues(bloch_matrix(spec, k_star)))
    return ExceptionalPoint(complex(k_star), "k", complex(energy), pair, spec)


# -- z-plane discriminant zeros --------------------------------------------

def _disc_points(spec: ModelSpec) -> tuple[int, np.ndarray]:
    """(S, the 2S + 1 roots of unity): the discriminant's exponents lie within +/-S."""
    n = spec.n_bands
    s = n * (n - 1) * max(abs(t.n) for t in spec.fourier_terms())
    return s, np.exp(1j * _TWO_PI / (2 * s + 1) * np.arange(2 * s + 1))


def _disc_zeros(spec: ModelSpec) -> tuple[int, np.ndarray]:
    """(lowest exponent, roots) of Disc_E det(E - H(z)) of a 2- or 3-band model.

    Disc = c * z^lowest * prod(z - root). Disc has degree N(N-1) in the
    entries of H(z), so its exponents lie within +/-S, S = N(N-1) max|n|
    over the model's Fourier exponents n; the kernel's discriminant at the
    2S + 1 roots of unity gives its coefficients by one discrete Fourier
    transform. A coefficient below 1e-13 of the largest is taken as zero;
    each one cut at the low end raises the lowest exponent by one, so no
    root is zero. Raises :class:`DegenerateModel` when Disc vanishes
    identically (every point of the plane is degenerate).
    """
    s, z = _disc_points(spec)
    # entry p (mod 2S + 1) of the DFT is (2S + 1) times the coefficient of z^p
    coeffs = np.roll(np.fft.fft(_disc(_char_coeffs(_entries(spec, z)))), s)
    mag = np.abs(coeffs).max()
    if mag == 0.0:
        raise DegenerateModel("the discriminant vanishes identically: two bands coincide "
                              "at every point")
    keep = np.flatnonzero(np.abs(coeffs) > mag * 1e-13)
    c = coeffs[keep[0]:keep[-1] + 1]
    return int(keep[0]) - s, np.roots(c[::-1]) if len(c) > 1 else np.array([], dtype=complex)


_NEWTON_STEPS = 20
_NEWTON_DIFF = 1e-7


def _newton_zeros(spec: ModelSpec, z: np.ndarray) -> np.ndarray:
    """Zeros of the Laurent discriminant polished by Newton on the kernel's discriminant.

    The DFT fixes each coefficient only to about 1e-16 of the largest, so a
    zero far from |z| = 1, which small extreme coefficients place, is
    inaccurate; Newton on Disc evaluated by the kernel at z itself does not
    depend on them. Derivatives are central differences of relative width
    1e-7. No zero moves farther than a quarter of the distance to its
    nearest neighbour, so none is carried onto another. A zero within 1e-6
    |z| of another is a multiple zero split by rounding, where Newton is
    ill-posed; every other zero must settle to a last step below 1e-10 |z|,
    or :class:`NonConvergent` is raised (its coefficients are below the
    resolution of the DFT).
    """
    def disc(z):
        return _disc(_char_coeffs(_entries(spec, z)))

    start, size = z, np.abs(z)
    apart = (np.abs(z[:, None] - z[None, :]) + np.diag(np.full(len(z), np.inf))).min(
        axis=1, initial=np.inf)
    reach = 0.25 * np.minimum(apart, size)
    for _ in range(_NEWTON_STEPS):
        h = _NEWTON_DIFF * z
        with np.errstate(divide="ignore", invalid="ignore"):
            step = 2.0 * h * disc(z) / (disc(z + h) - disc(z - h))
        z = np.where(np.abs(z - step - start) < reach, z - step, z)
    unsettled = ~(np.abs(step) <= 1e-10 * size) & (apart > 1e-6 * size)
    if unsettled.any():
        i = int(np.flatnonzero(unsettled)[0])
        raise NonConvergent(f"the discriminant zero near z = {complex(start[i]):.6g} does not "
                            f"settle under Newton (last step {abs(step[i]) / size[i]:.1e} of "
                            f"|z|): its Laurent coefficients are below the DFT's resolution")
    return z


def _disc_count(spec: ModelSpec) -> int:
    """Winding of the discriminant of det(E - H(e^{ik})) over the zone, from its zeros.

    By the argument principle it is the number of zeros of the Laurent
    discriminant inside |z| < 1 plus its lowest exponent (minus the order
    of its pole at z = 0). It equals the exponent sum of the braid word and
    can change only where a zero crosses |z| = 1: at an exceptional point
    on the zone.
    """
    lo, rts = _disc_zeros(spec)
    return lo + int(np.count_nonzero(np.abs(rts) < 1.0))


def ep_zplane_numeric(spec: ModelSpec) -> list[ExceptionalPoint]:
    """Every discriminant zero of H(z) in the complex plane (2/3-band models).

    The discriminant of det(E - H(z)) is a Laurent polynomial in z; clearing
    the pole turns the zero set into polynomial roots (:func:`_disc_zeros`),
    each polished by Newton on the kernel's discriminant
    (:func:`_newton_zeros`). These are the true branch points of the energy
    surfaces over the z-plane, sorted by modulus (points inside |z| < 1 sit
    inside the zone circle). Raises :class:`DegenerateModel` when the
    discriminant vanishes identically and :class:`NonConvergent` when a
    simple zero does not settle.
    """
    if spec.n_bands not in (2, 3):
        raise ValueError("z-plane search supports 2- and 3-band models")
    out = []
    rts = _disc_zeros(spec)[1]
    for z in _newton_zeros(spec, rts[np.abs(rts) > 1e-12]):
        energy, pair = _coalescing_pair(eigenvalues(bloch_matrix_z(spec, complex(z))))
        out.append(ExceptionalPoint(complex(z), "z", energy, pair, spec))
    out.sort(key=lambda ep: abs(ep.location))
    return out


# -- winding numbers ---------------------------------------------------------

@dataclass(frozen=True)
class WindingResult:
    """Integer winding of det(H(k) - E_ref) around zero over one period."""

    nu: int
    raw: float
    residual: float
    reference_energy: complex
    samples: int


_WINDING_SAMPLES_MAX = 1 << 20


def winding_number(spec: ModelSpec, reference_energy: complex,
                   samples: int = 1024) -> WindingResult:
    """Accumulated phase of det(H(k) - E_ref) over the zone, in units of 2pi.

    From ``samples`` (at least 64) the grid doubles until every phase step
    is below pi/4; a doubling keeps the determinants it has and evaluates
    only the new midpoints. The total is then an integer to well below
    1e-6. Raises :class:`ReferenceOnBand` when the reference energy lies on
    a band (the determinant vanishes) and :class:`NonConvergent` when
    refinement or rounding fails.
    """
    e_ref = complex(reference_energy)
    res = _wind(lambda cells, t: _det_grid(spec, t, e_ref), 1, samples, _WINDING_SAMPLES_MAX)[0]
    if isinstance(res, Exception):
        raise res
    return WindingResult(*res[:3], e_ref, res[3])


# -- reference energies and the total braid index ----------------------------

_WINDING_BATCH_SAMPLES = 1 << 16
_CERT_GRID = 128            # G, the coarse grid of the certified gate
_CERT_MARGIN = 1.01         # each certified bound passes the fine gate's test by this factor
_CERT_ROUNDING = 1e-13      # relative rounding allowance per Laurent coefficient (~450 ulps)


def _dimer_disc(e):
    """D = ((e11 - e22)/2)^2 + e12 e21 = (E1 - E2)^2/4 from the rows of a 2x2 H."""
    (e11, e12), (e21, e22) = e
    return (0.5 * (e11 - e22)) ** 2 + e12 * e21


def _certified(spec: ModelSpec, name: str, values: np.ndarray, k0: float,
               samples: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(nu, certified, slope, low)`` for a dimer row that sets ``name`` to ``values``.

    D(t) = sum_p c_p e^{ipt} (and the band mean) is a Laurent polynomial
    in z = e^{it} of exponents within +/-2m: one DFT of the kernel's values
    at the 4m + 1 roots of unity gives its coefficients, and those of the
    four entries. By the coefficient form of Bernstein's inequality,
    ``slope`` = sum |p c_p| >= max|D'|, and likewise for the mean. Every
    point of the circle lies within pi/G of the G-point grid k0 + 2pi j/G,
    so ``low`` = min over that grid of |D| - (pi/G) slope bounds |D| from
    below, and every step of the tracker's grid is at most
    (2pi/samples) slope. ``certified`` marks the cells whose bounds pass
    each part of the fine gate (:func:`_dimer_windings`) by the factor
    ``_CERT_MARGIN``: phase steps below pi/4 (the total then lies within
    1e-6 of an integer), the jump bound, the gap floor against an upper
    bound on the scale, and the real-part split at k0, evaluated at k0
    itself; and whose coarse steps, at most (2pi/G) slope, stay below
    ``low``, so that no coarse segment winds round 0. ``nu``, the winding
    of D on the coarse grid, is then the fine gate's.

    The fine gate reads values rounded differently from these: numpy's
    temporary elision alone can change D(k0) in its last bits between the
    two grids. Each evaluation of D at a grid point is within ``err`` =
    ``_CERT_ROUNDING`` (4m + 1) (T + (|k0| + 2pi) slope) of D at the exact
    point, where T = (S11 + S22)^2 / 4 + S12 S21 bounds the terms D is
    summed from (S_ij: the sum of the |coefficients| of entry ij); the DFT
    coefficients' errors sum to less, so ``slope`` is raised by 2m err.
    Every rounded value the bounds compare widens them by ``err`` (Re sqrt
    of D(k0) by sqrt(2 err)), and the margin covers the rounding of the
    comparisons themselves, so a certified cell passes the fine gate with
    the same nu.
    """
    top, roots = _disc_points(spec)     # exponents of D within +/-top
    n = len(roots)
    e = _entries(spec, roots, {name: values[:, None]})
    (e11, e12), (e21, e22) = e
    parts = (e11, e12, e21, e22, _dimer_disc(e), 0.5 * (e11 + e22))
    # one DFT: column p (mod n) of each part is n times its coefficient of z^p
    coeffs = np.abs(np.fft.fft(np.stack([np.broadcast_to(x, (len(values), n)) for x in parts]),
                               axis=-1)) / n
    power = np.abs(np.fft.fftfreq(n, 1.0 / n))
    s11, s12, s21, s22, _, s_mean = coeffs.sum(axis=-1)
    slope, slope_mean = coeffs[4:] @ power
    reach = abs(k0) + _TWO_PI
    err = _CERT_ROUNDING * n * (0.25 * (s11 + s22) ** 2 + s12 * s21 + reach * slope)
    err_mean = _CERT_ROUNDING * n * (0.5 * (s11 + s22) + reach * slope_mean)
    slope, slope_mean = slope + top * err, slope_mean + top * err_mean

    t = k0 + np.linspace(0.0, _TWO_PI, _CERT_GRID + 1)
    disc = np.broadcast_to(_dimer_disc(_entries(spec, np.exp(1j * t), {name: values[:, None]})),
                           (len(values), len(t)))
    mag = np.abs(disc)
    half = np.pi / _CERT_GRID
    low = mag.min(axis=1) - half * slope - 2.0 * err
    scale = 1.0 + s_mean + 2.0 * err_mean + np.sqrt(mag.max(axis=1) + half * slope + 2.0 * err)
    h = _TWO_PI / samples
    step = h * slope + 2.0 * err
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.sqrt(np.maximum(low, 0.0))
        jump = h * slope_mean + 2.0 * err_mean + step / (2.0 * math.cos(math.pi / 8.0) * root)
        certified = ((_CERT_MARGIN * step < math.sin(_WIND_STEP) * low)
                     & (_CERT_MARGIN * err < _WIND_RESIDUAL * low)
                     & (_CERT_MARGIN * jump < 0.45 * root)
                     & (_CERT_MARGIN * 1e-6 * scale < root)
                     & (np.abs(np.sqrt(disc[:, 0]).real) - np.sqrt(2.0 * err)
                        > _CERT_MARGIN * 1e-6 * scale)
                     & (_CERT_MARGIN * (2.0 * half * slope + 2.0 * err) < low))
    nu = _winding(disc)[0]
    return nu.astype(int), certified, slope, low


def _dimer_windings(spec: ModelSpec, name: str, values: np.ndarray, k0: float,
                    samples: int) -> tuple[np.ndarray, np.ndarray]:
    """``(nu, fast)`` for a dimer row that sets parameter ``name`` to ``values``.

    ``nu`` is the winding of D = ((e11 - e22)/2)^2 + e12 e21 = (E1 - E2)^2/4
    over the tracker's first grid, k0 + linspace(0, 2pi, samples + 1).
    ``fast`` marks the cells where that grid guarantees what the tracker and
    reader would find there: D obeys the winding rule (every phase step
    below pi/4, the total an integer to 1e-6); the largest step of a band,
    bounded by max|d mean| + max|dD| / (2 cos(pi/8) sqrt(min|D|)), stays
    below 0.45 sqrt(min|D|), half the smallest gap; that half gap exceeds
    1e-6 of the spectral scale; and the real parts at k0 differ by more than
    1e-6 of it. :func:`_classify` runs it on the cells that
    :func:`_certified` leaves.
    """
    t = k0 + np.linspace(0.0, _TWO_PI, samples + 1)
    e = _entries(spec, np.exp(1j * t), {name: values[:, None]})
    shape = (len(values), samples + 1)
    # the mean is reduced and released before D is formed: the fewer arrays a
    # batch holds at once, the less the worker threads' heaps fragment
    mean = np.broadcast_to(0.5 * (e[0][0] + e[1][1]), shape)
    mean_max, mean_jump = np.abs(mean).max(axis=1), np.abs(np.diff(mean, axis=1)).max(axis=1)
    del mean
    disc = np.broadcast_to(_dimer_disc(e), shape)
    del e
    nu, _, fine, integral = _winding(disc)
    mag = np.abs(disc)
    half_gap = np.sqrt(mag.min(axis=1))
    scale = 1.0 + mean_max + np.sqrt(mag.max(axis=1))   # >= 1 + max|E|
    del mag
    with np.errstate(divide="ignore", invalid="ignore"):
        jump = (mean_jump + np.abs(np.diff(disc, axis=1)).max(axis=1)
                / (2.0 * math.cos(math.pi / 8.0) * half_gap))
    fast = (fine & integral & (jump < 0.45 * half_gap) & (half_gap > 1e-6 * scale)
            & (np.abs(np.sqrt(disc[:, 0]).real) > 1e-6 * scale))
    return nu.astype(int), fast


def _b2_label(nu: int) -> tuple[str, int, Permutation]:
    """The label of a two-band cell of winding ``nu``: t1^nu, nu, and its closure."""
    word = BraidWord(((1, 1 if nu > 0 else -1),) * abs(nu), 2)
    return word_to_text(cyclic_canonical(word)), nu, Permutation((1, 0) if nu % 2 else (0, 1))


def _classify(spec: ModelSpec, name: str, values, k0: float, samples: int) -> tuple[list, int]:
    """Label each cell of a row that sets parameter ``name`` of ``spec`` to ``values``.

    Returns the labels and the number of cells the tracker labelled. A label
    is (canonical word text, exponent sum, closure permutation); a cell that
    fails (on an exceptional point, at the refinement cap, at a degenerate
    or unresolved crossing) gets the exception it failed with. The braid
    group of two bands is Abelian, so a dimer cell whose discriminant
    winding nu is well conditioned on the tracker's first grid is labelled
    from nu alone: first, for the whole row at once, wherever bounds from
    the Laurent coefficients of D and a coarse grid certify it
    (:func:`_certified`), then, in cache-sized batches of the cells left,
    wherever the fine gate on the tracker's grid finds it
    (:func:`_dimer_windings`). Every other cell is tracked and read, in one
    call of the family's row classifier. The row's DEBUG record counts the
    certified and the tracked cells.
    """
    if samples < 64:    # the tracker's floor, also where no cell reaches it
        raise ValueError(f"need at least 64 samples, got {samples}")
    values = np.asarray(values, dtype=float)
    labels: list = [None] * len(values)
    rest = np.arange(len(values))
    certified = 0
    if spec.kind == "dimer":
        nu, fast = _certified(spec, name, values, k0, samples)[:2]
        certified = int(np.count_nonzero(fast))
        rest = np.flatnonzero(~fast)
        batch = max(1, _WINDING_BATCH_SAMPLES // (samples + 1))   # cache-sized batches
        for s in range(0, len(rest), batch):
            cells = rest[s:s + batch]
            nu[cells], fast[cells] = _dimer_windings(spec, name, values[cells], k0, samples)
        by_nu = {v: _b2_label(v) for v in set(nu[fast].tolist())}
        for i, v in zip(np.flatnonzero(fast).tolist(), nu[fast].tolist()):
            labels[i] = by_nu[v]
        rest = np.flatnonzero(~fast)
    if len(rest):
        row_classify = {"dimer": sweep.dimer_row_classify,
                        "trimer": sweep.trimer_row_classify}[spec.kind]
        for i, res in zip(rest.tolist(), row_classify(spec, name, values[rest], k0=k0,
                                                      samples=samples)):
            labels[i] = (res if isinstance(res, Exception) else
                         (word_to_text(cyclic_canonical(res[0])), exponent_sum(res[0]), res[1]))
    _LOG.debug("%s row over %s: %d cells, %d certified, %d tracked", spec.kind, name,
               len(values), certified, len(rest))
    return labels, len(rest)


def _brackets(key, lo: float, key_lo, hi: float, key_hi, resolution: float) -> list:
    """Sub-intervals of [lo, hi] across which ``key`` changes, halved down to ``resolution``.

    Bisection: each interval whose ends differ in key is halved, and every
    half whose ends still differ is kept. A midpoint whose key is None (a
    label that failed), or one that no longer lies strictly inside its
    interval in floating point, ends the halving of its interval, which is
    returned as it stands.
    """
    work = [(lo, key_lo, hi, key_hi)]
    out = []
    while work:
        a, key_a, b, key_b = work.pop()
        mid = 0.5 * (a + b)
        key_mid = key(mid) if abs(b - a) >= resolution and mid not in (a, b) else None
        if key_mid is None:
            out.append((a, b))
            continue
        if key_mid != key_a:
            work.append((a, key_a, mid, key_mid))
        if key_mid != key_b:
            work.append((mid, key_mid, b, key_b))
    return out


def _polish(spec: ModelSpec, g_lo: float, g_hi: float) -> tuple[float, float]:
    """(k*, gamma*) with Disc(e^{ik*}; gamma*) = 0 and gamma* between g_lo and g_hi.

    Newton in the two real unknowns (k, gamma) on the one complex equation,
    with central-difference derivatives, from the bracket midpoint and the
    argument of the discriminant zero nearest |z| = 1 there. Raises
    :class:`NonConvergent` when it has not converged within the step cap
    or converges outside the bracket.
    """
    g = 0.5 * (g_lo + g_hi)
    rts = _disc_zeros(spec.replace_param("gamma", g))[1]
    k = float(np.angle(rts[np.argmin(np.abs(np.abs(rts) - 1.0))]))

    def disc(k: float, g: float) -> complex:
        return _disc(_char_coeffs(_entries(spec, cmath.exp(1j * k), {"gamma": g})))

    h = _NEWTON_DIFF
    for _ in range(_NEWTON_STEPS):
        f = disc(k, g)
        d_k = (disc(k + h, g) - disc(k - h, g)) / (2.0 * h)
        d_g = (disc(k, g + h) - disc(k, g - h)) / (2.0 * h)
        jac = np.array([[d_k.real, d_g.real], [d_k.imag, d_g.imag]])
        try:
            step_k, step_g = np.linalg.solve(jac, [-f.real, -f.imag])
        except np.linalg.LinAlgError:
            break
        k += step_k
        g += step_g
        if abs(step_k) < 1e-12 and abs(step_g) < 1e-12 * (1.0 + abs(g)):
            if min(g_lo, g_hi) <= g <= max(g_lo, g_hi):
                return float(k % _TWO_PI), float(g)
            break
    raise NonConvergent(f"no exceptional point found for gamma in [{min(g_lo, g_hi)}, "
                        f"{max(g_lo, g_hi)}]: Newton ended at gamma = {g}, k = {k}")


_GAMMA_RESOLUTION = 1e-5    # the width to which a gamma-axis boundary is bisected


def gamma_axis_references(spec: ModelSpec, *, k0: float = np.pi / 4, coarse_steps: int = 16
                          ) -> list[tuple[float, complex, tuple[int, int]]]:
    """Phase boundaries on the gamma axis between this point and gamma ~ 0.

    Holding every other parameter fixed, the discriminant count
    (:func:`_disc_count`, the winding of the discriminant over the zone) is
    evaluated on a coarse gamma grid from just above zero up to the model's
    gamma, and each change is bisected to 1e-5. Newton on
    Disc(e^{ik}; gamma) = 0 then places each boundary on its exceptional
    point (k*, gamma*), inside its bracket; the coalescing band pair there
    and its double-root energy are recorded. As a cross-check the coarse grid is also labelled by
    braid word, as one row tracked at 512 samples from ``k0``; where two
    settled neighbours differ in label but not in count, that interval is
    bisected by label instead, with a warning. Returns (gamma*, energy, band
    pair) triples in order of increasing |gamma*|; raises
    :class:`NonConvergent` when a boundary cannot be polished, and
    ``ValueError`` unless ``coarse_steps >= 1``.
    """
    if spec.kind == "generic":
        raise ValueError("gamma-axis scan needs a named gamma parameter")
    if not coarse_steps >= 1:
        raise ValueError(f"need coarse_steps >= 1, got {coarse_steps}")
    g_target = spec.params.gamma
    if g_target == 0.0:
        return []

    def count(g: float) -> int:
        return _disc_count(spec.replace_param("gamma", g))

    def label(g: float):
        lab = _classify(spec, "gamma", [g], k0, TRACK_SAMPLES_DEFAULT)[0][0]
        return None if isinstance(lab, Exception) else lab

    gs = np.linspace(g_target * 1e-3, g_target, coarse_steps + 1).tolist()
    counts = [count(g) for g in gs]
    labels = _classify(spec, "gamma", gs, k0, TRACK_SAMPLES_DEFAULT)[0]
    brackets = []
    for i in range(coarse_steps):
        lo, hi = gs[i], gs[i + 1]
        if counts[i] != counts[i + 1]:
            brackets += _brackets(count, lo, counts[i], hi, counts[i + 1], _GAMMA_RESOLUTION)
        elif (not isinstance(labels[i], Exception) and not isinstance(labels[i + 1], Exception)
              and labels[i] != labels[i + 1]):
            warnings.warn(f"braid label changes from {labels[i][0]!r} to {labels[i + 1][0]!r} "
                          f"between gamma = {lo} and {hi} while the discriminant count stays "
                          f"{counts[i]}; bisecting by label", RuntimeWarning, stacklevel=2)
            brackets += _brackets(label, lo, labels[i], hi, labels[i + 1], _GAMMA_RESOLUTION)
    boundaries = []
    for lo, hi in brackets:
        k_star, g_star = _polish(spec, lo, hi)
        entries = _entries(spec, cmath.exp(1j * k_star), {"gamma": g_star})
        mean, pair = _coalescing_pair(eigenvalues(np.array(entries, dtype=complex)))
        # the coalescing eigenvalues are each off by about sqrt(machine
        # epsilon) here; their double root is the zero of d/dE det(E - H)
        # nearest their mean, which is well conditioned
        crit = np.roots(np.polyder(np.array([1.0, *_char_coeffs(entries)])))
        boundaries.append((g_star, complex(crit[np.argmin(np.abs(crit - mean))]), pair))
    boundaries.sort(key=lambda be: abs(be[0]))
    return boundaries


@dataclass(frozen=True)
class BraidIndex:
    """Total braid invariant: sum of windings over the EP reference energies."""

    nu: int
    parts: tuple[WindingResult, ...]
    references: tuple[complex, ...]


def reference_energies(spec: ModelSpec, *, k0: float = np.pi / 4) -> list[complex]:
    """EP reference energies for the winding index of this model.

    The dimer's reference is always energy zero: both bands vanish on every
    exceptional line. For the trimer the gamma axis is scanned to the
    trivial phase (:func:`gamma_axis_references`: boundaries located by the
    discriminant count and polished onto their exceptional points) and each
    DISTINCT coalescing band pair contributes the double-root energy of its
    boundary crossing nearest the model's own gamma (a single exceptional
    line crossed twice by the scan is one reference, not two).
    """
    if spec.kind == "dimer":
        return [0j]
    if spec.kind == "trimer":
        refs: list[complex] = []
        seen_pairs: set[tuple[int, int]] = set()
        for g_star, energy, pair in reversed(gamma_axis_references(spec, k0=k0)):
            if pair in seen_pairs:
                continue
            seen_pairs.add(pair)
            if not any(abs(energy - r) < 1e-3 * (1.0 + abs(energy)) for r in refs):
                refs.append(energy)
        return refs
    raise ValueError("reference energies are defined for the dimer and trimer families")


def total_braid_index(spec: ModelSpec, *, k0: float = np.pi / 4) -> BraidIndex:
    """Sum of spectral winding numbers over the model's EP reference energies.

    References come from :func:`reference_energies`, each wound from 1024
    samples. The result equals the exponent sum of the extracted braid word
    on every phase tested.
    """
    refs = reference_energies(spec, k0=k0)
    parts = tuple(winding_number(spec, e) for e in refs)
    return BraidIndex(sum(p.nu for p in parts), parts, tuple(refs))


# -- phase diagrams -----------------------------------------------------------

@dataclass(frozen=True)
class AxisSpec:
    """One swept parameter: inclusive range sampled at ``resolution`` points."""

    name: str
    start: float
    stop: float
    resolution: int

    def __post_init__(self):
        if self.resolution < 2:
            raise ValueError("axis needs at least 2 samples")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.resolution)

    @property
    def spacing(self) -> float:
        return abs(self.stop - self.start) / (self.resolution - 1)


@dataclass(frozen=True)
class PhaseCell:
    """Classification of one grid cell."""

    value1: float
    value2: float
    word: str                   # canonical cyclic text, or "DEGENERATE"
    nu: int | None
    permutation: Permutation | None

    @property
    def degenerate(self) -> bool:
        return self.word == DEGENERATE

    @property
    def label(self):
        """Key identifying the phase: word, exponent sum, closure permutation."""
        if self.degenerate:
            return DEGENERATE
        return (self.word, self.nu, self.permutation.image)


def _thread_count(requested: int | None = None) -> int:
    source = "threads"
    if requested is None:
        source = "BLOCH_BRAIDS_THREADS"
        raw = os.environ.get("BLOCH_BRAIDS_THREADS", "0").strip() or "0"
        try:
            requested = int(raw)
        except ValueError:
            raise ValueError(f"BLOCH_BRAIDS_THREADS must be an integer, got {raw!r}") from None
    if requested < 0:
        raise ValueError(f"{source} must be 0 (automatic) or a worker count, got {requested}")
    if requested == 0:
        return max(1, min(8, os.cpu_count() or 1))
    return requested


@dataclass(eq=False)
class PhaseDiagram:
    """Braid classification of a 2-parameter plane: a label table and an id grid.

    ``labels`` lists each distinct (word, nu, permutation) once, in row-major
    order of first appearance; cells where tracking or extraction hits an
    exceptional point share the entry ``(DEGENERATE, None, None)`` and trace
    out the phase-boundary lines. ``ids[i, j]`` indexes cell (i, j)'s label.
    """

    template: ModelSpec
    axis1: AxisSpec
    axis2: AxisSpec
    labels: list[tuple]
    ids: np.ndarray
    k0: float
    samples: int
    tracked_cells: int = 0      # cells labelled by the tracker, not by their winding

    @functools.cached_property
    def cells(self) -> list[list[PhaseCell]]:
        """Every cell as a :class:`PhaseCell`, row by row, built on first access."""
        vals2 = self.axis2.values().tolist()
        return [[PhaseCell(v1, v2, *self.labels[k]) for v2, k in zip(vals2, row)]
                for v1, row in zip(self.axis1.values().tolist(), self.ids.tolist())]

    def _cell(self, i: int, j: int) -> PhaseCell:
        return PhaseCell(float(self.axis1.values()[i]), float(self.axis2.values()[j]),
                         *self.labels[self.ids[i, j]])

    def cell_at(self, value1: float, value2: float) -> PhaseCell:
        """The cell whose grid point lies nearest to (value1, value2)."""
        return self._cell(int(np.argmin(np.abs(self.axis1.values() - value1))),
                          int(np.argmin(np.abs(self.axis2.values() - value2))))

    def degenerate_cells(self) -> list[PhaseCell]:
        degenerate = np.array([word == DEGENERATE for word, _, _ in self.labels])
        return [self._cell(i, j) for i, j in zip(*np.nonzero(degenerate[self.ids]))]

    def boundary_segments(self) -> list[dict]:
        """Midpoints between adjacent cells with different phase labels.

        Each segment records the two cell centres it separates and both
        labels; chained per label pair they draw the phase-boundary lines.
        They run in row-major order, a cell's lower neighbour before its right.
        """
        ids = self.ids
        edges = np.zeros(ids.shape + (2,), dtype=bool)
        edges[:-1, :, 0] = ids[:-1] != ids[1:]
        edges[:, :-1, 1] = ids[:, :-1] != ids[:, 1:]
        i, j, right = np.nonzero(edges)
        ii, jj = i + 1 - right, j + right
        vals1, vals2 = self.axis1.values(), self.axis2.values()
        words = [word for word, _, _ in self.labels]
        return [{"point": (x, y), "labels": sorted([words[a], words[b]])}
                for x, y, a, b in zip((0.5 * (vals1[i] + vals1[ii])).tolist(),
                                      (0.5 * (vals2[j] + vals2[jj])).tolist(),
                                      ids[i, j].tolist(), ids[ii, jj].tolist())]

    def boundary_polylines(self) -> list[dict]:
        """Boundary midpoints grouped by label pair and chained into runs."""
        groups: dict[tuple[str, str], list[tuple[float, float]]] = {}
        for seg in self.boundary_segments():
            groups.setdefault(tuple(seg["labels"]), []).append(seg["point"])
        out = []
        max_step = 2.0 * math.hypot(self.axis1.spacing, self.axis2.spacing)
        for labels, pts in sorted(groups.items()):
            pts = sorted(pts)
            run: list[tuple[float, float]] = []
            for p in pts:
                if run and math.hypot(p[0] - run[-1][0], p[1] - run[-1][1]) > max_step:
                    out.append({"labels": list(labels), "points": run})
                    run = []
                run.append(p)
            if run:
                out.append({"labels": list(labels), "points": run})
        return out


def phase_diagram(template: ModelSpec, axis1, axis2, *,
                  k0: float = np.pi / 4, samples: int = 512,
                  threads: int | None = None) -> PhaseDiagram:
    """Classify the braid phase on a 2-parameter grid.

    ``axis1`` and ``axis2`` are :class:`AxisSpec` or (name, start, stop,
    resolution) tuples naming scalar parameters of the template model. Each
    row of ``axis2`` cells is labelled as one batch (:func:`_classify`): a
    dimer cell whose discriminant winding is well conditioned on the
    tracker's first grid from that winding alone, every other cell by the
    rules of :func:`track_bands` and :func:`extract_braid_word`, tracked and
    read as one batch; a cell where they fail is DEGENERATE.
    ``tracked_cells`` of the result counts the tracked cells, and each row
    logs one DEBUG record to the ``bloch_braids`` logger. Rows run in a
    thread pool (``threads``, else BLOCH_BRAIDS_THREADS, caps the worker
    count; 0 means automatic, a negative count raises ``ValueError``); the
    labels are interned after the pool, so ids never depend on scheduling.
    """
    axis1 = axis1 if isinstance(axis1, AxisSpec) else AxisSpec(*axis1)
    axis2 = axis2 if isinstance(axis2, AxisSpec) else AxisSpec(*axis2)
    if template.kind == "generic":
        raise ValueError("phase diagrams need named scalar parameters (dimer or trimer)")
    field_names = set(template.params.__dataclass_fields__) - {"m"}
    for ax in (axis1, axis2):
        if ax.name not in field_names:
            raise ValueError(f"model has no sweepable parameter {ax.name!r} "
                             f"(available: {sorted(field_names)})")
    if axis1.name == axis2.name:
        raise ValueError(f"both axes sweep {axis1.name!r}; a phase diagram needs two parameters")
    if getattr(template.params, "delta", None) == 0.0:
        warnings.warn("delta = 0 has no long-range coupling: braids are trivial and the "
                      "exceptional structure is outside the validated regime", stacklevel=2)

    vals1 = axis1.values()
    vals2 = axis2.values()

    def classify_row(i: int) -> tuple[list, int]:
        return _classify(template.replace_param(axis1.name, float(vals1[i])), axis2.name, vals2,
                         k0, samples)

    workers = _thread_count(threads)
    if workers == 1:
        rows = [classify_row(i) for i in range(len(vals1))]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(classify_row, range(len(vals1))))
    index: dict = {}        # label -> id, in row-major order of first appearance
    ids = np.array([[index.setdefault((DEGENERATE, None, None) if isinstance(lab, Exception)
                                      else lab, len(index)) for lab in row] for row, _ in rows],
                   dtype=np.intp)
    return PhaseDiagram(template, axis1, axis2, list(index), ids, k0, samples,
                        sum(tracked for _, tracked in rows))
