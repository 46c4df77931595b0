"""Vectorised two-band sweep engine for large phase diagrams.

Classifying a 300x600 grid cell by cell costs ~0.5 ms of Python overhead per
cell; this module instead evaluates a whole row of cells as (cells, samples)
arrays. The semantics match the scalar path exactly: same tolerances, same
matched-jump refinement rule, same bisection-refined crossing signs. Cells
the batch cannot settle (base-point ties, refinement failures, coincident
crossings) fall back to the scalar classifier.

Only dimer-family sweeps take this path; three-band and generic sweeps use
the per-cell route, whose grids are small in practice. The entries, the
eigenvalue pair and det(H - E_ref) come from the same model kernel as the
per-cell route, evaluated on parameter arrays of shape (cells, 1) against
samples of shape (1, samples); the two branches stay separate arrays.
"""

from __future__ import annotations

import numpy as np

from .braid import BraidWord, Permutation
from .models import _det_minus, _dimer_entries
from .spectrum import DEGENERACY_RTOL, TRACK_SAMPLES_DEFAULT, _quadratic

__all__ = ["dimer_row_classify", "dimer_winding_row"]

_TWO_PI = 2.0 * np.pi
_BISECTION_WIDTH = 2.0 * np.pi * 1e-6


def dimer_row_classify(alpha, beta, delta, gamma, m: int, *, k0: float,
                       samples: int = TRACK_SAMPLES_DEFAULT):
    """Classify a row of dimer cells in one vectorised pass.

    ``alpha``..``gamma`` broadcast to the cell count. Returns a list (one
    entry per cell) of either ``None`` (batch could not settle the cell:
    degenerate or needs the scalar path; the caller decides which by
    re-running it) or ``(letters, closure_image)`` with letters as a tuple
    of (1, sign) pairs in crossing order.
    """
    alpha, beta, delta, gamma = np.broadcast_arrays(
        np.atleast_1d(np.asarray(alpha, float)), np.atleast_1d(np.asarray(beta, float)),
        np.atleast_1d(np.asarray(delta, float)), np.atleast_1d(np.asarray(gamma, float)))
    cells = alpha.shape[0]
    a = alpha[:, None]
    b = beta[:, None]
    d = delta[:, None]
    g = gamma[:, None]
    t = k0 + np.linspace(0.0, _TWO_PI, samples + 1)[None, :]

    r0, r1 = _quadratic(_dimer_entries(a, b, d, g, np.exp(1j * m * t)))
    scale = 1.0 + np.maximum(np.abs(r0), np.abs(r1)).max(axis=1)
    gap = np.abs(r0 - r1)
    gap_min = gap.min(axis=1)
    degenerate = gap_min < DEGENERACY_RTOL * scale

    # matching between consecutive samples: keep or swap the branch pairing
    keep_a = np.abs(r0[:, 1:] - r0[:, :-1])
    keep_b = np.abs(r1[:, 1:] - r1[:, :-1])
    swap_a = np.abs(r1[:, 1:] - r0[:, :-1])
    swap_b = np.abs(r0[:, 1:] - r1[:, :-1])
    swap = (swap_a + swap_b) < (keep_a + keep_b)
    jumps = np.where(swap, np.maximum(swap_a, swap_b), np.maximum(keep_a, keep_b))
    needs_refine = jumps.max(axis=1) >= 0.5 * gap_min

    flips = np.zeros((cells, samples + 1), dtype=bool)
    flips[:, 1:] = np.cumsum(swap, axis=1) % 2 == 1

    # initial order by real part (imaginary tie-break); ties go to the scalar path
    re0 = np.stack([r0[:, 0].real, r1[:, 0].real], axis=1)
    im0 = np.stack([r0[:, 0].imag, r1[:, 0].imag], axis=1)
    tie = np.abs(re0[:, 0] - re0[:, 1]) < 1e-9 * scale
    first_is_lower = (re0[:, 0] < re0[:, 1]) | ((re0[:, 0] == re0[:, 1]) & (im0[:, 0] <= im0[:, 1]))

    # tracked bands: band 0 starts lower in real part
    lower_is_r0 = first_is_lower[:, None] ^ flips
    band0 = np.where(lower_is_r0, r0, r1)
    band1 = np.where(lower_is_r0, r1, r0)

    closure_swap = flips[:, -1]
    closure_residual = np.maximum(
        np.abs(band0[:, -1] - np.where(closure_swap, band1[:, 0], band0[:, 0])),
        np.abs(band1[:, -1] - np.where(closure_swap, band0[:, 0], band1[:, 0])))
    bad_closure = closure_residual > 1e-8 * scale

    # crossing events: sign changes of the tracked real-part difference
    dre = (band1 - band0).real
    zero_on_sample = np.any(dre == 0.0, axis=1)
    change = (dre[:, 1:] > 0) != (dre[:, :-1] > 0)

    fallback = tie | needs_refine | bad_closure | zero_on_sample
    ev_cell, ev_step = np.nonzero(change & ~(degenerate | fallback)[:, None])

    # batched bisection for every crossing of the row
    n_ev = len(ev_cell)
    if n_ev:
        tl = t[0, ev_step].copy()
        tr = t[0, ev_step + 1].copy()
        e0 = band0[ev_cell, ev_step].copy()
        e1 = band1[ev_cell, ev_step].copy()
        dl = dre[ev_cell, ev_step].copy()
        ea = alpha[ev_cell]
        eb = beta[ev_cell]
        ed = delta[ev_cell]
        eg = gamma[ev_cell]
        while (tr - tl).max() > _BISECTION_WIDTH:
            tm = 0.5 * (tl + tr)
            m0, m1 = _quadratic(_dimer_entries(ea, eb, ed, eg, np.exp(1j * m * tm)))
            cost_keep = np.abs(m0 - e0) + np.abs(m1 - e1)
            cost_swap = np.abs(m1 - e0) + np.abs(m0 - e1)
            sw = cost_swap < cost_keep
            em0 = np.where(sw, m1, m0)
            em1 = np.where(sw, m0, m1)
            dm = (em1 - em0).real
            go_left = (dm == 0.0) | ((dm > 0) == (dl > 0))
            tl = np.where(go_left, tm, tl)
            tr = np.where(go_left, tr, tm)
            e0 = np.where(go_left, em0, e0)
            e1 = np.where(go_left, em1, e1)
            dl = np.where(go_left, dm, dl)
        tm = 0.5 * (tl + tr)
        m0, m1 = _quadratic(_dimer_entries(ea, eb, ed, eg, np.exp(1j * m * tm)))
        sw = (np.abs(m1 - e0) + np.abs(m0 - e1)) < (np.abs(m0 - e0) + np.abs(m1 - e1))
        em0 = np.where(sw, m1, m0)
        em1 = np.where(sw, m0, m1)
        # sign convention: read Im(upper - lower) at the crossing, with
        # upper/lower the real-part ranking just before it
        imdiff = np.where(dl > 0, (em1 - em0).imag, (em0 - em1).imag)
        ep_like = np.abs(imdiff) < 1e-8 * scale[ev_cell]
        signs = np.where(imdiff > 0, 1, -1)
    else:
        tm = signs = ep_like = np.array([])

    out: list = []
    per_cell_events: list[list[tuple[float, int]]] = [[] for _ in range(cells)]
    for i in range(n_ev):
        c = int(ev_cell[i])
        if ep_like[i]:
            degenerate[c] = True
        else:
            per_cell_events[c].append((float(tm[i]), int(signs[i])))
    for c in range(cells):
        if degenerate[c]:
            out.append(("degenerate", None))
        elif fallback[c]:
            out.append(None)
        else:
            letters = tuple((1, s) for _, s in sorted(per_cell_events[c]))
            image = (1, 0) if closure_swap[c] else (0, 1)
            out.append((BraidWord(letters, 2), Permutation(image)))
    return out


def dimer_winding_row(alpha, beta, delta, gamma, m: int, e_ref: complex = 0j,
                      samples: int = 1024, max_samples: int = 1 << 16):
    """Winding of det(H(k)-E_ref) for a row of dimer cells at once.

    Returns (nu, ok): integer windings and a validity mask; cells whose
    phase steps stay too coarse even at ``max_samples`` or whose reference
    sits on a band come back with ok=False (use the scalar routine there).
    """
    alpha, beta, delta, gamma = np.broadcast_arrays(
        np.atleast_1d(np.asarray(alpha, float)), np.atleast_1d(np.asarray(beta, float)),
        np.atleast_1d(np.asarray(delta, float)), np.atleast_1d(np.asarray(gamma, float)))
    cells = alpha.shape[0]
    nu = np.zeros(cells, dtype=int)
    ok = np.zeros(cells, dtype=bool)
    todo = np.arange(cells)
    k = samples
    while len(todo) and k <= max_samples:
        a = alpha[todo][:, None]
        b = beta[todo][:, None]
        d = delta[todo][:, None]
        g = gamma[todo][:, None]
        t = np.linspace(0.0, _TWO_PI, k + 1)[None, :]
        det = _det_minus(_dimer_entries(a, b, d, g, np.exp(1j * m * t)), e_ref)
        mags = np.abs(det)
        on_band = mags.min(axis=1) < 1e-12 * (1.0 + mags.max(axis=1))
        steps = np.diff(np.angle(det), axis=1)
        steps = (steps + np.pi) % _TWO_PI - np.pi
        fine = np.abs(steps).max(axis=1) < np.pi / 4.0
        raw = steps.sum(axis=1) / _TWO_PI
        rounded = np.round(raw)
        good = fine & ~on_band & (np.abs(raw - rounded) < 1e-6)
        nu[todo[good]] = rounded[good].astype(int)
        ok[todo[good]] = True
        todo = todo[~good & ~on_band]
        k *= 2
    return nu, ok
