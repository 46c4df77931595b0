"""Phase-diagram rows: many cells through the one tracker and crossing reader.

A row is a batch of cells of one family that differ in their parameter
values. It is tracked by the batched tracker behind
:func:`bloch_braids.spectrum.track_bands` and read by the batched crossing
reader behind :func:`bloch_braids.braid.extract_braid_word`, with the model
kernel evaluated on (cells, samples) parameter arrays, so each cell meets
exactly the rules of the one-cell path. A cell that fails (on an
exceptional point, at the refinement cap, at a degenerate or an unresolved
crossing) gets its exception as its result. :func:`dimer_winding_row` winds
det(H - E_ref) over a row of dimer cells, as an independent check.
"""

from __future__ import annotations

import numpy as np

from .braid import Permutation, _read_words
from .models import ModelSpec, _det_minus, _dimer_entries
from .spectrum import TRACK_SAMPLES_DEFAULT, _eig_grid, _track

__all__ = ["dimer_row_classify", "trimer_row_classify", "dimer_winding_row"]

_TWO_PI = 2.0 * np.pi


def _classify_row(kind: str, m: int, k0: float, samples: int, **values) -> list:
    """Per cell: ``(word, closure permutation)``, or the exception the cell failed with.

    ``values`` gives every named parameter, as one number or per-cell values.
    """
    values = {name: np.asarray(v, dtype=float) for name, v in values.items()}
    shape = np.broadcast_shapes(*(v.shape for v in values.values()), (1,))
    first = {name: float(v.flat[0]) for name, v in values.items()}
    spec = ModelSpec.from_json_dict({"kind": kind, "params": {**first, "m": m}})
    varied = {name: np.broadcast_to(v, shape) for name, v in values.items() if v.ndim}

    def raw_at(cells, t):
        return _eig_grid(spec, t, None, {name: v[cells] for name, v in varied.items()})

    results: list = [None] * shape[0]
    failures: dict = {}
    for group in _track(raw_at, np.arange(shape[0]), float(k0), int(samples), failures):
        words = _read_words(group.t_grid, group.bands, group.scale,
                            lambda cells, t: raw_at(group.cells[cells], t))
        for cell, word, image in zip(group.cells.tolist(), words, group.closure.tolist()):
            results[cell] = word if isinstance(word, Exception) else (word, Permutation(image))
    for cell, exc in failures.items():
        results[cell] = exc
    return results


def dimer_row_classify(alpha, beta, delta, gamma, m: int, *, k0: float,
                       samples: int = TRACK_SAMPLES_DEFAULT) -> list:
    """Classify a row of dimer cells; the parameters broadcast to the cell count.

    Give a parameter shared by all cells as a number (the kernel then
    evaluates it per sample, not per cell). Returns, per cell,
    ``(word, closure permutation)`` or the tracking error it failed with.
    """
    return _classify_row("dimer", m, k0, samples,
                         alpha=alpha, beta=beta, delta=delta, gamma=gamma)


def trimer_row_classify(alpha, beta, delta, gamma, v, m: int, *, k0: float,
                        samples: int = TRACK_SAMPLES_DEFAULT) -> list:
    """:func:`dimer_row_classify` for a row of trimer cells."""
    return _classify_row("trimer", m, k0, samples,
                         alpha=alpha, beta=beta, delta=delta, gamma=gamma, v=v)


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
