"""Phase-diagram rows: many cells through the one tracker and crossing reader.

A row is a batch of cells of one family that differ in their parameter
values. :func:`bloch_braids.topology.phase_diagram` sends here every trimer
cell and the dimer cells whose discriminant winding does not settle their
label on the tracker's first grid; the rest of a dimer row never reaches
this module. A row is tracked by the batched tracker behind
:func:`bloch_braids.spectrum.track_bands` and read by the batched crossing
reader behind :func:`bloch_braids.braid.extract_braid_word`, with the model
kernel evaluated on (cells, samples) parameter arrays, so each cell meets
exactly the rules of the one-cell path. A cell that fails (on an
exceptional point, at the refinement cap, at a degenerate or an unresolved
crossing) gets its exception as its result. :func:`dimer_winding_row` winds
det(H - E_ref) over a row of dimer cells, as an independent check, through
the batched winder behind :func:`bloch_braids.topology.winding_number`.
"""

from __future__ import annotations

import numpy as np

from .braid import Permutation, _read_words
from .models import ModelSpec
from .spectrum import TRACK_SAMPLES_DEFAULT, _det_grid, _eig_grid, _track, _wind

__all__ = ["dimer_row_classify", "trimer_row_classify", "dimer_winding_row"]


def _row(kind: str, m: int, **values):
    """``(spec, values_at, n)``: the row's first cell, the kernel ``values`` of
    the cells indexed by ``cells``, and the cell count.

    ``values`` gives every named parameter, as one number or per-cell values.
    """
    values = {name: np.asarray(v, dtype=float) for name, v in values.items()}
    shape = np.broadcast_shapes(*(v.shape for v in values.values()), (1,))
    first = {name: float(v.flat[0]) for name, v in values.items()}
    spec = ModelSpec.from_json_dict({"kind": kind, "params": {**first, "m": m}})
    varied = {name: np.broadcast_to(v, shape) for name, v in values.items() if v.ndim}
    return spec, lambda cells: {name: v[cells] for name, v in varied.items()}, shape[0]


def _classify_row(kind: str, m: int, k0: float, samples: int, **values) -> list:
    """Per cell: ``(word, closure permutation)``, or the exception the cell failed with."""
    spec, values_at, n = _row(kind, m, **values)

    def raw_at(cells, t):
        return _eig_grid(spec, t, None, values_at(cells))

    results: list = [None] * n      # the tracker puts each failing cell's exception here
    for group in _track(raw_at, np.arange(n), float(k0), int(samples), results):
        words = _read_words(group.t_grid, group.bands, group.scale,
                            lambda cells, t: raw_at(group.cells[cells], t))
        for cell, word, image in zip(group.cells.tolist(), words, group.closure.tolist()):
            results[cell] = word if isinstance(word, Exception) else (word, Permutation(image))
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
    """Winding of det(H(k) - E_ref) for a row of dimer cells at once.

    Each cell follows the rules of :func:`bloch_braids.topology.winding_number`
    up to ``max_samples``. Returns ``(nu, ok)``: integer windings, and a mask
    that is False where the cell failed (with ``nu`` 0 there).
    """
    spec, values_at, n = _row("dimer", m, alpha=alpha, beta=beta, delta=delta, gamma=gamma)
    e_ref = complex(e_ref)
    results = _wind(lambda cells, t: _det_grid(spec, t, e_ref, values_at(cells)),
                    n, samples, max_samples)
    ok = [not isinstance(res, Exception) for res in results]
    return np.array([res[0] if good else 0 for res, good in zip(results, ok)]), np.array(ok)
