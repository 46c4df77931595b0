"""Phase-diagram rows: many cells through the one tracker and crossing reader.

A row is a batch of cells of one model that differ in the value of one
named parameter, handed on as ``(spec, name, values)``.
:func:`bloch_braids.topology.phase_diagram` sends here every trimer
cell and the dimer cells whose discriminant winding does not settle their
label on the tracker's first grid; the rest of a dimer row never reaches
this module. A row is tracked by the batched tracker behind
:func:`bloch_braids.spectrum.track_bands` and read by the batched crossing
reader behind :func:`bloch_braids.braid.extract_braid_word`, with the model
kernel evaluated on (cells, samples) parameter arrays, so each cell meets
exactly the rules of the one-cell path. A cell that fails (on an
exceptional point, at the refinement cap, at a degenerate or an unresolved
crossing) gets its exception as its result. :func:`dimer_winding_row` winds
det(H) over a row of dimer cells, as an independent check, through
the batched winder behind :func:`bloch_braids.topology.winding_number`.
"""

from __future__ import annotations

import numpy as np

from .braid import Permutation, _read_words
from .models import ModelSpec
from .spectrum import TRACK_SAMPLES_DEFAULT, _det_grid, _eig_grid, _track, _wind

__all__ = ["dimer_row_classify", "trimer_row_classify", "dimer_winding_row"]


def dimer_row_classify(spec: ModelSpec, name: str, values, *, k0: float,
                       samples: int = TRACK_SAMPLES_DEFAULT) -> list:
    """Classify the row of cells of ``spec`` that set parameter ``name`` to ``values``.

    The other parameters are the spec's, shared by all cells (the kernel
    evaluates them per sample, not per cell). Returns, per cell,
    ``(word, closure permutation)`` or the tracking error it failed with.
    """
    values = np.asarray(values, dtype=float)

    def raw_at(cells, t):
        return _eig_grid(spec, t, None, {name: values[cells]})

    results: list = [None] * len(values)   # the tracker puts each failing cell's exception here
    for group in _track(raw_at, np.arange(len(values)), float(k0), int(samples), results):
        words = _read_words(group.t_grid, group.bands, group.scale,
                            lambda cells, t: raw_at(group.cells[cells], t))
        for cell, word, image in zip(group.cells.tolist(), words, group.closure.tolist()):
            results[cell] = word if isinstance(word, Exception) else (word, Permutation(image))
    return results


# one body for both families: the spec says which; perfbench's span tracer
# wraps the dimer name, which topology._classify looks up on this module
trimer_row_classify = dimer_row_classify


def dimer_winding_row(alpha, beta, delta, gamma, m: int):
    """Winding of det(H(k)) for a row of dimer cells at once, about the dimer's
    one EP reference energy, 0.

    The parameters broadcast to the cell count; give a parameter shared by
    all cells as a number. Each cell follows the rules of
    :func:`bloch_braids.topology.winding_number` up to 2^16 samples. Returns
    ``(nu, ok)``: integer windings, and a mask that is False where the cell
    failed (with ``nu`` 0 there).
    """
    values = {name: np.asarray(v, dtype=float) for name, v in
              zip(("alpha", "beta", "delta", "gamma"), (alpha, beta, delta, gamma))}
    n = np.broadcast_shapes(*(v.shape for v in values.values()), (1,))[0]
    spec = ModelSpec.dimer(*(float(v.flat[0]) for v in values.values()), m)
    varied = {name: np.broadcast_to(v, (n,)) for name, v in values.items() if v.ndim}
    results = _wind(lambda cells, t: _det_grid(spec, t, 0j, {name: v[cells]
                                                          for name, v in varied.items()}),
                    n, 1024, 1 << 16)
    ok = [not isinstance(res, Exception) for res in results]
    return np.array([res[0] if good else 0 for res, good in zip(results, ok)]), np.array(ok)
