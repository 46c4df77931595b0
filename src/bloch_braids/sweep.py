"""Phase-diagram cells: many cells through the one tracker and crossing reader.

A batch is cells of one model, dimer or trimer, that differ in the values
of named parameters, handed on as ``(spec, cells)``, where ``cells`` maps
each parameter name to an array of one value per cell; the B_2 gate of
:func:`bloch_braids.topology.phase_diagram` takes its cells in the same
form. Per block of rows it sends here every trimer cell and the dimer cells
that the B_2 gate does not settle, in one call of :func:`dimer_row_classify`,
the classifier of both families. A batch is tracked by the batched tracker
behind :func:`bloch_braids.spectrum.track_bands`, in batches capped in
samples, which settle in groups, one per grid; the crossing steps of all
the groups are resolved together, in one pass of the crossing reader
behind :func:`bloch_braids.braid.extract_braid_word` per 8192 steps. The
kernel is evaluated on per-cell parameter arrays, so each cell meets
exactly the rules of the one-cell path, and a cell that fails gets its
exception as its result. :func:`dimer_winding_row` winds det(H) over a row
of dimer cells, as an independent check, through the batched winder behind
:func:`bloch_braids.topology.winding_number`.
"""

from __future__ import annotations

import numpy as np

from . import braid
from .models import ModelSpec, _top_exponent
from .spectrum import (TRACK_SAMPLES_DEFAULT, _WINDING_SAMPLES_DEFAULT, _det_grid, _eig_grid,
                       _track, _wind)

__all__ = ["dimer_row_classify", "dimer_winding_row"]


def dimer_row_classify(spec: ModelSpec, cells, *, k0: float,
                       samples: int = TRACK_SAMPLES_DEFAULT) -> list:
    """Classify the cells of ``spec`` (a dimer or a trimer) given by ``cells``, a
    mapping from parameter names to arrays of one value per cell.

    The other parameters are the spec's, shared by all cells (the kernel
    evaluates them per sample, not per cell). Returns, per cell,
    ``(word, closure permutation)`` or the tracking error it failed with.
    The crossing steps of the tracker's groups are held until they number
    ``braid._CROSSING_BATCH`` or the tracker is done, then resolved in one
    pass: a block pays each stage of the resolver once, not once per group.
    """
    cells = {name: np.asarray(v, dtype=float) for name, v in cells.items()}

    def raw_at(at, t):
        return _eig_grid(spec, t, None, {name: v[at] for name, v in cells.items()})

    n = len(next(iter(cells.values())))
    results: list = [None] * n   # the tracker puts each failing cell's exception here
    scale = np.empty(n)
    pending: list = []           # (cells, closures, *steps) of each group not read yet

    def read_pending():
        ids, closures, *steps = (np.concatenate(parts) for parts in zip(*pending))
        words = braid._resolve_crossings(ids, steps, scale, raw_at)
        for cell, word, image in zip(ids.tolist(), words, closures.tolist()):
            results[cell] = (word if isinstance(word, Exception) else
                             (word, braid.Permutation(image)))
        pending.clear()

    for group in _track(raw_at, np.arange(n), float(k0), int(samples), results,
                        floor=4 * _top_exponent(spec)):
        scale[group.cells] = group.scale
        pending.append((group.cells, group.closure,
                        *braid._crossing_steps(group.t_grid, group.bands, group.cells)))
        if sum(len(p[2]) for p in pending) >= braid._CROSSING_BATCH:
            read_pending()
    if pending:
        read_pending()
    return results


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
                    n, _WINDING_SAMPLES_DEFAULT, 1 << 16)
    ok = [not isinstance(res, Exception) for res in results]
    return np.array([res[0] if good else 0 for res, good in zip(results, ok)]), np.array(ok)
