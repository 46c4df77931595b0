"""Plot-ready serialisation: CSV and JSON writers for every result type.

Floats are written with ``repr``, the shortest representation that parses
back to the identical double, so output files are byte-deterministic and
lossless for downstream plotting. Formats:

* band trajectories, CSV: header ``k,re_E1,im_E1,...,re_EN,im_EN``, one row
  per sample;
* band trajectories, JSON: sample grid, bands as [re, im] pair lists, the
  closure permutation (0-based image), and model metadata;
* phase diagrams, CSV: ``param1,param2,word,nu,degenerate`` (one row per
  cell, row-major); JSON adds the boundary polylines;
* exceptional points, JSON: location, space tag, energy, band pair, model.

JSON text comes from ``dumps_json``, whose bytes equal the standard library's
``json.dumps(doc, indent=2, sort_keys=True) + "\n"``. It formats a list of
floats, or of equally long float lists, in one pass over its values instead
of one generator step per value, and it raises ``TypeError`` for anything it
cannot write as the standard library would (a key that is not a string, a
value that is not a JSON type).
"""

from __future__ import annotations

from itertools import chain
from json.encoder import encode_basestring_ascii as _string
from typing import Iterable

import numpy as np

from .models import ModelSpec
from .spectrum import BandTrajectory
from .topology import DEGENERATE, ExceptionalPoint, PhaseDiagram

__all__ = [
    "fmt",
    "trajectory_to_csv",
    "trajectory_to_json_dict",
    "phase_diagram_to_csv",
    "phase_diagram_to_json_dict",
    "eps_to_json_dict",
    "write_text",
]


def fmt(x: float) -> str:
    """Round-trip decimal form of a double."""
    return repr(float(x))


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def trajectory_to_csv(traj: BandTrajectory) -> str:
    n = traj.n_bands
    header = "k," + ",".join(f"re_E{i + 1},im_E{i + 1}" for i in range(n))
    table = np.empty((len(traj.t_grid), 1 + 2 * n))
    table[:, 0] = traj.t_grid
    table[:, 1::2] = traj.bands.real.T
    table[:, 2::2] = traj.bands.imag.T
    row = ",".join(["%r"] * (1 + 2 * n))       # %r of a float is fmt's repr
    return header + "\n" + "\n".join(map(row.__mod__, map(tuple, table.tolist()))) + "\n"


def trajectory_to_json_dict(traj: BandTrajectory) -> dict:
    return {
        "model": traj.model.to_json_dict(),
        "radius": traj.radius,
        "k0": traj.k0,
        "samples": traj.samples,
        "k_grid": traj.t_grid.tolist(),
        "bands": np.stack([traj.bands.real, traj.bands.imag], -1).tolist(),
        "closure_permutation": list(traj.closure.image),
        "closure_cycles": traj.closure.cycle_str(),
        "band_mapping": traj.closure.band_mapping_str(),
        "min_gap": traj.min_gap,
        "max_jump": traj.max_jump,
    }


def phase_diagram_to_csv(diagram: PhaseDiagram) -> str:
    # each axis value and each label's "word,nu,degenerate" tail is formatted once
    vals1, vals2 = ([fmt(x) for x in ax.values()] for ax in (diagram.axis1, diagram.axis2))
    tails = [f"{word},{'' if nu is None else nu},{'1' if word == DEGENERATE else '0'}"
             for word, nu, _ in diagram.labels]
    lines = [f"{diagram.axis1.name},{diagram.axis2.name},word,nu,degenerate"]
    for v1, row in zip(vals1, diagram.ids.tolist()):
        lines += [f"{v1},{v2},{tails[k]}" for v2, k in zip(vals2, row)]
    return "\n".join(lines) + "\n"


def phase_diagram_to_json_dict(diagram: PhaseDiagram) -> dict:
    # one dict per label, merged into each cell's values; its cells share its permutation list
    tails = [{"word": word, "nu": nu, "permutation": None if perm is None else list(perm.image)}
             for word, nu, perm in diagram.labels]
    vals2 = diagram.axis2.values().tolist()
    return {
        "model": diagram.template.to_json_dict(),
        "k0": diagram.k0,
        "samples": diagram.samples,
        "axis1": {"name": diagram.axis1.name, "start": diagram.axis1.start,
                  "stop": diagram.axis1.stop, "resolution": diagram.axis1.resolution},
        "axis2": {"name": diagram.axis2.name, "start": diagram.axis2.start,
                  "stop": diagram.axis2.stop, "resolution": diagram.axis2.resolution},
        "cells": [[{"value1": v1, "value2": v2, **tails[k]} for v2, k in zip(vals2, row)]
                  for v1, row in zip(diagram.axis1.values().tolist(), diagram.ids.tolist())],
        "boundaries": diagram.boundary_polylines(),
    }


def eps_to_json_dict(spec: ModelSpec, eps: Iterable[ExceptionalPoint]) -> dict:
    """The exceptional points found on ``spec``, with the model searched, also when none was."""
    eps = list(eps)
    return {
        "count": len(eps),
        "model": spec.to_json_dict(),
        "exceptional_points": [
            {"space": ep.space,
             "location": _pair(ep.location),
             "energy": _pair(ep.energy),
             "bands": list(ep.bands)}
            for ep in eps
        ],
    }


def dumps_json(doc: dict) -> str:
    """Deterministic JSON text (sorted keys, two-space indent), byte for byte
    ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``."""
    return _encode(doc, "\n") + "\n"


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _encode(o, indent: str) -> str:
    """JSON text of ``o`` at ``indent``, the newline and spaces of its nesting level.

    The checks run in the standard library's order, so bools are not ints and
    float subclasses such as np.float64 are written by ``float.__repr__``."""
    if isinstance(o, str):
        return _string(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        text = float.__repr__(o)
        return _NONFINITE.get(text, text)
    inner = indent + "  "
    sep = "," + inner
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        body = _scalars(o, sep) or _float_rows(o, sep, inner)
        if body is None:
            body = sep.join([_encode(v, inner) for v in o])
        return "[" + inner + body + indent + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        # a key that is not a str fails in sorted() or in _string with TypeError
        return "{" + inner + sep.join([_string(k) + ": " + _encode(o[k], inner)
                                       for k in sorted(o)]) + indent + "}"
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _scalars(seq, sep: str) -> str | None:
    """The items of a list of exact floats or of exact ints, or None."""
    kinds = set(map(type, seq))
    if kinds == {float}:
        text = sep.join(map(float.__repr__, seq))
        return None if "n" in text else text        # nan, inf: left to _encode
    if kinds == {int}:
        return sep.join(map(int.__repr__, seq))
    return None


def _float_rows(seq, sep: str, inner: str) -> str | None:
    """The items of a list of equally long lists of exact floats, or None."""
    if not set(map(type, seq)) <= {list, tuple}:
        return None
    lengths = set(map(len, seq))
    if len(lengths) != 1 or set(map(type, chain.from_iterable(seq))) != {float}:
        return None
    deeper = inner + "  "
    row = "[" + deeper + ("," + deeper).join(["%r"] * lengths.pop()) + inner + "]"
    text = sep.join(map(row.__mod__, map(tuple, seq)))
    return None if "n" in text else text
