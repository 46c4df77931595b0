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
"""

from __future__ import annotations

import json
from typing import Iterable

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
    lines = [header]
    for j, t in enumerate(traj.t_grid):
        cells = [fmt(t)]
        for i in range(n):
            e = traj.bands[i, j]
            cells.append(fmt(e.real))
            cells.append(fmt(e.imag))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def trajectory_to_json_dict(traj: BandTrajectory) -> dict:
    return {
        "model": traj.model.to_json_dict(),
        "radius": traj.radius,
        "k0": traj.k0,
        "samples": traj.samples,
        "k_grid": [float(t) for t in traj.t_grid],
        "bands": [[_pair(e) for e in band] for band in traj.bands],
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


def eps_to_json_dict(eps: Iterable[ExceptionalPoint]) -> dict:
    eps = list(eps)
    return {
        "count": len(eps),
        "model": eps[0].model.to_json_dict() if eps else None,
        "exceptional_points": [
            {"space": ep.space,
             "location": _pair(ep.location),
             "energy": _pair(ep.energy),
             "bands": list(ep.bands)}
            for ep in eps
        ],
    }


def dumps_json(doc: dict) -> str:
    """Deterministic JSON text (sorted keys, two-space indent)."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
