"""Seeded inputs of the four benchmark workloads.

Each workload is a pool of units; a unit is a list of operations, and each
operation is one ``from-config`` run of a generated configuration. Inputs
depend only on (workload, seed). The generators use the independent
checker's numpy matrices to keep every draw a fixed margin away from band
degeneracies, so no operation is expected to fail.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle

ALPHA = 1.0
DELTA = 0.3
PI4 = math.pi / 4
MARGIN = 0.03          # minimum band gap, and distance of E_ref from the bands, per (1 + max|E|)

# the eight trimer braid configurations shipped as configs/fig4*.json and figS*.json
TRIMER_BRAIDS = {
    "fig4a": (-1.2, 0.7, 1), "fig4b": (1.2, 0.7, 1),
    "figS1a": (0.8, -0.2, 1), "figS1b": (1.6, -0.3, 1), "figS1c": (1.2, -0.7, 1),
    "figS2a": (0.8, 0.2, 2), "figS2b": (1.6, 0.3, 2), "figS2c": (1.2, 0.7, 2),
}
# the dimer models of configs/fig1c5.json, fig2a.json and fig2b.json
DIMER_BRAIDS = {"fig1c5": 1, "fig2a": 2, "fig2b": 3}

WORKLOADS = ("dimer_sweep", "trimer_sweep", "braid_index", "zone_scan")

# Sweep workers (BLOCH_BRAIDS_THREADS) where not the CPUs the process may use.
# Trimer cells are GIL-bound Python: two workers are no faster than one and
# spread wider (figures in README.md).
THREADS = {"trimer_sweep": 1}


@dataclass
class Op:
    """One CLI run: its config document and what the checks need to know."""

    name: str
    check: str                       # which check in checks.py applies
    doc: dict
    meta: dict = field(default_factory=dict)
    path: Path | None = None         # config file, set by materialize()

    @property
    def out(self) -> Path:
        return self.path.parent / self.doc["out"]


def dimer(beta, gamma, m, delta=DELTA):
    return {"kind": "dimer", "params": {"alpha": ALPHA, "beta": beta, "delta": delta,
                                        "gamma": gamma, "m": m}}


def trimer(beta, gamma, m, v=0.7, delta=DELTA):
    return {"kind": "trimer", "params": {"alpha": ALPHA, "beta": beta, "delta": delta,
                                         "gamma": gamma, "v": v, "m": m}}


def _config(command, model, options, out, fmt):
    return {"command": command, "model": model, "options": options, "out": out, "format": fmt}


def _u(rng, lo, hi) -> float:
    return float(rng.uniform(lo, hi))


# -- margins ----------------------------------------------------------------

def _spectrum(model, radius=1.0, samples=256, t0=0.0):
    """Eigenvalues on the grid t0 + 2 pi j / samples."""
    t = t0 + np.linspace(0.0, 2.0 * math.pi, samples + 1)
    return np.linalg.eigvals(oracle.hamiltonian(model["kind"], model["params"],
                                                radius * np.exp(1j * t)))


def _trackable(ev) -> bool:
    """The bands stay MARGIN apart, and matched steps on this 256-sample grid
    stay under half the smallest gap, so on its own 512-sample grid (steps
    about half as long) the program's tracker, which needs them under half
    the gap, settles without refining."""
    _, _, jump, gap = oracle.match_steps(ev)
    return gap > MARGIN * (1.0 + np.abs(ev).max()) and jump < 0.5 * gap


def _clear_base(ev0) -> bool:
    """No real-part tie of the bands at the base point."""
    return np.diff(np.sort(ev0.real)).min() > MARGIN * (1.0 + np.abs(ev0).max())


# -- workloads --------------------------------------------------------------

def dimer_sweep(rng, units=12, rows=20, cols=600):
    """Jittered copies of the fig1b plane, beta in [0, 3] and gamma in [-3, 3]:
    each end of an axis moves inward by up to 0.05 (beta) or 0.02 (gamma)."""
    pool = []
    for u in range(units):
        b0, b1 = _u(rng, 0.0, 0.05), 3.0 - _u(rng, 0.0, 0.05)
        g0, g1 = -3.0 + _u(rng, 0.0, 0.02), 3.0 - _u(rng, 0.0, 0.02)
        doc = _config("phase-diagram", dimer(1.5, 1.0, 1),
                      {"axis1": f"beta:{b0!r}:{b1!r}:{rows}",
                       "axis2": f"gamma:{g0!r}:{g1!r}:{cols}", "k0": PI4, "samples": 512},
                      f"dimer_sweep_{u}.csv", "csv")
        pool.append([Op(f"dimer_sweep_{u}", "dimer_sweep", doc)])
    return pool


def trimer_sweep(rng, parts=9):
    """The fig3b grid itself (beta: 81 points in [-2, 2]; gamma: 50 in
    [0.02, 1]) as 9 interleaved 9 x 50 phase diagrams (rows u, u + 9, ...),
    JSON. A run covers the whole figure, so the few cells that refine to the
    65536-sample cap are in every run; the seed sets the order of the parts."""
    betas = np.linspace(-2.0, 2.0, 81)
    pool = []
    for u in rng.permutation(parts):
        rows = betas[u::parts]
        doc = _config("phase-diagram", trimer(1.0, 0.1, 1),
                      {"axis1": f"beta:{float(rows[0])!r}:{float(rows[-1])!r}:{len(rows)}",
                       "axis2": "gamma:0.02:1.0:50", "k0": PI4, "samples": 512},
                      f"trimer_sweep_{u}.json", "json")
        pool.append([Op(f"trimer_sweep_{u}", "trimer_sweep", doc)])
    return pool


def braid_index(rng):
    """CLI braid on the eight trimer configs and the three dimer models.

    The trimers keep their shipped base point, since the reference scan's
    cost depends on it; the seed sets the order and the dimers' base points.
    """
    ops = []
    for name, (beta, gamma, m) in TRIMER_BRAIDS.items():
        doc = _config("braid", trimer(beta, gamma, m), {"k0": PI4, "samples": 512},
                      f"braid_{name}.json", "json")
        ops.append(Op(f"braid_{name}", "braid", doc))
    for name, m in DIMER_BRAIDS.items():
        model = dimer(1.5, 1.0, m)
        k0 = _u(rng, 0.0, 2.0 * math.pi)
        while not _clear_base(_spectrum(model, samples=1, t0=k0)[0]):
            k0 = _u(rng, 0.0, 2.0 * math.pi)
        doc = _config("braid", model, {"k0": k0, "samples": 512}, f"braid_{name}.json", "json")
        ops.append(Op(f"braid_{name}", "braid", doc))
    order = rng.permutation(len(ops))
    return [[ops[i] for i in order]]


def zone_scan(rng, units=16):
    """Random dimer (m = 1-3) and trimer (m = 1, 2) models through bands,
    eps, winding and riemann, plus dimers exactly on an exceptional line.

    Every loop is one the program tracks at 512 samples without refining
    (see _trackable), so the workload stays many small calls."""
    pool = []
    for u in range(units):
        unit = []
        for j, (kind, m) in enumerate((("dimer", 1), ("dimer", 2), ("dimer", 3),
                                       ("trimer", 1), ("trimer", 2))):
            while True:
                if kind == "dimer":
                    model = dimer(_u(rng, 0.3, 2.5), _u(rng, -3.0, 3.0), m,
                                  delta=_u(rng, 0.1, 0.6))
                else:
                    model = trimer(_u(rng, -2.0, 2.0), _u(rng, -1.0, 1.0), m,
                                   v=_u(rng, 0.3, 1.0))
                k0 = _u(rng, 0.0, 2.0 * math.pi)
                ev = _spectrum(model, t0=k0)
                if _trackable(ev) and _clear_base(ev[0]):
                    break
            scale = 1.0 + np.abs(ev).max()
            e_ref = complex(_u(rng, -2.0, 2.0), _u(rng, -1.5, 1.5))
            while np.abs(ev - e_ref).min() < MARGIN * scale:
                e_ref = complex(_u(rng, -2.0, 2.0), _u(rng, -1.5, 1.5))
            radius = _u(rng, 0.6, 0.9) if rng.random() < 0.5 else _u(rng, 1.1, 1.6)
            while not _trackable(_spectrum(model, radius)):
                radius = _u(rng, 0.6, 0.9) if rng.random() < 0.5 else _u(rng, 1.1, 1.6)
            stem = f"zone_{u}_{j}"
            unit += [
                Op(f"{stem}_bands", "bands", _config("bands", model, {"k0": k0, "samples": 512},
                                                     f"{stem}_bands.csv", "csv")),
                Op(f"{stem}_eps", "eps", _config("eps", model, {}, f"{stem}_eps.json", "json")),
                Op(f"{stem}_winding", "winding",
                   _config("winding", model, {"eref_real": e_ref.real, "eref_imag": e_ref.imag,
                                              "samples": 1024}, f"{stem}_winding.json", "json")),
                Op(f"{stem}_riemann", "riemann",
                   _config("riemann", model, {"r": radius, "theta0": 0.0, "samples": 512},
                           f"{stem}_riemann.json", "json")),
            ]
        for j, line in enumerate(("outer", "inner")):
            beta = _u(rng, 0.3, 2.5)
            while abs(beta - ALPHA) < 0.2:
                beta = _u(rng, 0.3, 2.5)
            sign = 1.0 if rng.random() < 0.5 else -1.0
            gamma = sign * (beta + ALPHA if line == "outer" else beta - ALPHA)
            m = int(rng.integers(1, 4))
            stem = f"zone_{u}_line{j}"
            unit.append(Op(f"{stem}_eps", "eps_line",
                           _config("eps", dimer(beta, gamma, m), {}, f"{stem}_eps.json", "json"),
                           {"line": line}))
        pool.append(unit)
    return pool


def generate(workload: str, seed: int) -> list[list[Op]]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return globals()[workload](rng)


def materialize(pool: list[list[Op]], directory: Path) -> None:
    """Write every config of the pool into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    for unit in pool:
        for op in unit:
            op.path = directory / f"{op.name}.config.json"
            op.path.write_text(json.dumps(op.doc, indent=2, sort_keys=True) + "\n")
