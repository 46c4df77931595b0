"""Output checks: each CLI output against the independent checker or a
property the method must have, never against a stored copy.

Every ``check_*`` takes the operation and the stdout summary the CLI
printed, reads the output file, and returns a list of problems (empty when
the output holds).
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

import oracle

RESIDUAL_TOL = 1e-9


def _grid(axis: str):
    name, start, stop, res = axis.split(":")
    return name, np.linspace(float(start), float(stop), int(res))


def _sweep_invariants(kind, params, axes, values, words, nus, perms=None):
    """nu = exponent sum = discriminant winding on every settled cell; and,
    when closure permutations are given, their cycle type matches the word's.

    ``words`` is an array of word texts, ``nus`` an integer array (ignored
    on DEGENERATE cells), ``perms`` a list of rows of permutation images.
    """
    (n1, v1), (n2, v2) = axes
    rows, cols = len(v1), len(v2)
    if values.shape != (rows, cols, 2) or not (np.allclose(values[:, :, 0], v1[:, None])
                                              and np.allclose(values[:, :, 1], v2[None, :])):
        return [f"cell grid does not match the axes {n1} x {n2}"]
    settled = words != "DEGENERATE"
    si, sj = np.nonzero(settled)
    p = dict(params)
    p[n1], p[n2] = v1[si], v2[sj]
    p = {k: (np.broadcast_to(np.asarray(v, float), si.shape) if k != "m" else v)
         for k, v in p.items()}
    wind, ok = oracle.disc_winding(kind, p)
    n = 2 if kind == "dimer" else 3
    letters = {w: oracle.parse_word(w) for w in np.unique(words[settled])}
    esum = np.array([sum(s for _, s in letters[w]) for w in words[si, sj]], dtype=int)
    problems = []
    for c in np.nonzero(~ok | (esum != nus[si, sj]) | (esum != wind))[0]:
        i, j = si[c], sj[c]
        where = f"cell ({n1}={float(v1[i])!r}, {n2}={float(v2[j])!r})"
        if not ok[c]:
            problems.append(f"{where} is labelled {str(words[i, j])!r} on an exceptional point")
        else:
            problems.append(f"{where}: word {str(words[i, j])!r} sums to {esum[c]}, nu is "
                            f"{nus[i, j]}, discriminant winds {wind[c]}")
    if perms is not None:
        for i, j in zip(si, sj):
            want = oracle.cycle_type(oracle.induced_permutation(letters[words[i, j]], n))
            if oracle.cycle_type(perms[i][j]) != want:
                problems.append(f"cell ({n1}={float(v1[i])!r}, {n2}={float(v2[j])!r}): closure "
                                f"{perms[i][j]} is not conjugate to the permutation of "
                                f"{str(words[i, j])!r}")
    return problems


def check_dimer_sweep(op, summary):
    opts = op.doc["options"]
    axes = [_grid(opts["axis1"]), _grid(opts["axis2"])]
    (_, betas), (_, gammas) = axes
    with open(op.out, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["beta", "gamma", "word", "nu", "degenerate"]:
        return [f"unexpected header {rows[0]}"]
    body = rows[1:]
    shape = (len(betas), len(gammas))
    if len(body) != shape[0] * shape[1]:
        return [f"{len(body)} rows for {shape[0]} x {shape[1]} cells"]
    values = np.array([[float(r[0]), float(r[1])] for r in body]).reshape(shape + (2,))
    words = np.array([r[2] for r in body]).reshape(shape)
    nus = np.array([int(r[3]) if r[3] else 0 for r in body]).reshape(shape)
    problems = _sweep_invariants("dimer", op.doc["model"]["params"], axes, values, words, nus)

    # exceptional lines of the dimer: |gamma| = |beta - alpha| at k = pi/m and
    # |gamma| = beta + alpha at k = 0
    alpha = op.doc["model"]["params"]["alpha"]
    b, g = betas[:, None], np.abs(gammas)[None, :]
    inner, outer = g - np.abs(b - alpha), g - (b + alpha)
    step = abs(gammas[1] - gammas[0])
    degenerate = words == "DEGENERATE"
    for i, j in zip(*np.nonzero(degenerate & (np.minimum(np.abs(inner), np.abs(outer)) > step))):
        problems.append(f"DEGENERATE cell (beta={float(betas[i])!r}, gamma={float(gammas[j])!r}) "
                        f"is more than a grid step from every exceptional line")

    # a label may change between neighbours only across an exceptional line:
    # along gamma, one of +/-|beta - alpha|, +/-(beta + alpha) lies between the
    # two cells; along beta, inner or outer changes sign (|beta - alpha| has
    # its kink at alpha, where inner is |gamma|)
    label = np.unique(np.char.add(np.char.add(words, ":"), nus.astype(str)),
                      return_inverse=True)[1].reshape(shape)
    lo, hi = gammas[None, :-1], gammas[None, 1:]
    along_gamma = np.zeros((shape[0], shape[1] - 1), dtype=bool)
    for line in (np.abs(b - alpha), b + alpha):
        along_gamma |= ((lo <= line) & (line <= hi)) | ((lo <= -line) & (-line <= hi))

    def flips(f_a, f_b):
        return (f_a == 0) | (f_b == 0) | ((f_a > 0) != (f_b > 0))

    kink_between = (betas[:-1, None] < alpha) & (alpha < betas[1:, None])
    along_beta = (flips(inner[:-1], inner[1:]) | flips(outer[:-1], outer[1:])
                  | (kink_between & flips(inner[:-1], g)))
    for crossed, (i2, j2) in ((along_gamma, (0, 1)), (along_beta, (1, 0))):
        a = label[:shape[0] - i2, :shape[1] - j2]
        b_ = label[i2:, j2:]
        bad = (a != b_) & ~degenerate[:shape[0] - i2, :shape[1] - j2] \
            & ~degenerate[i2:, j2:] & ~crossed
        for i, j in zip(*np.nonzero(bad)):
            problems.append(f"label {str(words[i, j])!r} -> {str(words[i + i2, j + j2])!r} between "
                            f"(beta={float(betas[i])!r}, gamma={float(gammas[j])!r}) and "
                            f"(beta={float(betas[i + i2])!r}, gamma={float(gammas[j + j2])!r}) "
                            f"crosses no exceptional line")
    return problems


def check_trimer_sweep(op, summary):
    opts = op.doc["options"]
    axes = [_grid(opts["axis1"]), _grid(opts["axis2"])]
    with open(op.out) as fh:
        doc = json.load(fh)
    cells = doc["cells"]
    values = np.array([[[c["value1"], c["value2"]] for c in row] for row in cells])
    words = np.array([[c["word"] for c in row] for row in cells])
    nus = np.array([[c["nu"] or 0 for c in row] for row in cells])
    perms = [[c["permutation"] for c in row] for row in cells]
    return _sweep_invariants("trimer", op.doc["model"]["params"], axes, values, words, nus, perms)


def check_braid(op, summary):
    with open(op.out) as fh:
        doc = json.load(fh)
    model = op.doc["model"]
    return oracle.check_braid(model["kind"], model["params"], op.doc["options"]["k0"], doc)


def _check_trajectory(kind, params, t, bands, closure, radius):
    """Bands solve det(E - H) = 0, sum to tr H, and close under ``closure``."""
    problems = []
    z = radius * np.exp(1j * t)
    res = oracle.char_residual(kind, params, z, bands)
    if res > RESIDUAL_TOL:
        problems.append(f"characteristic-polynomial residual {res:.3e}")
    tres = oracle.trace_residual(kind, params, z, bands)
    if tres > RESIDUAL_TOL:
        problems.append(f"trace residual {tres:.3e}")
    scale = 1.0 + np.abs(bands).max()
    ends = bands[-1]
    starts = bands[0]
    worst = max(abs(ends[n] - starts[closure[n]]) for n in range(len(closure)))
    if worst > 1e-8 * scale:
        problems.append(f"bands do not close under {closure} (off by {worst:.3e})")
    _, tracked = oracle.track(kind, params, float(t[0]), radius)
    if tuple(closure) != tracked:
        problems.append(f"closure {tuple(closure)} differs from the tracked closure {tracked}")
    return problems


def check_bands(op, summary):
    model = op.doc["model"]
    data = np.loadtxt(op.out, delimiter=",", skiprows=1, ndmin=2)
    t = data[:, 0]
    bands = data[:, 1::2] + 1j * data[:, 2::2]
    n = bands.shape[1]
    closure = oracle.parse_cycles(summary.strip().removeprefix("closure:").strip(), n)
    if abs(t[-1] - t[0] - 2.0 * math.pi) > 1e-9:
        return [f"grid spans {t[-1] - t[0]!r}, not one period"]
    return _check_trajectory(model["kind"], model["params"], t, bands, closure, 1.0)


def check_riemann(op, summary):
    model = op.doc["model"]
    with open(op.out) as fh:
        doc = json.load(fh)
    t = np.array(doc["k_grid"])
    bands = np.array([[complex(*e) for e in band] for band in doc["bands"]]).T
    return _check_trajectory(model["kind"], model["params"], t, bands,
                             doc["closure_permutation"], op.doc["options"]["r"])


def _ep_problems(op):
    with open(op.out) as fh:
        doc = json.load(fh)
    model = op.doc["model"]
    eps = doc["exceptional_points"]
    problems = []
    for ep in eps:
        k = ep["location"][0]
        h = oracle.hamiltonian(model["kind"], model["params"], np.exp(1j * np.array([k])))
        disc = abs(oracle.discriminant(h)[0])
        n = h.shape[-1]
        scale = (1.0 + np.abs(h).max()) ** (n * (n - 1))
        if disc > 1e-8 * scale:
            problems.append(f"EP at k={k!r} has |discriminant| {disc:.3e}")
    return eps, problems


def check_eps(op, summary):
    """Generated models keep a band gap, so they have no EP on the zone."""
    eps, problems = _ep_problems(op)
    if eps:
        problems.append(f"{len(eps)} EPs reported for a model whose bands stay apart")
    return problems


def check_eps_line(op, summary):
    """A dimer on |gamma| = beta + alpha (or |beta - alpha|) has its m EPs at
    m k = 0 (or pi) mod 2 pi."""
    eps, problems = _ep_problems(op)
    m = op.doc["model"]["params"]["m"]
    offset = 0.0 if op.meta["line"] == "outer" else math.pi
    expected = sorted(((offset + 2.0 * math.pi * j) / m) % (2.0 * math.pi) for j in range(m))
    found = sorted(ep["location"][0] for ep in eps)
    if len(found) != m or any(min(abs(f - e), 2 * math.pi - abs(f - e)) > 1e-6
                              for f, e in zip(found, expected)):
        problems.append(f"EPs at k = {found}, expected {expected}")
    return problems


def check_winding(op, summary):
    with open(op.out) as fh:
        doc = json.load(fh)
    model = op.doc["model"]
    opts = op.doc["options"]
    e_ref = complex(opts["eref_real"], opts["eref_imag"])
    want = oracle.det_winding(model["kind"], model["params"], e_ref)
    if doc["nu"] != want:
        return [f"winding {doc['nu']} about {e_ref}, det(H - E_ref) winds {want}"]
    return []


CHECKS = {
    "dimer_sweep": check_dimer_sweep,
    "trimer_sweep": check_trimer_sweep,
    "braid": check_braid,
    "bands": check_bands,
    "riemann": check_riemann,
    "eps": check_eps,
    "eps_line": check_eps_line,
    "winding": check_winding,
}
