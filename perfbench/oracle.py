"""Independent checker for bloch_braids outputs (numpy only).

Nothing here imports ``bloch_braids``. The Bloch matrices are rebuilt from
the paper's dimer and trimer formulas, and every invariant is computed by a
route the program does not take:

* the braid index is the winding of the discriminant prod_{i<j}(E_i - E_j)^2
  of det(E - H(k)) over the zone (computed from the matrix entries, never
  from eigenvalues), counted by phase accumulation and, where the grid
  cannot resolve it, by the argument principle on the Laurent coefficients;
* the closure permutation comes from LAPACK eigenvalues chained by an
  exhaustive nearest-permutation match on a grid refined until every step
  is far below the band gap;
* band samples are checked against det(E - H) = 0 and tr H = sum E.
"""

from __future__ import annotations

import itertools

import numpy as np

TWO_PI = 2.0 * np.pi


# -- Bloch matrices and characteristic polynomials ---------------------------

def hamiltonian(kind: str, p: dict, z) -> np.ndarray:
    """H(z) of the paper's dimer or trimer, e^{ik} replaced by z.

    Parameter values may be arrays that broadcast against ``z``; ``m`` is a
    scalar. Returns shape ``z.shape + (N, N)``.
    """
    z = np.asarray(z, dtype=complex)
    m = int(p["m"])
    shape = np.broadcast_shapes(z.shape, *(np.shape(p[k]) for k in p if k != "m"))
    w = np.broadcast_to(z ** m, shape)
    if kind == "dimer":
        h = np.empty(shape + (2, 2), dtype=complex)
        # 2*delta*sin(mk) = -i*delta*(w - 1/w) on the unit circle
        h[..., 0, 0] = -1j * p["delta"] * (w - 1.0 / w) + 1j * p["gamma"]
        h[..., 0, 1] = p["alpha"] + p["beta"] / w
        h[..., 1, 0] = p["alpha"] + p["beta"] * w
        h[..., 1, 1] = -1j * p["gamma"]
        return h
    if kind == "trimer":
        h = np.zeros(shape + (3, 3), dtype=complex)
        # -2*delta*sin(2mk) = i*delta*(w^2 - w^-2) on the unit circle
        h[..., 0, 0] = 1j * p["delta"] * (w * w - 1.0 / (w * w)) + 1j * p["gamma"]
        h[..., 0, 1] = h[..., 1, 0] = h[..., 1, 2] = h[..., 2, 1] = p["alpha"]
        h[..., 1, 1] = p["v"]
        h[..., 0, 2] = p["beta"] / w
        h[..., 2, 0] = p["beta"] * w
        h[..., 2, 2] = -1j * p["gamma"]
        return h
    raise ValueError(f"unknown model kind {kind!r}")


def char_coefficients(h: np.ndarray) -> list[np.ndarray]:
    """[c1, ..., cN] with det(E - H) = E^N + c1 E^(N-1) + ... + cN."""
    n = h.shape[-1]
    tr = np.trace(h, axis1=-2, axis2=-1)
    if n == 2:
        det = h[..., 0, 0] * h[..., 1, 1] - h[..., 0, 1] * h[..., 1, 0]
        return [-tr, det]
    if n == 3:
        a = h
        minors = (a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
                  + a[..., 0, 0] * a[..., 2, 2] - a[..., 0, 2] * a[..., 2, 0]
                  + a[..., 1, 1] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 1])
        det = (a[..., 0, 0] * (a[..., 1, 1] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 1])
               - a[..., 0, 1] * (a[..., 1, 0] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 0])
               + a[..., 0, 2] * (a[..., 1, 0] * a[..., 2, 1] - a[..., 1, 1] * a[..., 2, 0]))
        return [-tr, minors, -det]
    raise ValueError(f"only 2- and 3-band models, got {n}")


def discriminant(h: np.ndarray) -> np.ndarray:
    """Discriminant of det(E - H): zero exactly where two bands coincide."""
    c = char_coefficients(h)
    if len(c) == 2:
        b, d = c
        return b * b - 4.0 * d
    b, cc, d = c
    return (18.0 * b * cc * d - 4.0 * b ** 3 * d + b * b * cc * cc
            - 4.0 * cc ** 3 - 27.0 * d * d)


def char_residual(kind: str, p: dict, z, energies: np.ndarray) -> float:
    """Largest |det(E - H(z))| over samples, relative to (1 + |H| + |E|)^N.

    ``energies`` has shape (T, N), one row per sample point z[t].
    """
    h = hamiltonian(kind, p, z)
    n = h.shape[-1]
    eye = np.eye(n)
    worst = 0.0
    for i in range(n):
        e = energies[:, i]
        det = np.linalg.det(e[:, None, None] * eye - h)
        scale = (1.0 + np.abs(h).max(axis=(-2, -1)) + np.abs(e)) ** n
        worst = max(worst, float((np.abs(det) / scale).max()))
    return worst


def trace_residual(kind: str, p: dict, z, energies: np.ndarray) -> float:
    """Largest |sum_n E_n - tr H| relative to 1 + |tr H|."""
    tr = np.trace(hamiltonian(kind, p, z), axis1=-2, axis2=-1)
    return float((np.abs(energies.sum(axis=1) - tr) / (1.0 + np.abs(tr))).max())


# -- windings ----------------------------------------------------------------

def _phase_winding(values: np.ndarray):
    """(raw winding, largest phase step) of samples along the last axis."""
    steps = np.diff(np.angle(values), axis=-1)
    steps = (steps + np.pi) % TWO_PI - np.pi
    return steps.sum(axis=-1) / TWO_PI, np.abs(steps).max(axis=-1)


def _laurent_winding(fn, span: int) -> tuple[int, float]:
    """Winding of a Laurent polynomial in z around |z| = 1, by root count.

    ``fn(z)`` evaluates it; ``span`` bounds the absolute exponents. Returns
    (zeros inside the unit circle minus pole order, distance of the nearest
    zero to the circle).
    """
    npts = 4 * span + 4
    z = np.exp(1j * TWO_PI * np.arange(npts) / npts)
    coeffs = np.fft.fft(fn(z)) / npts          # c_n for n = 0..npts-1 (mod npts)
    laurent = np.concatenate([coeffs[-span:], coeffs[:span + 1]])   # z^-span .. z^span
    big = np.abs(laurent).max()
    nz = np.nonzero(np.abs(laurent) > 1e-13 * big)[0]
    lo, hi = nz[0], nz[-1]
    poly = laurent[lo:hi + 1][::-1]            # descending powers of z
    roots = np.roots(poly) if len(poly) > 1 else np.array([])
    inside = int(np.sum(np.abs(roots) < 1.0))
    pole = span - lo                           # the polynomial is z^(lo-span) * poly
    margin = float(np.abs(np.abs(roots) - 1.0).min()) if len(roots) else np.inf
    return inside - pole, margin


def disc_winding(kind: str, p: dict, samples: int = 128, max_samples: int = 1 << 14):
    """Winding of the discriminant over the zone, vectorised over cells.

    Parameter values may be arrays of shape (C,). Returns (nu, ok): cells
    whose discriminant has a zero within 1e-9 of the unit circle are
    numerically on an exceptional point and come back with ok = False.
    """
    shape = np.broadcast_shapes(*(np.shape(p[k]) for k in p if k != "m"))
    flat = {k: (np.broadcast_to(np.asarray(v, float), shape).reshape(-1) if k != "m" else v)
            for k, v in p.items()}
    cells = int(np.prod(shape)) if shape else 1
    nu = np.zeros(cells, dtype=int)
    ok = np.zeros(cells, dtype=bool)
    todo = np.arange(cells)
    k = samples
    chunk = max(1, (1 << 18) // k)
    while len(todo) and k <= max_samples:
        t = np.linspace(0.0, TWO_PI, k + 1)
        z = np.exp(1j * t)[None, :]
        still = []
        for s in range(0, len(todo), chunk):
            idx = todo[s:s + chunk]
            sub = {n: (v[idx][:, None] if n != "m" else v) for n, v in flat.items()}
            d = discriminant(hamiltonian(kind, sub, z))
            raw, step = _phase_winding(d)
            mags = np.abs(d)
            good = (step < np.pi / 4) & (np.abs(raw - np.round(raw)) < 1e-6) \
                & (mags.min(axis=1) > 1e-10 * mags.max(axis=1))
            nu[idx[good]] = np.round(raw[good]).astype(int)
            ok[idx[good]] = True
            still.append(idx[~good])
        todo = np.concatenate(still)
        k *= 2
        chunk = max(1, chunk // 2)
    span = 16 * int(p["m"])
    for c in todo:
        q = {n: (float(v[c]) if n != "m" else v) for n, v in flat.items()}
        w, margin = _laurent_winding(lambda z: discriminant(hamiltonian(kind, q, z)), span)
        nu[c] = w
        ok[c] = margin > 1e-9
    return nu.reshape(shape), ok.reshape(shape)


def det_winding(kind: str, p: dict, e_ref: complex) -> int:
    """Winding of det(H(k) - E_ref) around zero, by the argument principle."""
    n = 2 if kind == "dimer" else 3
    span = 4 * int(p["m"])
    w, margin = _laurent_winding(
        lambda z: np.linalg.det(hamiltonian(kind, p, z) - e_ref * np.eye(n)), span)
    if margin < 1e-9:
        raise ValueError(f"E_ref = {e_ref} lies on a band")
    return w


# -- band tracking -----------------------------------------------------------

def _rank(e: np.ndarray) -> np.ndarray:
    return np.lexsort((e.imag, e.real))


def match_steps(ev: np.ndarray):
    """Chain eigenvalue samples ``ev`` (T, N) by the cheapest permutation.

    Returns (perms, best, max_jump, min_gap): sample j's column c continues
    as column ``perms[best[j]][c]`` at sample j + 1; ``max_jump`` is the
    largest matched step and ``min_gap`` the smallest distance between bands.
    """
    n = ev.shape[1]
    perms = np.array(list(itertools.permutations(range(n))))
    steps = np.abs(ev[1:][:, perms] - ev[:-1, None, :])          # (T-1, P, N)
    best = steps.sum(axis=2).argmin(axis=1)
    max_jump = float(steps.max(axis=2)[np.arange(len(best)), best].max())
    gaps = np.abs(ev[:, :, None] - ev[:, None, :]) + np.where(np.eye(n, dtype=bool), np.inf, 0)
    return perms, best, max_jump, float(gaps.min())


def track(kind: str, p: dict, t0: float, radius: float = 1.0,
          samples: int = 1024, max_samples: int = 1 << 17):
    """LAPACK bands along z = radius*e^{it}, t in [t0, t0 + 2pi].

    Returns (bands of shape (N, T), closure image): bands start in ascending
    real-part order, and band n ends where band closure[n] started. The grid
    doubles until every matched step is below a quarter of the smallest gap.
    """
    while True:
        t = t0 + np.linspace(0.0, TWO_PI, samples + 1)
        ev = np.linalg.eigvals(hamiltonian(kind, p, radius * np.exp(1j * t)))
        perms, best, max_jump, min_gap = match_steps(ev)
        if max_jump < 0.25 * min_gap:
            break
        if samples >= max_samples:
            raise ValueError(f"bands too close to track (gap {min_gap:.3e})")
        samples *= 2
    n = ev.shape[1]
    cols = np.empty((len(t), n), dtype=int)
    cols[0] = _rank(ev[0])
    for j, b in enumerate(best):
        cols[j + 1] = perms[b][cols[j]]
    bands = ev[np.arange(len(t))[:, None], cols].T
    start = bands[:, 0]
    closure = tuple(int(np.argmin(np.abs(start - bands[i, -1]))) for i in range(n))
    return bands, closure


# -- braid words and permutations --------------------------------------------

def parse_word(text: str) -> list[tuple[int, int]]:
    """``"t1 T2"`` -> [(1, +1), (2, -1)]; ``"e"`` is the empty word."""
    text = text.strip()
    if text in ("", "e"):
        return []
    out = []
    for tok in text.split():
        if tok[0] not in "tT" or not tok[1:].isdigit():
            raise ValueError(f"bad braid letter {tok!r}")
        out.append((int(tok[1:]), 1 if tok[0] == "t" else -1))
    return out


def induced_permutation(letters, n: int) -> tuple[int, ...]:
    """Rank reached by each starting strand after the word's crossings."""
    pos = list(range(n))
    for gen, _ in letters:
        a, b = gen - 1, gen
        pos = [b if x == a else a if x == b else x for x in pos]
    return tuple(pos)


def cycle_type(perm) -> tuple[int, ...]:
    seen, lengths = set(), []
    for s in range(len(perm)):
        if s in seen:
            continue
        n, j = 0, s
        while j not in seen:
            seen.add(j)
            j = perm[j]
            n += 1
        lengths.append(n)
    return tuple(sorted(lengths))


def parse_cycles(text: str, n: int) -> tuple[int, ...]:
    """1-based cycle notation ``(1 2)(3 4)``; ``()`` is the identity."""
    image = list(range(n))
    for part in text.replace(")", "").split("("):
        nums = [int(x) - 1 for x in part.split()]
        for i, a in enumerate(nums):
            image[a] = nums[(i + 1) % len(nums)]
    return tuple(image)


def check_braid(kind: str, p: dict, k0: float, doc: dict) -> list[str]:
    """Problems with a CLI ``braid`` result; an empty list means it holds.

    The exponent sum of the word, the reported ``exponent_sum`` and ``nu``
    must all equal the discriminant winding; the reported closure must equal
    both the permutation the word induces and the independently tracked one.
    """
    n = 2 if kind == "dimer" else 3
    problems = []
    letters = parse_word(doc["word"])
    esum = sum(s for _, s in letters)
    nu, ok = disc_winding(kind, p)
    if not bool(ok):
        return ["model sits on an exceptional point"]
    wind = int(nu)
    if not esum == doc["exponent_sum"] == doc["nu"] == wind:
        problems.append(f"word {doc['word']!r} sums to {esum}, reported exponent_sum "
                        f"{doc['exponent_sum']} and nu {doc['nu']}; discriminant winds {wind}")
    closure = tuple(doc["closure_permutation"])
    if induced_permutation(letters, n) != closure:
        problems.append(f"closure {closure} is not the permutation "
                        f"{induced_permutation(letters, n)} of the word {doc['word']!r}")
    _, tracked = track(kind, p, k0)
    if tracked != closure:
        problems.append(f"closure {closure} differs from the tracked closure {tracked}")
    return problems
