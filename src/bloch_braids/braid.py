"""Braid words of complex energy bands, and the word algebra on them.

A word on N strands is an ordered sequence of signed generators: generator
n (1-based, n < N) twists the strands currently ranked n and n+1 by real
part. The text form is compact: lowercase ``t2`` is a positive generator,
uppercase ``T2`` its inverse, and the empty word prints ``e``.

Words are read off tracked bands by one crossing reader in two parts: a
step finder that lists, per tracked grid, the steps where the real-part
order of the bands changes, and a resolver that localises and signs the
crossings of any number of such steps in one pass, whatever cells and grids
they come from. :func:`extract_braid_word` is its one-trajectory case; a
phase diagram resolves the steps of a whole block of cells at once. Only
free reduction (cancelling adjacent inverse pairs) is
implemented; words that differ by the full braid relations are not
identified. Phase classification therefore keys on the cyclically reduced
word together with the exponent sum and the closure permutation.
"""

from __future__ import annotations

import functools
import itertools
import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateCrossing, StrandMismatch, UnresolvedCrossing

__all__ = [
    "Permutation",
    "BraidWord",
    "extract_braid_word",
    "induced_permutation",
    "concat",
    "inverse",
    "free_reduce",
    "exponent_sum",
    "cyclic_canonical",
    "words_cyclic_equal",
    "word_to_text",
    "word_from_text",
]


@dataclass(frozen=True)
class Permutation:
    """A bijection of strand labels {0, ..., N-1}; image[i] is where i goes."""

    image: tuple[int, ...]

    def __post_init__(self):
        img = tuple(int(i) for i in self.image)
        if sorted(img) != list(range(len(img))):
            raise ValueError(f"not a permutation: {img}")
        object.__setattr__(self, "image", img)

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(n)))

    @staticmethod
    def transposition(n: int, i: int) -> "Permutation":
        """Swap i and i+1 on n strands (0-based i)."""
        img = list(range(n))
        img[i], img[i + 1] = img[i + 1], img[i]
        return Permutation(tuple(img))

    @property
    def n(self) -> int:
        return len(self.image)

    def __call__(self, i: int) -> int:
        return self.image[i]

    def then(self, other: "Permutation") -> "Permutation":
        """Composition: first self, then other."""
        if other.n != self.n:
            raise ValueError("size mismatch")
        return Permutation(tuple(other.image[j] for j in self.image))

    def inverse(self) -> "Permutation":
        img = [0] * self.n
        for i, j in enumerate(self.image):
            img[j] = i
        return Permutation(tuple(img))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.image))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, 0-based, each starting at its smallest element."""
        seen = [False] * self.n
        out = []
        for start in range(self.n):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            j = self.image[start]
            while j != start:
                cyc.append(j)
                seen[j] = True
                j = self.image[j]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def cycle_str(self) -> str:
        """1-based cycle notation, e.g. ``(1 2)``; identity prints ``()``."""
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(i + 1) for i in c) + ")" for c in cycs)

    def band_mapping_str(self) -> str:
        """Relabelling of the band tuple after one zone traversal.

        ``(E1,E2,E3)->(E3,E1,E2)`` means the slot that held E1 at the base
        point is reached by the strand that started as E3, and so on: slot p
        lists the inverse image of p.
        """
        inv = self.inverse().image
        lhs = ",".join(f"E{i + 1}" for i in range(self.n))
        rhs = ",".join(f"E{inv[p] + 1}" for p in range(self.n))
        return f"({lhs})->({rhs})"

    @staticmethod
    def from_band_tuple(labels: Sequence[int]) -> "Permutation":
        """Inverse of :meth:`band_mapping_str`: 1-based occupant labels."""
        inv = [int(x) - 1 for x in labels]
        return Permutation(tuple(inv)).inverse()


@dataclass(frozen=True)
class BraidWord:
    """letters: tuple of (generator index 1..N-1, sign +1/-1)."""

    letters: tuple[tuple[int, int], ...]
    strand_count: int

    def __post_init__(self):
        letters = tuple((int(n), int(s)) for n, s in self.letters)
        if self.strand_count < 2:
            raise ValueError("need at least two strands")
        for n, s in letters:
            if not 1 <= n < self.strand_count:
                raise ValueError(f"generator {n} out of range for {self.strand_count} strands")
            if s not in (-1, 1):
                raise ValueError(f"sign must be +1 or -1, got {s}")
        object.__setattr__(self, "letters", letters)

    @staticmethod
    def empty(strand_count: int) -> "BraidWord":
        return BraidWord((), strand_count)

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return word_to_text(self)


def word_to_text(w: BraidWord) -> str:
    """Compact text form: ``t1 t2 T1`` (uppercase = inverse); empty is ``e``."""
    if not w.letters:
        return "e"
    return " ".join((f"t{n}" if s > 0 else f"T{n}") for n, s in w.letters)


def word_from_text(text: str, strand_count: int) -> BraidWord:
    text = text.strip()
    if text in ("", "e"):
        return BraidWord.empty(strand_count)
    letters = []
    for tok in text.split():
        if not tok[0] in "tT" or not tok[1:].isdigit():
            raise ValueError(f"bad braid letter {tok!r}")
        letters.append((int(tok[1:]), 1 if tok[0] == "t" else -1))
    return BraidWord(tuple(letters), strand_count)


def exponent_sum(w: BraidWord) -> int:
    """Number of positive letters minus number of inverse letters."""
    return sum(s for _, s in w.letters)


def induced_permutation(w: BraidWord) -> Permutation:
    """Strand permutation of the word: transpositions composed in word order.

    Signs are ignored; a generator and its inverse move strands identically.
    """
    perm = Permutation.identity(w.strand_count)
    for n, _ in w.letters:
        perm = perm.then(Permutation.transposition(w.strand_count, n - 1))
    return perm


def concat(a: BraidWord, b: BraidWord) -> BraidWord:
    """Join: a's endpoints glued to b's initial points."""
    if a.strand_count != b.strand_count:
        raise StrandMismatch(f"{a.strand_count} vs {b.strand_count} strands")
    return BraidWord(a.letters + b.letters, a.strand_count)


def inverse(w: BraidWord) -> BraidWord:
    return BraidWord(tuple((n, -s) for n, s in reversed(w.letters)), w.strand_count)


def free_reduce(w: BraidWord) -> BraidWord:
    """Delete adjacent inverse pairs until none remain."""
    stack: list[tuple[int, int]] = []
    for let in w.letters:
        if stack and stack[-1][0] == let[0] and stack[-1][1] == -let[1]:
            stack.pop()
        else:
            stack.append(let)
    return BraidWord(tuple(stack), w.strand_count)


def cyclic_canonical(w: BraidWord) -> BraidWord:
    """Canonical representative under free reduction and cyclic rotation.

    Reduces freely, cancels inverse pairs across the wrap-around, then picks
    the lexicographically smallest rotation. Words equal up to a change of
    base point share one canonical form.
    """
    letters = list(free_reduce(w).letters)
    while len(letters) >= 2 and letters[0][0] == letters[-1][0] and letters[0][1] == -letters[-1][1]:
        letters = letters[1:-1]
    if not letters:
        return BraidWord.empty(w.strand_count)
    rotations = [tuple(letters[i:] + letters[:i]) for i in range(len(letters))]
    return BraidWord(min(rotations), w.strand_count)


def words_cyclic_equal(a: BraidWord, b: BraidWord) -> bool:
    return (a.strand_count == b.strand_count
            and cyclic_canonical(a).letters == cyclic_canonical(b).letters)


# -- extraction from tracked bands ---------------------------------------

_BISECTION_WIDTH = 2.0 * np.pi * 1e-6   # letter sign is read at the crossing
_SUBDIVIDE_FLOOR = 2.0 * np.pi * 1e-9   # below this, coincident crossings
_PERMS = {n: np.array(list(itertools.permutations(range(n)))) for n in (2, 3)}
# The most points one kernel call of the resolver evaluates, and the most
# pending steps a phase-diagram block collects before it resolves them. Every
# stage of the resolver is elementwise per crossing, but numpy evaluates an
# operation on a temporary of 256 KiB (16 384 complex values) or more in
# place, with different rounding; below that a crossing reads the same bits
# in a pass of any size. It also bounds a large block's memory.
_CROSSING_BATCH = 8192
_LOG = logging.getLogger(__name__)


def _below(values: np.ndarray) -> list[np.ndarray]:
    """For each pair i < j of values along the last axis: whether i ranks below j.

    Values rank by ascending real part, ties by imaginary part, then by
    position (the order of a stable lexsort). This is the band order at a
    base point and the strand order that braid letters refer to.
    """
    return [(a.real < b.real) | ((a.real == b.real) & (a.imag <= b.imag))
            for a, b in ((values[..., i], values[..., j])
                         for i, j in itertools.combinations(range(values.shape[-1]), 2))]


def _ranks(values: np.ndarray) -> np.ndarray:
    """Rank of each value along the last axis, from 0 upward (see :func:`_below`)."""
    n = values.shape[-1]
    ranks = np.zeros(values.shape, dtype=np.int16)
    for (i, j), below in zip(itertools.combinations(range(n), 2), _below(values)):
        ranks[..., j] += below
        ranks[..., i] += ~below
    return ranks


def _match(reference: np.ndarray, raw: np.ndarray):
    """Continue each set of values in ``reference`` by the values in ``raw``.

    Works over the last axis of two arrays of one shape. Returns
    ``(perms, choice, jumps)``: with ``cols = perms[choice]``,
    ``raw[..., cols[..., b]]`` continues ``reference[..., b]`` with the least
    total distance, and ``jumps`` is the largest matched distance. Up to
    three values every permutation is costed and a tie goes to the first in
    lexicographic order (the identity); beyond that the assignment comes
    from the Hungarian method.
    """
    n = reference.shape[-1]
    if n not in _PERMS:
        from scipy.optimize import linear_sum_assignment
        cost = np.abs(raw[..., None, :] - reference[..., :, None]).reshape(-1, n, n)
        cols = np.array([linear_sum_assignment(c)[1] for c in cost])
        jumps = np.take_along_axis(cost, cols[..., None], -1).max(axis=(1, 2))
        perms, choice = np.unique(cols, axis=0, return_inverse=True)
        return perms, choice.reshape(reference.shape[:-1]), jumps.reshape(reference.shape[:-1])
    # d[a][b] = |raw[a] - reference[b]|; a permutation's cost adds its terms in the order of b
    d = [[np.abs(raw[..., a] - reference[..., b]) for b in range(n)] for a in range(n)]
    for i, perm in enumerate(_PERMS[n].tolist()):
        terms = [d[a][b] for b, a in enumerate(perm)]
        cost, jump = functools.reduce(np.add, terms), functools.reduce(np.maximum, terms)
        if i == 0:
            best, choice, jumps = cost, np.zeros(cost.shape, dtype=np.intp), jump
            continue
        better = cost < best
        choice[better] = i
        best, jumps = np.where(better, cost, best), np.where(better, jump, jumps)
    return _PERMS[n], choice, jumps


def _crossing_steps(t_grid: np.ndarray, bands: np.ndarray, cells: np.ndarray):
    """The grid steps over which the real-part order of tracked bands changes.

    ``bands`` has shape (C, N, T): the bands of C cells on ``t_grid``, whose
    ids are ``cells``. Returns ``(cell, tl, tr, el, er)``, one entry per
    step: the cell's id, the step's ends, and the bands at each end (shape
    (steps, N)). Steps of several grids, concatenated, are resolved in one
    pass of :func:`_resolve_crossings`.
    """
    changes = [below[:, 1:] != below[:, :-1] for below in _below(bands.transpose(0, 2, 1))]
    at, step = np.nonzero(functools.reduce(np.logical_or, changes))
    return cells[at], t_grid[step], t_grid[step + 1], bands[at, :, step], bands[at, :, step + 1]


def _resolve_crossings(cells: np.ndarray, steps, scale: np.ndarray, raw_at) -> list:
    """Braid words of ``cells`` read off their steps in one pass.

    ``steps`` is ``(cell, tl, tr, el, er)`` as :func:`_crossing_steps`
    returns it, for any number of cells and grids; ``scale[c]`` is the band
    scale of cell c, and ``raw_at(cell, t)`` gives the unordered eigenvalues
    (E, N) of cells at loop parameters t (two arrays of length E). All
    crossings pass each stage below together, in ``raw_at`` calls of at
    most ``_CROSSING_BATCH`` points. Returns one word per entry of
    ``cells``; a cell whose reading fails gets the exception of its first
    failing crossing instead. Logs one DEBUG record per pass.
    """
    cell, tl, tr, el, er = steps
    n = el.shape[-1]
    found: dict = {c: [] for c in cells.tolist()}
    calls = points = rounds = 0

    def at(s: np.ndarray, t: np.ndarray) -> np.ndarray:
        nonlocal calls, points
        out = np.empty((len(s), n), dtype=complex)
        for i in range(0, len(s), _CROSSING_BATCH):
            part = s[i:i + _CROSSING_BATCH]
            raw = raw_at(cell[part], t[i:i + _CROSSING_BATCH])
            perms, choice, _ = _match(el[part], raw)
            out[i:i + _CROSSING_BATCH] = np.take_along_axis(raw, perms[choice], -1)
            calls += 1
        points += len(s)
        return out

    # a step whose ends differ by more than one swap of adjacent ranks is
    # halved until each part holds one; parts that hold none drop out
    singles = []
    while True:
        rl, rr = _ranks(el), _ranks(er)
        moved = rl != rr
        low = np.where(moved, rl, n).min(axis=-1)
        single = (moved.sum(axis=-1) == 2) & (np.where(moved, rl, -1).max(axis=-1) == low + 1)
        singles.append((cell[single], tl[single], tr[single], el[single], rl[single], low[single]))
        split = moved.any(axis=-1) & ~single
        for i in np.flatnonzero(split & (tr - tl < _SUBDIVIDE_FLOOR)).tolist():
            found[cell[i]].append((tl[i], UnresolvedCrossing(
                f"multiple crossings within dt={tr[i] - tl[i]:.3e} near t={tl[i]:.6f}")))
        s = np.flatnonzero(split & (tr - tl >= _SUBDIVIDE_FLOOR))
        if not len(s):
            break
        rounds += 1
        tm = 0.5 * (tl[s] + tr[s])
        em = at(s, tm)
        cell = np.tile(cell[s], 2)
        tl, tr = np.concatenate([tl[s], tm]), np.concatenate([tm, tr[s]])
        el, er = np.concatenate([el[s], em]), np.concatenate([em, er[s]])
    cell, tl, tr, el, rl, low = (np.concatenate(parts) for parts in zip(*singles))
    key, every = tl.copy(), np.arange(len(cell))
    lower, upper = (np.argmax(rl == (low + k)[:, None], axis=-1) for k in (0, 1))

    def upper_minus_lower(s: np.ndarray, e: np.ndarray) -> np.ndarray:
        return e[np.arange(len(s)), upper[s]] - e[np.arange(len(s)), lower[s]]

    dl = upper_minus_lower(every, el).real
    # a crossing pinned exactly on a sample: step off it
    for _ in range(8):
        s = np.flatnonzero(dl == 0.0)
        if not len(s):
            break
        tl[s] = tl[s] + 1e-3 * (tr[s] - tl[s])
        el[s] = at(s, tl[s])
        dl[s] = upper_minus_lower(s, el[s]).real
    # bisect each crossing, keeping the side whose real-part order is the left end's
    while True:
        s = np.flatnonzero(tr - tl > _BISECTION_WIDTH)
        if not len(s):
            break
        tm = 0.5 * (tl[s] + tr[s])
        em = at(s, tm)
        dm = upper_minus_lower(s, em).real
        left = (dm == 0.0) | ((dm > 0) == (dl[s] > 0))
        tl[s[left]], el[s[left]], dl[s[left]] = tm[left], em[left], dm[left]
        tr[s[~left]] = tm[~left]
    tm = 0.5 * (tl + tr)
    imdiff = upper_minus_lower(every, at(every, tm)).imag if len(every) else []
    for i, im in enumerate(imdiff):
        if abs(im) < 1e-8 * scale[cell[i]]:
            item = DegenerateCrossing(
                f"bands {lower[i] + 1} and {upper[i] + 1} coalesce at t={tm[i]:.9f}")
        else:
            item = (int(low[i]) + 1, 1 if im > 0 else -1)
        found[cell[i]].append((key[i], item))
    _LOG.debug("crossing pass: %d crossings read, %d subdivision rounds, %d kernel calls, "
               "%d points", len(every), rounds, calls, points)

    words = []
    for items in found.values():
        items.sort(key=lambda item: item[0])
        errors = [x for _, x in items if isinstance(x, Exception)]
        words.append(errors[0] if errors else BraidWord(tuple(x for _, x in items), n))
    return words


def extract_braid_word(trajectory) -> BraidWord:
    """Read the braid word off a tracked band trajectory.

    Scanning the zone upward from the base point, every swap in the
    real-part order of two adjacent strands emits one letter for the rank
    the pair occupied just before the swap. The crossing is localised by
    bisection, which re-evaluates the model between samples through
    ``trajectory.evaluate_raw``, one call with an array of loop parameters
    per step, and the sign is read there: +1 when the strand that was
    upper in real part lies above in imaginary part at the crossing, -1
    otherwise. This is the one-cell case of the reader that a phase
    diagram runs once over the crossings of a whole block of cells. This convention makes the exponent sum of the
    word coincide with the spectral winding index.

    Raises :class:`DegenerateCrossing` when a crossing has both parts equal
    (an exceptional point) and :class:`UnresolvedCrossing` when two
    crossings cannot be separated.
    """
    cells = np.zeros(1, dtype=np.intp)
    steps = _crossing_steps(trajectory.t_grid, np.asarray(trajectory.bands)[None], cells)
    word, = _resolve_crossings(cells, steps, np.array([trajectory.scale]),
                               lambda cell, t: trajectory.evaluate_raw(t))
    if isinstance(word, Exception):
        raise word
    return word
