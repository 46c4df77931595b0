"""Bloch Hamiltonians of one-dimensional gain-loss lattices.

Two concrete families are built in:

* a dimer chain (two sites per cell, onsite +i*gamma / -i*gamma) with
  intra-cell hopping ``alpha`` and m-th-neighbour hoppings ``beta`` (between
  sublattices) and ``delta`` (gain-site to gain-site),

      H(k) = [[2*delta*sin(m*k) + i*gamma,  alpha + beta*exp(-i*m*k)],
              [alpha + beta*exp(+i*m*k),   -i*gamma]]

* a trimer chain (three sites per cell) with intra-cell coupling ``alpha``,
  m-th-neighbour coupling ``beta``, 2m-th-neighbour coupling ``delta`` and a
  real onsite potential ``v`` on the middle site,

      H(k) = [[-2*delta*sin(2*m*k) + i*gamma,  alpha,  beta*exp(-i*m*k)],
              [alpha,                         v,       alpha],
              [beta*exp(+i*m*k),              alpha,  -i*gamma]]

plus a generic N-band family given as a finite Fourier sum sum_n A_n e^{ink}.
Every model can also be evaluated off the Brillouin zone at a complex
coordinate z, where each e^{ik} is replaced by z (so e^{-imk} -> z^{-m});
on the unit circle z = e^{ik} this reproduces the momentum-space matrix.
Momentum is measured in units of the inverse lattice constant, so the zone
has period 2*pi.

Each family's H(z) is written once, in the kernel section of this
module, next to one rule from entries to characteristic coefficients and
one discriminant rule; every eigenvalue, determinant and discriminant of
the package, and the Laurent coefficients of the discriminant in z, derive
from them. :meth:`ModelSpec.fourier_terms` and
:func:`characteristic_coefficients` state the same objects by other routes
and are kept as independent references for the tests.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields, replace
from types import SimpleNamespace, UnionType
from typing import Sequence, get_args

import numpy as np

from .errors import ZeroModulus

__all__ = [
    "DimerParams",
    "TrimerParams",
    "FourierTerm",
    "GenericParams",
    "ModelSpec",
    "BlochMatrix",
    "dimer_hamiltonian",
    "trimer_hamiltonian",
    "bloch_matrix",
    "bloch_matrix_z",
    "characteristic_coefficients",
    "model_from_json",
    "model_to_json",
]


def _require_finite(**fields: float) -> None:
    for name, value in fields.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _check_params(p) -> None:
    """``__post_init__`` of the dimer and trimer parameters: finite numbers and
    a positive integral neighbour order ``m``, stored as an int."""
    _require_finite(**{name: value for name, value in vars(p).items() if name != "m"})
    if not (float(p.m).is_integer() and p.m >= 1):
        raise ValueError(f"neighbour order m must be a positive integer, got {p.m}")
    object.__setattr__(p, "m", int(p.m))


_JSON_NAMES = {float: "a number", int: "an integer", str: "a string", list: "a list",
               dict: "a JSON object", type(None): "null"}


def _read_json(doc, table: dict, what: str) -> dict:
    """The values of the JSON object ``doc``, checked against ``table``, defaults filled in.

    ``table`` maps each key to its default, whose type is the key's type; to
    a type (``float``, ``int``, ``str``, ``list``, ``dict``) for a key the
    object must have; or to ``T | None`` for a key that may be left out or
    null (it reads None then). ``float`` is any JSON number, returned as a
    float, and ``int`` a JSON integer; a bool is neither. The checks run in
    this order, each raising ``ValueError`` that names ``what`` and the key:
    ``doc`` is an object, it has no unknown keys, no required key is missing,
    and each value has its key's type.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(doc).__name__}")
    extra = sorted(set(doc) - set(table))
    if extra:
        raise ValueError(f"unknown {what} keys {extra} (expected {', '.join(table)})")
    for key, default in table.items():
        if isinstance(default, type) and key not in doc:
            raise ValueError(f"{what} {key} is missing")
    values = {}
    for key, default in table.items():
        kind = default if isinstance(default, (type, UnionType)) else type(default)
        value = doc.get(key, None if isinstance(default, UnionType) else default)
        if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float
                                                     else kind):
            names = " or ".join(_JSON_NAMES[t] for t in get_args(kind) or (kind,))
            raise ValueError(f"{what} {key} must be {names}, got {value!r}")
        values[key] = float(value) if kind is float else value
    return values


@dataclass(frozen=True)
class DimerParams:
    """Parameters of the two-band gain-loss dimer chain."""

    alpha: float
    beta: float
    delta: float
    gamma: float
    m: int = 1

    __post_init__ = _check_params


@dataclass(frozen=True)
class TrimerParams:
    """Parameters of the three-band gain-loss trimer chain."""

    alpha: float
    beta: float
    delta: float
    gamma: float
    v: float
    m: int = 1

    __post_init__ = _check_params


@dataclass(frozen=True)
class FourierTerm:
    """One term A * e^{i n k} of a generic Bloch Hamiltonian."""

    n: int
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"Fourier coefficient must be a square matrix, got shape {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise ValueError("Fourier coefficient matrix contains non-finite entries")
        object.__setattr__(self, "matrix", mat)


@dataclass(frozen=True)
class GenericParams:
    """A user-defined N-band model as a finite Fourier sum."""

    dimension: int
    terms: tuple[FourierTerm, ...]

    def __post_init__(self):
        if self.dimension < 2:
            raise ValueError("generic models need at least 2 bands")
        terms = tuple(self.terms)
        for t in terms:
            if t.matrix.shape != (self.dimension, self.dimension):
                raise ValueError(
                    f"Fourier term for n={t.n} has shape {t.matrix.shape}, "
                    f"expected ({self.dimension}, {self.dimension})")
        object.__setattr__(self, "terms", terms)


@dataclass(frozen=True)
class ModelSpec:
    """A Bloch-Hamiltonian family: dimer, trimer, or generic Fourier sum."""

    kind: str
    params: DimerParams | TrimerParams | GenericParams

    _KINDS = ("dimer", "trimer", "generic")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        expected = {"dimer": DimerParams, "trimer": TrimerParams,
                    "generic": GenericParams}[self.kind]
        if not isinstance(self.params, expected):
            raise TypeError(f"{self.kind} model needs {expected.__name__}, "
                            f"got {type(self.params).__name__}")

    @staticmethod
    def dimer(alpha: float, beta: float, delta: float, gamma: float, m: int = 1) -> "ModelSpec":
        return ModelSpec("dimer", DimerParams(alpha, beta, delta, gamma, m))

    @staticmethod
    def trimer(alpha: float, beta: float, delta: float, gamma: float,
               v: float, m: int = 1) -> "ModelSpec":
        return ModelSpec("trimer", TrimerParams(alpha, beta, delta, gamma, v, m))

    @staticmethod
    def generic(terms: Sequence[tuple[int, np.ndarray]],
                dimension: int | None = None) -> "ModelSpec":
        """A Fourier-sum model; ``dimension`` defaults to the first term's size."""
        fts = tuple(FourierTerm(int(n), np.asarray(a, dtype=complex)) for n, a in terms)
        if not fts:
            raise ValueError("generic model needs at least one Fourier term")
        return ModelSpec("generic", GenericParams(
            fts[0].matrix.shape[0] if dimension is None else dimension, fts))

    @property
    def n_bands(self) -> int:
        if self.kind == "dimer":
            return 2
        if self.kind == "trimer":
            return 3
        return self.params.dimension

    def replace_param(self, name: str, value: float) -> "ModelSpec":
        """New spec with one named scalar parameter replaced (sweeps)."""
        if self.kind == "generic":
            raise ValueError("generic models have no named scalar parameters")
        if name not in {f.name for f in self.params.__dataclass_fields__.values()}:
            raise ValueError(f"model has no parameter {name!r}")
        return ModelSpec(self.kind, replace(self.params, **{name: value}))

    def fourier_terms(self) -> tuple[FourierTerm, ...]:
        """The model as a Fourier sum sum_n A_n e^{ink}.

        The dimer's 2*delta*sin(mk) diagonal is stored as
        -i*delta*(e^{imk} - e^{-imk}). For the dimer and trimer this is an
        independent statement of the kernel's entry formulas, which tests
        compare against it.
        """
        if self.kind == "dimer":
            p = self.params
            a0 = np.array([[1j * p.gamma, p.alpha], [p.alpha, -1j * p.gamma]], dtype=complex)
            a_plus = np.array([[-1j * p.delta, 0.0], [p.beta, 0.0]], dtype=complex)
            a_minus = np.array([[1j * p.delta, p.beta], [0.0, 0.0]], dtype=complex)
            return (FourierTerm(0, a0), FourierTerm(p.m, a_plus), FourierTerm(-p.m, a_minus))
        if self.kind == "trimer":
            p = self.params
            a0 = np.array([[1j * p.gamma, p.alpha, 0.0],
                           [p.alpha, p.v, p.alpha],
                           [0.0, p.alpha, -1j * p.gamma]], dtype=complex)
            a_p = np.zeros((3, 3), complex)
            a_p[2, 0] = p.beta
            a_m = np.zeros((3, 3), complex)
            a_m[0, 2] = p.beta
            a_2p = np.zeros((3, 3), complex)
            a_2p[0, 0] = 1j * p.delta
            a_2m = np.zeros((3, 3), complex)
            a_2m[0, 0] = -1j * p.delta
            return (FourierTerm(0, a0), FourierTerm(p.m, a_p), FourierTerm(-p.m, a_m),
                    FourierTerm(2 * p.m, a_2p), FourierTerm(-2 * p.m, a_2m))
        return self.params.terms

    # -- JSON -------------------------------------------------------------

    def to_json_dict(self) -> dict:
        p = self.params
        if self.kind != "generic":
            return {"kind": self.kind, "params": dict(vars(p))}
        return {"kind": "generic", "params": {
            "dimension": p.dimension,
            "terms": [{"n": t.n,
                       "matrix": [[[float(x.real), float(x.imag)] for x in row]
                                  for row in t.matrix]}
                      for t in p.terms]}}

    @staticmethod
    def from_json_dict(doc: dict) -> "ModelSpec":
        """The model of a JSON model document, every object read by :func:`_read_json`."""
        doc = _read_json(doc, _MODEL_TABLE, "model")
        kind = doc["kind"]
        if kind in ("dimer", "trimer"):
            cls = DimerParams if kind == "dimer" else TrimerParams
            table = {f.name: float if f.default is MISSING else float(f.default)
                     for f in fields(cls)}
            return ModelSpec(kind, cls(**_read_json(doc["params"], table, f"{kind} parameter")))
        if kind == "generic":
            params = _read_json(doc["params"], _GENERIC_TABLE, "generic parameter")
            terms = []
            for i, term in enumerate(params["terms"]):
                term = _read_json(term, _TERM_TABLE, f"generic model term {i}")
                try:
                    mat = np.array([[complex(re, im) for re, im in row] for row in term["matrix"]])
                except (TypeError, ValueError):
                    raise ValueError(f"generic model term {i} 'matrix' must be rows of [re, im] "
                                     f"pairs, got {term['matrix']!r}") from None
                terms.append((term["n"], mat))
            return ModelSpec.generic(terms, params["dimension"])
        raise ValueError(f"model kind must be one of {', '.join(ModelSpec._KINDS)}, got {kind!r}")


# the JSON objects of a model document other than the dimer and trimer
# parameters, whose table is the fields of their dataclass
_MODEL_TABLE = {"kind": str, "params": dict}
_GENERIC_TABLE = {"terms": list, "dimension": int | None}
_TERM_TABLE = {"n": int, "matrix": list}


def model_to_json(spec: ModelSpec) -> str:
    return json.dumps(spec.to_json_dict(), indent=2)


def model_from_json(text: str) -> ModelSpec:
    return ModelSpec.from_json_dict(json.loads(text))


@dataclass(frozen=True)
class BlochMatrix:
    """An evaluated Bloch matrix together with its evaluation point.

    ``space`` is "k" for real momentum and "z" for a complexified point.
    """

    entries: np.ndarray
    point: complex
    space: str = "k"

    def __post_init__(self):
        mat = np.asarray(self.entries, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"Bloch matrix must be square, got shape {mat.shape}")
        object.__setattr__(self, "entries", mat)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


# -- the kernel ------------------------------------------------------------
#
# Each family's H(z) is written once, with arithmetic operators only and with
# z entering the dimer and trimer only through w = z**m and 1/w. The same
# formulas therefore evaluate Python complex scalars (Newton on the
# discriminant), numpy grids, and parameter arrays broadcast against sample
# arrays (sweep rows). The z-plane discriminant needs no polynomial
# arithmetic: its Laurent coefficients come from a discrete Fourier
# transform of its values at roots of unity. Entries come back as rows,
# ``e[i][j]``; an entry may be a plain number where it does not depend on z.

def _dimer_entries(alpha, beta, delta, gamma, w):
    """Rows of the dimer H at w = z**m."""
    return ((-1j * delta * (w - 1.0 / w) + 1j * gamma, alpha + beta / w),
            (alpha + beta * w, -1j * gamma))


def _trimer_entries(alpha, beta, delta, gamma, v, w):
    """Rows of the trimer H at w = z**m."""
    return ((1j * delta * (w * w - 1.0 / (w * w)) + 1j * gamma, alpha, beta / w),
            (alpha, v, alpha),
            (beta * w, alpha, -1j * gamma))


def _fourier_entries(terms, z):
    """Rows of sum_n A_n z^n for a generic model."""
    n = terms[0].matrix.shape[0]
    powers = [z ** t.n for t in terms]
    return tuple(tuple(sum(t.matrix[i, j] * zn for t, zn in zip(terms, powers))
                       for j in range(n))
                 for i in range(n))


def _entries(spec: ModelSpec, z, values=None):
    """Rows of H(z) for any model; ``z`` may be a scalar or an array.

    ``values`` replaces named parameters, e.g. by per-cell arrays of a sweep row.
    """
    p = spec.params if not values else SimpleNamespace(**{**vars(spec.params), **values})
    if spec.kind == "dimer":
        return _dimer_entries(p.alpha, p.beta, p.delta, p.gamma, z ** p.m)
    if spec.kind == "trimer":
        return _trimer_entries(p.alpha, p.beta, p.delta, p.gamma, p.v, z ** p.m)
    return _fourier_entries(p.terms, z)


def _char_coeffs(e):
    """Monic characteristic coefficients (c_{N-1}, ..., c_0) of a 2x2 or 3x3 H.

    det(E - H) = E^N + c_{N-1} E^{N-1} + ... + c_0: minus the trace, the sum
    of principal 2x2 minors (N = 3), and (-1)^N det H.
    """
    if len(e) == 2:
        (e11, e12), (e21, e22) = e
        return -(e11 + e22), e11 * e22 - e12 * e21
    (e11, e12, e13), (e21, e22, e23), (e31, e32, e33) = e
    minors = (e11 * e22 - e12 * e21) + (e11 * e33 - e13 * e31) + (e22 * e33 - e23 * e32)
    det = (e11 * (e22 * e33 - e23 * e32)
           - e12 * (e21 * e33 - e23 * e31)
           + e13 * (e21 * e32 - e22 * e31))
    return -(e11 + e22 + e33), minors, -det


def _det_minus(e, energy):
    """det(H - energy) of a 2x2 or 3x3 H, from its entries."""
    n = len(e)
    shifted = tuple(tuple(x - energy if i == j else x for j, x in enumerate(row))
                    for i, row in enumerate(e))
    return (-1) ** n * _char_coeffs(shifted)[-1]


def _disc(coeffs):
    """Discriminant of the monic quadratic or cubic with the given lower coefficients."""
    if len(coeffs) == 2:
        b, c = coeffs
        return b * b - 4.0 * c
    b, c, d = coeffs
    return 18.0 * b * c * d - 4.0 * b ** 3 * d + b * b * c * c - 4.0 * c ** 3 - 27.0 * d * d


def dimer_hamiltonian(p: DimerParams, k: float) -> BlochMatrix:
    """The 2x2 dimer Bloch matrix at real momentum k."""
    return bloch_matrix(ModelSpec("dimer", p), k)


def trimer_hamiltonian(p: TrimerParams, k: float) -> BlochMatrix:
    """The 3x3 trimer Bloch matrix at real momentum k."""
    return bloch_matrix(ModelSpec("trimer", p), k)


def bloch_matrix(spec: ModelSpec, k: float) -> BlochMatrix:
    """Evaluate any model at real momentum k."""
    return BlochMatrix(np.array(_entries(spec, np.exp(1j * k)), dtype=complex), k, "k")


def bloch_matrix_z(spec: ModelSpec, z: complex) -> BlochMatrix:
    """Evaluate a model at complex coordinate z, replacing e^{ik} by z.

    At |z| = 1 this coincides with :func:`bloch_matrix` at k = arg z.
    Raises :class:`ZeroModulus` for z = 0 when the model has negative
    Fourier exponents (the matrix has a pole there).
    """
    z = complex(z)
    if z == 0 and any(t.n < 0 for t in spec.fourier_terms()):
        raise ZeroModulus("z = 0 is a pole of this model (negative Fourier exponents)")
    return BlochMatrix(np.array(_entries(spec, z), dtype=complex), z, "z")


def characteristic_coefficients(matrix) -> np.ndarray:
    """Monic characteristic polynomial coefficients of a square matrix.

    Returns ``[1, c_{N-1}, ..., c_0]`` (descending powers) with
    det(E*I - M) = E^N + c_{N-1} E^{N-1} + ... + c_0, computed by the
    Faddeev-LeVerrier recursion (no eigendecomposition involved, so it can
    serve as an independent check on eigenvalue routines).
    """
    mat = np.asarray(getattr(matrix, "entries", matrix), dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"need a square matrix, got shape {mat.shape}")
    n = mat.shape[0]
    coeffs = np.empty(n + 1, dtype=complex)
    coeffs[0] = 1.0
    work = mat.copy()
    for i in range(1, n + 1):
        c = -np.trace(work) / i
        coeffs[i] = c
        if i < n:
            work = mat @ (work + c * np.eye(n))
    return coeffs
