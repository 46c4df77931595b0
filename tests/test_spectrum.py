import itertools
import warnings

import numpy as np
import pytest

from bloch_braids import (DimerParams, ModelSpec, bloch_matrix, dimer_bands_analytic,
                          eigenvalues, riemann_loop, solve_cubic, track_bands)
from bloch_braids.errors import (DegenerateCrossing, DegeneracyEncountered, RefinementExhausted,
                                 UnresolvedCrossing)
from bloch_braids.models import _char_coeffs, _entries, characteristic_coefficients
from bloch_braids.spectrum import (_closures, _cubic_roots_vec, _eig_grid, _match_chain,
                                   _pair_gaps)
from conftest import PI4, random_dimer, random_trimer

TRACK_ERRORS = (DegeneracyEncountered, RefinementExhausted, DegenerateCrossing,
                UnresolvedCrossing)


def sorted_c(values):
    values = np.asarray(values)
    return values[np.lexsort((values.imag, values.real))]


def companion_roots(coeffs):
    """Independent root oracle: eigenvalues of the companion matrix."""
    coeffs = np.asarray(coeffs, dtype=complex)
    n = len(coeffs) - 1
    comp = np.zeros((n, n), dtype=complex)
    comp[1:, :-1] = np.eye(n - 1)
    comp[:, -1] = -coeffs[1:][::-1]
    return np.linalg.eigvals(comp)


# -- analytic two-band formula ----------------------------------------------

def test_dimer_bands_k0():
    p = DimerParams(1.0, 1.5, 0.3, 1.0, 1)
    e1, e2 = dimer_bands_analytic(p, 0.0)
    np.testing.assert_allclose(e1, -np.sqrt(5.25), atol=1e-12)
    np.testing.assert_allclose(e2, np.sqrt(5.25), atol=1e-12)


def test_dimer_bands_ep_line():
    # gamma = beta - alpha puts both bands at zero at k = pi; the float-pi
    # residue in sin(m*k) enters under a square root, so expect ~sqrt(eps)
    p = DimerParams(1.0, 1.5, 0.3, 0.5, 1)
    e1, e2 = dimer_bands_analytic(p, np.pi)
    assert abs(e1) < 1e-8 and abs(e2) < 1e-8


def test_dimer_bands_kpi():
    p = DimerParams(1.0, 1.5, 0.3, 1.0, 1)
    e1, e2 = dimer_bands_analytic(p, np.pi)
    np.testing.assert_allclose(e1, -1j * np.sqrt(0.75), atol=1e-12)
    np.testing.assert_allclose(e2, 1j * np.sqrt(0.75), atol=1e-12)


def test_dimer_bands_satisfy_characteristic_polynomial():
    rng = np.random.default_rng(23)
    for _ in range(200):
        spec = random_dimer(rng)
        k = rng.uniform(0, 2 * np.pi)
        c = characteristic_coefficients(bloch_matrix(spec, k))
        for e in dimer_bands_analytic(spec.params, k):
            residual = abs(e * e + c[1] * e + c[2])
            assert residual < 1e-10 * (1 + abs(e)) ** 2


def test_dimer_bands_match_general_eigensolver():
    rng = np.random.default_rng(29)
    for _ in range(100):
        spec = random_dimer(rng)
        k = rng.uniform(0, 2 * np.pi)
        analytic = sorted_c(dimer_bands_analytic(spec.params, k))
        general = sorted_c(np.linalg.eigvals(bloch_matrix(spec, k).entries))
        assert np.abs(analytic - general).max() < 1e-10


# -- cubic solver -------------------------------------------------------------

def test_cubic_simple():
    roots = sorted_c(solve_cubic([1.0, 0.0, -1.0, 0.0]))
    np.testing.assert_allclose(roots, [-1.0, 0.0, 1.0], atol=1e-12)


def test_cubic_triple_root():
    roots = solve_cubic([1.0, -3.0, 3.0, -1.0])
    np.testing.assert_allclose(roots, [1.0, 1.0, 1.0], atol=1e-7)


def test_cubic_trimer_vs_companion():
    spec = ModelSpec.trimer(1.0, 1.2, 0.3, 0.7, 0.7, 1)
    c = characteristic_coefficients(bloch_matrix(spec, np.pi / 4))
    mine = sorted_c(solve_cubic(c))
    oracle = sorted_c(companion_roots(c))
    assert np.abs(mine - oracle).max() < 1e-10
    for e in mine:
        residual = abs(((e + c[1]) * e + c[2]) * e + c[3])
        assert residual < 1e-10 * (1 + abs(e)) ** 3


def test_cubic_random_residuals():
    rng = np.random.default_rng(31)
    for _ in range(300):
        c = np.concatenate([[1.0], rng.normal(size=3) + 1j * rng.normal(size=3)])
        scale = 1 + np.abs(c).max()
        for e in solve_cubic(c):
            residual = abs(((e + c[1]) * e + c[2]) * e + c[3])
            assert residual < 1e-10 * scale * (1 + abs(e)) ** 3


def test_cubic_rejects_non_monic():
    with pytest.raises(ValueError):
        solve_cubic([2.0, 0.0, 0.0, 1.0])


def _cardano_complex_power(b, c, d):
    """The cubic as it was solved before: the cube root as ``u3 ** (1/3)``, a
    stacked polish. Its roots come in the order of the principal branch."""
    b, c, d = (np.asarray(x, dtype=complex) for x in (b, c, d))
    p = c - b * b / 3.0
    q = 2.0 * b ** 3 / 27.0 - b * c / 3.0 + d
    s = np.sqrt((q / 2.0) ** 2 + (p / 3.0) ** 3)
    u3a, u3b = -q / 2.0 + s, -q / 2.0 - s
    u3 = np.where(np.abs(u3a) >= np.abs(u3b), u3a, u3b)
    tiny = np.abs(u3) == 0.0
    u = np.where(tiny, 1.0, u3) ** (1.0 / 3.0)
    v = np.where(tiny, 0.0, -p / (3.0 * u))
    u = np.where(tiny, 0.0, u)
    omega = np.exp(2j * np.pi / 3.0)
    roots = np.stack([u + v, u * omega + v / omega, u / omega + v * omega], -1)
    roots = roots - b[..., None] / 3.0
    bb, cc, dd = b[..., None], c[..., None], d[..., None]
    f = ((roots + bb) * roots + cc) * roots + dd
    df = (3.0 * roots + 2.0 * bb) * roots + cc
    safe = np.abs(df) > 1e-12 * (1.0 + np.abs(bb) + np.abs(cc) + np.abs(dd))
    return np.where(safe, roots - f / np.where(safe, df, 1.0), roots)


def _assert_near(roots, exact, allowance=(0.0, 0.0, 0.0), tol=1e-15):
    """Each root within max(tol (1 + |E|), allowance) of its own exact root E."""
    assert any(all(abs(roots[i] - e) <= max(tol * (1.0 + abs(e)), a)
                   for i, e, a in zip(order, exact, allowance))
               for order in itertools.permutations(range(3))), (roots, exact)


def _assert_exact_roots(b, c, d, roots):
    """Roots of E^3 + b E^2 + c E + d against mpmath's at 40 digits. A root E
    whose condition sets a larger floor than 1e-15 (1 + |E|) may miss that by
    the first-order error of a backward-stable solver, 2 eps (|E|^3 + |b| |E|^2
    + |c| |E| + |d|) / |3 E^2 + 2 b E + c|."""
    import mpmath       # in the `test` extra of pyproject.toml
    with mpmath.workdps(40):
        exact = [complex(e) for e in mpmath.polyroots(
            [1, mpmath.mpc(b), mpmath.mpc(c), mpmath.mpc(d)], maxsteps=100, extraprec=100)]
    eps = np.finfo(float).eps
    _assert_near(roots, exact, [2 * eps * (((abs(e) + abs(b)) * abs(e) + abs(c)) * abs(e) + abs(d))
                                / abs((3 * e + 2 * b) * e + c) for e in exact])


def _trimer_coefficients():
    """Characteristic coefficients of the fig3 trimer family on a (beta, gamma, k)
    grid and of random trimers at random momenta, flattened."""
    rng = np.random.default_rng(37)
    grid = _char_coeffs(_entries(
        ModelSpec.trimer(1.0, 1.0, 0.3, 0.1, 0.7, 1),
        np.exp(1j * (PI4 + np.arange(24) * np.pi / 12)),
        {"beta": np.array([-1.5, -0.4, 0.8, 2.0])[:, None, None],
         "gamma": np.array([0.1, 0.6])[None, :, None]}))
    grid = [np.broadcast_to(x, (4, 2, 24)).ravel() for x in grid]
    single = [_char_coeffs(_entries(random_trimer(rng), np.exp(1j * rng.uniform(0, 2 * np.pi))))
              for _ in range(100)]
    return [np.concatenate([g, [complex(x[i]) for x in single]]) for i, g in enumerate(grid)]


def test_cubic_roots_match_mpmath_on_random_cubics_and_trimer_grids():
    # 40-digit roots of 150 random complex cubics and 292 trimer points: one
    # array call each, every root within 1e-15 (1 + |E|) of an exact root, or
    # within its conditioning floor (one trimer point, as for the former solver)
    rng = np.random.default_rng(41)
    random = [rng.normal(size=150) + 1j * rng.normal(size=150) for _ in range(3)]
    for b, c, d in (random, _trimer_coefficients()):
        roots = _cubic_roots_vec(b, c, d)
        for i in range(len(b)):
            _assert_exact_roots(b[i], c[i], d[i], roots[i])
        # the same principal cube-root branch as before: the same root in each column
        former = _cardano_complex_power(b, c, d)
        assert np.abs(roots - former).max() < 1e-12 * (1.0 + np.abs(former).max())


_OMEGA = np.exp(2j * np.pi / 3.0)


@pytest.mark.parametrize("b, c, d, exact", [
    # u3 = -8 + 0j on the negative real axis, from inputs with +0.0 and -0.0
    # imaginary parts (the former arithmetic, too, gives +0.0 for both)
    (0.0, 0.0, 8.0, -2.0 * _OMEGA ** np.arange(3)),
    (0.0, 0.0, complex(8.0, -0.0), -2.0 * _OMEGA ** np.arange(3)),
    (complex(-3.0, -3.0), complex(6.0, -0.0), complex(-0.0, -0.0), None),
    (complex(-3.0, -3.0), complex(6.0, -0.0), complex(-0.0, 0.0), None),
    (-3.0, 3.0, -1.0, [1.0, 1.0, 1.0]), (0.0, 0.0, 0.0, [0.0, 0.0, 0.0]),     # u3 = 0
    (0.0, -3.0, 2.0, [1.0, 1.0, -2.0]), (-3.0, 0.0, 4.0, [2.0, 2.0, -1.0])],  # double roots
    ids=["u3-negative-axis-d+0", "u3-negative-axis-d-0", "u3-negative-complex-d-0",
         "u3-negative-complex-d+0", "triple-root-1", "triple-root-0", "double-root-1",
         "double-root-2"])
def test_cubic_branch_edges(b, c, d, exact):
    with np.errstate(all="raise"):
        roots = _cubic_roots_vec(b, c, d)
        former = _cardano_complex_power(b, c, d)
    if exact is None:
        _assert_exact_roots(b, c, d, roots)
    else:
        _assert_near(roots, exact)
    # the principal branch of u3 ** (1/3), root by root and zero sign by zero sign
    np.testing.assert_allclose(roots, former, rtol=0, atol=1e-15 * (1.0 + np.abs(former).max()))
    assert (np.signbit(roots.real) == np.signbit(former.real))[former.real == 0].all()
    assert (np.signbit(roots.imag) == np.signbit(former.imag))[former.imag == 0].all()


def test_cubic_point_and_array_agree_bit_for_bit(fig3_trimer):
    # one solver for numbers and arrays: a 0-d call is the same arithmetic as its
    # point inside a 513-point trajectory
    k = np.linspace(0, 2 * np.pi, 513)
    b, c, d = _char_coeffs(_entries(fig3_trimer(1.2, 0.7), np.exp(1j * k)))
    roots = _cubic_roots_vec(b, c, d)
    assert roots.shape == (513, 3)
    for i in range(513):
        assert np.array_equal(_cubic_roots_vec(b[i], c[i], d[i]), roots[i])
        assert np.array_equal(solve_cubic([1.0, b[i], c[i], d[i]]), roots[i])


# -- eigenvalues --------------------------------------------------------------

def test_eigenvalues_diagonal():
    ev = sorted_c(eigenvalues(np.diag([1j, -1j])))
    np.testing.assert_allclose(ev, [-1j, 1j], atol=1e-15)


def test_eigenvalues_match_analytic_dimer():
    spec = ModelSpec.dimer(1.0, 1.5, 0.3, 1.0, 1)
    rng = np.random.default_rng(37)
    for k in rng.uniform(0, 2 * np.pi, 50):
        ev = sorted_c(eigenvalues(bloch_matrix(spec, k)))
        ana = sorted_c(dimer_bands_analytic(spec.params, k))
        assert np.abs(ev - ana).max() < 1e-10


def test_eigenvalues_hermitian_real():
    spec = ModelSpec.trimer(1.0, 1.2, 0.3, 0.0, 0.7, 1)  # gamma = 0
    rng = np.random.default_rng(41)
    for k in rng.uniform(0, 2 * np.pi, 30):
        ev = eigenvalues(bloch_matrix(spec, k))
        assert np.abs(ev.imag).max() < 1e-10


def test_eigenvalues_sum_and_product():
    rng = np.random.default_rng(43)
    for _ in range(100):
        spec = random_dimer(rng) if rng.random() < 0.5 else random_trimer(rng)
        k = rng.uniform(0, 2 * np.pi)
        h = bloch_matrix(spec, k).entries
        ev = eigenvalues(h)
        tr = np.trace(h)
        det = np.linalg.det(h)
        assert abs(ev.sum() - tr) < 1e-8 * (1 + abs(tr))
        assert abs(ev.prod() - det) < 1e-8 * (1 + abs(det))


def test_eigenvalues_four_bands_general_path():
    rng = np.random.default_rng(47)
    mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    ev = sorted_c(eigenvalues(mat))
    oracle = sorted_c(np.linalg.eigvals(mat))
    assert np.abs(ev - oracle).max() < 1e-10


# -- tracking -----------------------------------------------------------------

def test_eig_grid_matches_matrix_eigenvalues():
    rng = np.random.default_rng(51)
    for _ in range(20):
        spec = random_dimer(rng) if rng.random() < 0.5 else random_trimer(rng)
        k = rng.uniform(0, 2 * np.pi)
        energies = _eig_grid(spec, np.array([k]))[0]
        assert len(energies) == spec.n_bands
        mine = sorted_c(energies)
        oracle = sorted_c(np.linalg.eigvals(bloch_matrix(spec, k).entries))
        assert np.abs(mine - oracle).max() < 1e-10


@pytest.mark.parametrize("route", ["riemann", "winding"])
def test_non_finite_samples_fail_on_the_first_level(route, monkeypatch):
    # riemann at r = 1e300 doubled to 65536 samples and raised RefinementExhausted
    # (max jump nan); winding at E_ref = 1e200 doubled to 2^20 samples
    from bloch_braids import spectrum, topology, winding_number
    from bloch_braids.errors import NonConvergent
    owner, name = (spectrum, "_eig_grid") if route == "riemann" else (topology, "_det_grid")
    evaluate, calls = getattr(owner, name), []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    # the overflow is the cell's failure, not a warning as well
    with warnings.catch_warnings(), pytest.raises(NonConvergent, match="not finite at 64 "):
        warnings.simplefilter("error")
        if route == "riemann":
            riemann_loop(ModelSpec.dimer(1.0, 1.5, 0.3, 1.0), 1e300, samples=64)
        else:
            winding_number(ModelSpec.trimer(1.0, -1.2, 0.3, 0.7, 0.7), 1e200, samples=64)
    assert [len(t) for t in calls] == [65]


def test_an_infinite_sample_is_not_read_as_an_exceptional_point():
    # the scale is inf there, so any finite gap lies below DEGENERACY_RTOL * scale
    from bloch_braids.errors import NonConvergent
    from bloch_braids.spectrum import _track

    def raw_at(cells, t):
        z = np.exp(1j * t) + 0 * cells
        return np.stack([z, z + 2.0, np.where(t > 3.0, np.inf, z + 4.0)], axis=-1)

    failures = [None]
    assert list(_track(raw_at, np.arange(1), 0.0, 64, failures)) == []
    assert isinstance(failures[0], NonConvergent), failures


def test_a_non_finite_cell_fails_alone_in_its_batch():
    from bloch_braids.errors import NonConvergent
    from bloch_braids.sweep import dimer_row_classify, dimer_winding_row
    spec = ModelSpec.dimer(1.0, 1.5, 0.3, 1.0)
    gammas = np.array([0.2, 1e300, 0.7])
    with np.errstate(all="ignore"):
        row = dimer_row_classify(spec, {"gamma": gammas}, k0=PI4)
        nu, ok = dimer_winding_row(1.0, 1.5, 0.3, gammas, 1)
    assert isinstance(row[1], NonConvergent) and "not finite at 512 samples" in str(row[1])
    assert [row[0], row[2]] == dimer_row_classify(spec, {"gamma": gammas[[0, 2]]}, k0=PI4)
    assert ok.tolist() == [True, False, True]
    assert nu[[0, 2]].tolist() == dimer_winding_row(1.0, 1.5, 0.3, gammas[[0, 2]], 1)[0].tolist()


def test_track_dimer_swap_closure(fig1_dimer):
    traj = track_bands(fig1_dimer(1.0), 0.0)
    assert traj.closure.image == (1, 0)


def test_track_dimer_even_m_identity_closure(fig1_dimer):
    traj = track_bands(fig1_dimer(1.0, m=2), 0.0)
    assert traj.closure.image == (0, 1)


def test_track_trimer_three_cycle(fig3_trimer):
    traj = track_bands(fig3_trimer(1.2, 0.7), PI4)
    assert traj.closure.band_mapping_str() == "(E1,E2,E3)->(E3,E1,E2)"


def test_track_raises_on_exceptional_point(fig1_dimer):
    with pytest.raises(DegeneracyEncountered):
        track_bands(fig1_dimer(0.5), 0.0)


@pytest.mark.parametrize("spec", [ModelSpec.dimer(1.0, 1.0, 0.0, 3.0),
                                  ModelSpec.dimer(0.0, 0.0, 0.0, 1.0)],
                         ids=["hopping", "no-hopping"])
def test_track_raises_on_a_lasting_base_point_tie(spec):
    # both bands are purely imaginary everywhere, so the real parts tie at
    # every base point: no band order exists, and no braid word may be read
    with pytest.raises(UnresolvedCrossing, match="tie at the base point"):
        track_bands(spec, 0.0)


def test_track_rejects_tiny_sample_counts(fig1_dimer):
    with pytest.raises(ValueError):
        track_bands(fig1_dimer(1.0), 0.0, samples=32)


def test_track_trace_and_det_conservation():
    rng = np.random.default_rng(53)
    done = 0
    while done < 12:
        spec = random_dimer(rng) if rng.random() < 0.5 else random_trimer(rng)
        try:
            traj = track_bands(spec, rng.uniform(0, 2 * np.pi))
        except TRACK_ERRORS:  # a draw the tracker cannot follow
            continue
        done += 1
        idx = rng.integers(0, traj.samples, 20)
        for j in idx:
            h = bloch_matrix(spec, traj.t_grid[j]).entries
            tr = np.trace(h)
            det = np.linalg.det(h)
            col = traj.bands[:, j]
            assert abs(col.sum() - tr) < 1e-8 * (1 + abs(tr))
            assert abs(col.prod() - det) < 1e-8 * (1 + abs(det))


def test_track_band_continuity_and_closure():
    rng = np.random.default_rng(59)
    done = 0
    while done < 10:
        spec = random_dimer(rng) if rng.random() < 0.5 else random_trimer(rng)
        try:
            traj = track_bands(spec, rng.uniform(0, 2 * np.pi))
        except TRACK_ERRORS:  # a draw the tracker cannot follow
            continue
        done += 1
        jumps = np.abs(np.diff(traj.bands, axis=1)).max()
        assert jumps < 0.5 * traj.min_gap
        starts = sorted_c(traj.bands[:, 0])
        ends = sorted_c(traj.bands[:, -1])
        assert np.abs(starts - ends).max() < 1e-8 * traj.scale
        # closure permutation maps each band's endpoint onto a start point
        for n in range(traj.n_bands):
            assert abs(traj.bands[n, -1] - traj.bands[traj.closure(n), 0]) < 1e-8 * traj.scale


def test_conjugation_symmetry_of_spectra():
    rng = np.random.default_rng(61)
    for _ in range(60):
        spec = random_dimer(rng) if rng.random() < 0.5 else random_trimer(rng)
        k = rng.uniform(0, 2 * np.pi)
        ev = sorted_c(eigenvalues(bloch_matrix(spec, k)))
        flipped = spec.replace_param("gamma", -spec.params.gamma)
        ev_flip = sorted_c(eigenvalues(bloch_matrix(flipped, k)).conj())
        assert np.abs(ev - ev_flip).max() < 1e-10


def test_tracked_bands_solver_independent():
    # re-tracking with LAPACK eigenvalues instead of closed forms moves no point
    rng = np.random.default_rng(67)
    for _ in range(5):
        spec = random_trimer(rng)
        traj = track_bands(spec, 0.1)
        raw_closed = _eig_grid(spec, traj.t_grid)
        h = np.zeros((len(traj.t_grid), 3, 3), complex)
        for term in spec.fourier_terms():
            h += term.matrix * np.exp(1j * term.n * traj.t_grid)[:, None, None]
        raw_lapack = np.linalg.eigvals(h)
        for j in range(0, len(traj.t_grid), 37):
            a = sorted_c(raw_closed[j])
            b = sorted_c(raw_lapack[j])
            assert np.abs(a - b).max() < 1e-8


# -- matching and refinement ---------------------------------------------------

_PERMS3 = tuple(itertools.permutations(range(3)))
_PERMS3_ARR = np.array(_PERMS3)
# _COMPOSE3[a, b] = index of the permutation (P_a after P_b): x -> P_a[P_b[x]]
_COMPOSE3 = np.array([[_PERMS3.index(tuple(pa[pb[x]] for x in range(3))) for pb in _PERMS3]
                      for pa in _PERMS3])


def per_step_chain(raw):
    """Plain reference for the three-band chain: one argmin and one composition per step."""
    p0 = np.lexsort((raw[0].imag, raw[0].real))
    prefix, indices, jumps = 0, [_PERMS3_ARR[0][p0]], []
    for j in range(len(raw) - 1):
        dist = np.abs(raw[j + 1][:, None] - raw[j][None, :])
        costs, maxes = [], []
        for perm in _PERMS3:
            d = [dist[perm[b], b] for b in range(3)]
            costs.append(d[0] + d[1] + d[2])
            maxes.append(max(d))
        decision = int(np.argmin(costs))
        jumps.append(maxes[decision])
        prefix = _COMPOSE3[decision, prefix]
        indices.append(_PERMS3_ARR[prefix][p0])
    return np.array(indices), np.array(jumps)


def shuffled_trimer_samples(rng, t, shuffle_rate):
    # three separated smooth bands, stored in a column order that is
    # re-drawn at a share of the steps, so most matchings are not the identity
    theta = np.linspace(0.0, 2 * np.pi, t)
    bands = np.stack([c + 0.4 * np.exp(1j * (theta + phase))
                      for c, phase in ((-2.0, 0.0), (0.5j, 1.0), (2.0, 2.0))], axis=1)
    bands += 1e-3 * (rng.normal(size=bands.shape) + 1j * rng.normal(size=bands.shape))
    for j in np.flatnonzero(rng.random(t) < shuffle_rate):
        bands[j] = bands[j, rng.permutation(3)]
    return bands


@pytest.mark.parametrize("t, shuffle_rate", [(2, 1.0), (3, 1.0), (4000, 0.6), (4000, 0.0)])
def test_trimer_chain_matches_per_step_reference(t, shuffle_rate):
    rng = np.random.default_rng(71 + t)
    smooth = shuffled_trimer_samples(rng, t, shuffle_rate)
    noise = rng.normal(size=(t, 3)) + 1j * rng.normal(size=(t, 3))
    for raw in (smooth, noise):
        indices, bands, jumps = _match_chain(raw)
        ref_indices, ref_jumps = per_step_chain(raw)
        assert np.array_equal(indices, ref_indices)
        assert np.array_equal(jumps, ref_jumps)
        assert np.array_equal(bands, np.take_along_axis(raw, ref_indices, axis=1))
    if shuffle_rate == 0.0:  # no reordering: every step keeps the solver order
        assert (_match_chain(smooth)[0] == np.lexsort((smooth[0].imag, smooth[0].real))).all()


@pytest.mark.parametrize("loop", ["zone", "riemann"])
def test_refined_trajectory_is_the_uniform_grid_trajectory(loop, fig3_trimer):
    # gamma just above the fig4a boundary at gamma* ~ 0.51728: refinement
    # reuses the coarser levels' samples, and must land on the same uniform grid
    spec = fig3_trimer(-1.2, 0.5176)
    if loop == "zone":
        traj = track_bands(spec, PI4)
    else:
        traj = riemann_loop(spec, 1.0, theta0=PI4)
    assert traj.samples > 512
    t_grid = PI4 + np.linspace(0.0, 2 * np.pi, traj.samples + 1)
    assert np.array_equal(traj.t_grid, t_grid)
    raw = _eig_grid(spec, t_grid, traj.radius)
    _, bands, jumps = _match_chain(raw)
    bands = bands.T
    # a tolerance, not equality: numpy's complex arithmetic can differ in the
    # last ulp with array layout, and the midpoints are evaluated separately
    tol = 1e-14 * traj.scale
    assert np.abs(traj.bands - bands).max() < tol
    assert abs(traj.min_gap - _pair_gaps(raw).min()) < tol
    assert abs(traj.max_jump - jumps.max()) < tol
    assert traj.max_jump < 0.5 * traj.min_gap
    image, closed = _closures(bands[None], np.array([1e-8 * traj.scale]))
    assert closed[0] and traj.closure.image == tuple(image[0])


GENERIC_2BAND = ModelSpec.generic([(0, [[0.4j, 1.0], [1.0, -0.4j]]),
                                   (1, [[0.3, 0.0], [1.5, 0.0]]),
                                   (-1, [[-0.3, 0.2], [0.0, 0.0]])])


@pytest.mark.parametrize("radius", [None, 0.8])
def test_scalar_evaluator_matches_grid_samples(radius, fig1_dimer, fig3_trimer):
    # crossing bisection reads the scalar evaluator; it must reproduce the
    # grid the trajectory was tracked on, as a multiset at each sample
    for spec in (fig1_dimer(1.0, m=2), fig3_trimer(1.2, 0.7), GENERIC_2BAND):
        if radius is None:
            traj = track_bands(spec, 0.3)
        else:
            traj = riemann_loop(spec, radius, theta0=0.3)
        for j in range(0, len(traj.t_grid), 37):
            scalar = traj.evaluate_raw(traj.t_grid[j])
            grid = traj.bands[:, j]
            dist = np.abs(scalar[:, None] - grid[None, :])
            assert dist.min(axis=0).max() < 1e-12 * traj.scale
            assert dist.min(axis=1).max() < 1e-12 * traj.scale


# -- z-plane loops -------------------------------------------------------------

def test_riemann_loop_unit_circle_matches_zone(fig1_dimer):
    spec = fig1_dimer(1.0, m=2)
    zone = track_bands(spec, 0.0, samples=512)
    loop = riemann_loop(spec, 1.0, samples=512)
    assert np.abs(zone.bands - loop.bands).max() < 1e-9
    assert zone.closure == loop.closure


def test_riemann_loop_trimer_closure(fig3_trimer):
    spec = fig3_trimer(-1.2, 0.7)
    zone = track_bands(spec, PI4, samples=512)
    loop = riemann_loop(spec, 1.0, samples=512, theta0=PI4)
    assert zone.closure == loop.closure


def test_riemann_loop_requires_positive_radius(fig1_dimer):
    with pytest.raises(ValueError):
        riemann_loop(fig1_dimer(1.0), -0.5)


def test_phase_steps_give_the_bits_of_the_remainder():
    # the wrap (d + pi) mod 2pi - pi is written out as two masked shifts; on
    # every edge of its range and on a long random array it must give the
    # bits of numpy's remainder, and so must the winding's raw total
    from bloch_braids.spectrum import _phase_steps, _winding
    two_pi = 2.0 * np.pi

    def reference(values):
        steps = (np.diff(np.angle(values), axis=-1) + np.pi) % two_pi - np.pi
        return steps, steps.sum(axis=-1) / two_pi

    plus_pi, minus_pi = complex(-1.0, 0.0), complex(-1.0, -0.0)     # angles pi and -pi
    zero, minus_zero = complex(1.0, 0.0), complex(1.0, -0.0)        # angles 0.0 and -0.0
    edges = np.array([
        (minus_pi, plus_pi), (plus_pi, minus_pi),   # steps of +2pi and -2pi
        (zero, plus_pi), (zero, minus_pi),          # steps of exactly +pi and -pi
        (-1j, 1j), (1j, -1j),                       # +pi and -pi again: d + pi is 2pi and 0
        (zero, minus_zero), (minus_zero, zero), (minus_zero, minus_zero),
        (complex(np.nan, 0.0), zero), (zero, complex(np.nan, 0.0)), (zero, complex(0.0, np.nan))])
    rng = np.random.default_rng(5)
    base = rng.uniform(-np.pi, np.pi, 1 << 14)
    # steps within a few ulps of +pi and -pi, where d + pi meets 2pi and 0
    ulps = rng.integers(-4, 5, (2, 1 << 14)) * np.spacing(np.pi)
    near = np.stack([np.exp(1j * base), np.exp(1j * (base + np.pi + ulps[0]))], axis=-1)
    near_down = np.stack([np.exp(1j * base), np.exp(1j * (base - np.pi + ulps[1]))], axis=-1)
    curves = np.exp(1j * rng.uniform(-np.pi, np.pi, (32, 1025)))
    for values in (edges, near, near_down, curves):
        steps, raw = reference(values)
        assert values.size >= 1 << 14 or values is edges
        assert np.array_equal(_phase_steps(values).view(np.int64), steps.view(np.int64))
        assert np.array_equal(_winding(values)[1].view(np.int64), raw.view(np.int64))
    steps = reference(edges)[0]
    assert np.isnan(steps[-3:]).all() and (steps[:-3] == 0.0).sum() >= 2
