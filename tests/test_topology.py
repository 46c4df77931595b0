import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from bloch_braids import (DimerParams, ModelSpec, bloch_matrix, bloch_matrix_z,
                          dimer_ep_lines, dimer_ep_zplane, discriminant, eigenvalues,
                          ep_zplane_numeric, find_eps_k, gamma_axis_references,
                          most_degenerate_point, phase_diagram, total_braid_index,
                          winding_number, zone_boundary_degeneracy_residual)
from bloch_braids.errors import (DegenerateCrossing, DegeneracyEncountered, DegenerateModel,
                                 NonConvergent, ReferenceOnBand, RefinementExhausted,
                                 UnresolvedCrossing, UnsupportedDegree)
from bloch_braids.models import characteristic_coefficients
from conftest import PI4

TRACK_ERRORS = (DegeneracyEncountered, RefinementExhausted, DegenerateCrossing,
                UnresolvedCrossing)


# -- discriminant ---------------------------------------------------------------

def test_discriminant_quadratic():
    assert discriminant([1.0, 0.0, 0.75]) == pytest.approx(-3.0)
    assert discriminant([1.0, -2.0, 1.0]) == pytest.approx(0.0)


def test_discriminant_cubic_known():
    # (E-1)(E-2)(E-3) = E^3 - 6E^2 + 11E - 6: disc = prod of squared gaps
    assert discriminant([1.0, -6.0, 11.0, -6.0]) == pytest.approx(4.0)


def test_discriminant_dimer_on_ep_line():
    spec = ModelSpec.dimer(1.0, 1.5, 0.3, 0.5, 1)
    c = characteristic_coefficients(bloch_matrix(spec, np.pi))
    assert abs(discriminant(c)) < 1e-10


def test_discriminant_rejects_other_degrees():
    with pytest.raises(UnsupportedDegree):
        discriminant([1.0, 0.0, 0.0, 0.0, 1.0])


# -- dimer exceptional lines -------------------------------------------------------

def test_dimer_ep_lines_values():
    lines = dimer_ep_lines(1.0, 1.5)
    gammas = sorted(g for g, _ in lines)
    assert gammas == pytest.approx([-2.5, -0.5, 0.5, 2.5])
    by_gamma = {round(g, 6): k for g, k in lines}
    assert by_gamma[0.5] == pytest.approx(np.pi)
    assert by_gamma[2.5] == pytest.approx(0.0)


def test_dimer_ep_lines_equal_hoppings():
    lines = dimer_ep_lines(1.0, 1.0, m=2)
    assert any(abs(g) < 1e-15 and k == pytest.approx(np.pi / 2) for g, k in lines)


def test_dimer_ep_lines_zero_beta():
    gammas = sorted(abs(g) for g, _ in dimer_ep_lines(1.0, 0.0))
    assert gammas == pytest.approx([1.0, 1.0, 1.0, 1.0])


def test_dimer_bands_vanish_on_ep_lines():
    from bloch_braids import dimer_bands_analytic
    for gamma, k in dimer_ep_lines(1.0, 1.5):
        p = DimerParams(1.0, 1.5, 0.3, gamma, 1)
        e1, e2 = dimer_bands_analytic(p, k)
        assert abs(e1) < 1e-8 and abs(e2) < 1e-8


# -- z-plane formula ----------------------------------------------------------------

def test_zplane_m1_location():
    p = DimerParams(1.0, 1.5, 0.3, 1.0, 1)
    zs = dimer_ep_zplane(p)
    assert len(zs) == 1
    np.testing.assert_allclose(zs[0], -0.75, atol=1e-12)


def test_zplane_m2_locations():
    p = DimerParams(1.0, 1.5, 0.3, 1.0, 2)
    zs = sorted(dimer_ep_zplane(p), key=lambda z: z.imag)
    assert len(zs) == 2
    np.testing.assert_allclose(zs[0], -1j * np.sqrt(0.75), atol=1e-12)
    np.testing.assert_allclose(zs[1], 1j * np.sqrt(0.75), atol=1e-12)


def test_zplane_m3_locations():
    p = DimerParams(1.0, 1.5, 0.3, 1.0, 3)
    zs = dimer_ep_zplane(p)
    assert len(zs) == 3
    radius = 0.75 ** (1.0 / 3.0)
    angles = sorted(np.angle(z) % (2 * np.pi) for z in zs)
    np.testing.assert_allclose([abs(z) for z in zs], [radius] * 3, atol=1e-12)
    np.testing.assert_allclose(angles, [np.pi / 3, np.pi, 5 * np.pi / 3], atol=1e-12)


def test_zplane_points_satisfy_continued_condition():
    rng = np.random.default_rng(83)
    for _ in range(50):
        p = DimerParams(rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0),
                        rng.uniform(-1.0, 1.0), rng.uniform(-2.0, 2.0),
                        int(rng.integers(1, 4)))
        for z in dimer_ep_zplane(p):
            assert zone_boundary_degeneracy_residual(p, z) < 1e-10


def test_zplane_degenerate_model():
    with pytest.raises(DegenerateModel):
        dimer_ep_zplane(DimerParams(0.0, 1.5, 0.3, 1.0, 1))


def test_zplane_numeric_zeros_have_coalescing_pairs():
    spec = ModelSpec.dimer(1.0, 1.5, 0.3, 1.0, 1)
    eps = ep_zplane_numeric(spec)
    assert len(eps) == 4
    for ep in eps:
        ev = eigenvalues(bloch_matrix_z(spec, ep.location))
        gaps = sorted(abs(ev[i] - ev[j]) for i in range(2) for j in range(i + 1, 2))
        assert gaps[0] < 1e-6 * (1 + np.abs(ev).max())


def test_zplane_numeric_trimer_count_and_symmetry(fig3_trimer):
    # beta -> -beta flips the sign of every branch point location
    eps_a = ep_zplane_numeric(fig3_trimer(-1.2, 0.7))
    eps_b = ep_zplane_numeric(fig3_trimer(1.2, 0.7))
    za = sorted(np.round([-ep.location for ep in eps_a], 8).tolist(), key=lambda z: (z.real, z.imag))
    zb = sorted(np.round([ep.location for ep in eps_b], 8).tolist(), key=lambda z: (z.real, z.imag))
    np.testing.assert_allclose(za, zb, atol=1e-6)


def test_zplane_numeric_zeros_settle_under_newton():
    # the DFT places a zero far from |z| = 1 only to ~1e-8 of its modulus;
    # each reported zero is polished until one more Newton step on the
    # kernel's discriminant moves it by at most 1e-12 of its modulus
    from conftest import random_trimer
    from bloch_braids.models import _char_coeffs, _disc, _entries
    rng = np.random.default_rng(113)
    settled = 0
    for _ in range(40):
        spec = random_trimer(rng)
        try:
            z = np.array([ep.location for ep in ep_zplane_numeric(spec)])
        except NonConvergent:
            continue
        h = 1e-5 * z
        disc = _disc(_char_coeffs(_entries(spec, z)))
        slope = (_disc(_char_coeffs(_entries(spec, z + h)))
                 - _disc(_char_coeffs(_entries(spec, z - h)))) / (2.0 * h)
        assert np.abs(disc / slope).max() <= 1e-12 * np.abs(z).min(), spec
        settled += 1
    assert settled >= 36
    # delta^4 sits below the DFT's trim here and the zeros it places do not
    # settle: they are reported as a failure, not as branch points
    with pytest.raises(NonConvergent, match="does not settle"):
        ep_zplane_numeric(ModelSpec.trimer(1.4016603528067977, -0.05057297482784762,
                                           0.000659424129722419, 0.3898633640112692,
                                           0.8697567922082392, 1))


def _random_generic(rng, n):
    exponents = rng.choice(np.arange(-2, 3), size=int(rng.integers(2, 4)), replace=False)
    return ModelSpec.generic([(int(e), rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
                              for e in exponents])


def _fourier_disc(spec, ks):
    """Disc on the zone from the Fourier sum and LAPACK: prod over pairs of (Ei - Ej)^2."""
    h = sum(t.matrix * np.exp(1j * t.n * ks)[:, None, None] for t in spec.fourier_terms())
    ev = np.linalg.eigvals(h)
    n = ev.shape[-1]
    return np.prod([(ev[:, i] - ev[:, j]) ** 2 for i in range(n) for j in range(i + 1, n)], axis=0)


def test_disc_zeros_are_zeros_and_count_the_zone_winding():
    # each zero is checked by Faddeev-LeVerrier coefficients and the monic
    # discriminant formula, against the rounding of the 2S + 1 samples the
    # zeros come from: max over the zone of |Disc| times sum_{|p| <= S} |z|^p;
    # the zeros inside |z| < 1 plus the lowest exponent count the winding of
    # Disc over the zone, sampled by a route that shares nothing with the kernel
    from bloch_braids.topology import _disc_zeros
    rng = np.random.default_rng(11)
    draws = (lambda: ModelSpec.dimer(rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0),
                                     rng.uniform(-1.0, 1.0), rng.uniform(-2.0, 2.0),
                                     int(rng.integers(1, 4))),
             lambda: ModelSpec.trimer(rng.uniform(0.2, 2.0), rng.uniform(-2.0, 2.0),
                                      rng.uniform(-1.0, 1.0), rng.uniform(-2.0, 2.0),
                                      rng.uniform(-1.0, 1.0), int(rng.integers(1, 3))),
             lambda: _random_generic(rng, 2),
             lambda: _random_generic(rng, 3))
    ks = np.linspace(0.0, 2 * np.pi, 1025)
    wound = 0
    for trial in range(160):
        spec = draws[trial % 4]()
        n = spec.n_bands
        s = n * (n - 1) * max(abs(t.n) for t in spec.fourier_terms())
        lo, zeros = _disc_zeros(spec)
        disc = _fourier_disc(spec, ks)
        for z in zeros.tolist():
            value = discriminant(characteristic_coefficients(bloch_matrix_z(spec, z)))
            bound = np.abs(disc).max() * sum(abs(z) ** p for p in range(-s, s + 1))
            assert abs(value) < 1e-12 * bound, (spec, z)
        steps = (np.diff(np.angle(disc)) + np.pi) % (2 * np.pi) - np.pi
        if np.abs(steps).max() < np.pi / 4:     # else a zero sits too near the circle to sample
            assert lo + np.count_nonzero(np.abs(zeros) < 1.0) == round(steps.sum() / (2 * np.pi))
            wound += 1
    assert wound > 150


@pytest.mark.parametrize("spec", [ModelSpec.dimer(0.0, 0.0, 0.0, 0.0),
                                  ModelSpec.trimer(0.0, 0.0, 0.0, 0.0, 0.0),
                                  ModelSpec.trimer(0.0, 0.0, 0.0, 0.0, 0.7)],
                         ids=["dimer-zero", "trimer-zero", "trimer-diagonal"])
def test_identically_vanishing_discriminant_is_a_degenerate_model(spec):
    # every k is an exceptional point: neither "no EP" nor an IndexError
    from bloch_braids.topology import _disc_count
    for search in (find_eps_k, ep_zplane_numeric, _disc_count):
        with pytest.raises(DegenerateModel):
            search(spec)


# -- momentum-space search ------------------------------------------------------------

def test_find_eps_on_line(fig1_dimer):
    eps = find_eps_k(fig1_dimer(0.5))
    assert len(eps) == 1
    assert abs(eps[0].k - np.pi) < 1e-6
    assert abs(eps[0].energy) < 1e-8
    assert eps[0].bands == (1, 2)


def test_find_eps_trivial_region(fig1_dimer):
    assert find_eps_k(fig1_dimer(0.2)) == []


def test_find_eps_outer_line(fig1_dimer):
    eps = find_eps_k(fig1_dimer(2.5))
    ks = sorted(ep.k if ep.k < np.pi else ep.k - 2 * np.pi for ep in eps)
    assert any(abs(k) < 1e-6 for k in ks)


def test_find_eps_k_on_exceptional_lines_reads_k_in_the_zone():
    # dimers exactly on an exceptional line, drawn as the benchmark's zone
    # scan draws them, have m EPs at m k = 0 (outer line) or pi (inner line)
    # mod 2pi; a zero on the positive real axis can come out at an angle of
    # -1e-16, and its k must read 0.0, not 2pi
    rng = np.random.default_rng(2024)
    for trial in range(240):
        beta = rng.uniform(0.3, 2.5)
        while abs(beta - 1.0) < 0.2:
            beta = rng.uniform(0.3, 2.5)
        outer = trial % 2 == 0
        gamma = rng.choice([-1.0, 1.0]) * (beta + 1.0 if outer else beta - 1.0)
        m = int(rng.integers(1, 4))
        found = [ep.k for ep in find_eps_k(ModelSpec.dimer(1.0, beta, 0.3, gamma, m))]
        expected = sorted((((0.0 if outer else np.pi) + 2 * np.pi * j) / m) % (2 * np.pi)
                          for j in range(m))
        assert len(found) == m, (beta, gamma, m, found)
        assert all(0.0 <= k < 2 * np.pi for k in found), found
        assert np.abs(np.array(found) - expected).max() < 1e-9, (found, expected)


def test_find_eps_trimer_boundary(fig3_trimer):
    # locate the exact boundary gamma by bisecting the (real) discriminant at
    # the coalescence momentum, then ask the search for the point
    def disc_at(gamma, k):
        spec = fig3_trimer(0.8, gamma)
        return discriminant(characteristic_coefficients(bloch_matrix(spec, k))).real

    lo, hi = 0.01, 0.2
    assert disc_at(lo, 0.0) * disc_at(hi, 0.0) < 0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if disc_at(mid, 0.0) * disc_at(lo, 0.0) > 0:
            lo = mid
        else:
            hi = mid
    spec = fig3_trimer(0.8, 0.5 * (lo + hi))
    eps = find_eps_k(spec)
    assert len(eps) >= 1
    ep = min(eps, key=lambda e: abs(e.k))
    assert abs(ep.k) < 1e-3 or abs(ep.k - 2 * np.pi) < 1e-3
    assert abs(ep.energy - (-0.7317)) < 1e-3
    assert ep.bands == (1, 2)


def test_most_degenerate_point_near_boundary(fig3_trimer):
    ep = most_degenerate_point(fig3_trimer(0.8, 0.0959))
    assert abs(ep.energy.real - (-0.73)) < 0.02
    assert ep.bands == (1, 2)


def test_ep_onset_matches_analytic_lines():
    # for random hoppings, the gamma at which the zone-edge (zone-centre)
    # discriminant dips to zero matches beta -/+ alpha; the search op then
    # certifies the point as an exceptional point
    from bloch_braids.topology import _golden_min

    rng = np.random.default_rng(97)
    for trial in range(100):
        alpha = rng.uniform(0.2, 2.0)
        beta = rng.uniform(0.2, 2.0)
        delta = rng.uniform(0.1, 1.0)
        m = int(rng.integers(1, 4))
        for k_star, target in ((np.pi / m, abs(beta - alpha)), (0.0, beta + alpha)):
            def disc_mag(gamma):
                spec = ModelSpec.dimer(alpha, beta, delta, gamma, m)
                c = characteristic_coefficients(bloch_matrix(spec, k_star))
                return abs(discriminant(c))

            g_star = _golden_min(disc_mag, max(0.0, target - 0.3), target + 0.3)
            assert abs(g_star - target) < 1e-6
            if trial < 10:
                eps = find_eps_k(ModelSpec.dimer(alpha, beta, delta, g_star, m))
                assert any(abs(ep.k - k_star) < 1e-3 or abs(ep.k - k_star - 2 * np.pi / m) < 1e-3
                           or abs(abs(ep.k - k_star) - 2 * np.pi) < 1e-3 for ep in eps)


# -- winding numbers --------------------------------------------------------------------

def test_winding_dimer_generator(fig1_dimer):
    assert winding_number(fig1_dimer(1.0), 0.0).nu == 1


def test_winding_dimer_inverse(fig1_dimer):
    assert winding_number(fig1_dimer(-1.0), 0.0).nu == -1


def test_winding_trefoil(fig1_dimer):
    assert winding_number(fig1_dimer(1.0, m=3), 0.0).nu == 3


def test_winding_trivial(fig1_dimer):
    assert winding_number(fig1_dimer(0.2), 0.0).nu == 0


def test_winding_residual_and_grid_stability(fig1_dimer):
    spec = fig1_dimer(1.0)
    for samples in (512, 1024, 2048):
        result = winding_number(spec, 0.0, samples)
        assert result.nu == 1
        assert result.residual < 1e-6


def test_winding_sign_rule(fig1_dimer):
    rng = np.random.default_rng(89)
    for gamma in rng.uniform(0.6, 2.4, 8):
        plus = winding_number(fig1_dimer(gamma), 0.0).nu
        minus = winding_number(fig1_dimer(-gamma), 0.0).nu
        assert plus == -minus


def test_winding_m_scaling(fig1_dimer):
    base = winding_number(fig1_dimer(1.0, m=1), 0.0).nu
    for m in (2, 3):
        assert winding_number(fig1_dimer(1.0, m=m), 0.0).nu == m * base


def test_winding_reference_on_band(fig1_dimer):
    spec = fig1_dimer(1.0)
    from bloch_braids import dimer_bands_analytic
    e_on_band = dimer_bands_analytic(spec.params, 0.7)[0]
    with pytest.raises(ReferenceOnBand):
        winding_number(spec, complex(e_on_band))


def test_winding_rejects_fewer_than_64_samples():
    # on the grid {0, 2pi} of one sample the single phase step is 0, which
    # read as nu = 0 where the index is -1
    spec = _config_models({"bands"})["fig1c1"][0]
    assert winding_number(spec, 0.0, 64).nu == -1
    for samples in (1, 2, 63):
        with pytest.raises(ValueError, match="at least 64 samples"):
            winding_number(spec, 0.0, samples)


@pytest.mark.parametrize("beta", [0.5, 1.5, 2.5])
def test_winding_row_agrees_with_winding_number(beta):
    # fig1b rows (alpha = 1, delta = 0.3); the gammas include the row's
    # exceptional lines, where E_ref = 0 lies on a band, and points 1e-9
    # beside them, where the phase steps refine deep
    from bloch_braids.sweep import dimer_winding_row
    lines = [g for g, _ in dimer_ep_lines(1.0, beta)]
    gammas = np.concatenate([np.linspace(-3.0, 3.0, 600), lines, np.add(lines, 1e-9)])
    nus, ok = dimer_winding_row(1.0, beta, 0.3, gammas, 1)
    assert ok.sum() >= 600 and not ok.all()
    for gamma, nu, good in zip(gammas.tolist(), nus.tolist(), ok.tolist()):
        spec = ModelSpec.dimer(1.0, beta, 0.3, gamma, 1)
        if good:
            assert winding_number(spec, 0.0).nu == nu, gamma
            continue
        try:
            result = winding_number(spec, 0.0)
        except (ReferenceOnBand, NonConvergent):
            continue
        assert result.samples > 1 << 16, gamma


@pytest.mark.parametrize("case", ["dimer", "trimer"])
def test_refined_winding_is_the_uniform_grid_winding(case):
    # a reference 1e-3 (3e-3) off a band refines from 64 samples to 8192
    # (2048); kept samples and midpoints together are that grid bit for bit
    from bloch_braids.spectrum import _det_grid, _eig_grid, _wind
    spec, offset = {"dimer": (ModelSpec.dimer(1.0, 1.5, 0.3, 1.0, 1), 1e-3),
                    "trimer": (TRIMER_BRAIDS["fig4a"], 3e-3)}[case]
    e_ref = complex(_eig_grid(spec, np.array([0.7]))[0, 0] + 1j * offset)
    refined = winding_number(spec, e_ref, 64)
    assert 64 < refined.samples <= 8192
    fresh = winding_number(spec, e_ref, refined.samples)
    assert fresh.samples == refined.samples
    assert (fresh.raw, fresh.residual, fresh.nu) == (refined.raw, refined.residual, refined.nu)
    seen = []

    def det_at(cells, t):
        seen.append(t)
        return _det_grid(spec, t, e_ref)

    assert _wind(det_at, 1, 64, 1 << 20)[0][1:] == (refined.raw, refined.residual,
                                                     refined.samples)
    assert len(seen) == np.log2(refined.samples // 32)
    assert np.array_equal(np.sort(np.concatenate(seen)),
                          np.linspace(0.0, 2 * np.pi, refined.samples + 1))


# -- reference energies and total index ---------------------------------------------------

def test_gamma_axis_references_trimer(fig3_trimer):
    refs = gamma_axis_references(fig3_trimer(0.8, 0.2))
    assert len(refs) == 1
    g_star, energy, pair = refs[0]
    assert 0 < g_star < 0.2
    assert abs(energy.real - (-0.73)) < 0.02
    assert pair == (1, 2)
    refs = gamma_axis_references(fig3_trimer(1.0, 0.1))
    assert refs == []


def test_reference_energies_dedupe_double_crossed_line(fig3_trimer):
    # at small beta the gamma ray crosses the same (1,2) exceptional line
    # twice; the pair contributes one reference, taken at the nearer crossing
    from bloch_braids import reference_energies
    refs = gamma_axis_references(fig3_trimer(0.2, 0.8))
    assert len(refs) == 2
    assert refs[0][2] == refs[1][2] == (1, 2)
    unique = reference_energies(fig3_trimer(0.2, 0.8))
    assert len(unique) == 1
    assert abs(unique[0] - refs[-1][1]) < 1e-9


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _config_models(commands):
    out = {}
    for path in sorted(CONFIGS.glob("fig*.json")):
        doc = json.loads(path.read_text())
        if doc["command"] in commands:
            out[path.stem] = (ModelSpec.from_json_dict(doc["model"]), doc["options"])
    return out


def test_disc_count_equals_exponent_sum_on_configs():
    # a second route to the braid invariant: the winding of the discriminant,
    # counted from its zeros with no sampling
    from bloch_braids import exponent_sum, extract_braid_word, track_bands
    from bloch_braids.topology import _disc_count, _disc_zeros
    models = _config_models({"bands", "braid", "riemann"})
    assert len(models) == 18
    for name, (spec, options) in models.items():
        word = extract_braid_word(track_bands(spec, options.get("k0", PI4)))
        assert _disc_count(spec) == exponent_sum(word), name
    for name, (spec, _) in _config_models({"eps"}).items():
        # fig1c2 and fig1c4 sit on an exceptional line: a zero is on the zone circle
        zeros = _disc_zeros(spec)[1]
        assert np.abs(np.abs(zeros) - 1.0).min() < 1e-12, name


def test_disc_count_equals_braid_index_on_configs():
    # the total winding index and the discriminant count share no code path
    from bloch_braids.topology import _disc_count
    models = _config_models({"bands", "braid", "riemann"})
    assert len(models) == 18
    for name, (spec, _) in models.items():
        assert total_braid_index(spec).nu == _disc_count(spec), name


@pytest.mark.parametrize("k0", [1000.0, -1000.0])
def test_base_point_at_the_bound_reads_as_its_reduction(k0):
    # at 1e17 the grid k0 + linspace(0, 2pi, k + 1) lost its step: word e, nu -1
    from bloch_braids import extract_braid_word, track_bands
    models = _config_models({"braid"})
    assert len(models) == 8
    for name, (spec, _) in models.items():
        seen = []
        for base in (k0, k0 % (2 * np.pi)):
            traj = track_bands(spec, base)
            seen.append((extract_braid_word(traj), traj.closure,
                         total_braid_index(spec, k0=base).nu))
        assert seen[0] == seen[1], name


@pytest.mark.parametrize("k0", [np.nextafter(1000.0, np.inf), -1e17, np.nan, np.inf])
def test_base_point_past_the_bound_is_rejected(k0):
    from bloch_braids import riemann_loop, track_bands
    dimer = ModelSpec.dimer(1.0, 1.5, 0.3, 1.0)
    trimer = ModelSpec.trimer(1.0, -1.2, 0.3, 0.7, 0.7)
    for call in (lambda: track_bands(dimer, k0), lambda: riemann_loop(dimer, 0.9, theta0=k0),
                 lambda: phase_diagram(dimer, ("beta", 1.4, 1.6, 2), ("gamma", -1.0, 1.0, 2),
                                       k0=k0),
                 lambda: gamma_axis_references(trimer, k0=k0),
                 lambda: total_braid_index(trimer, k0=k0)):
        with pytest.raises(ValueError, match=r"must be within \+-1000\.0"):
            call()


@pytest.mark.parametrize("m", [1, 2])
def test_disc_count_equals_exponent_sum_on_fig3b_rows(m):
    from bloch_braids import exponent_sum
    from bloch_braids.sweep import dimer_row_classify
    from bloch_braids.topology import _disc_count
    gammas = np.linspace(0.02, 1.0, 50)
    checked = 0
    for beta in (-1.2, -0.4, 0.8, 1.6):
        results = dimer_row_classify(ModelSpec.trimer(1.0, beta, 0.3, 0.0, 0.7, m),
                                     {"gamma": gammas}, k0=PI4)
        for gamma, res in zip(gammas.tolist(), results):
            if isinstance(res, Exception):
                continue
            spec = ModelSpec.trimer(1.0, beta, 0.3, gamma, 0.7, m)
            assert _disc_count(spec) == exponent_sum(res[0]), (beta, gamma)
            checked += 1
    assert checked > 180


def test_no_word_settles_on_an_aliased_grid():
    # at 64 samples w = z^32 takes only the two values +-w0: a grid that coarse
    # can close an m = 32 trimer on the empty word (exponent sum 0, not 64) and
    # read dimer cells as e where the discriminant count is +-32. No level
    # settles below 4m samples (dimer) or 8m (trimer), and the B_2 gate passes
    # no cell there, so every settled word's exponent sum is the count
    from bloch_braids import exponent_sum, extract_braid_word, track_bands
    from bloch_braids.topology import _disc_count
    spec = ModelSpec.trimer(1.0, -1.2, 0.3, 0.7, 0.7, 32)
    settled = 0
    for k0 in np.linspace(0.0, 2.0 * np.pi / 64, 40, endpoint=False).tolist():
        # k0 = 0 ties in real part; a tie is tested only from the floor on, where
        # one shift of the base point is not a period of the entries
        traj = track_bands(spec, k0, 64)
        assert traj.samples >= 256
        assert exponent_sum(extract_braid_word(traj)) == _disc_count(spec) == 64, k0
        settled += 1
    assert settled == 40
    pd = phase_diagram(ModelSpec.dimer(1.0, 1.5, 0.3, 1.0, 32), ("beta", 0.2, 2.8, 6),
                       ("gamma", -2.9, 2.9, 7), k0=0.04, samples=64, threads=1)
    cells = [c for row in pd.cells for c in row if not c.degenerate]
    assert len(cells) == 42 and pd.tracked_cells == 42
    for c in cells:
        assert c.nu == _disc_count(ModelSpec.dimer(1.0, c.value1, 0.3, c.value2, 32)), c


def test_b2_gate_evaluates_nothing_below_the_tracker_floor(monkeypatch):
    # at 64 samples an m = 32 dimer is below the floor of 4m = 128: the gate returns
    # before it evaluates a single entry, and the tracker labels every cell
    from bloch_braids import topology

    def evaluated(*args):
        raise AssertionError("the B_2 gate evaluated the kernel below the tracker floor")

    monkeypatch.setattr(topology, "_entries", evaluated)
    pd = phase_diagram(ModelSpec.dimer(1.0, 1.5, 0.3, 1.0, 32), ("beta", 0.2, 2.8, 6),
                       ("gamma", -2.9, 2.9, 7), k0=0.04, samples=64, threads=1)
    assert pd.tracked_cells == 42


def test_disc_count_in_w_is_the_count_in_z():
    # dimer and trimer entries depend on z only through w = z^m, so
    # Disc_m(z) = Disc_1(z^m): the count is taken in w and multiplied by m, and
    # must equal the zeros of the full Laurent polynomial in z inside |z| < 1
    # plus its lowest exponent
    from bloch_braids.topology import _disc_count, _disc_zeros
    rng = np.random.default_rng(19)
    checked = set()
    for trial in range(40):
        m = int(rng.integers(1, 4))
        if trial % 2:
            spec = ModelSpec.dimer(rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0),
                                   rng.uniform(-1.0, 1.0), 0.0, m)
        else:
            spec = ModelSpec.trimer(rng.uniform(0.2, 2.0), rng.uniform(-2.0, 2.0),
                                    rng.uniform(-1.0, 1.0), 0.0, rng.uniform(-1.0, 1.0), m)
        for gamma in rng.uniform(-2.0, 2.0, 6).tolist():
            cell = spec.replace_param("gamma", gamma)
            count = _disc_count(cell)
            assert count == m * _disc_count(cell.replace_param("m", 1)), cell
            lo, zeros = _disc_zeros(cell)
            assert count == lo + np.count_nonzero(np.abs(zeros) < 1.0), cell
            checked.add((spec.kind, m, count != 0))
    assert len(checked) == 12      # both families, m = 1-3, zero and non-zero counts


def test_disc_count_factors_the_polynomial_in_w(monkeypatch):
    # at m = 32 the trimer discriminant has degree 512 in z and 16 in w; the
    # count factors the latter, while the z-plane zeros keep the z route
    from bloch_braids.topology import _disc_count, _disc_zeros
    spec = ModelSpec.trimer(1.0, -1.2, 0.3, 0.7, 0.7, 32)
    degrees = []
    roots = np.roots
    monkeypatch.setattr(np, "roots", lambda p: degrees.append(len(p) - 1) or roots(p))
    assert _disc_count(spec) == 64
    assert degrees == [16]
    assert len(_disc_zeros(spec)[1]) == 512 and degrees[1:] == [512]


TRIMER_BRAIDS = {name: spec for name, (spec, _) in _config_models({"braid"}).items()
                 if spec.kind == "trimer"}


def test_gamma_axis_boundaries_are_exceptional_points(monkeypatch):
    from bloch_braids import topology
    from bloch_braids.topology import _normalized_disc
    assert len(TRIMER_BRAIDS) == 8
    polished = []
    polish = topology._polish

    def recording_polish(spec, g_lo, g_hi):
        k_star, g_star = polish(spec, g_lo, g_hi)
        polished.append((spec, k_star, g_star))
        assert min(g_lo, g_hi) <= g_star <= max(g_lo, g_hi)
        return k_star, g_star

    monkeypatch.setattr(topology, "_polish", recording_polish)
    found = {}
    for name, spec in TRIMER_BRAIDS.items():
        refs = found[name] = gamma_axis_references(spec)
        # one boundary per exceptional line, never one per side of it
        assert len({pair for _, _, pair in refs}) == len(refs), name
        alpha_bumped = float(np.nextafter(spec.params.alpha, 2.0))
        refs_bumped = gamma_axis_references(spec.replace_param("alpha", alpha_bumped))
        assert len(refs_bumped) == len(refs)
        for (_, e, _), (_, e_bumped, _) in zip(refs, refs_bumped):
            assert abs(e - e_bumped) <= 1e-12, name
    assert [len(found[name]) for name in ("figS2a", "figS2b", "figS2c")] == [1, 1, 2]
    assert len(polished) == 2 * sum(len(refs) for refs in found.values()) == 24
    for spec, k_star, g_star in polished:
        assert _normalized_disc(spec.replace_param("gamma", g_star), k_star) < 1e-10


def test_gamma_axis_disputed_interval_bisects_by_label(monkeypatch):
    # with a count that never changes, every label change is disputed: the
    # scan warns and bisects it by label, then polishes onto the same points
    from bloch_braids import topology
    spec = TRIMER_BRAIDS["fig4a"]
    expected = gamma_axis_references(spec)
    monkeypatch.setattr(topology, "_disc_count", lambda spec: 0)
    with pytest.warns(RuntimeWarning, match="bisecting by label"):
        refs = gamma_axis_references(spec)
    assert len(refs) == 2
    for (g, e, pair), (g_want, e_want, pair_want) in zip(refs, expected):
        assert pair == pair_want
        assert abs(g - g_want) < 1e-12 and abs(e - e_want) < 1e-9


def test_classify_keeps_the_failure():
    # gamma = 0.5173 is within 3e-6 of a fig4a boundary: the tracker exhausts
    # its refinement there, and the label says so instead of reading None
    from bloch_braids.topology import _classify
    table, ids, tracked = _classify(TRIMER_BRAIDS["fig4a"], "gamma", [0.5173, 0.5], PI4, 512)
    labels = [table[i] for i in ids]
    assert tracked == 2
    assert isinstance(labels[0], RefinementExhausted)
    assert labels[1][:2] == ("t2", 1)


def test_gamma_axis_scan_rejects_empty_or_zero_steps():
    # coarse_steps = 0 returned [] on fig4a, which has two boundaries
    spec = TRIMER_BRAIDS["fig4a"]
    for coarse_steps in (0, -3):
        with pytest.raises(ValueError, match="coarse_steps >= 1"):
            gamma_axis_references(spec, coarse_steps=coarse_steps)


def test_brackets_stop_where_the_interval_stops_shrinking():
    # a resolution below the float spacing ends at two adjacent doubles
    from bloch_braids.topology import _brackets
    calls = []

    def key(g):
        calls.append(g)
        assert len(calls) < 2000, "the bisection does not end"
        return g > 0.3

    (a, b), = _brackets(key, 0.0, False, 1.0, True, 1e-300)
    assert a <= 0.3 < b and b == np.nextafter(a, 1.0)


def test_total_braid_index_dimer(fig1_dimer):
    index = total_braid_index(fig1_dimer(1.0))
    assert index.nu == 1
    assert index.references == (0j,)


def test_total_braid_index_trimer_pairs(fig3_trimer):
    for beta in (-1.2, 1.2):
        index = total_braid_index(fig3_trimer(beta, 0.7))
        assert index.nu == 2
        assert len(index.references) == 2
        assert all(p.nu == 1 for p in index.parts)


def test_total_braid_index_trivial(fig3_trimer):
    assert total_braid_index(fig3_trimer(1.0, 0.1)).nu == 0


def test_total_braid_index_rejects_generic():
    spec = ModelSpec.generic([(0, np.eye(2))])
    with pytest.raises(ValueError):
        total_braid_index(spec)


# -- phase diagrams -------------------------------------------------------------------------

def test_phase_diagram_dimer_regions(fig1_dimer):
    pd = phase_diagram(fig1_dimer(0.0), ("beta", 1.2, 1.8, 7), ("gamma", -1.2, 1.2, 25),
                       samples=512)
    cell = pd.cell_at(1.5, 1.0)
    assert (cell.word, cell.nu) == ("t1", 1)
    cell = pd.cell_at(1.5, -0.2)
    assert (cell.word, cell.nu) == ("e", 0)
    cell = pd.cell_at(1.5, -1.0)
    assert (cell.word, cell.nu) == ("T1", -1)


def test_phase_diagram_labels_change_across_line(fig1_dimer):
    # crossing gamma = beta - 1 at beta = 1.5 flips e <-> t1
    pd = phase_diagram(fig1_dimer(0.0), ("beta", 1.5, 1.6, 2), ("gamma", 0.3, 0.7, 17),
                       samples=512)
    col = [pd.cell_at(1.5, g) for g in np.linspace(0.3, 0.7, 17)]
    words = [c.word for c in col]
    assert words[0] == "e" and words[-1] == "t1"
    changes = sum(1 for a, b in zip(words, words[1:]) if a != b)
    assert changes <= 2  # single boundary, possibly with one DEGENERATE cell on it


def test_phase_diagram_trimer_example_cells(fig3_trimer):
    pd = phase_diagram(fig3_trimer(1.0, 0.1), ("beta", -1.2, 1.6, 8), ("gamma", 0.1, 0.7, 4),
                       samples=512)
    assert pd.cell_at(1.0, 0.1).word == "e"
    assert pd.cell_at(0.8, 0.2).word == "t1"
    assert pd.cell_at(1.6, 0.3).word == "t2"
    a = pd.cell_at(-1.2, 0.7)
    b = pd.cell_at(1.2, 0.7)
    assert a.word == "t1 t2" and a.nu == 2
    assert b.word == "t1 t2" and b.nu == 2  # canonical cyclic text coincides...
    assert a.permutation != b.permutation   # ...but the closure separates the phases
    assert a.label != b.label


def test_phase_diagram_degenerate_marker(fig1_dimer):
    # a cell pinned exactly on gamma = beta - alpha
    pd = phase_diagram(fig1_dimer(0.0), ("beta", 1.5, 1.6, 2), ("gamma", 0.5, 0.6, 2),
                       samples=512)
    cell = pd.cell_at(1.5, 0.5)
    assert cell.degenerate and cell.word == "DEGENERATE"


def test_phase_diagram_counts_and_logs_the_tracked_cells(fig1_dimer, fig3_trimer, caplog):
    # one DEBUG record per block of rows; a dimer block tracks only the cells
    # its discriminant winding leaves, a trimer block tracks every cell
    import re
    from bloch_braids import io
    caplog.set_level("DEBUG", logger="bloch_braids")
    pd = phase_diagram(fig1_dimer(0.0), ("beta", 1.4, 1.6, 3), ("gamma", 0.2, 0.8, 13),
                       threads=1)
    records = [r.getMessage() for r in caplog.records if r.name == "bloch_braids"]
    assert len(records) == 1
    assert sum(int(re.search(r"(\d+) cells", r)[1]) for r in records) == 39
    assert sum(int(r.split(", ")[-1].split()[0]) for r in records) == pd.tracked_cells
    for r in records:   # every cell is certified, passed by the fine check or tracked
        cells, certified, fine, tracked = (int(re.search(rf"(\d+) {field}", r)[1])
                                           for field in ("cells", "certified", "fine", "tracked"))
        assert certified + fine + tracked == cells
        # the cells certified from the Laurent coefficients are some of the certified ones
        assert int(re.search(r"\((\d+) from coefficients\)", r)[1]) <= certified
    assert 1 <= pd.tracked_cells < 39 and len(pd.degenerate_cells()) >= 1
    assert "tracked" not in io.dumps_json(io.phase_diagram_to_json_dict(pd))
    trimer = phase_diagram(fig3_trimer(1.2, 0.5), ("beta", 1.0, 1.2, 2), ("gamma", 0.2, 0.4, 3),
                           threads=1)
    assert trimer.tracked_cells == 6


def test_phase_diagram_rejects_fewer_than_64_samples():
    # every cell of this plane would take the fast path, which never calls
    # the tracker that enforces the floor
    with pytest.raises(ValueError, match="64 samples"):
        phase_diagram(ModelSpec.dimer(1.0, 0.2, 0.05, 0.0), ("beta", 0.2, 0.25, 2),
                      ("gamma", 0.0, 0.2, 3), samples=32, threads=1)


def test_phase_diagram_boundary_segments(fig1_dimer):
    pd = phase_diagram(fig1_dimer(0.0), ("beta", 1.4, 1.6, 3), ("gamma", 0.2, 0.8, 13),
                       samples=512)
    segs = pd.boundary_segments()
    assert segs, "no boundary found around the exceptional line"
    for seg in segs:
        beta, gamma = seg["point"]
        assert abs(gamma - (beta - 1.0)) < 0.06
    polys = pd.boundary_polylines()
    assert all(len(p["points"]) >= 1 for p in polys)


def test_phase_diagram_delta_zero_warns(fig1_dimer):
    spec = ModelSpec.dimer(1.0, 1.5, 0.0, 1.0, 1)
    with pytest.warns(UserWarning):
        phase_diagram(spec, ("beta", 1.4, 1.6, 2), ("gamma", 0.1, 0.2, 2), samples=128)


def test_phase_diagram_rejects_unknown_axis(fig1_dimer):
    with pytest.raises(ValueError):
        phase_diagram(fig1_dimer(1.0), ("zeta", 0.0, 1.0, 3), ("gamma", 0.0, 1.0, 3))
    with pytest.raises(ValueError):
        phase_diagram(fig1_dimer(1.0), ("m", 1.0, 3.0, 3), ("gamma", 0.0, 1.0, 3))
    # the second axis overwrote the first, whose values never reached the model
    with pytest.raises(ValueError, match="both axes sweep 'gamma'"):
        phase_diagram(fig1_dimer(1.0), ("gamma", -1.0, 1.0, 3), ("gamma", -2.0, 2.0, 4))


def _reference_segments(pd):
    """Boundary midpoints by a brute-force scan of ``pd.cells``: each cell against
    the one below it, then the one to its right, comparing ``PhaseCell.label``."""
    segs = []
    n1, n2 = len(pd.cells), len(pd.cells[0])
    for i in range(n1):
        for j in range(n2):
            a = pd.cells[i][j]
            for ii, jj in ((i + 1, j), (i, j + 1)):
                if ii < n1 and jj < n2 and a.label != pd.cells[ii][jj].label:
                    b = pd.cells[ii][jj]
                    segs.append({"point": (0.5 * (a.value1 + b.value1),
                                           0.5 * (a.value2 + b.value2)),
                                 "labels": sorted([a.word, b.word])})
    return segs


# fig3b and fig1b slabs, each with its phases and two DEGENERATE cells
VIEW_PLANES = {
    "trimer": (ModelSpec.trimer(1.0, 1.0, 0.3, 0.1, 0.7), ("beta", -2.0, 2.0, 5),
               ("gamma", 0.02, 1.0, 50), 5),
    "dimer": (ModelSpec.dimer(1.0, 1.5, 0.3, 1.0), ("beta", 0.25, 2.0, 6),
              ("gamma", -3.0, 3.0, 600), 3),
}


@pytest.mark.parametrize("kind", sorted(VIEW_PLANES))
def test_phase_diagram_views_agree_with_a_reference_scan(kind):
    template, axis1, axis2, phases = VIEW_PLANES[kind]
    pd = phase_diagram(template, axis1, axis2, threads=1)
    other = phase_diagram(template, axis1, axis2, threads=2)
    assert other.labels == pd.labels and np.array_equal(other.ids, pd.ids)
    assert pd.ids.dtype == np.intp and pd.ids.shape == (axis1[3], axis2[3])
    # each label once, each used, DEGENERATE as one entry, first appearance first
    assert len(set(pd.labels)) == len(pd.labels) == phases + 1
    assert ("DEGENERATE", None, None) in pd.labels
    first = np.unique(pd.ids.ravel(), return_index=True)[1]
    assert first.tolist() == sorted(first.tolist())
    cells = pd.cells
    assert pd.cells is cells
    assert len({c.label for row in cells for c in row}) == len(pd.labels)
    assert pd.boundary_segments() == _reference_segments(pd)
    degenerate = [c for row in cells for c in row if c.degenerate]
    assert len(degenerate) == 2 and pd.degenerate_cells() == degenerate
    assert all(pd.cell_at(c.value1, c.value2) == c for row in cells for c in row)


ROWS = [pytest.param(("dimer", m), id=str(m)) for m in (1, 2, 3)] + [
    pytest.param(("trimer", beta), id=f"trimer{beta}") for beta in (-1.2, 1.2)]


@pytest.mark.parametrize("row", ROWS)
def test_row_engine_agrees_with_scalar_classifier(row, fig1_dimer, fig3_trimer):
    # one row call gives each cell the word, closure and failure type of the
    # one-cell path; the row tracks and reads its cells as one batch
    from bloch_braids import extract_braid_word, track_bands
    from bloch_braids.sweep import dimer_row_classify
    kind, value = row
    if kind == "dimer":
        gammas = np.linspace(-3.0, 3.0, 121)
        results = dimer_row_classify(fig1_dimer(0.0, m=value), {"gamma": gammas}, k0=PI4)
        specs = [fig1_dimer(g, m=value) for g in gammas.tolist()]
    else:
        # the fig3b rows; gamma = 0.5176 lies just above a fig4a boundary
        # and refines to 8192 samples
        gammas = np.linspace(0.02, 1.0, 50)
        if value < 0:
            gammas = np.append(gammas, 0.5176)
        results = dimer_row_classify(fig3_trimer(value, 0.0), {"gamma": gammas}, k0=PI4)
        specs = [fig3_trimer(value, g) for g in gammas.tolist()]
    assert len(results) == len(specs)
    counts = {"refined": 0, "failed": 0}
    for spec, res in zip(specs, results):
        assert res is not None
        try:
            traj = track_bands(spec, PI4)
            expected = (extract_braid_word(traj), traj.closure)
        except TRACK_ERRORS as exc:
            counts["failed"] += 1
            counts["refined"] += isinstance(exc, RefinementExhausted)
            assert type(res) is type(exc), spec
            continue
        counts["refined"] += traj.samples > 512
        assert res == expected, spec
    # the comparison above must not be vacuous
    assert counts["refined"] >= 1
    assert counts["failed"] >= (1 if kind == "dimer" else 0)


@pytest.mark.parametrize("cap", [None, 1])
def test_block_pass_reads_as_the_one_cell_path(cap, monkeypatch):
    # the crossings of every tracker group of a batch are resolved together: each
    # cell reads as track_bands and extract_braid_word read it, whether the groups
    # share one pass or (with the pending-step cap at 1) each is read on its own.
    # The batch holds the fig3b row beta = -0.15 (gamma = 0.78 refines to 2048
    # samples, gamma = 0.6 ends at the refinement cap), a cell on an exceptional
    # point, two diagonal cells whose real parts tie at k0, which nudge it, and a
    # cell of negative gain-loss, whose letters are read wrong on the others' bands
    from bloch_braids import braid, extract_braid_word, sweep, track_bands
    if cap is not None:
        monkeypatch.setattr(braid, "_CROSSING_BATCH", cap)
    grids, passes, points = set(), [], []
    track, resolve, eig_grid = sweep._track, braid._resolve_crossings, sweep._eig_grid

    def tracked(*args, **kwargs):
        for group in track(*args, **kwargs):
            grids.add((len(group.t_grid) - 1, float(group.t_grid[0]) != PI4))
            yield group

    def resolved(cells, *args):
        passes.append(len(cells))
        return resolve(cells, *args)

    def evaluated(spec, t, radius=None, values=None):
        shape = np.broadcast_shapes(np.shape(t), *(np.shape(v) for v in values.values()))
        if len(shape) == 1:     # the resolver's calls; the tracker's are (cells, points)
            points.append(shape[0])
        return eig_grid(spec, t, radius, values)

    monkeypatch.setattr(sweep, "_track", tracked)
    monkeypatch.setattr(braid, "_resolve_crossings", resolved)
    monkeypatch.setattr(sweep, "_eig_grid", evaluated)
    gammas = np.linspace(0.02, 1.0, 50).tolist()
    cells = [(1.0, -0.15, g, 0.7) for g in gammas] + [(1.0, -1.0, 0.6, 0.7)] + [
        (0.0, 0.0, g, -0.6) for g in (0.2, 0.5)] + [(1.0, 1.2, -0.7, 0.7)]
    results = sweep.dimer_row_classify(
        ModelSpec.trimer(1.0, 1.0, 0.3, 0.1, 0.7),
        dict(zip(("alpha", "beta", "gamma", "v"), np.array(cells).T)), k0=PI4)
    assert {(512, False), (2048, False), (512, True)} <= grids
    if cap is None:
        assert len(passes) == 1 and max(points) > 1
    else:   # the groups read one by one, one point per kernel call
        assert len(passes) >= 3 and max(points) == 1
    failed = set()
    for (alpha, beta, gamma, v), res in zip(cells, results):
        spec = ModelSpec.trimer(alpha, beta, 0.3, gamma, v)
        try:
            traj = track_bands(spec, PI4)
            expected = (extract_braid_word(traj), traj.closure)
        except TRACK_ERRORS as exc:
            failed.add(type(exc))
            assert type(res) is type(exc), spec
            continue
        assert res == expected, spec
    assert failed == {DegeneracyEncountered, RefinementExhausted}


def test_phase_diagram_gates_a_block_in_batches_of_rows(monkeypatch):
    # no spec is rebuilt per row, and a tall plane of two columns is gated in
    # batches of at most 2^15 // 5 = 6553 cells (the m = 1 gate's DFT samples 5
    # points a cell), 3276 rows, not one row at a time
    from bloch_braids import topology

    def rebuilt(*args):
        raise AssertionError("phase_diagram rebuilt a spec")

    calls = []
    certified = topology._certified

    def counted(spec, cells, *args):
        calls.append(np.broadcast_shapes(*(np.shape(v) for v in cells.values())))
        return certified(spec, cells, *args)

    monkeypatch.setattr(ModelSpec, "replace_param", rebuilt)
    monkeypatch.setattr(topology, "_certified", counted)
    template = ModelSpec.dimer(1.0, 1.5, 0.3, 1.0)
    pd = phase_diagram(template, ("beta", 1.4, 1.6, 10_000), ("gamma", -1.0, 1.0, 2),
                       samples=64, threads=1)
    rows = topology._WINDING_BATCH_SAMPLES // 5 // 2
    assert len(calls) <= -(-10_000 // rows) < 10_000 and sum(r * c for r, c in calls) == 20_000
    assert all(r * c <= topology._WINDING_BATCH_SAMPLES // 5 for r, c in calls)
    assert pd.ids.shape == (10_000, 2)
    phase_diagram(ModelSpec.trimer(1.0, 1.0, 0.3, 0.1, 0.7), ("beta", 1.0, 1.2, 2),
                  ("gamma", 0.2, 0.4, 2), threads=1)


def test_phase_diagram_deals_rows_to_the_workers_in_turn(monkeypatch):
    # with two workers, one block holds rows 0, 2, 4, ... and the other rows
    # 1, 3, 5, ...; the diagram is the one worker's
    from bloch_braids import topology
    blocks = []
    classify = topology._classify

    def recorded(spec, name, values, k0, samples, rows):
        blocks.append(rows[1])
        return classify(spec, name, values, k0, samples, rows)

    template = ModelSpec.dimer(1.0, 1.5, 0.3, 1.0)
    axes = ("beta", 0.5, 2.5, 7), ("gamma", -3.0, 3.0, 13)
    one = phase_diagram(template, *axes, threads=1)
    monkeypatch.setattr(topology, "_classify", recorded)
    two = phase_diagram(template, *axes, threads=2)
    vals1 = two.axis1.values()
    assert sorted(b.tolist() for b in blocks) == [vals1[0::2].tolist(), vals1[1::2].tolist()]
    assert two.labels == one.labels and np.array_equal(two.ids, one.ids)


def test_automatic_worker_count_follows_the_cpu_affinity(monkeypatch):
    # a process pinned to one CPU of a larger machine runs one worker
    from bloch_braids.topology import _thread_count
    monkeypatch.delenv("BLOCH_BRAIDS_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _thread_count() == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)), raising=False)
    assert _thread_count() == 8 and _thread_count(3) == 3


@pytest.mark.parametrize("m", [1, 2, 3])
def test_dimer_fast_path_agrees_with_tracker(m, monkeypatch):
    # a fig1b slab over both exceptional lines, with cells on each line and
    # 1e-9 beside it, one row along beta and one along delta (where the band
    # mean varies from cell to cell): a cell labelled from its discriminant
    # winding reads as the tracker reads it, every cell the tracker fails on
    # still fails with the tracker's exception, and every cell the certificate
    # labels passes the fine check with the same winding
    from bloch_braids import topology
    from bloch_braids.braid import cyclic_canonical, exponent_sum, word_to_text
    from bloch_braids.sweep import dimer_row_classify
    from bloch_braids.topology import _certified, _classify
    rows = [("gamma", {"beta": beta}, np.append(np.linspace(-3.0, 3.0, 241), [
        g + d for g in (beta - 1.0, 1.0 - beta, beta + 1.0, -beta - 1.0)
        for d in (-1e-9, 0.0, 1e-9)])) for beta in (0.5, 1.5, 2.5)]
    rows.append(("beta", {"gamma": 1.0}, np.append(np.linspace(0.0, 3.0, 121),
                                                   [2.0 - 1e-9, 2.0, 2.0 + 1e-9])))
    rows.append(("delta", {"gamma": 2.5}, np.linspace(-1.0, 1.0, 41)))
    fast = tracked = failed = certified = fine = 0
    for name, fixed, values in rows:
        params = {"alpha": 1.0, "beta": 1.5, "delta": 0.3, "gamma": 1.0, "m": m, **fixed}
        spec = ModelSpec.dimer(**params)
        table, ids, n_tracked = _classify(spec, name, values, PI4, 512)
        labels = [table[i] for i in ids]
        fast, tracked = fast + len(values) - n_tracked, tracked + n_tracked
        nu, _, cert = _certified(spec, {name: values}, PI4, 512)[:3]
        with monkeypatch.context() as patch:   # no cell certified: the fine verdict on each
            patch.setattr(topology, "_CERT_MARGIN", math.inf)
            nu_fine, passed = _certified(spec, {name: values}, PI4, 512)[:2]
        assert not (cert & ~passed).any(), values[cert & ~passed]
        assert (nu[cert] == nu_fine[cert]).all(), values[cert & (nu != nu_fine)]
        certified, fine = certified + cert.sum(), fine + passed.sum()
        for value, lab, res in zip(values, labels, dimer_row_classify(spec, {name: values},
                                                                      k0=PI4)):
            if isinstance(res, Exception):
                failed += 1
                assert type(lab) is type(res), (name, value)
            else:
                word = res[0]
                assert lab == (word_to_text(cyclic_canonical(word)), exponent_sum(word),
                               res[1]), (name, value)
    assert fast >= 1 and tracked >= 1 and failed >= 1
    assert 1 <= certified < fine


@pytest.mark.parametrize("seed", range(6))
def test_certified_bounds_hold_on_a_dense_grid(seed, monkeypatch):
    # on random dimers, sum |p c_p| bounds every finite difference of D on a
    # 2^16-sample grid, and the lower bound on |D| lies below its minimum
    # there; the certificate labels no cell the fine check would not pass
    from bloch_braids import topology
    from bloch_braids.topology import _certified
    rng = np.random.default_rng(seed)
    m = seed % 3 + 1
    alpha, beta, delta = rng.uniform(-2.0, 2.0, 3)
    gamma = rng.uniform(-3.0, 3.0, 8)
    k0 = rng.uniform(-4.0, 4.0)
    spec = ModelSpec.dimer(alpha, beta, delta, 0.0, m)
    nu, settled, cert, slope, low = _certified(spec, {"gamma": gamma}, k0, 512)[:5]
    monkeypatch.setattr(topology, "_CERT_MARGIN", math.inf)    # the fine verdict on each cell
    nu_fine, passed = _certified(spec, {"gamma": gamma}, k0, 512)[:2]
    assert not (cert & ~passed).any() and (nu[cert] == nu_fine[cert]).all()
    assert (settled == passed).all() and (nu[settled] == nu_fine[settled]).all()
    # D = (E1 - E2)^2 / 4 from the momentum-space matrix of the models docstring
    k = np.linspace(0.0, 2.0 * np.pi, (1 << 16) + 1)
    h11 = 2.0 * delta * np.sin(m * k) + 1j * gamma[:, None]
    h22 = -1j * gamma[:, None]
    disc = (0.5 * (h11 - h22)) ** 2 + (alpha + beta * np.exp(-1j * m * k)) * (
        alpha + beta * np.exp(1j * m * k))
    steepest = np.abs(np.diff(disc, axis=1)).max(axis=1) / (k[1] - k[0])
    assert (steepest <= slope).all(), steepest - slope
    assert (low <= np.abs(disc).min(axis=1)).all(), low - np.abs(disc).min(axis=1)


def test_certificate_stages_are_sound_on_random_slabs(monkeypatch):
    # seeded random dimer slabs (m = 1-3, random k0, 64m to 1024m samples): every
    # cell the Rouche stage or the chord bound certifies passes the fine verdict
    # with the same winding, the lower bound on |D| returned for each cell lies
    # below its minimum on a 2^14-sample grid, and each stage certifies some cell
    from bloch_braids import topology
    from bloch_braids.topology import _certified
    rng = np.random.default_rng(27)
    certified_by = np.zeros(2, dtype=int)      # Rouche stage, chord bound
    k = np.linspace(0.0, 2.0 * np.pi, (1 << 14) + 1)
    for seed in range(12):
        m = seed % 3 + 1
        samples = 64 * m << int(rng.integers(0, 5))
        alpha, delta = rng.uniform(-2.0, 2.0, 2)
        beta, gamma = rng.uniform(-2.5, 2.5, (4, 1)), rng.uniform(-3.0, 3.0, 12)
        k0 = rng.uniform(-4.0, 4.0)
        spec = ModelSpec.dimer(alpha, 1.0, delta, 0.0, m)
        cells = {"beta": beta, "gamma": gamma}
        nu, settled, cert, _, low, rouche = _certified(spec, cells, k0, samples)
        with monkeypatch.context() as patch:    # both stages off: the fine verdict on each cell
            patch.setattr(topology, "_CERT_MARGIN", math.inf)
            nu_fine, passed, none, _, _, no_rouche = _certified(spec, cells, k0, samples)
        assert not none.any() and not no_rouche.any()
        assert not (rouche & ~cert).any() and not (cert & ~passed).any()
        assert (nu[cert] == nu_fine[cert]).all()
        assert (settled == passed).all() and (nu[settled] == nu_fine[settled]).all()
        # D = (E1 - E2)^2 / 4 from the momentum-space matrix of the models docstring
        h11 = 2.0 * delta * np.sin(m * k) + 1j * gamma[:, None]
        w, b = np.exp(1j * m * k), beta[..., None]
        disc = (0.5 * h11 + 0.5j * gamma[:, None]) ** 2 + (alpha + b / w) * (alpha + b * w)
        dense = np.abs(disc).min(axis=-1)
        assert (low <= dense).all(), (seed, (low - dense).max())
        certified_by += rouche.sum(), (cert & ~rouche).sum()
    assert (certified_by >= 1).all(), certified_by


# fig1b slabs whose gamma grid (step 0.25) holds every exceptional line of every beta
# row exactly, and the same grid 1e-9 beside them; a fig3b slab whose beta = +/-0.15,
# gamma = 0.6 cells refine to the 65536-sample cap
BLOCK_PLANES = [pytest.param(ModelSpec.dimer(1.0, 1.5, 0.3, 1.0, m), ("beta", 0.5, 2.5, 5),
                             ("gamma", -3.5 + shift, 3.5 + shift, 29), id=f"dimer{m}-{shift}")
                for m in (1, 2) for shift in (0.0, 1e-9)]
BLOCK_PLANES.append(pytest.param(ModelSpec.trimer(1.0, 1.0, 0.3, 0.1, 0.7),
                                 ("beta", -0.15, 0.15, 3), ("gamma", 0.5, 0.7, 5), id="trimer"))


@pytest.mark.parametrize("template, axis1, axis2", BLOCK_PLANES)
def test_phase_diagram_labels_do_not_depend_on_the_blocks(template, axis1, axis2):
    # one worker tracks the cells the gates leave in every row as one batch; two and
    # three split the rows into blocks: each gives the same diagram, and every row
    # reads as _classify on that row alone
    from bloch_braids.topology import _classify
    pds = [phase_diagram(template, axis1, axis2, threads=n) for n in (1, 2, 3)]
    pd = pds[0]
    for other in pds[1:]:
        assert other.labels == pd.labels and np.array_equal(other.ids, pd.ids)
        assert other.tracked_cells == pd.tracked_cells
    tracked = 0
    for i, value in enumerate(pd.axis1.values().tolist()):
        table, ids, n = _classify(template.replace_param(axis1[0], value), axis2[0],
                                  pd.axis2.values(), PI4, 512)
        assert [pd.labels[k] for k in pd.ids[i].tolist()] == [
            ("DEGENERATE", None, None) if isinstance(table[k], Exception) else table[k]
            for k in ids], (axis1[0], value)
        tracked += n
    assert tracked == pd.tracked_cells >= 2
    if axis2[1] == -3.5 or template.kind == "trimer":
        assert ("DEGENERATE", None, None) in pd.labels


def test_tracker_batches_stay_within_the_sample_caps(monkeypatch, caplog):
    # cells of different rows share tracker batches, so the caps, not the size of a
    # block, must bound what one raw evaluation asks for: a first grid of at most
    # 2^15 samples (63 cells at 513), a refined grid of at most 2^16 (one cell at the
    # 65536 cap); past them a worker's resident memory grows with the block. The
    # crossing resolver's calls (1-D) stay within 8192 points, and on the trimer plane
    # number those of one pass over the block's five tracker groups, not those of a
    # pass per group (57 calls)
    from bloch_braids import braid, sweep
    caplog.set_level("DEBUG", logger="bloch_braids")
    calls = []
    eig_grid = sweep._eig_grid

    def recording(spec, t, radius=None, values=None):
        calls.append(np.broadcast_shapes(np.shape(t), *(np.shape(v) for v in values.values())))
        return eig_grid(spec, t, radius, values)

    monkeypatch.setattr(sweep, "_eig_grid", recording)
    planes = [(ModelSpec.trimer(1.0, 1.0, 0.3, 0.1, 0.7), ("beta", -0.15, 0.15, 3),
               ("gamma", 0.02, 1.0, 50)),
              (ModelSpec.dimer(1.0, 1.5, 0.3, 1.0, 2), ("beta", 0.25, 2.0, 6),
               ("gamma", -3.0, 3.0, 600))]
    for template, axis1, axis2 in planes:
        calls.clear()
        caplog.clear()
        phase_diagram(template, axis1, axis2, threads=1)
        grids = [shape for shape in calls if len(shape) == 2]   # (cells, points) of the tracker
        resolver = [points for points, in (shape for shape in calls if len(shape) == 1)]
        assert resolver and max(resolver) <= braid._CROSSING_BATCH
        passes = [r.args for r in caplog.records if r.name == "bloch_braids.braid"]
        # (crossings, subdivision rounds, kernel calls, points) of each pass
        assert sum(p[2] for p in passes) == len(resolver)
        assert sum(p[3] for p in passes) == sum(resolver)
        if template.kind == "trimer":
            (crossings, rounds, kernel_calls, _), = passes
            bisections = math.ceil(math.log2(2.0 * np.pi / 512 / braid._BISECTION_WIDTH))
            assert crossings > 100 and kernel_calls <= rounds + 8 + bisections + 1
        # a first grid has samples + 1 points; a refinement evaluates the k midpoints
        # of a 2k + 1 grid
        first = [(cells, points) for cells, points in grids if points % 2]
        refined = [(cells, 2 * points + 1) for cells, points in grids if points % 2 == 0]
        for cap, batches in ((1 << 15, first), (1 << 16, refined)):
            assert all(cells == 1 or cells * points <= cap for cells, points in batches), batches
        # neither bound is vacuous: a full first batch, and a cell at the refinement cap
        assert len(first) >= 2 and max(cells * points for cells, points in first) > 1 << 14
        assert max(points for _, points in refined) == (1 << 16) + 1
