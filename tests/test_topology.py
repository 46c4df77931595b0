import json
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


@pytest.mark.parametrize("m", [1, 2])
def test_disc_count_equals_exponent_sum_on_fig3b_rows(m):
    from bloch_braids import exponent_sum
    from bloch_braids.sweep import trimer_row_classify
    from bloch_braids.topology import _disc_count
    gammas = np.linspace(0.02, 1.0, 50)
    checked = 0
    for beta in (-1.2, -0.4, 0.8, 1.6):
        results = trimer_row_classify(ModelSpec.trimer(1.0, beta, 0.3, 0.0, 0.7, m), "gamma",
                                      gammas, k0=PI4)
        for gamma, res in zip(gammas.tolist(), results):
            if isinstance(res, Exception):
                continue
            spec = ModelSpec.trimer(1.0, beta, 0.3, gamma, 0.7, m)
            assert _disc_count(spec) == exponent_sum(res[0]), (beta, gamma)
            checked += 1
    assert checked > 180


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
    labels, tracked = _classify(TRIMER_BRAIDS["fig4a"], "gamma", [0.5173, 0.5], PI4, 512)
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
    # one DEBUG record per row; a dimer row tracks only the cells its
    # discriminant winding leaves, a trimer row tracks every cell
    from bloch_braids import io
    caplog.set_level("DEBUG", logger="bloch_braids")
    pd = phase_diagram(fig1_dimer(0.0), ("beta", 1.4, 1.6, 3), ("gamma", 0.2, 0.8, 13),
                       threads=1)
    records = [r.getMessage() for r in caplog.records if r.name == "bloch_braids"]
    assert len(records) == 3 and all("13 cells" in r for r in records)
    assert sum(int(r.split(", ")[-1].split()[0]) for r in records) == pd.tracked_cells
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
    from bloch_braids.sweep import dimer_row_classify, trimer_row_classify
    kind, value = row
    if kind == "dimer":
        gammas = np.linspace(-3.0, 3.0, 121)
        results = dimer_row_classify(fig1_dimer(0.0, m=value), "gamma", gammas, k0=PI4)
        specs = [fig1_dimer(g, m=value) for g in gammas.tolist()]
    else:
        # the fig3b rows; gamma = 0.5176 lies just above a fig4a boundary
        # and refines to 8192 samples
        gammas = np.linspace(0.02, 1.0, 50)
        if value < 0:
            gammas = np.append(gammas, 0.5176)
        results = trimer_row_classify(fig3_trimer(value, 0.0), "gamma", gammas, k0=PI4)
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


@pytest.mark.parametrize("m", [1, 2, 3])
def test_dimer_fast_path_agrees_with_tracker(m):
    # a fig1b slab over both exceptional lines, with cells on each line and
    # 1e-9 beside it, one row along beta and one along delta (where the band
    # mean varies from cell to cell): a cell labelled from its discriminant
    # winding reads as the tracker reads it, every cell the tracker fails on
    # still fails with the tracker's exception, and every cell the certified
    # gate labels passes the fine gate with the same winding
    from bloch_braids.braid import cyclic_canonical, exponent_sum, word_to_text
    from bloch_braids.sweep import dimer_row_classify
    from bloch_braids.topology import _certified, _classify, _dimer_windings
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
        labels, n_tracked = _classify(spec, name, values, PI4, 512)
        fast, tracked = fast + len(values) - n_tracked, tracked + n_tracked
        nu, cert = _certified(spec, name, values, PI4, 512)[:2]
        nu_fine, passed = _dimer_windings(spec, name, values, PI4, 512)
        assert not (cert & ~passed).any(), values[cert & ~passed]
        assert (nu[cert] == nu_fine[cert]).all(), values[cert & (nu != nu_fine)]
        certified, fine = certified + cert.sum(), fine + passed.sum()
        for value, lab, res in zip(values, labels, dimer_row_classify(spec, name, values,
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
def test_certified_bounds_hold_on_a_dense_grid(seed):
    # on random dimers, sum |p c_p| bounds every finite difference of D on a
    # 2^16-sample grid, and the lower bound on |D| lies below its minimum
    # there; the gate labels no cell the fine gate would not pass
    from bloch_braids.topology import _certified, _dimer_windings
    rng = np.random.default_rng(seed)
    m = seed % 3 + 1
    alpha, beta, delta = rng.uniform(-2.0, 2.0, 3)
    gamma = rng.uniform(-3.0, 3.0, 8)
    k0 = rng.uniform(-4.0, 4.0)
    spec = ModelSpec.dimer(alpha, beta, delta, 0.0, m)
    nu, cert, slope, low = _certified(spec, "gamma", gamma, k0, 512)
    nu_fine, passed = _dimer_windings(spec, "gamma", gamma, k0, 512)
    assert not (cert & ~passed).any() and (nu[cert] == nu_fine[cert]).all()
    # D = (E1 - E2)^2 / 4 from the momentum-space matrix of the models docstring
    k = np.linspace(0.0, 2.0 * np.pi, (1 << 16) + 1)
    h11 = 2.0 * delta * np.sin(m * k) + 1j * gamma[:, None]
    h22 = -1j * gamma[:, None]
    disc = (0.5 * (h11 - h22)) ** 2 + (alpha + beta * np.exp(-1j * m * k)) * (
        alpha + beta * np.exp(1j * m * k))
    steepest = np.abs(np.diff(disc, axis=1)).max(axis=1) / (k[1] - k[0])
    assert (steepest <= slope).all(), steepest - slope
    assert (low <= np.abs(disc).min(axis=1)).all(), low - np.abs(disc).min(axis=1)
