import json

import numpy as np
import pytest

from bloch_braids import (DimerParams, ModelSpec, TrimerParams, bloch_matrix,
                          bloch_matrix_z, characteristic_coefficients, model_from_json,
                          model_to_json)
from bloch_braids.errors import ZeroModulus
from bloch_braids.models import _char_coeffs, _entries
from conftest import random_dimer, random_trimer


def test_dimer_matrix_k0():
    p = DimerParams(1.0, 1.5, 0.3, 1.0, 1)
    h = bloch_matrix(ModelSpec("dimer", p), 0.0).entries
    np.testing.assert_allclose(h, [[1j, 2.5], [2.5, -1j]], atol=1e-15)


def test_dimer_matrix_kpi():
    p = DimerParams(1.0, 1.5, 0.3, 1.0, 1)
    h = bloch_matrix(ModelSpec("dimer", p), np.pi).entries
    np.testing.assert_allclose(h, [[1j, -0.5], [-0.5, -1j]], atol=1e-12)


def test_dimer_matrix_m2_quarter_pi():
    # m=2, k=pi/4: diagonal 2*0.3*sin(pi/2) + i = 0.6 + i,
    # off-diagonals 1 + 1.5*exp(-/+ i pi/2) = 1 -/+ 1.5i
    p = DimerParams(1.0, 1.5, 0.3, 1.0, 2)
    h = bloch_matrix(ModelSpec("dimer", p), np.pi / 4).entries
    np.testing.assert_allclose(h[0, 0], 0.6 + 1j, atol=1e-14)
    np.testing.assert_allclose(h[0, 1], 1.0 - 1.5j, atol=1e-14)
    np.testing.assert_allclose(h[1, 0], 1.0 + 1.5j, atol=1e-14)
    np.testing.assert_allclose(h[1, 1], -1j, atol=1e-15)


def test_trimer_matrix_k0():
    p = TrimerParams(1.0, 1.2, 0.3, 0.7, 0.7, 1)
    h = bloch_matrix(ModelSpec("trimer", p), 0.0).entries
    np.testing.assert_allclose(h, [[0.7j, 1.0, 1.2],
                                   [1.0, 0.7, 1.0],
                                   [1.2, 1.0, -0.7j]], atol=1e-15)


def test_trimer_matrix_kpi():
    p = TrimerParams(1.0, 1.2, 0.3, 0.7, 0.7, 1)
    h = bloch_matrix(ModelSpec("trimer", p), np.pi).entries
    np.testing.assert_allclose(h[0, 0], 0.7j, atol=1e-12)
    np.testing.assert_allclose(h[0, 2], -1.2, atol=1e-12)
    np.testing.assert_allclose(h[2, 0], -1.2, atol=1e-12)


def test_trimer_matrix_quarter_pi():
    p = TrimerParams(1.0, 1.2, 0.3, 0.7, 0.7, 1)
    h = bloch_matrix(ModelSpec("trimer", p), np.pi / 4).entries
    np.testing.assert_allclose(h[0, 0], -0.6 + 0.7j, atol=1e-14)
    np.testing.assert_allclose(h[0, 2], 1.2 * np.exp(-1j * np.pi / 4), atol=1e-14)


def test_zplane_unit_circle_matches_k_space():
    rng = np.random.default_rng(7)
    for _ in range(20):
        spec = random_dimer(rng) if rng.random() < 0.5 else random_trimer(rng)
        for k in rng.uniform(-np.pi, 3 * np.pi, 50):
            hk = bloch_matrix(spec, k).entries
            hz = bloch_matrix_z(spec, np.exp(1j * k)).entries
            assert np.abs(hz - hk).max() < 1e-12


def test_zplane_real_point():
    # z = 0.5: off-diagonals alpha + beta/z and alpha + beta*z
    spec = ModelSpec.dimer(1.0, 1.5, 0.3, 1.0, 1)
    h = bloch_matrix_z(spec, 0.5).entries
    np.testing.assert_allclose(h[0, 1], 4.0, atol=1e-14)
    np.testing.assert_allclose(h[1, 0], 1.75, atol=1e-14)


def test_zplane_zero_pole():
    spec = ModelSpec.dimer(1.0, 1.5, 0.3, 1.0, 1)
    with pytest.raises(ZeroModulus):
        bloch_matrix_z(spec, 0.0)


def test_char_coeffs_dimer_kpi():
    # hand expansion at k=pi: det(E - H) = E^2 + (1 - 0.25) = E^2 + 0.75
    spec = ModelSpec.dimer(1.0, 1.5, 0.3, 1.0, 1)
    c = characteristic_coefficients(bloch_matrix(spec, np.pi))
    np.testing.assert_allclose(c, [1.0, 0.0, 0.75], atol=1e-12)
    roots = np.roots(c)
    np.testing.assert_allclose(sorted(roots.imag), [-np.sqrt(0.75), np.sqrt(0.75)], atol=1e-12)


def test_char_coeffs_identity():
    c = characteristic_coefficients(np.eye(2))
    np.testing.assert_allclose(c, [1.0, -2.0, 1.0], atol=1e-14)


def test_char_coeffs_trimer_trace():
    spec = ModelSpec.trimer(1.0, 1.2, 0.3, 0.7, 0.7, 1)
    rng = np.random.default_rng(3)
    for k in rng.uniform(0, 2 * np.pi, 25):
        c = characteristic_coefficients(bloch_matrix(spec, k))
        expected = -(0.7 - 2 * 0.3 * np.sin(2 * k))
        np.testing.assert_allclose(c[1], expected, atol=1e-12)


def test_trace_matches_eigenvalue_sum():
    rng = np.random.default_rng(11)
    for _ in range(50):
        spec = random_dimer(rng) if rng.random() < 0.5 else random_trimer(rng)
        k = rng.uniform(0, 2 * np.pi)
        h = bloch_matrix(spec, k).entries
        ev = np.linalg.eigvals(h)
        assert abs(ev.sum() - np.trace(h)) < 1e-10 * (1 + abs(np.trace(h)))


def test_conjugation_symmetry_matrix():
    rng = np.random.default_rng(13)
    for _ in range(30):
        spec = random_dimer(rng) if rng.random() < 0.5 else random_trimer(rng)
        k = rng.uniform(0, 2 * np.pi)
        flipped = spec.replace_param("gamma", -spec.params.gamma)
        h = bloch_matrix(spec, k).entries
        hf = bloch_matrix(flipped, k).entries
        np.testing.assert_allclose(hf, h.conj().T, atol=1e-13)


def test_periodicity():
    rng = np.random.default_rng(17)
    for _ in range(20):
        spec = random_dimer(rng) if rng.random() < 0.5 else random_trimer(rng)
        k = rng.uniform(0, 2 * np.pi)
        h1 = bloch_matrix(spec, k).entries
        h2 = bloch_matrix(spec, k + 2 * np.pi).entries
        assert np.abs(h1 - h2).max() < 1e-12


def test_fourier_terms_reproduce_k_matrix():
    rng = np.random.default_rng(19)
    for _ in range(10):
        spec = random_trimer(rng)
        k = rng.uniform(0, 2 * np.pi)
        direct = bloch_matrix(spec, k).entries
        summed = sum(t.matrix * np.exp(1j * t.n * k) for t in spec.fourier_terms())
        assert np.abs(direct - summed).max() < 1e-12


def test_generic_model_roundtrip():
    a0 = np.array([[0.0, 1.0], [1.0, 0.0]])
    a1 = np.array([[0.0, 0.5j], [0.0, 0.0]])
    spec = ModelSpec.generic([(0, a0), (1, a1), (-1, a1.conj().T)])
    assert spec.n_bands == 2
    again = model_from_json(model_to_json(spec))
    assert bloch_matrix(spec, 0.3).space == "k"
    for k in (0.3, 1.7):
        np.testing.assert_allclose(bloch_matrix(spec, k).entries,
                                   bloch_matrix(again, k).entries, atol=1e-15)


def test_model_json_roundtrip():
    spec = ModelSpec.trimer(1.0, -1.2, 0.3, 0.7, 0.7, 2)
    doc = json.loads(model_to_json(spec))
    assert doc["kind"] == "trimer"
    again = ModelSpec.from_json_dict(doc)
    assert again == spec


def test_json_rejects_bad_documents():
    with pytest.raises(ValueError):
        ModelSpec.from_json_dict({"kind": "pentamer", "params": {}})
    with pytest.raises(ValueError):
        ModelSpec.from_json_dict({"params": {}})


def test_param_validation():
    with pytest.raises(ValueError):
        DimerParams(1.0, 1.5, 0.3, float("nan"), 1)
    with pytest.raises(ValueError):
        DimerParams(1.0, 1.5, 0.3, 1.0, 0)
    with pytest.raises(ValueError):
        TrimerParams(1.0, 1.2, 0.3, 0.7, 0.7, -2)


def test_replace_param():
    spec = ModelSpec.dimer(1.0, 1.5, 0.3, 1.0, 1)
    assert spec.replace_param("gamma", -1.0).params.gamma == -1.0
    with pytest.raises(ValueError):
        spec.replace_param("vorticity", 1.0)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_kernel_matches_fourier_sum_and_faddeev_leverrier(m):
    # the kernel's entries against sum_n A_n z^n, its coefficients against
    # Faddeev-LeVerrier, on and off the unit circle
    rng = np.random.default_rng(70 + m)
    for _ in range(10):
        for spec in (random_dimer(rng), random_trimer(rng)):
            spec = spec.replace_param("m", m)
            for r in (0.6, 1.0, 1.7):
                z = r * np.exp(1j * rng.uniform(0, 2 * np.pi))
                summed = sum(t.matrix * z ** t.n for t in spec.fourier_terms())
                h = np.array(_entries(spec, z), dtype=complex)
                scale = 1.0 + np.abs(summed).max()
                assert np.abs(h - summed).max() < 1e-13 * scale
                reference = characteristic_coefficients(summed)
                coeffs = np.array(_char_coeffs(h))
                for i, c in enumerate(coeffs, start=1):
                    assert abs(c - reference[i]) < 1e-12 * scale ** i
