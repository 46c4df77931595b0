"""Tests of the independent checker: it accepts the paper's answers and
rejects results with one thing wrong.

    python3 -m pytest perfbench/test_oracle.py
"""

import numpy as np
import pytest

import oracle

PI4 = np.pi / 4
FIG4A = {"alpha": 1.0, "beta": -1.2, "delta": 0.3, "gamma": 0.7, "v": 0.7, "m": 1}
FIG4B = dict(FIG4A, beta=1.2)


def braid_doc(word, closure, nu=None):
    esum = sum(s for _, s in oracle.parse_word(word))
    return {"word": word, "exponent_sum": esum, "nu": esum if nu is None else nu,
            "closure_permutation": list(closure)}


def test_accepts_the_fig4_pair():
    # t1 t2 sends the strands 0, 1, 2 to ranks 2, 0, 1; t2 t1 to 1, 2, 0
    assert oracle.check_braid("trimer", FIG4A, PI4, braid_doc("t1 t2", (2, 0, 1))) == []
    assert oracle.check_braid("trimer", FIG4B, PI4, braid_doc("t2 t1", (1, 2, 0))) == []


def test_the_fig4_words_do_not_commute():
    assert oracle.check_braid("trimer", FIG4A, PI4, braid_doc("t2 t1", (1, 2, 0)))
    assert oracle.check_braid("trimer", FIG4B, PI4, braid_doc("t1 t2", (2, 0, 1)))


def test_rejects_one_flipped_sign():
    assert oracle.check_braid("trimer", FIG4A, PI4, braid_doc("T1 t2", (2, 0, 1)))
    assert oracle.check_braid("trimer", FIG4A, PI4, braid_doc("T1 t2", (2, 0, 1), nu=2))


def test_rejects_a_wrong_nu():
    assert oracle.check_braid("trimer", FIG4A, PI4, braid_doc("t1 t2", (2, 0, 1), nu=1))


def test_rejects_a_wrong_closure_permutation():
    assert oracle.check_braid("trimer", FIG4A, PI4, braid_doc("t1 t2", (1, 2, 0)))
    assert oracle.check_braid("trimer", FIG4A, PI4, braid_doc("t1 t2", (0, 1, 2)))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("gamma, sign", [(1.0, 1), (-1.0, -1), (-0.2, 0), (3.0, 0)])
def test_dimer_discriminant_winding_is_the_braid_order(m, gamma, sign):
    p = {"alpha": 1.0, "beta": 1.5, "delta": 0.3, "gamma": gamma, "m": m}
    nu, ok = oracle.disc_winding("dimer", p)
    assert ok and nu == sign * m


def test_exceptional_points_are_flagged():
    # |gamma| = |beta - alpha| = 0.5 and |gamma| = beta + alpha = 2.5 are EP lines
    p = {"alpha": 1.0, "beta": 1.5, "delta": 0.3, "gamma": np.array([0.5, -2.5, 1.0]), "m": 1}
    nu, ok = oracle.disc_winding("dimer", p)
    assert list(ok) == [False, False, True] and nu[2] == 1


def test_det_winding_counts_zeros_inside():
    p = {"alpha": 1.0, "beta": 1.5, "delta": 0.3, "gamma": 1.0, "m": 2}
    assert oracle.det_winding("dimer", p, 0.0) == 2
    with pytest.raises(ValueError):
        ev = np.linalg.eigvals(oracle.hamiltonian("dimer", p, np.exp(0.3j)))
        oracle.det_winding("dimer", p, ev[0])


def test_residuals_separate_eigenvalues_from_near_misses():
    z = np.exp(1j * np.linspace(0, 2 * np.pi, 65))
    ev = np.linalg.eigvals(oracle.hamiltonian("trimer", FIG4A, z))
    assert oracle.char_residual("trimer", FIG4A, z, ev) < 1e-12
    assert oracle.trace_residual("trimer", FIG4A, z, ev) < 1e-12
    assert oracle.char_residual("trimer", FIG4A, z, ev + 1e-6) > 1e-9


def test_tracked_closure_of_the_hopf_link_is_trivial():
    p = {"alpha": 1.0, "beta": 1.5, "delta": 0.3, "gamma": 1.0, "m": 2}
    assert oracle.track("dimer", p, 0.0)[1] == (0, 1)
    assert oracle.track("dimer", dict(p, m=1), 0.0)[1] == (1, 0)


def test_permutation_helpers():
    assert oracle.induced_permutation(oracle.parse_word("t2 t1 t2 t1"), 3) == (2, 0, 1)
    assert oracle.cycle_type((2, 0, 1)) == (3,)
    assert oracle.parse_cycles("(1 3 2)", 3) == (2, 0, 1)
    assert oracle.parse_cycles("()", 2) == (0, 1)
