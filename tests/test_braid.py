import numpy as np
import pytest

from bloch_braids import (BraidWord, Permutation, concat, cyclic_canonical,
                          exponent_sum, extract_braid_word, free_reduce,
                          induced_permutation, inverse, track_bands, word_from_text,
                          word_to_text, words_cyclic_equal)
from bloch_braids.errors import (DegenerateCrossing, DegeneracyEncountered, RefinementExhausted,
                                 StrandMismatch, UnresolvedCrossing)
from conftest import PI4

TRACK_ERRORS = (DegeneracyEncountered, RefinementExhausted, DegenerateCrossing,
                UnresolvedCrossing)


class FakeTrajectory:
    """Minimal stand-in: analytic band functions sampled on a grid."""

    def __init__(self, band_funcs, samples=256):
        self.t_grid = np.linspace(0.0, 2 * np.pi, samples + 1)
        self.bands = np.array([[f(t) for t in self.t_grid] for f in band_funcs])
        self._funcs = band_funcs
        self.scale = 1.0 + float(np.abs(self.bands).max())

    def evaluate_raw(self, t):
        return np.stack(np.broadcast_arrays(*(f(t) for f in self._funcs)), axis=-1)


def w(text, n=3):
    return word_from_text(text, n)


def random_word(rng, n_strands=3, max_len=12):
    length = int(rng.integers(0, max_len + 1))
    letters = tuple((int(rng.integers(1, n_strands)), int(rng.choice([-1, 1])))
                    for _ in range(length))
    return BraidWord(letters, n_strands)


# -- permutations -------------------------------------------------------------

def test_permutation_composition_order():
    t1 = Permutation.transposition(3, 0)
    t2 = Permutation.transposition(3, 1)
    # 1 -> slot 2 after t1, slot 3 after t2
    assert t1.then(t2).image == (2, 0, 1)
    assert t2.then(t1).image == (1, 2, 0)


def test_permutation_inverse_and_cycles():
    p = Permutation((2, 0, 1))
    assert p.then(p.inverse()).is_identity()
    assert p.cycle_str() == "(1 3 2)"
    assert Permutation.identity(3).cycle_str() == "()"


def test_band_mapping_display():
    # strand-end map 1->2, 2->3, 3->1: slot 1 is reached by strand 3
    p = Permutation((1, 2, 0))
    assert p.band_mapping_str() == "(E1,E2,E3)->(E3,E1,E2)"
    assert Permutation.from_band_tuple([3, 1, 2]) == p


# -- word algebra ---------------------------------------------------------------

def test_text_roundtrip():
    word = w("t1 T2 t1")
    assert word_to_text(word) == "t1 T2 t1"
    assert word_from_text(word_to_text(word), 3) == word
    assert word_to_text(BraidWord.empty(3)) == "e"
    assert word_from_text("e", 3) == BraidWord.empty(3)


def test_word_validation():
    with pytest.raises(ValueError):
        BraidWord(((3, 1),), 3)
    with pytest.raises(ValueError):
        BraidWord(((1, 2),), 3)


def test_induced_permutation_examples():
    assert induced_permutation(w("t1 t2")).band_mapping_str() == "(E1,E2,E3)->(E2,E3,E1)"
    assert induced_permutation(w("t2 t1")).band_mapping_str() == "(E1,E2,E3)->(E3,E1,E2)"
    assert induced_permutation(w("e")).is_identity()
    # signs do not matter for the permutation
    assert induced_permutation(w("T1 T2")) == induced_permutation(w("t1 t2"))


def test_concat_and_permutation_homomorphism():
    a, b = w("t1"), w("t1")
    assert word_to_text(concat(a, b)) == "t1 t1"
    assert word_to_text(free_reduce(concat(w("t1"), w("T1")))) == "e"
    assert word_to_text(concat(w("t1"), w("t2"))) != word_to_text(concat(w("t2"), w("t1")))
    assert induced_permutation(concat(w("t1"), w("t2"))) != induced_permutation(concat(w("t2"), w("t1")))


def test_concat_strand_mismatch():
    with pytest.raises(StrandMismatch):
        concat(w("t1", 2), w("t1", 3))


def test_inverse():
    assert word_to_text(inverse(w("t1 t2"))) == "T2 T1"
    assert inverse(BraidWord.empty(3)) == BraidWord.empty(3)
    assert word_to_text(inverse(w("t2 t1"))) == "T1 T2"


def test_free_reduce():
    assert word_to_text(free_reduce(w("t1 T1 t2"))) == "t2"
    assert word_to_text(free_reduce(w("t1 t2 T2 T1"))) == "e"
    assert word_to_text(free_reduce(w("t1 t2 t1"))) == "t1 t2 t1"  # braid relation not applied


def test_exponent_sum_examples():
    assert exponent_sum(w("t1 t2")) == 2
    assert exponent_sum(w("T2 T1")) == -2
    assert exponent_sum(w("t2 t1 t2 t1")) == 4


def test_cyclic_canonical():
    assert words_cyclic_equal(w("t1 t2"), w("t2 t1"))
    assert not words_cyclic_equal(w("t1 t2"), w("T1 T2"))
    assert word_to_text(cyclic_canonical(w("t1 T2 t2 T1"))) == "e"
    assert word_to_text(cyclic_canonical(w("t2 T1 t1"))) == "t2"


def test_group_axioms_random_words():
    rng = np.random.default_rng(71)
    for _ in range(400):
        a, b, c = (random_word(rng) for _ in range(3))
        # associativity is literal for letter sequences
        assert concat(concat(a, b), c) == concat(a, concat(b, c))
        # identity law
        assert concat(a, BraidWord.empty(3)) == a
        # inverse law under free reduction
        assert len(free_reduce(concat(a, inverse(a)))) == 0
        # homomorphisms
        assert exponent_sum(concat(a, b)) == exponent_sum(a) + exponent_sum(b)
        assert induced_permutation(concat(a, b)) == \
            induced_permutation(a).then(induced_permutation(b))
        # free reduction preserves both invariants
        assert exponent_sum(free_reduce(a)) == exponent_sum(a)
        assert induced_permutation(free_reduce(a)) == induced_permutation(a)


# -- extraction -----------------------------------------------------------------

def test_extract_dimer_generator(fig1_dimer):
    traj = track_bands(fig1_dimer(1.0), 0.0)
    assert word_to_text(extract_braid_word(traj)) == "t1"


def test_extract_dimer_inverse(fig1_dimer):
    traj = track_bands(fig1_dimer(-1.0), 0.0)
    assert word_to_text(extract_braid_word(traj)) == "T1"


def test_extract_dimer_trivial(fig1_dimer):
    traj = track_bands(fig1_dimer(-0.2), 0.0)
    assert word_to_text(extract_braid_word(traj)) == "e"


def test_extract_trimer_two_letter(fig3_trimer):
    traj = track_bands(fig3_trimer(-1.2, 0.7), PI4)
    assert word_to_text(extract_braid_word(traj)) == "t1 t2"


def test_extraction_matches_closure():
    from conftest import random_dimer, random_trimer
    rng = np.random.default_rng(73)
    done = 0
    while done < 15:
        spec = random_dimer(rng) if rng.random() < 0.5 else random_trimer(rng)
        try:
            traj = track_bands(spec, rng.uniform(0, 2 * np.pi))
            word = extract_braid_word(traj)
        except TRACK_ERRORS:  # a draw the tracker cannot follow
            continue
        done += 1
        assert induced_permutation(word) == traj.closure


def test_base_point_invariance(fig3_trimer):
    spec = fig3_trimer(1.2, 0.7)
    rng = np.random.default_rng(79)
    reference = None
    for k0 in rng.uniform(0, 2 * np.pi, 10):
        traj = track_bands(spec, k0)
        word = extract_braid_word(traj)
        key = (exponent_sum(word), word_to_text(cyclic_canonical(word)),
               tuple(sorted(len(c) for c in traj.closure.cycles())))
        if reference is None:
            reference = key
        assert key == reference


def test_extract_synthetic_single_crossing():
    # two strands crossing once with a clear imaginary split at the crossing
    traj = FakeTrajectory([lambda t: (t - 3.0) - 0.4j * np.sin(t / 2),
                           lambda t: (3.0 - t) + 0.4j * np.sin(t / 2)])
    word = extract_braid_word(traj)
    assert word_to_text(word) == "t1"


def test_extract_two_crossings_in_one_step():
    # strand 1 crosses strand 2 at t = 3.000 and strand 3 at t = 3.004: on
    # 256 samples both swaps fall in one step, which the reader must halve
    # until each part holds one; on 4096 samples they fall in separate steps
    funcs = [lambda t: 10.0 * (t - 3.0) + 0.3j, lambda t: 0j, lambda t: 0.04 - 0.3j]
    coarse = FakeTrajectory(funcs, samples=256)
    step = np.searchsorted(coarse.t_grid, 3.0)
    assert coarse.t_grid[step - 1] < 3.0 < 3.004 < coarse.t_grid[step]
    word = extract_braid_word(coarse)
    assert word_to_text(word) == "T1 T2"
    assert word == extract_braid_word(FakeTrajectory(funcs, samples=4096))


def test_extract_degenerate_crossing_raises():
    # both real AND imaginary parts meet at the crossing: an exceptional
    # point, no letter sign is defined
    traj = FakeTrajectory([lambda t: (t - 3.0) + 0j, lambda t: (3.0 - t) + 0j])
    with pytest.raises(DegenerateCrossing):
        extract_braid_word(traj)


def test_extract_unresolved_crossing_raises():
    # three strands whose real parts all cross at exactly the same point
    # cannot be ordered into adjacent transpositions
    traj = FakeTrajectory([lambda t: (t - 3.0) + 0.0j,
                           lambda t: (3.0 - t) + 0.3j,
                           lambda t: 2 * (t - 3.0) + 0.6j])
    with pytest.raises(UnresolvedCrossing):
        extract_braid_word(traj)


def test_handedness_flip(fig1_dimer, fig3_trimer):
    cases = [fig1_dimer(1.0), fig3_trimer(0.8, 0.2), fig3_trimer(1.6, 0.3),
             fig3_trimer(1.2, 0.7)]
    for spec in cases:
        k0 = 0.0 if spec.kind == "dimer" else PI4
        plus = extract_braid_word(track_bands(spec, k0))
        minus = extract_braid_word(track_bands(
            spec.replace_param("gamma", -spec.params.gamma), k0))
        sign_flipped = BraidWord(tuple((n, -s) for n, s in plus.letters), plus.strand_count)
        assert words_cyclic_equal(minus, sign_flipped)
