"""Braiding of complex Bloch bands in one-dimensional gain-loss lattices.

Build a model (:class:`ModelSpec`), track its complex bands over the zone
(:func:`track_bands`) or along complex-plane circles (:func:`riemann_loop`),
read off the braid word (:func:`extract_braid_word`), locate exceptional
points (:func:`find_eps_k`, :func:`dimer_ep_zplane`), compute spectral
winding numbers (:func:`winding_number`, :func:`total_braid_index`), and
sweep parameter planes into phase diagrams (:func:`phase_diagram`).
"""

from . import errors
from .braid import (BraidWord, Permutation, concat, cyclic_canonical, exponent_sum,
                    extract_braid_word, free_reduce, induced_permutation, inverse,
                    word_from_text, word_to_text, words_cyclic_equal)
from .models import (BlochMatrix, DimerParams, FourierTerm, GenericParams, ModelSpec,
                     TrimerParams, bloch_matrix, bloch_matrix_z, characteristic_coefficients,
                     model_from_json, model_to_json)
from .spectrum import (BandTrajectory, dimer_bands_analytic, eigenvalues, riemann_loop,
                       solve_cubic, track_bands)
from .topology import (AxisSpec, BraidIndex, ExceptionalPoint, PhaseCell, PhaseDiagram,
                       WindingResult, dimer_ep_lines, dimer_ep_zplane, discriminant,
                       ep_zplane_numeric, find_eps_k, gamma_axis_references,
                       most_degenerate_point, phase_diagram, reference_energies,
                       total_braid_index, winding_number,
                       zone_boundary_degeneracy_residual)

__version__ = "0.1.0"

__all__ = [
    "errors",
    # models
    "DimerParams", "TrimerParams", "GenericParams", "FourierTerm", "ModelSpec",
    "BlochMatrix", "bloch_matrix", "bloch_matrix_z", "characteristic_coefficients",
    "model_from_json", "model_to_json",
    # spectrum
    "dimer_bands_analytic", "solve_cubic", "eigenvalues", "BandTrajectory", "track_bands",
    "riemann_loop",
    # braid
    "BraidWord", "Permutation", "extract_braid_word", "induced_permutation",
    "concat", "inverse", "free_reduce", "exponent_sum", "cyclic_canonical",
    "words_cyclic_equal", "word_to_text", "word_from_text",
    # topology
    "discriminant", "dimer_ep_lines", "dimer_ep_zplane", "zone_boundary_degeneracy_residual",
    "ExceptionalPoint", "find_eps_k", "most_degenerate_point", "ep_zplane_numeric",
    "WindingResult", "winding_number", "BraidIndex", "gamma_axis_references",
    "reference_energies", "total_braid_index", "AxisSpec", "PhaseCell",
    "PhaseDiagram", "phase_diagram",
]
