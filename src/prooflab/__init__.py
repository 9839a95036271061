"""Polynomial-time propositional proof systems over exact arithmetic:
Horn and width-k resolution, degree-k (monomial-)polynomial calculus,
with CFI/isomorphism/game/CSP instance encoders and experiment drivers."""

from .algebra import Field, Matrix, RATIONALS, Vector, compress_image, gauss_solve, \
    gram_solvable, kernel_generators, orbit_solve
from .cfi import BASE_LIBRARY, CfiBase, CfiStructure, apply_shift, automorphism_space, \
    build_cfi, cfi_isomorphic, coordinate_orbits, to_graph, treewidth, twisted_pair
from .encoders import encode_iso_cnf, encode_iso_poly, encode_iso_poly_colored, \
    encode_kconsistency_cnf, encode_nonreach, k_consistency
from .errors import DegreeOverflowError, UnsupportedFieldError, UsageError
from .games import ThresholdGame, encode_threshold_axioms, intended_model, \
    solve_threshold_game
from .logic import LfpFormula, RelStructure, eval_poslfp, horn_encode, parse_formula
from .pc import Basis, Monomial, Polynomial, PolySystem, degree_sweep, \
    min_refutation_degree, monpc_extend, monpc_saturate, multlin, pc_saturate
from .resolution import CnfFormula, horn_refute, kres_refutes, kres_saturate, \
    read_dimacs, two_sat_oracle, write_dimacs
from .wl import ColoredGraph, wl_distinguishes, wl_sweep

__version__ = "0.1.0"
