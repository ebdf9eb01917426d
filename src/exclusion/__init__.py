"""Exact integrable-structure toolkit for open-boundary exclusion processes.

Four models (ASEP, TASEP, SSEP and a reaction-diffusion chain) with their
R-matrices, boundary K-matrices, double-row transfer matrices and
matrix-product steady states, verified pointwise over exact rationals
against brute-force Markov-chain oracles.
"""

from .models import ASEP, MODEL_NAMES, RD, SSEP, TASEP, ModelDescriptor, \
    UnsupportedError, asep, general_asep_k, k_matrix, kbar_from_ktilde, \
    ktilde_from_kbar, local_operators, markov_vector, r_matrix, rd, ssep, tasep
from .markov import Distribution, KernelError, build_markov, evolve, \
    observables, steady_state_exact
from .scalars import Dual, format_rational, parse_rational
from .tensor import Matrix, PoleError, SparseMatrix, derivative_at, \
    exact_nullspace, kron, partial_trace_first, partial_transpose, permutation_op
from .transfer import TransferSpec, build_transfer, check_commutation, \
    check_crossing_symmetry_t, check_eigenpair, lambda_eigenvalue, \
    markov_from_transfer, ssep_conjugated
from .ansatz import MPRepresentation, MonodromyRealization, RDRepresentation, \
    check_gz, check_zf, \
    inhomogeneous_state, rd_closed_forms, rd_representation, steady_ansatz, \
    steady_from_ansatz, tasep_representation

__version__ = "0.1.0"
