"""Exact integrable-structure toolkit for open-boundary exclusion processes.

Four models (ASEP, TASEP, SSEP and a reaction-diffusion chain) with their
R-matrices, boundary K-matrices, double-row transfer matrices and
matrix-product steady states, verified pointwise over exact rationals
against brute-force Markov-chain oracles.

The names below resolve on first use (PEP 562): ``import exclusion`` loads
no submodule, and ``exclusion.build_markov`` loads ``exclusion.markov``.
"""

# submodule -> the names the package exports from it
_EXPORTS = {
    "models": ("ASEP", "MODEL_NAMES", "RD", "SSEP", "TASEP",
               "ModelDescriptor", "UnsupportedError", "asep", "general_asep_k",
               "k_matrix", "kbar_from_ktilde", "ktilde_from_kbar",
               "local_operators", "markov_vector", "r_matrix", "rd", "ssep",
               "tasep"),
    "markov": ("Distribution", "KernelError", "build_markov", "evolve",
               "observables", "steady_state_exact"),
    "scalars": ("format_rational", "parse_rational"),
    "tensor": ("PoleError", "SparseMatrix", "exact_nullspace", "kron",
               "partial_trace_first", "partial_transpose", "permutation_op"),
    "transfer": ("TransferSpec", "build_transfer", "check_commutation",
                 "check_crossing_symmetry_t", "check_eigenpair",
                 "lambda_eigenvalue", "markov_from_transfer",
                 "ssep_conjugated"),
    "ansatz": ("MPRepresentation", "MonodromyRealization", "gz_relations",
               "inhomogeneous_state", "rd_closed_forms", "steady_ansatz",
               "steady_from_ansatz", "tasep_representation", "zf_relations"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value     # later lookups skip __getattr__
    return value


def __dir__():
    return sorted({*globals(), *__all__})
