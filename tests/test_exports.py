"""The package's public names resolve on first use, each to the object its
submodule defines, and ``import exclusion`` by itself loads no submodule."""

import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import exclusion as ex

# the names the package exports, by submodule
EXPORTED = {
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
    "ansatz": ("MPRepresentation", "MonodromyRealization", "RDRepresentation",
               "gz_relations", "inhomogeneous_state", "rd_closed_forms",
               "rd_representation", "steady_ansatz", "steady_from_ansatz",
               "tasep_representation", "zf_relations"),
}
NAMES = [(module, name) for module, names in EXPORTED.items()
         for name in names]


def test_every_exported_name_is_in_all():
    assert sorted(ex.__all__) == sorted(name for _, name in NAMES)
    assert ex.__version__ == "0.1.0"


def test_each_name_resolves_to_its_submodules_object():
    for module, name in NAMES:
        assert getattr(ex, name) is getattr(
            import_module(f"exclusion.{module}"), name), name
        assert name in dir(ex), name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from exclusion import *", namespace)
    for module, name in NAMES:
        assert namespace[name] is getattr(
            import_module(f"exclusion.{module}"), name), name


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        ex.no_such_name
    assert not hasattr(ex, "verifier_suite")


def test_import_loads_no_submodule_until_a_name_is_used():
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import sys, exclusion\n"
             "def loaded(): return sorted(m for m in sys.modules "
             "if m.startswith('exclusion.'))\n"
             "print(loaded()); exclusion.build_markov; print(loaded())")
    done = subprocess.run([sys.executable, "-S", "-c", probe],
                          env={"PYTHONPATH": str(src)}, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.splitlines() == [
        "[]", "['exclusion.markov', 'exclusion.models', 'exclusion.scalars', "
        "'exclusion.tensor']"]
