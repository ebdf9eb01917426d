"""The benchmark's tracer wraps package functions by name from outside the
package; a rename must fail here rather than silently empty the trace."""

import importlib.util
import sys
from pathlib import Path

import pytest

from exclusion import ansatz, tensor

TRACED_CLI = Path(__file__).resolve().parents[1] / "perfbench" / "traced_cli.py"


def _load():
    spec = importlib.util.spec_from_file_location("traced_cli", TRACED_CLI)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)   # defines SPANS; install() is not called
    return module


def test_every_traced_name_resolves():
    traced = _load()
    missing = [(name, getattr(owner, "__name__", owner), attr)
               for name, targets in traced.SPANS.items()
               for owner, attr in targets if not callable(getattr(owner, attr, None))]
    assert not missing
    assert callable(getattr(traced.sampling, "model_safe", None))


def _undo_on_exit(monkeypatch):
    """Let monkeypatch restore every function the tracer will replace."""
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "exclusion" and mod is not None:
            for key, value in list(vars(mod).items()):
                if callable(value):
                    monkeypatch.setattr(mod, key, value)
    monkeypatch.setattr(tensor.SparseMatrix, "__mul__",
                        tensor.SparseMatrix.__mul__)


def test_transfer_trace_keeps_its_layers(monkeypatch, capsys):
    # each transfer matrix is built once through build_transfer, which
    # evaluates each of its 2L + 2 local factors once (r_matrix 2L,
    # k_matrix 2 times) and contracts them site by site; the commutation
    # check multiplies the two integer tables as SparseMatrix products
    traced = _load()
    _undo_on_exit(monkeypatch)
    tracer = traced.Tracer()
    tracer.install()
    code = traced.exclusion.cli.main(["transfer", "--model", "ssep", "--L", "3",
                                      "--check", "commutation"])
    assert code == 0
    assert '"pass": 1' in capsys.readouterr().out
    calls = {name: agg[0] for name, agg in tracer.names.items()}
    assert calls["transfer.build_transfer"] == 2
    assert calls["tensor.sparse_mul"] >= 1
    assert calls["models.r_matrix"] == 12
    assert calls["models.k_matrix"] == 4


@pytest.mark.parametrize("argv", [
    ["steady", "--model", "rd", "--L", "3", "--method", "ansatz"],
    ["transfer", "--model", "rd", "--kappa", "2", "--L", "2", "--theta",
     "2,5", "--check", "inhomogeneous-eigenvector"]],
    ids=["steady-ansatz", "inhomogeneous-eigenvector"])
def test_rd_ansatz_trace_records_one_contraction(monkeypatch, capsys, argv):
    # the exact RD state is one contraction under ansatz.contract; the
    # truncation span's two names are stubs that nothing calls, so its
    # counters, which read a round's N, stay at zero
    traced = _load()
    _undo_on_exit(monkeypatch)
    tracer = traced.Tracer()
    tracer.install()
    code = traced.exclusion.cli.main(argv)
    assert code == 0
    capsys.readouterr()
    calls = {name: agg[0] for name, agg in tracer.names.items()}
    assert calls["ansatz.contract"] == 1
    assert "ansatz.truncation" not in calls
    assert "ansatz.rd_representation" not in calls
    assert tracer.counters["truncation_runs"] == 0


def test_the_truncation_span_names_are_distinct_stubs():
    # the tracer swaps every binding that is the wrapped function, so an
    # alias of a live function would put the truncation span, or the
    # rd_representation span, on it: each stub is bound to its own name only
    stubs = (ansatz.rd_steady_converged, ansatz.rd_inhomogeneous_converged,
             ansatz.rd_representation)
    assert len(set(stubs)) == 3
    assert not {ansatz.steady_ansatz, ansatz.inhomogeneous_state,
                ansatz.zf_relations, ansatz.gz_relations} & set(stubs)
    for stub in stubs:
        assert [name for name, value in vars(ansatz).items()
                if value is stub] == [stub.__name__]
        with pytest.raises(NotImplementedError):
            stub()


def test_steady_trace_records_the_generator_build(monkeypatch, capsys):
    # the nullspace method builds its generator through build_markov, so
    # the traced span covers every generator build
    traced = _load()
    _undo_on_exit(monkeypatch)
    tracer = traced.Tracer()
    tracer.install()
    code = traced.exclusion.cli.main(["steady", "--model", "asep", "--L", "3",
                                      "--method", "nullspace"])
    assert code == 0
    capsys.readouterr()
    calls = {name: agg[0] for name, agg in tracer.names.items()}
    assert calls["markov.build_markov"] == 1
    assert calls["tensor.exact_nullspace"] == 1
