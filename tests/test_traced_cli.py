"""The benchmark's tracer wraps package functions by name from outside the
package; a rename must fail here rather than silently empty the trace."""

import importlib.util
import sys
from pathlib import Path

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


def test_rd_steady_trace_sees_every_build_in_the_loop(monkeypatch, capsys):
    # every representation is built inside the truncation span, so
    # final_round_s starts at the last round's build
    traced = _load()
    _undo_on_exit(monkeypatch)
    builds = []
    real = ansatz.rd_representation

    def recorded(*args):
        builds.append(args[-1])
        return real(*args)

    monkeypatch.setattr(ansatz, "rd_representation", recorded)
    tracer = traced.Tracer()
    tracer.install()
    code = traced.exclusion.cli.main(["steady", "--model", "rd", "--L", "3",
                                      "--method", "ansatz"])
    assert code == 0
    capsys.readouterr()
    calls = {name: agg[0] for name, agg in tracer.names.items()}
    edges = {edge: agg[0] for edge, agg in tracer.edges.items()}
    assert calls["ansatz.truncation"] == 1
    assert tracer.counters["N_final_sum"] == builds[-1]
    assert edges["ansatz.truncation>ansatz.rd_representation"] == \
        calls["ansatz.rd_representation"] == len(builds)
    assert "cli>ansatz.rd_representation" not in edges


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
