"""The benchmark's tracer wraps package functions by name from outside the
package; a rename must fail here rather than silently empty the trace."""

import importlib.util
from pathlib import Path

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
