"""Counted work is deterministic: the number of Python calls a job makes,
as cProfile counts them, does not depend on the hash seed.  A change in the
count of a job is then a change in the program, not in the host or the
interpreter, and counts can be compared across commits where times cannot.
No absolute count is pinned.

The count sums cProfile's raw entries, one per function.  ``pstats`` keys
its table by (file, line, name), so two comprehensions that open on one
line share a key there, and only one of their counts is kept: which one
depends on where the interpreter placed them in memory, so a pstats total
can differ between two runs of the same job."""

import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# one CLI job under cProfile in a fresh process: prints the exit code and
# the total call count; the job's own output is dropped
_COUNT = """
import contextlib, cProfile, io, sys
from exclusion.cli import main
profile = cProfile.Profile()
with contextlib.redirect_stdout(io.StringIO()):
    profile.enable()
    code = main(sys.argv[1:])
    profile.disable()
print(code, sum(entry.callcount for entry in profile.getstats()))
"""


def _counted(argv, hash_seed) -> list:
    # main imports modules as it needs them, and compiling one whose
    # bytecode cache is stale adds calls: neither run writes a cache, so
    # both see the same one
    done = subprocess.run(
        [sys.executable, "-c", _COUNT, *argv],
        env={"PYTHONPATH": str(SRC), "PYTHONHASHSEED": str(hash_seed),
             "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=120, check=True)
    return [int(v) for v in done.stdout.split()]


@pytest.mark.parametrize("argv", [
    ["verify", "--model", "asep", "--samples", "2", "--seed", "5"],
    ["steady", "--model", "rd", "--L", "4", "--method", "nullspace",
     "--exact"],
    # the derivative pairs, and the form cache keyed by model
    ["transfer", "--model", "rd", "--L", "3", "--check",
     "markov-derivative"],
    # the kron boundary row and column, and the 1 x 1 compare
    ["transfer", "--model", "ssep", "--L", "3", "--check", "conjugated"],
    # the exact RD ansatz: the moment ratios and the normal-ordered
    # contraction, then the exact eigenpair check (kappa = 3 puts a pole of
    # Ktilde at x = 1/2)
    ["steady", "--model", "rd", "--L", "4", "--method", "ansatz", "--exact"],
    ["transfer", "--model", "rd", "--kappa", "2", "--L", "3", "--theta",
     "2,5,7", "--check", "inhomogeneous-eigenvector"]],
    ids=["verify-asep", "steady-rd-nullspace", "transfer-rd-derivative",
         "transfer-ssep-conjugated", "steady-rd-ansatz",
         "transfer-rd-inhomogeneous"])
def test_call_counts_do_not_depend_on_the_hash_seed(argv):
    first, second = (_counted(argv, seed) for seed in (0, 1))
    assert first == second
    assert first[0] == 0 and first[1] > 1000
