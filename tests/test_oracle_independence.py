"""The oracles stay independent of the code paths they check.

The oracles are the reference arithmetic of tests/reference.py, the
``_..._oracle...`` helpers of the test modules and the benchmark's output
checks in perfbench/oracles.py.  They may call only the package names on
ALLOWED, each for the reason given there.

Calls are found by name in the source: a call of a name imported from the
package, or of an attribute chain or subscript that starts at one
(``m.r_matrix``, ``m._K_FORMS[kind]``, ``SparseMatrix.__mul__``).  An
operator such as ``a * b`` on a package object, or a method of an object an
oracle was handed, is not seen: the reference arithmetic reads its operands
through ``get``, ``items`` and ``_rows`` and multiplies their entries
itself."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# package name -> why an oracle may call it
ALLOWED = {
    "exclusion.models.r_matrix":
        "the R(x) factors an oracle multiplies out, read as entries, so "
        "that a test's stand-in for R is seen",
    "exclusion.models.k_matrix":
        "the K(x) factors, likewise",
    "exclusion.models._r_matrix":
        "the closed-form rows of R, over Fractions and over dual numbers, "
        "that the compiled form of R and its derivative pair are checked "
        "against",
    "exclusion.models._K_FORMS":
        "the closed-form rows of K, Kbar and Ktilde, likewise",
    "exclusion.models.markov_vector":
        "v(x) of the monodromy realization, a closed-form scalar pair",
    "exclusion.models.local_operators":
        "w, B and Bbar of the GZ residuals, the model's own rate matrices",
    "exclusion.tensor.SparseMatrix":
        "wraps an oracle's finished entry rows, so that they compare with "
        "== against the package's result; no oracle arithmetic runs on it",
    "exclusion.ansatz.rd_closed_forms":
        "the reference of the RD profile and of the current balance, as "
        "perfbench/oracles.py says",
}


def _bound(tree) -> dict:
    """Each name a module binds by importing from the package -> the
    dotted package name it stands for."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "exclusion":
                    bound[alias.asname or "exclusion"] = \
                        alias.name if alias.asname else "exclusion"
        elif isinstance(node, ast.ImportFrom) and \
                (node.module or "").split(".")[0] == "exclusion":
            for alias in node.names:
                bound[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
    return bound


def _callees(func, bound):
    """The package names a call's function expression stands for."""
    if isinstance(func, ast.IfExp):
        yield from _callees(func.body, bound)
        yield from _callees(func.orelse, bound)
        return
    parts = []
    while isinstance(func, (ast.Attribute, ast.Subscript)):
        if isinstance(func, ast.Attribute):
            parts.append(func.attr)
        func = func.value
    if isinstance(func, ast.Name) and func.id in bound:
        yield ".".join([bound[func.id], *reversed(parts)])


def package_calls(source: str, only_oracle_helpers: bool) -> set:
    """The package names the source calls: in the whole module, or only in
    its helpers, the functions named _..._oracle..."""
    tree = ast.parse(source)
    bound = _bound(tree)
    scopes = [node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name.startswith("_") and "oracle" in node.name] \
        if only_oracle_helpers else [tree]
    return {name for scope in scopes for node in ast.walk(scope)
            if isinstance(node, ast.Call)
            for name in _callees(node.func, bound)}


def _oracle_sources():
    yield ROOT / "tests" / "reference.py", False
    yield ROOT / "perfbench" / "oracles.py", False
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        yield path, True


def test_oracles_call_only_the_allowed_package_names():
    calls = {}
    for path, helpers in _oracle_sources():
        for name in package_calls(path.read_text(), helpers):
            calls.setdefault(name, []).append(path.name)
    assert {name: files for name, files in calls.items()
            if name not in ALLOWED} == {}
    assert "rd_closed_forms" in str(calls)   # the scan sees the oracles


def test_the_scan_sees_a_product_taken_by_the_package():
    # an oracle that multiplies through SparseMatrix.__mul__, called by
    # name, or through an aliased module, is refused
    for source in ("from exclusion.tensor import SparseMatrix\n"
                   "def rows_product(a, b):\n"
                   "    return SparseMatrix.__mul__(a, b)\n",
                   "import exclusion.tensor as t\n"
                   "def _oracle_product(a, b):\n"
                   "    return (t.kron if a else t.SparseMatrix.__mul__)(a, b)\n"):
        names = package_calls(source, source.startswith("import"))
        assert "exclusion.tensor.SparseMatrix.__mul__" in names
        assert not names <= ALLOWED.keys()
