"""Every top-level definition and every method in the package is reached
from a CLI command or from a named library entry point; what only the tests
use lives in tests/.

The walk is by name: a reached definition reaches every name its body
mentions, bare or as an attribute, in any module, so a shared name counts
as a call.  A method other than a dunder is a definition of its own, reached
when its name is; a class reaches its bases, decorators, class attributes
and dunders.  That is crude, but a definition it leaves out is dead code.
The package's __init__ re-exports names and reaches nothing by itself."""

import ast
from pathlib import Path

from test_traced_cli import TRACED_CLI, _load

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "exclusion"

# reached by no CLI command: adding a name here is a deliberate decision
LIBRARY_ENTRY_POINTS = {
    # the ZF/GZ record families of the matrix ansatz and its monodromy
    # realisation
    "zf_relations", "gz_relations", "MonodromyRealization",
    # the exact RD closed forms, the oracle of rd_profile_rows
    "rd_closed_forms",
    # the one float routine: relaxation towards the steady state
    "evolve", "ApproxDistribution",
}


def _traced_names() -> set:
    """Every name the benchmark's tracer wraps or reads: SPANS, each literal
    name handed to its _replace, and each attribute it reads off a package
    module (``tensor.Matrix`` in an isinstance test, say)."""
    names = {attr for targets in _load().SPANS.values() for _, attr in targets}
    tree = ast.parse(TRACED_CLI.read_text())
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "exclusion"
               for alias in node.names}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and \
                getattr(node.func, "attr", None) == "_replace" and \
                isinstance(node.args[1], ast.Constant):
            names.add(node.args[1].value)
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and node.value.id in modules:
            names.add(node.attr)
    return names


def _mentions(node) -> set:
    """The names node mentions, bare or as an attribute.  A bare name that a
    function or lambda in node binds, as a parameter or an assignment
    target, is a local of it and mentions nothing."""
    local = set()
    for fn in ast.walk(node):
        if isinstance(fn, (ast.FunctionDef, ast.Lambda)):
            local |= {a.arg for a in ast.walk(fn.args)
                      if isinstance(a, ast.arg)}
            local |= {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)
                      and isinstance(n.ctx, ast.Store)}
    return {n.attr if isinstance(n, ast.Attribute) else n.id
            for n in ast.walk(node) if isinstance(n, ast.Attribute) or
            isinstance(n, ast.Name) and n.id not in local}


def _is_method(node) -> bool:
    return isinstance(node, ast.FunctionDef) and \
        not (node.name.startswith("__") and node.name.endswith("__"))


def _definitions():
    """(module, qualified name) -> (name, the names its body mentions), and
    the names that the modules' other top-level statements mention as they
    run.  A method's qualified name is Class.method."""
    defs, run = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                methods = [n for n in node.body if _is_method(n)]
                for meth in methods:
                    defs[path.stem, f"{node.name}.{meth.name}"] = \
                        meth.name, _mentions(meth)
                defs[path.stem, node.name] = node.name, set().union(*(
                    _mentions(n) for n in (*node.bases, *node.keywords,
                                           *node.decorator_list, *node.body)
                    if n not in methods))
                continue
            if isinstance(node, ast.FunctionDef):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            else:
                run |= _mentions(node)
                continue
            for name in names:
                defs[path.stem, name] = name, _mentions(node)
    return defs, run


def _reached(defs, roots) -> set:
    reached, todo = set(), set(roots)
    while todo:
        name = todo.pop()
        reached.add(name)
        for def_name, mentions in defs.values():
            if def_name == name:
                todo |= mentions - reached
    return reached


def test_every_definition_is_reached_from_the_cli_or_an_entry_point():
    defs, run = _definitions()
    commands = {name for module, name in defs
                if module == "cli" and name.startswith("cmd_")}
    assert len(commands) == 5
    traced = _traced_names()
    entry_points = LIBRARY_ENTRY_POINTS | traced
    defined = {name for name, _ in defs.values()}
    # each entry point names a top-level definition (SparseMatrix.__mul__
    # is a method), so a rename shows here
    assert entry_points - {"__mul__"} <= defined
    reached = _reached(defs, commands | entry_points | run)
    unreached = sorted(f"{module}.{qualified}"
                       for (module, qualified), (name, _) in defs.items()
                       if name not in reached)
    assert unreached == []


def test_no_module_imports_an_unused_name():
    # a name bound by a top-level import must be mentioned elsewhere in its
    # module; __future__'s annotations works by being imported
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        body = ast.parse(path.read_text()).body
        imports = [node for node in body
                   if isinstance(node, (ast.Import, ast.ImportFrom))]
        bound = {(alias.asname or alias.name).split(".")[0]
                 for node in imports for alias in node.names} - {"annotations"}
        used = set().union(*(_mentions(n) for n in body if n not in imports))
        unused += sorted(f"{path.stem}.{name}" for name in bound - used)
    assert unused == []
