"""The package's modules import only from the layers below them, use
every name they import, and only its input boundaries catch errors.

Every import statement, at any depth (inside functions too), of every
module in ``src/qjacobi`` is read with ``ast`` and checked against one
table of allowed edges, and each name it binds against the names the
module reads.  Every ``except`` clause is read the same way,
and the functions that hold one are one fixed set.
"""

import ast
import inspect
from pathlib import Path

from qjacobi.ncalg import substitute

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qjacobi"

_LOWER = {"jsontext", "hseries", "ncalg", "deformation"}

# Module -> the package modules it may import; None means any.
ALLOWED = {
    "ncalg": set(),
    "jsontext": set(),
    "hseries": {"ncalg"},
    "matrices": {"ncalg"},
    "deformation": _LOWER,
    "psiengine": _LOWER,
    "transport": _LOWER,
    "liealg": _LOWER | {"matrices"},
    "cli": None,
    "__init__": {"ncalg"},
    "__main__": {"cli"},
}


def package_imports(path: Path) -> dict[str, set[str]]:
    """Package module -> the names imported from it, for every import in
    the file; a module imported whole maps to the empty set."""
    found: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse(path.read_text("utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == "qjacobi" and rest:
                    found.setdefault(rest.split(".")[0], set())
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                module = node.module
            elif node.module and node.module.startswith("qjacobi"):
                module = node.module.partition(".")[2] or None
            else:
                continue
            if module is None:
                # from . import jsontext: each name is a module.
                for alias in node.names:
                    found.setdefault(alias.name, set())
            else:
                found.setdefault(module.split(".")[0], set()).update(a.name for a in node.names)
    return found


def test_every_module_has_a_layer():
    assert {path.stem for path in PACKAGE.glob("*.py")} == set(ALLOWED)


def test_imports_point_down_only():
    for path in sorted(PACKAGE.glob("*.py")):
        allowed = ALLOWED[path.stem]
        if allowed is None:
            continue
        imported = set(package_imports(path))
        assert imported <= allowed, f"{path.stem} imports {sorted(imported - allowed)}"


def test_transport_evaluates_no_words_in_matrices():
    imports = package_imports(PACKAGE / "transport.py")
    assert "matrices" not in imports
    assert "substitute" not in imports.get("ncalg", set())


def test_substitute_takes_a_polynomial_and_images_only():
    assert list(inspect.signature(substitute).parameters) == ["p", "images"]
    assert "hseries" not in package_imports(PACKAGE / "ncalg.py")


def test_the_reader_sees_imports_at_any_depth(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "import json\n"
        "from . import jsontext\n"
        "from .ncalg import Scalar, substitute\n"
        "import qjacobi.matrices\n"
        "from qjacobi.liealg import build_algebra\n"
        "def f():\n"
        "    from .hseries import HSeries\n"
        "    class C:\n"
        "        def g(self):\n"
        "            from .psiengine import PSI_ALPHABET\n",
        "utf-8",
    )
    assert package_imports(source) == {
        "jsontext": set(),
        "ncalg": {"Scalar", "substitute"},
        "matrices": set(),
        "liealg": {"build_algebra"},
        "hseries": {"HSeries"},
        "psiengine": {"PSI_ALPHABET"},
    }


def unused_imports(path: Path) -> set[str]:
    """The names bound by an import statement in the file, at any depth,
    that no name in the file reads and ``__all__`` does not list;
    ``from __future__ import annotations`` binds nothing."""
    tree = ast.parse(path.read_text("utf-8"))
    bound: set[str] = set()
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return bound - used


def test_every_module_uses_what_it_imports():
    found = {path.stem: unused_imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {module: names for module, names in found.items() if names} == {}


def test_the_unused_import_reader_counts_names_and_all(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from fractions import Fraction\n"
        "from .ncalg import Kept, Scalar, _lowest\n"
        "__all__ = ['Kept']\n"
        "def f(x: Scalar):\n"
        "    from math import gcd, lcm\n"
        "    return os.path.join(gcd(x, 2))\n",
        "utf-8",
    )
    assert unused_imports(source) == {"js", "Fraction", "_lowest", "lcm"}


def test_liealg_leaves_the_matrix_store_to_matrices():
    # liealg builds its operators from SparseMatrix's public methods and
    # kron; how a matrix stores its entries is private to matrices.
    source = PACKAGE / "liealg.py"
    attributes = {node.attr for node in ast.walk(ast.parse(source.read_text("utf-8")))
                  if isinstance(node, ast.Attribute)}
    assert not attributes & {"numerators", "_numerators", "from_numerators", "_parts"}
    # _krylov stays: spectral_report reuses the Krylov powers for its
    # annihilates check.  Evaluating the polynomial at Omega by Horner's
    # rule instead cost about 1.6 ms more on a 7.6 ms sl3 report
    # (Python 3.11, 2 shared CPUs, best of 15).
    assert package_imports(source)["matrices"] == {"SparseMatrix", "kron", "_krylov"}


def _evictions(tree: ast.AST) -> list[ast.Delete]:
    """The ``del store[next(iter(store))]`` statements under ``tree``."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Delete)
            and any(isinstance(t, ast.Subscript) and ast.unparse(t.slice).startswith("next(iter(")
                    for t in node.targets)]


def test_no_module_binds_an_empty_store():
    # Whatever a process keeps is in a bounded ncalg.Kept store, so no
    # module binds an empty container at module level.
    empty = {"{}", "[]", "dict()", "set()", "list()"}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text("utf-8")).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                assert ast.unparse(node.value) not in empty, f"{path.stem}: {ast.unparse(node)}"


def test_only_kept_forgets_the_entry_used_longest_ago():
    evictions = sum(len(_evictions(ast.parse(path.read_text("utf-8")))) for path in PACKAGE.glob("*.py"))
    ncalg = ast.parse((PACKAGE / "ncalg.py").read_text("utf-8"))
    (kept,) = [node for node in ncalg.body if isinstance(node, ast.ClassDef) and node.name == "Kept"]
    assert evictions == len(_evictions(kept)) == 1


def handlers(path: Path) -> set[str]:
    """The qualified names (``Class.method``, ``outer.inner``) of the
    functions and classes whose own body, outside any nested one, holds
    an ``except`` clause; a clause outside all of them counts as
    ``<module>``."""
    found: set[str] = set()

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.ExceptHandler):
                found.add(scope or "<module>")
            visit(child, scope)

    visit(ast.parse(path.read_text("utf-8")), "")
    return found


# An error passes through every layer to cli.main, where its class alone
# gives the exit code.  Only these functions catch one: where input is
# read (a file, a document, a numeral, an argument) and turned into the
# input's own error, where output is written, and main itself.
CATCHING = {
    "cli": {"_emit", "_order_at_least.order", "main"},
    "deformation": {"EkTable.entry", "parse_table", "load_table"},
    "jsontext": {"loads", "_write"},
    "liealg": {"_frac", "_parse_algebra", "_load_algebra"},
    "ncalg": {"_parse_term"},
}


def test_only_input_boundaries_catch_errors():
    found = {path.stem: handlers(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {module: names for module, names in found.items() if names} == CATCHING


def test_the_handler_reader_names_the_innermost_function(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "try:\n    import json\nexcept ImportError:\n    pass\n"
        "def plain():\n    return 1\n"
        "def outer():\n"
        "    def inner():\n        try:\n            pass\n        except ValueError:\n            pass\n"
        "    return inner\n"
        "class C:\n"
        "    def m(self):\n        try:\n            pass\n        finally:\n            pass\n"
        "    def n(self):\n        with open(self) as f:\n            try:\n                pass\n"
        "            except OSError:\n                pass\n",
        "utf-8",
    )
    assert handlers(source) == {"<module>", "outer.inner", "C.n"}
