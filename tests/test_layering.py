"""The package's modules import only from the layers below them.

Every import statement, at any depth (inside functions too), of every
module in ``src/qjacobi`` is read with ``ast`` and checked against one
table of allowed edges.
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
    "liealg": _LOWER | {"matrices", "psiengine"},
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
    assert package_imports(source)["matrices"] == {"MatrixError", "SparseMatrix", "kron", "_krylov"}
