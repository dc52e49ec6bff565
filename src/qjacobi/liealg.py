"""Exact matrix models of semisimple Lie algebras and their tensor operators.

A Lie algebra is given by rational structure constants; every derived
object (adjoint matrices, the Killing form, the dual Casimir tensor, the
bracket map on the double tensor space, the flip and the two-site
Casimir operator) is assembled as an exact sparse matrix.  The classical
antisymmetry, Jacobi and braid identities, and the braiding relation of
the exponential with a formal ipi constant, are then literal matrix
equalities.  A report on an algebra's operators reads them alone, so it
is kept on its :class:`TensorOps` instance: a shared preset builds each
report once per process.

Tensor index convention: basis vector i (x) j of the double space sits
at position i*d + j (row-major), and likewise for triple spaces.
"""

from __future__ import annotations

import functools
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from types import MappingProxyType
from typing import Mapping

from . import jsontext
from .hseries import HSeries
from .matrices import MatrixError, SparseMatrix, _krylov, kron
from .ncalg import Kept, NCPoly, Scalar, substitute
from .psiengine import PSI_ALPHABET

__all__ = [
    "AlgebraError",
    "LieAlgebraData",
    "TensorOps",
    "algebra_ops",
    "algebra_to_json",
    "build_algebra",
    "build_tensor_ops",
    "eval_series",
    "omega_report",
    "spectral_report",
    "structure_report",
    "verify_classical",
    "verify_sigma_rmatrix",
]


class AlgebraError(ValueError):
    """Structure constants that fail antisymmetry, Jacobi, or the
    semisimplicity (Killing nondegeneracy) check."""


@dataclass(frozen=True)
class LieAlgebraData:
    """Basis labels and sparse structure constants [x_i, x_j] = sum c_ijk x_k.

    The brackets and each of their rows are stored as read-only views of
    copies, so an algebra that :func:`algebra_ops` shares cannot change
    under one caller."""

    dim: int
    basis_names: tuple[str, ...]
    structure: Mapping[tuple[int, int], Mapping[int, Fraction]]
    name: str = "custom"

    def __post_init__(self):
        frozen = {key: MappingProxyType(dict(row)) for key, row in self.structure.items()}
        object.__setattr__(self, "structure", MappingProxyType(frozen))

    def bracket(self, i: int, j: int) -> Mapping[int, Fraction]:
        return self.structure.get((i, j), {})

    def ad(self, i: int) -> SparseMatrix:
        """Matrix of ad x_i acting on the algebra itself."""
        entries = []
        for j in range(self.dim):
            for k, c in self.bracket(i, j).items():
                entries.append((k, j, c))
        return SparseMatrix(self.dim, self.dim, entries)

    def killing(self) -> SparseMatrix:
        """The Killing form, K_ij = tr(ad x_i ad x_j)."""
        ads = [self.ad(i) for i in range(self.dim)]
        return SparseMatrix(self.dim, self.dim, [
            (i, j, (x * y).trace()) for i, x in enumerate(ads) for j, y in enumerate(ads)
        ])


def _validate_algebra(alg: LieAlgebraData) -> tuple[dict[str, SparseMatrix], SparseMatrix]:
    """Range checks, then antisymmetry and Jacobi as the 3.1 and 3.2
    equalities, then Killing nondegeneracy; returns the bracket maps and
    the inverse Killing form the checks built, for :func:`build_tensor_ops`.

    Given antisymmetry, the 3.2 column of x_i (x) x_j (x) x_k is exactly
    the cyclic Jacobi sum of that triple, so the first differing column
    of each side names a failing bracket or triple.
    """
    d = alg.dim
    for (i, j), row in alg.structure.items():
        if not (0 <= i < d and 0 <= j < d):
            raise AlgebraError(f"bracket ({i}, {j}) outside the basis range")
        for k in row:
            if not 0 <= k < d:
                raise AlgebraError(f"bracket ({i}, {j}) targets unknown basis index {k}")
    maps = _bracket_maps(alg)
    messages = ("antisymmetry fails at [{}, {}]", "Jacobi identity fails at ({}, {}, {})")
    # zip stops at the messages, so the 3.3 sides are never built here.
    for message, (_, lhs, rhs) in zip(messages, _classical_sides(**maps)):
        diff = lhs.first_difference(rhs)
        if diff is not None:
            col, places = diff[1], reversed(range(message.count("{}")))
            raise AlgebraError(message.format(*(alg.basis_names[col // d ** p % d] for p in places)))
    killing = alg.killing()
    try:
        kinv = killing.inverse()
    except MatrixError:
        raise AlgebraError("Killing form is degenerate: the algebra is not semisimple") from None
    return maps, kinv


def _sl2() -> LieAlgebraData:
    # Basis (e, h, f) with [h, e] = 2e, [h, f] = -2f, [e, f] = h.
    two = Fraction(2)
    structure = {
        (1, 0): {0: two},
        (0, 1): {0: -two},
        (1, 2): {2: -two},
        (2, 1): {2: two},
        (0, 2): {1: Fraction(1)},
        (2, 0): {1: Fraction(-1)},
    }
    return LieAlgebraData(3, ("e", "h", "f"), structure, name="sl2")


def _sl_n(n: int) -> LieAlgebraData:
    """sl(n) from its defining matrices: E_ab off the diagonal, then the
    differences of consecutive diagonal units.  Each basis element is a
    dict of elementary-matrix coefficients, and brackets follow
    [E_ab, E_cd] = delta_bc E_ad - delta_da E_cb."""
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    names = tuple(f"E{a + 1}{b + 1}" for a, b in pairs) + tuple(f"h{i + 1}" for i in range(n - 1))
    basis = [{(a, b): 1} for a, b in pairs]
    basis += [{(i, i): 1, (i + 1, i + 1): -1} for i in range(n - 1)]

    def commutator(x: dict, y: dict) -> dict[tuple[int, int], int]:
        out: dict[tuple[int, int], int] = {}
        for (a, b), u in x.items():
            for (c, d), v in y.items():
                if b == c:
                    out[(a, d)] = out.get((a, d), 0) + u * v
                if d == a:
                    out[(c, b)] = out.get((c, b), 0) - u * v
        return {ab: v for ab, v in out.items() if v}

    def decompose(cells: dict[tuple[int, int], int]) -> dict[int, Fraction]:
        coeffs = {idx: Fraction(cells[ab]) for idx, ab in enumerate(pairs) if ab in cells}
        partial = Fraction(0)
        for i in range(n - 1):
            partial += cells.get((i, i), 0)
            if partial:
                coeffs[len(pairs) + i] = partial
        return coeffs

    structure: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i, x in enumerate(basis):
        for j, y in enumerate(basis):
            coeffs = decompose(commutator(x, y)) if i != j else {}
            if coeffs:
                structure[(i, j)] = coeffs
    return LieAlgebraData(len(basis), names, structure, name=f"sl{n}")


_PRESETS = {"sl2": _sl2, "sl3": lambda: _sl_n(3)}


_COEFF_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _frac(value) -> Fraction:
    if type(value) is int:
        return Fraction(value)
    if not isinstance(value, str):
        raise AlgebraError(f"structure coefficients must be exact, got {type(value).__name__}")
    if not _COEFF_RE.fullmatch(value):
        raise AlgebraError(f"bad structure coefficient {value!r}: write an integer or p/q")
    try:
        return Fraction(value)
    except ZeroDivisionError as exc:
        raise AlgebraError(f"bad structure coefficient {value!r}: {exc}") from exc


def _index(value) -> int:
    if type(value) is not int:
        raise AlgebraError(f"basis index {value!r} is not an integer")
    return value


def _parse_algebra(doc: dict, name: str) -> LieAlgebraData:
    """The algebra a document states, checked for types but not yet
    validated as a Lie algebra."""
    if not isinstance(doc, dict):
        raise AlgebraError(f"an algebra document is a JSON object, got {type(doc).__name__}")
    for key in ("dim", "basis", "brackets"):
        if key not in doc:
            raise AlgebraError(f"algebra document has no {key!r} field")
    dim, basis, brackets = doc["dim"], doc["basis"], doc["brackets"]
    if type(dim) is not int:
        raise AlgebraError(f"dim must be an integer, got {type(dim).__name__}")
    if dim < 1:
        raise AlgebraError("dim must be positive")
    if not isinstance(basis, list) or not all(isinstance(x, str) for x in basis):
        raise AlgebraError("basis must be a list of label strings")
    if not isinstance(brackets, list):
        raise AlgebraError(f"brackets must be a list, got {type(brackets).__name__}")
    if len(basis) != dim:
        raise AlgebraError("basis label count does not match dim")
    repeated = [x for x, n in Counter(basis).items() if n > 1]
    if repeated:
        raise AlgebraError(f"basis label {repeated[0]!r} is repeated")
    structure: dict[tuple[int, int], dict[int, Fraction]] = {}
    for item in brackets:
        if not isinstance(item, list) or len(item) != 3:
            raise AlgebraError(f"malformed bracket entry {item!r}: write [i, j, [[k, c], ...]]")
        if not isinstance(item[2], list) or not all(isinstance(t, list) and len(t) == 2 for t in item[2]):
            raise AlgebraError(f"malformed bracket entry {item!r}: each target is a [k, c] pair")
        try:
            i, j = _index(item[0]), _index(item[1])
            row = [(_index(k), _frac(v)) for k, v in item[2]]
        except ValueError as exc:
            raise AlgebraError(f"malformed bracket entry {item!r}: {exc}") from exc
        # A repeated pair or target would leave the later copy in force.
        if len({k for k, _ in row}) != len(row):
            raise AlgebraError(f"bracket entry {item!r} states a target index twice")
        if (i, j) in structure:
            raise AlgebraError(f"bracket ({i}, {j}) is stated twice")
        structure[(i, j)] = {k: v for k, v in row if v}
    # Fill unstated mirror brackets by antisymmetry; stated ones are
    # validated as given.
    for (i, j), row in list(structure.items()):
        if (j, i) not in structure:
            structure[(j, i)] = {k: -v for k, v in row.items()}
    return LieAlgebraData(dim, tuple(basis), structure, name=name)


def algebra_to_json(alg: LieAlgebraData) -> dict:
    """Dump structure constants in the interchange file layout."""
    brackets = []
    for (i, j) in sorted(alg.structure):
        row = alg.structure[(i, j)]
        if row:
            brackets.append([i, j, [[k, str(row[k])] for k in sorted(row)]])
    return {"dim": alg.dim, "basis": list(alg.basis_names), "brackets": brackets}


def _load_algebra(spec) -> LieAlgebraData:
    """The algebra ``spec`` names, checked for types but not yet validated."""
    if isinstance(spec, dict):
        alg = _parse_algebra(spec, "custom")
    elif spec in _PRESETS:
        alg = _PRESETS[spec]()
    else:
        try:
            with open(spec, "rb") as handle:
                doc = jsontext.loads(handle.read())
        except OSError as exc:
            raise AlgebraError(f"cannot read algebra file: {exc}") from exc
        except jsontext.DuplicateKeyError as exc:
            raise AlgebraError(f"{exc} in algebra file") from None
        except jsontext.DocumentError as exc:
            raise AlgebraError(f"cannot parse algebra file: {exc}") from None
        alg = _parse_algebra(doc, str(spec))
    return alg


def build_algebra(spec) -> LieAlgebraData:
    """Build a validated algebra from a preset name, a JSON file path, or
    an already-parsed document."""
    alg = _load_algebra(spec)
    _validate_algebra(alg)
    return alg


def algebra_ops(spec) -> TensorOps:
    """The tensor operators of the algebra :func:`build_algebra` builds
    from ``spec``, validated once, inside :func:`build_tensor_ops`.

    A preset name is built and validated the first time a process asks
    for it, and every later call returns that same frozen instance.  A
    file path or a document is read, built and validated on every call:
    a file can change between calls.
    """
    if isinstance(spec, str) and spec in _PRESETS:
        return _preset_ops(spec)
    return build_tensor_ops(_load_algebra(spec))


@functools.cache
def _preset_ops(name: str) -> TensorOps:
    return build_tensor_ops(_PRESETS[name]())


@dataclass(frozen=True)
class TensorOps:
    """The derived tensor operators of one algebra, all exact.  It is
    frozen and :class:`SparseMatrix` has no mutating method, so one
    instance can be shared: :func:`algebra_ops` shares each preset's.

    A report on the operators reads them alone, so an instance keeps
    :data:`KEPT_OPS_REPORTS` reports built on it (:func:`verify_classical`,
    :func:`structure_report`, :func:`verify_sigma_rmatrix` per order,
    :func:`omega_report`) in a :class:`~qjacobi.ncalg.Kept` store, not a
    field: a preset builds each once per process, a file algebra keeps
    none past its call, two instances compare by their operators alone and
    :func:`dataclasses.replace` starts with none.
    """

    alg: LieAlgebraData
    ad: tuple[SparseMatrix, ...]
    T: SparseMatrix          # bracket, double space -> algebra
    sigma: SparseMatrix      # flip on the double space
    T1: SparseMatrix         # T (x) 1, triple space -> double space
    T2: SparseMatrix         # 1 (x) T
    t_vec: SparseMatrix      # dual Casimir tensor as a column vector
    t_action: SparseMatrix   # Casimir tensor acting through the adjoint
    Omega: SparseMatrix      # -(T (x) T) o (1 (x) t (x) 1)
    sigma12: SparseMatrix
    sigma23: SparseMatrix
    Omega12: SparseMatrix    # Omega (x) 1, the image of the letter O12
    Omega23: SparseMatrix    # 1 (x) Omega, the image of the letter O23

    def __post_init__(self):
        object.__setattr__(self, "_reports", Kept(KEPT_OPS_REPORTS))


# Twice the most a benchmark workload asks of one preset: 8 reports, from
# sl3-eval's sl2 (classical, structure, omega and rmatrix orders 6-10).
KEPT_OPS_REPORTS = 16


def _kept_on_ops(build):
    """``build(ops, ...)``, kept on ``ops`` per function and arguments;
    a call that raises keeps nothing."""

    @functools.wraps(build)
    def kept(ops: TensorOps, *args, **kwargs):
        key = (build.__name__, args, tuple(kwargs.items()))
        report = ops._reports.take(key)
        return ops._reports.put(key, build(ops, *args, **kwargs) if report is None else report)

    return kept


def _bracket_maps(alg: LieAlgebraData) -> dict[str, SparseMatrix]:
    """T, the flip and their triple-space lifts, by TensorOps field name."""
    d = alg.dim
    T = SparseMatrix(d, d * d, [
        (k, i * d + j, c) for (i, j), row in alg.structure.items() for k, c in row.items()
    ])
    sigma = SparseMatrix(d * d, d * d, [(j * d + i, i * d + j, 1) for i in range(d) for j in range(d)])
    eye = SparseMatrix.identity(d)
    return {
        "T": T,
        "sigma": sigma,
        "T1": kron(T, eye),
        "T2": kron(eye, T),
        "sigma12": kron(sigma, eye),
        "sigma23": kron(eye, sigma),
    }


def _classical_sides(T, sigma, T1, T2, sigma12, sigma23):
    """The two sides of each classical identity, named and in order:
    3.1 antisymmetry, 3.2 Jacobi, 3.3 the braid relation of the flips.
    Each pair is built only when the caller asks for it."""
    yield "3.1", T * sigma, -T
    inner = T * T2
    yield "3.2", T * T1, inner - inner * sigma12
    yield "3.3", sigma12 * sigma23 * sigma12, sigma23 * sigma12 * sigma23


def build_tensor_ops(alg: LieAlgebraData) -> TensorOps:
    """The derived operators of ``alg``, after validating it; the bracket
    maps and the inverse Killing form the validation built are reused.

    With t = K^-1 the Casimir tensor, ``t_vec`` is sum t_ij e_i (x) e_j,
    ``t_action`` is sum t_ij ad_i (x) ad_j, and
    ``Omega`` = -(T (x) T) o (1 (x) t (x) 1).  ``Omega`` (from the
    bracket map) and ``t_action`` (from the adjoint) stay independent
    constructions, so that ``verify rmatrix`` certifies they agree.
    """
    maps, kinv = _validate_algebra(alg)
    d = alg.dim
    entries = list(kinv.items())
    ads = tuple(alg.ad(i) for i in range(d))
    t_vec = SparseMatrix(d * d, 1, [(i * d + j, 0, c) for i, j, c in entries])
    t_action = SparseMatrix.zeros(d * d, d * d).lincomb(
        [(c, kron(ads[i], ads[j])) for i, j, c in entries]
    )
    eye = SparseMatrix.identity(d)
    Omega = -(kron(maps["T"], maps["T"]) * kron(kron(eye, t_vec), eye))
    return TensorOps(
        alg=alg, ad=ads, t_vec=t_vec, t_action=t_action, Omega=Omega,
        Omega12=kron(Omega, eye), Omega23=kron(eye, Omega), **maps,
    )


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class Report:
    """The checks of one suite.  It is frozen and holds its checks as a
    tuple, whatever iterable it was given, so a kept report can be
    shared."""

    algebra: str
    checks: tuple[CheckResult, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "checks", tuple(self.checks))

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def __bool__(self) -> bool:
        return self.ok

    def to_json(self) -> dict:
        return {
            "algebra": self.algebra,
            "passed": self.ok,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail} for c in self.checks
            ],
        }


def _matrix_check(name: str, lhs: SparseMatrix, rhs: SparseMatrix) -> CheckResult:
    diff = lhs.first_difference(rhs)
    if diff is None:
        return CheckResult(name, True)
    i, j, a, b = diff
    return CheckResult(name, False, f"first difference at ({i}, {j}): {a.to_text()} vs {b.to_text()}")


@_kept_on_ops
def verify_classical(ops: TensorOps) -> Report:
    """Antisymmetry, Jacobi and braid identities as matrix equalities;
    kept on ``ops``."""
    sides = _classical_sides(ops.T, ops.sigma, ops.T1, ops.T2, ops.sigma12, ops.sigma23)
    return Report(ops.alg.name, (_matrix_check(name, lhs, rhs) for name, lhs, rhs in sides))


@_kept_on_ops
def structure_report(ops: TensorOps) -> Report:
    """The structure-tensor invariants of the derived operators; kept on
    ``ops``."""
    d = ops.alg.dim
    eye = SparseMatrix.identity(d)
    checks = [_matrix_check("t_symmetric", ops.sigma * ops.t_vec, ops.t_vec)]
    zero_vec = SparseMatrix.zeros(d * d, 1)
    for i in range(d):
        diagonal = kron(ops.ad[i], eye) + kron(eye, ops.ad[i])
        checks.append(
            _matrix_check(f"t_invariant[{ops.alg.basis_names[i]}]", diagonal * ops.t_vec, zero_vec)
        )
        checks.append(
            _matrix_check(
                f"omega_diagonal_commutes[{ops.alg.basis_names[i]}]",
                ops.Omega * diagonal,
                diagonal * ops.Omega,
            )
        )
    checks.append(_matrix_check("sigma_omega_sigma", ops.sigma * ops.Omega * ops.sigma, ops.Omega))
    checks.append(_matrix_check("sigma_squared", ops.sigma * ops.sigma, SparseMatrix.identity(d * d)))
    return Report(ops.alg.name, checks)


@_kept_on_ops
def verify_sigma_rmatrix(ops: TensorOps, order: int) -> Report:
    """Flip = braiding composed with the inverse exponential, mod h^order;
    kept on ``ops`` per order.

    The braiding exponential is built from the Casimir tensor acting
    through the adjoint representation, while the correcting exponential
    uses the operator assembled from the bracket map, so the equality
    also certifies that the two constructions agree.

    The check at h^k compares sigma (k = 0) or 0 (k >= 1) with sigma E_k,
    where E_k is the h^k coefficient of E(h) = exp(ipi h t_action)
    exp(-ipi h Omega).  With A = ipi t_action and B = -ipi Omega,
    E' = A E + E B holds whether or not A and B commute, so E_0 = 1 and
    k E_k = ipi (t_action E_(k-1) - E_(k-1) Omega).  This recurrence
    yields exactly the coefficients of the product of the two exponential
    series, with one ``dot`` of the two products per order.
    """
    if order < 1:
        raise ValueError("order must be positive")
    zero = ops.sigma.ring_zero()
    checks = []
    E = ops.sigma.ring_one()
    neg_omega = -ops.Omega
    for k in range(order):
        if k:
            step = Scalar.constant("ipi", coeff=Fraction(1, k))
            E = E.dot(((ops.t_action, E), (E, neg_omega))).scale(step)
        checks.append(_matrix_check(f"h^{k}", zero if k else ops.sigma, ops.sigma * E))
    return Report(ops.alg.name, checks)


def eval_series(series: HSeries, ops: TensorOps) -> HSeries:
    """Evaluate a free series over O12, O23 word by word on the triple
    tensor space, O12 as Omega (x) 1 and O23 as 1 (x) Omega: the tests'
    oracle for :func:`~qjacobi.psiengine.compute_psi_in`."""
    letters = {"O12": ops.Omega12, "O23": ops.Omega23}
    out = []
    for coeff in series.coeffs:
        if not isinstance(coeff, NCPoly) or coeff.alphabet != PSI_ALPHABET:
            raise ValueError("eval_series expects coefficients over the letters O12, O23")
        out.append(substitute(coeff, letters))
    return HSeries(out)


@dataclass(frozen=True)
class SpectralReport:
    trace: Fraction
    min_poly: tuple[Fraction, ...]
    factors: tuple[tuple[Fraction, int, int], ...]  # (root, multiplicity, kernel dim)
    residual_degree: int
    annihilates: bool

    def factored_text(self) -> str:
        parts = []
        for root, mult, _ in self.factors:
            if root == 0:
                base = "x"
            elif root > 0:
                base = f"(x - {root})"
            else:
                base = f"(x + {-root})"
            parts.append(base if mult == 1 else f"{base}^{mult}")
        if self.residual_degree:
            parts.append(f"<irreducible part of degree {self.residual_degree}>")
        return "*".join(parts) if parts else "1"

    def to_json(self) -> dict:
        return {
            "trace": str(self.trace),
            "min_poly": [str(c) for c in self.min_poly],
            "factored": self.factored_text(),
            "eigenvalues": [
                {"value": str(root), "multiplicity": mult, "kernel_dim": dim}
                for root, mult, dim in self.factors
            ],
            "annihilates": self.annihilates,
        }


def _poly_eval(coeffs: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_divide_linear(coeffs: list[Fraction], root: Fraction) -> list[Fraction]:
    # Synthetic division by (x - root); the remainder must vanish.
    out = [Fraction(0)] * (len(coeffs) - 1)
    carry = Fraction(0)
    for k in range(len(coeffs) - 1, 0, -1):
        carry = coeffs[k] + carry * root
        out[k - 1] = carry
    if coeffs[0] + carry * root != 0:
        raise MatrixError(f"{root} is not a root of the polynomial")
    return out


def _root_candidates(coeffs: list[Fraction]) -> list[Fraction]:
    # 0 and, by the rational root theorem, +-p/q for p dividing the lowest
    # nonzero and q the leading coefficient, denominators cleared.
    common = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * common) for c in coeffs if c]
    ratios = {Fraction(p, q) for p in _divisors(ints[0]) for q in _divisors(ints[-1])}
    return sorted({Fraction(0)} | ratios | {-r for r in ratios})


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.extend((d, n // d))
        d += 1
    return out


def spectral_report(matrix: SparseMatrix) -> SpectralReport:
    """Exact spectral data: trace, minimal polynomial, rational linear
    factors with multiplicities, and kernel dimensions by rank."""
    coeffs, powers = _krylov(matrix)
    n = matrix.rows
    factors = []
    work = list(coeffs)
    for root in _root_candidates(coeffs):
        mult = 0
        while len(work) > 1 and _poly_eval(work, root) == 0:
            work = _poly_divide_linear(work, root)
            mult += 1
        if not mult:
            continue
        shifted = matrix - SparseMatrix.identity(n).scale(root)
        kernel = n - shifted.rank()
        factors.append((root, mult, kernel))
    return SpectralReport(
        trace=matrix.trace().as_fraction(),
        min_poly=tuple(coeffs),
        factors=tuple(factors),
        residual_degree=len(work) - 1,
        annihilates=matrix.lincomb(zip(coeffs, powers)).is_zero,
    )


@_kept_on_ops
def omega_report(ops: TensorOps) -> SpectralReport:
    """The :func:`spectral_report` of ``ops.Omega``, kept on ``ops``."""
    return spectral_report(ops.Omega)
