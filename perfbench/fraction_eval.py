"""A small evaluator of Ψ on V⊗V⊗V in plain Python numbers.

It shares nothing with ``qjacobi.matrices`` or ``qjacobi.liealg`` beyond
the structure constants of the algebra: the adjoint matrices, the Killing
form, its inverse, the Casimir operator Ω = Σ t^ij ad_i ⊗ ad_j and the
products of Ω12 = Ω⊗1 and Ω23 = 1⊗Ω are all computed here, with integer
matrices scaled by a common denominator.  ``record_digests.py`` uses it
to cross-check the ``eval`` and ``omega`` outputs once, before their
digests are recorded.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm

# A sparse matrix here is {row: {col: value}} with nonzero values.


def matmul(a: dict, b: dict) -> dict:
    out = {}
    for i, row in a.items():
        acc: dict = {}
        for k, x in row.items():
            for j, y in b.get(k, {}).items():
                acc[j] = acc.get(j, 0) + x * y
        acc = {j: v for j, v in acc.items() if v}
        if acc:
            out[i] = acc
    return out


def kron(a: dict, an: int, b: dict, bn: int) -> dict:
    out: dict = {}
    for i, row in a.items():
        for k, x in row.items():
            for j, brow in b.items():
                for l, y in brow.items():
                    out.setdefault(i * bn + j, {})[k * bn + l] = x * y
    return out


def identity(n: int) -> dict:
    return {i: {i: 1} for i in range(n)}


def _inverse(m: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(m)
    aug = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def casimir(structure: dict, dim: int) -> dict:
    """Ω on g⊗g as a sparse Fraction matrix."""
    ads = []
    for i in range(dim):
        ad: dict = {}
        for j in range(dim):
            for k, c in structure.get((i, j), {}).items():
                ad.setdefault(k, {})[j] = Fraction(c)
        ads.append(ad)
    killing = [
        [sum((matmul(ads[i], ads[j]).get(r, {}).get(r, 0) for r in range(dim)), Fraction(0)) for j in range(dim)]
        for i in range(dim)
    ]
    tinv = _inverse(killing)
    omega: dict = {}
    for i in range(dim):
        for j in range(dim):
            if tinv[i][j]:
                for r, row in kron(ads[i], dim, ads[j], dim).items():
                    acc = omega.setdefault(r, {})
                    for c, v in row.items():
                        acc[c] = acc.get(c, 0) + tinv[i][j] * v
    return {r: {c: v for c, v in row.items() if v} for r, row in omega.items() if any(row.values())}


def evaluate(psi_coeffs: list[list[tuple[tuple[str, ...], Fraction]]], structure: dict, dim: int) -> list[dict]:
    """Σ_w c_w Π Ω_letter for each coefficient, as sparse Fraction matrices.

    Products run over integer matrices D·Ω12 and D·Ω23 and are divided
    by D^len(w) at the end; shared word prefixes are multiplied once.
    """
    omega = casimir(structure, dim)
    den = lcm(*(v.denominator for row in omega.values() for v in row.values()))
    scaled = {r: {c: int(v * den) for c, v in row.items()} for r, row in omega.items()}
    eye = identity(dim)
    letters = {"O12": kron(scaled, dim * dim, eye, dim), "O23": kron(eye, dim, scaled, dim * dim)}
    n = dim ** 3
    prefixes: dict[tuple[str, ...], dict] = {(): identity(n)}

    def product(word):
        if word not in prefixes:
            prefixes[word] = matmul(product(word[:-1]), letters[word[-1]])
        return prefixes[word]

    out = []
    for terms in psi_coeffs:
        acc: dict = {}
        for word, coeff in terms:
            scale = Fraction(coeff) / den ** len(word)
            for r, row in product(tuple(word)).items():
                target = acc.setdefault(r, {})
                for c, v in row.items():
                    target[c] = target.get(c, 0) + scale * v
        out.append({r: {c: v for c, v in row.items() if v} for r, row in acc.items()})
    return out


def entry_text(value) -> str:
    """A rational in the canonical scalar text form: ``0``, ``3/4``, ``- 2``."""
    value = Fraction(value)
    if not value:
        return "0"
    size = abs(value)
    body = str(size.numerator) if size.denominator == 1 else f"{size.numerator}/{size.denominator}"
    return ("- " if value < 0 else "") + body


def dense_rows(m: dict, n: int) -> list[list[str]]:
    return [[entry_text(m.get(i, {}).get(j, 0)) for j in range(n)] for i in range(n)]


def series_text(coeffs: list[dict], n: int) -> str:
    lines = []
    for k, m in enumerate(coeffs):
        rows = ["[" + ", ".join(row) + "]" for row in dense_rows(m, n)]
        lines.append(f"h^{k}: [" + "; ".join(rows) + "]")
    return "\n".join(lines) + "\n"


def matrix_json(m: dict, n: int) -> dict:
    return {"rows": n, "cols": n, "data": dense_rows(m, n)}


def omega_matrix_line(structure: dict, dim: int) -> str:
    return "matrix: " + json.dumps(dense_rows(casimir(structure, dim), dim * dim), sort_keys=True)
