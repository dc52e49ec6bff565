"""Inductive computation of the associator correction series.

The series and its inverse live over the two-letter alphabet O12, O23.
Both start at 1 with no linear term.  Every degree-k table entry enters
the pair shifted by h^k, conjugated through the pair itself, so the
pair modulo h^n follows exactly from the pair modulo h^(n-2); reading
the pair only two orders back is what makes a single forward pass
exact, with no fixed-point iteration.  :func:`compute_psi` therefore
starts from the unit pair modulo h^1 or h^2, whichever has the parity
of the requested order N, and steps n -> n + 2 up to N.  At each step
``alpha(E_k)``, computed once per degree, is substituted with the pair
truncated to h^(n-k), the only part of it the shifted block can see,
and the blocks are summed into the new pair modulo h^n.

The conjugator pair is not checked to be mutually inverse at each step
(the public :func:`~qjacobi.deformation.make_Gk` still checks it for
outside callers).  The one two-sided check in :meth:`PsiPair.validate`
covers every dropped one: by induction each intermediate pair is the
truncation of the final pair, and (a mod h^m)(b mod h^m) = ab mod h^m,
so psi * psi_inv = psi_inv * psi = 1 modulo h^N implies the same modulo
every h^m with m <= N.

The inverse is assembled from the same blocks with the opposite sign
convention and is cross-checked against ring inversion by
:func:`check_inverse_consistency`, which turns the inverse formula into
a machine-checked property.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .deformation import EkTable, TableError, alpha, make_Fk, validate_table
from .hseries import HSeries
from .ncalg import Alphabet, NCPoly, substitute

__all__ = ["EngineError", "InverseReport", "PSI_ALPHABET", "PsiPair", "check_inverse_consistency", "compute_psi"]

logger = logging.getLogger(__name__)

PSI_ALPHABET = Alphabet(("O12", "O23"))


class EngineError(RuntimeError):
    """The computed pair violates an invariant it must satisfy."""


@dataclass
class PsiPair:
    """The series, its inverse, the truncation order and the table used."""

    psi: HSeries
    psi_inv: HSeries
    order: int
    table_id: str

    def validate(self) -> None:
        one = NCPoly.one(PSI_ALPHABET)
        zero = NCPoly.zero(PSI_ALPHABET)
        for name, series in (("psi", self.psi), ("psi_inv", self.psi_inv)):
            if series.order != self.order:
                raise EngineError(f"{name} has order {series.order}, expected {self.order}")
            if series.coeffs[0] != one:
                raise EngineError(f"{name} does not start at 1")
            if self.order >= 2 and series.coeffs[1] != zero:
                raise EngineError(f"{name} has a nonzero linear coefficient")
        unit = HSeries.unit(one, self.order)
        if self.psi * self.psi_inv != unit or self.psi_inv * self.psi != unit:
            raise EngineError("pair is not mutually inverse at the stated order")


def compute_psi(table: EkTable, order: int) -> PsiPair:
    """Compute the pair modulo h^order from a coefficient table.

    Table degrees absent from 2..order-1 contribute nothing; they are
    treated as zero coefficients and logged.
    """
    if order < 2:
        raise ValueError(f"order must be at least 2, got {order}")
    diagnostics = validate_table(table)
    if not diagnostics.ok:
        raise TableError("; ".join(diagnostics.problems))

    degrees = table.degrees()
    missing = [k for k in range(2, order) if k not in degrees]
    if missing:
        logger.info(
            "table %s has no entries for degrees %s; treating them as zero",
            table.source,
            missing,
        )

    one = NCPoly.one(PSI_ALPHABET)
    o12 = NCPoly.letter(PSI_ALPHABET, "O12")
    o23 = NCPoly.letter(PSI_ALPHABET, "O23")
    blocks = [(k, alpha(table.entry(k))) for k in degrees if k < order]

    # The pair modulo h^1 or h^2, whichever has the parity of the order.
    start = 2 - order % 2
    psi = psi_inv = HSeries.unit(one, start)
    for n in range(start + 2, order + 1, 2):
        # psi, psi_inv are the pair modulo h^(n-2).  The degree-k block
        # enters shifted by h^k, so it is needed only modulo h^(n-k).
        acc = acc_inv = HSeries.unit(one, n)
        for k, block in blocks:
            if k > n - 1:
                break
            back, back_inv = psi.truncate(n - k), psi_inv.truncate(n - k)
            gk = substitute(block, {"Z": back, "Zinv": back_inv, "C": o12, "D": o23})
            acc = acc + make_Fk(back, gk).shift(k).truncate(n)
            acc_inv = acc_inv + gk.shift(k).truncate(n)
        psi, psi_inv = acc, acc_inv

    pair = PsiPair(psi, psi_inv, order, table.source)
    pair.validate()
    return pair


@dataclass
class InverseReport:
    """Outcome of checking the inverse formula against ring inversion."""

    ok: bool
    mismatched_degrees: list[int]

    def __bool__(self) -> bool:
        return self.ok


def check_inverse_consistency(pair: PsiPair) -> InverseReport:
    """Compare the assembled inverse with the ring inverse of the series,
    coefficient by coefficient."""
    ring_inverse = pair.psi.invert()
    mismatched = [
        k
        for k in range(min(pair.psi_inv.order, ring_inverse.order))
        if pair.psi_inv.coeffs[k] != ring_inverse.coeffs[k]
    ]
    return InverseReport(not mismatched, mismatched)
