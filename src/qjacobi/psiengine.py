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
and the blocks are summed into the new pair modulo h^n; the inverse is
assembled from the same blocks with the opposite sign convention.

The conjugator pair is not checked to be mutually inverse at each step
(the public :func:`~qjacobi.deformation.make_Gk` still checks it for
outside callers).  The one product in :meth:`PsiPair.validate` covers
every dropped check.  In the ring of series modulo h^N, a series whose
constant term is 1 is a unit: its inverse is built degree by degree.
So once psi starts at 1, psi * psi_inv = 1 makes psi_inv = psi^-1, which
is then also a left inverse and starts at 1 with no linear term when psi
does.  By induction each intermediate pair is the truncation of the
final pair, and (a mod h^m)(b mod h^m) = ab mod h^m, so the same holds
modulo every h^m with m <= N.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .deformation import EkTable, TableError, alpha, validate_table
from .hseries import HSeries
from .ncalg import Alphabet, NCPoly, substitute

__all__ = ["EngineError", "PSI_ALPHABET", "PsiPair", "compute_psi"]

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
        """Check the orders, the start of psi and psi * psi_inv = 1; the
        module docstring says why that one product settles the rest."""
        one = NCPoly.one(PSI_ALPHABET)
        for name, series in (("psi", self.psi), ("psi_inv", self.psi_inv)):
            if series.order != self.order:
                raise EngineError(f"{name} has order {series.order}, expected {self.order}")
        if self.psi.coeffs[0] != one:
            raise EngineError("psi does not start at 1")
        if self.order >= 2 and not self.psi.coeffs[1].is_zero:
            raise EngineError("psi has a nonzero linear coefficient")
        if self.psi * self.psi_inv != HSeries.unit(one, self.order):
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
        # psi gains -back * G_k h^k and psi_inv gains G_k h^k.
        unit = HSeries.unit(one, n)
        terms, terms_inv = [(1, unit)], [(1, unit)]
        for k, block in blocks:
            if k > n - 1:
                break
            back, back_inv = psi.truncate(n - k), psi_inv.truncate(n - k)
            gk = substitute(block, {"Z": back, "Zinv": back_inv, "C": o12, "D": o23})
            terms.append((-1, (back * gk).shift(k)))
            terms_inv.append((1, gk.shift(k)))
        psi, psi_inv = unit.lincomb(terms), unit.lincomb(terms_inv)

    pair = PsiPair(psi, psi_inv, order, table.source)
    pair.validate()
    return pair

