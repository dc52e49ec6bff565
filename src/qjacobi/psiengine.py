"""Inductive computation of the associator correction series.

The series psi and its inverse live over the two-letter alphabet O12,
O23.  With G_k the block ``alpha(E_k)`` with psi, psi_inv, O12 and O23
put in for its letters Z, Zinv, C and D, the pair is the solution of

    psi = 1 - sum_k h^k psi G_k,        psi_inv = 1 + sum_k h^k G_k

over the table degrees k >= 2 (Drinfeld, 1990).  Read coefficient by
coefficient, with ``s[j]`` the coefficient of h^j of a series s:

    psi[j]     = - sum_k sum_i psi[i] G_k[j - k - i]
    psi_inv[j] =   sum_k G_k[j - k]

and G_k[m] is a polynomial in the coefficients of psi and psi_inv up to
h^m only, since every letter image starts at h^0.  As k >= 2, the
coefficient h^j of the pair reads psi, psi_inv and every G_k only up to
h^(j-2).  So :func:`compute_psi` computes each coefficient once, from the
lower ones, in one forward pass from psi[0] = psi_inv[0] = 1, with no
fixed-point iteration: the "relaxed" evaluation of a recursive power
series (van der Hoeven, *Relax, but don't be too lazy*, 2002).  Each
block is the package's one word evaluator,
:class:`~qjacobi.ncalg.WordEvaluator`, with O12 and O23 as constants and
the growing coefficient lists of psi and psi_inv as series: it sums the
block's words by Horner's rule over their suffix trie and appends G_k[m]
once psi and psi_inv are known to h^m.  psi[j] is one ``dot``.

The engine does not check that the pair is mutually inverse as it goes.
The one product in :meth:`PsiPair.validate` covers every such check.  In
the ring of series modulo h^N, a series whose constant term is 1 is a
unit: its inverse is built degree by degree.  So once psi starts at 1,
psi * psi_inv = 1 makes psi_inv = psi^-1, which is then also a left
inverse and starts at 1 with no linear term when psi does.  Every
coefficient the engine reads is a coefficient of the final pair, and
(a mod h^m)(b mod h^m) = ab mod h^m, so the images of Z and Zinv behind
each coefficient were mutually inverse modulo every h^m with m <= N.

The pair depends on the table's nonzero entries alone, and the pass is
online: the pair modulo h^N is the first N coefficients of the pair
modulo any higher order.  So a process keeps one engine per table
content (the degree -> entry map), with its pair, its blocks' word
evaluators and the order it reached, for the :data:`CACHED_TABLES` tables
used last; using one more table forgets the one used longest ago.
:func:`compute_psi` validates the table on every call, resumes that
table's pass only past the order already reached, and runs the pair
check on the extended pair each time it grows; an engine whose pass or
check fails is dropped before the error propagates.  So every
coefficient served has passed the check in this process.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .deformation import EkTable, TableError, alpha, validate_table
from .hseries import HSeries
from .ncalg import Alphabet, NCPoly, WordEvaluator

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


class _Engine:
    """The pair of one table content, resumable past the order reached.

    ``entries`` lists the table's nonzero (degree, entry) pairs by
    degree; a block joins once the pass reaches its degree, the first
    power of h it contributes to.
    """

    def __init__(self, entries: tuple):
        one = NCPoly.one(PSI_ALPHABET)
        self.one = one
        self.entries = entries
        self.psi, self.psi_inv = [one], [one]
        self.images = {
            "C": NCPoly.letter(PSI_ALPHABET, "O12"),
            "D": NCPoly.letter(PSI_ALPHABET, "O23"),
            "Z": self.psi,
            "Zinv": self.psi_inv,
        }
        self.blocks: list[tuple[int, WordEvaluator]] = []

    def extend(self, order: int) -> None:
        """Compute the pair modulo h^order, if it is not known yet."""
        one, psi, psi_inv, blocks = self.one, self.psi, self.psi_inv, self.blocks
        start = len(psi)
        blocks += [(k, WordEvaluator(alpha(p), self.images, one)) for k, p in self.entries if start <= k < order]
        for j in range(start, order):
            # psi and psi_inv are known below h^j; G_k gains its h^(j-k) entry.
            gs = [(k, block.extend(j - k)) for k, block in blocks if k <= j]
            psi.append(-one.dot([(psi[i], g[j - k - i]) for k, g in gs for i in range(j - k + 1)]))
            psi_inv.append(one.lincomb([(1, g[j - k]) for k, g in gs]))


# Table content -> its engine, the one used last at the end.
CACHED_TABLES = 8
_engines: dict[tuple, _Engine] = {}


def compute_psi(table: EkTable, order: int) -> PsiPair:
    """Compute the pair modulo h^order from a coefficient table.

    Table degrees absent from 2..order-1 contribute nothing; they are
    treated as zero coefficients and logged.  The table's engine is kept
    for later calls; the module docstring says how.
    """
    if order < 2:
        raise ValueError(f"order must be at least 2, got {order}")
    diagnostics = validate_table(table)
    if not diagnostics.ok:
        raise TableError("; ".join(diagnostics.problems))

    # The validator's gaps lie below the top degree; those above are one span.
    degrees = diagnostics.degrees
    missing = [str(k) for k in diagnostics.missing_below_max if k < order]
    top = max(degrees, default=1)
    if top + 1 < order:
        missing.append(f"{top + 1}..{order - 1}" if top + 2 < order else str(top + 1))
    if missing:
        logger.info(
            "table %s has no entries for degrees %s; treating them as zero",
            table.source,
            ", ".join(missing),
        )

    key = tuple((k, table.entries[k]) for k in degrees)
    # Taken out while it runs, so an engine whose pass or check fails is
    # not put back: the whole pair of a cached engine has been checked.
    engine = _engines.pop(key, None) or _Engine(key)
    grows = len(engine.psi) < order
    engine.extend(order)
    pair = PsiPair(HSeries(engine.psi[:order]), HSeries(engine.psi_inv[:order]), order, table.source)
    if grows:
        pair.validate()
    _engines[key] = engine
    if len(_engines) > CACHED_TABLES:
        del _engines[next(iter(_engines))]
    return pair
