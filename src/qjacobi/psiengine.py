"""Inductive computation of the associator correction series.

The series psi and its inverse are series in two letters O12, O23, and
one recursion fixes them in any ring the letters live in: the free
algebra (:func:`compute_psi`) or an algebra's matrices
(:func:`compute_psi_in`, which ``eval`` runs).  With G_k the block
``alpha(E_k)`` with psi, psi_inv, O12 and O23 put in for its letters Z,
Zinv, C and D, the pair is the solution of

    psi = 1 - sum_k h^k psi G_k,        psi_inv = 1 + sum_k h^k G_k

over the table degrees k >= 2 (Drinfeld, 1990).  The first equation is
psi psi_inv = 1, and alpha only conjugates each B-run (``Zinv D^m Z``),
so G_k = E_k(O12, Y) with the one series Y = psi_inv O23 psi.  Read
coefficient by coefficient, with ``s[j]`` the coefficient of h^j of s:

    Y[n]       =   sum_i (psi_inv[i] O23) psi[n - i]
    psi_inv[j] =   sum_k G_k[j - k]
    psi[j]     = - sum_{i < j-1} psi[i] psi_inv[j - i]

the last being the series inverse, as psi_inv[1] = 0.  G_k[m] and Y[m]
read Y, psi and psi_inv only up to h^m, as every image starts at h^0.
As k >= 2, the coefficient h^j of the pair reads Y and every G_k only up
to h^(j-2).  So the engine computes each coefficient once, from
the lower ones, in one forward pass from psi[0] = psi_inv[0] = 1, with
no fixed-point iteration: the "relaxed" evaluation of a recursive power
series (van der Hoeven, *Relax, but don't be too lazy*, 2002).  Step j
appends Y[j - 2] to the list the blocks share, then extends them: each
is a :class:`~qjacobi.ncalg.WordEvaluator` with O12 a constant and Y a
series.  With the products psi_inv[i] O23 kept, Y[n] and psi[j] are one
``dot`` each; a product by psi[0] = psi_inv[0] = 1 is added as its
other factor, not multiplied.

:meth:`PsiPair.validate` checks the arithmetic with one product.  In the
ring of series modulo h^N, a series whose constant term is 1 is a unit,
so once psi starts at 1, psi * psi_inv = 1 makes psi_inv = psi^-1, also
a left inverse, starting at 1 with no linear term when psi does.  That
holds whatever the blocks are, so the test suite checks each block
against the alpha block over the finished pair.  They agree because
every coefficient the engine reads is one of the final pair, and
(a mod h^m)(b mod h^m) = ab mod h^m: the psi and psi_inv behind Y[n]
are mutually inverse modulo h^(n+1).

The pair depends on the table's nonzero entries and the two letters
alone, and the pass is online: the pair modulo h^N is the first N
coefficients of the pair modulo any higher order.  So a process keeps
one engine, with its pair, Y, its blocks' word evaluators and the order
it reached, in a :class:`~qjacobi.ncalg.Kept` store keyed by table
content (:meth:`~qjacobi.deformation.EkTable.content`) and letters,
compared by value, for :data:`CACHED_TABLES` engines, free and matrix
ones alike.
:func:`compute_psi_in` takes the table as built (an
:class:`~qjacobi.deformation.EkTable` is checked once, by its
constructor), resumes that engine's pass only past the order already
reached, and runs the pair check on the extended pair each time it
grows; an engine whose pass or check fails is not kept.  So every
coefficient served has passed the check in this process.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .deformation import PSI_ALPHABET, EkTable
from .hseries import HSeries
from .ncalg import Kept, NCPoly, WordEvaluator

__all__ = ["EngineError", "PSI_ALPHABET", "PsiPair", "compute_psi", "compute_psi_in"]


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
        """Check the orders, the start of psi and psi * psi_inv = 1 in psi's
        ring; the module docstring says what that one product settles."""
        one = self.psi.coeffs[0].ring_one()
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
    """The pair of one table content in the ring of the letters ``o12``
    and ``o23``, resumable past the order reached.

    ``entries`` lists the table's nonzero (degree, entry) pairs by
    degree; a block joins once the pass reaches its degree, the first
    power of h it contributes to.  The blocks share ``y``, the known
    coefficients of Y, and ``left`` keeps the products psi_inv[i] * O23.
    """

    def __init__(self, entries: tuple, o12, o23):
        self.one = one = o12.ring_one()
        self.o23 = o23
        self.entries = entries
        self.psi, self.psi_inv = [one], [one]
        self.left, self.y = [], []
        self.images = {"A": o12, "B": self.y}
        self.blocks: list[tuple[int, WordEvaluator]] = []

    def extend(self, order: int) -> None:
        """Compute the pair modulo h^order, if it is not known yet."""
        one, psi, psi_inv, left, y, blocks = self.one, self.psi, self.psi_inv, self.left, self.y, self.blocks
        start = len(psi)
        blocks += [(k, WordEvaluator(p, self.images, one)) for k, p in self.entries if start <= k < order]
        for j in range(start, order):
            # psi and psi_inv are known below h^j; Y gains its h^(j-2)
            # entry, then G_k its h^(j-k) entry.  A product by psi[0] =
            # psi_inv[0] = 1 is taken as its other factor.
            if j >= 2:
                left.append(psi_inv[j - 2] * self.o23 if j > 2 else self.o23)
                y.append(left[-1] + one.dot([(x, psi[j - 2 - i]) for i, x in enumerate(left[:-1])]))
            psi_inv.append(one.lincomb([(1, block.extend(j - k)[j - k]) for k, block in blocks if k <= j]))
            rest = one.dot([(psi[i], psi_inv[j - i]) for i in range(1, j - 1)])
            psi.append(one.lincomb([(-1, psi_inv[j]), (-1, rest)]))

    def checked(self, order: int) -> _Engine:
        """This engine with its pair known modulo h^order, checked if it grew."""
        if len(self.psi) < order:
            self.extend(order)
            PsiPair(HSeries(self.psi), HSeries(self.psi_inv), order, "").validate()
        return self


CACHED_TABLES = 8
_engines = Kept(CACHED_TABLES)
_FREE_LETTERS = (NCPoly.letter(PSI_ALPHABET, "O12"), NCPoly.letter(PSI_ALPHABET, "O23"))


def compute_psi(table: EkTable, order: int) -> PsiPair:
    """Compute the pair modulo h^order from a coefficient table, over
    the free letters O12, O23.

    Table degrees absent from 2..order-1 contribute nothing; they are
    treated as zero coefficients and logged at INFO through ``logging``
    when that module is loaded.  The table's engine is kept for later
    calls; the module docstring says how.
    """
    return compute_psi_in(table, order, *_FREE_LETTERS)


def compute_psi_in(table: EkTable, order: int, o12, o23) -> PsiPair:
    """The pair of :func:`compute_psi` in the ring of the images ``o12``
    and ``o23`` of the letters, computed there and not in the free
    algebra.  Only the order is checked here: the table was checked
    when it was built."""
    if order < 2:
        raise ValueError(f"order must be at least 2, got {order}")
    # A record reaches a handler only through the logging module, so the
    # gaps are worked out only when a caller has loaded it.
    logging = sys.modules.get("logging")
    if logging is not None:
        # The table's own gaps lie below its top degree; those above are one span.
        missing = [str(k) for k in table.missing_below_max() if k < order]
        top = max(table.degrees(), default=1)
        if top + 1 < order:
            missing.append(f"{top + 1}..{order - 1}" if top + 2 < order else str(top + 1))
        if missing:
            logging.getLogger(__name__).info(
                "table %s has no entries for degrees %s; treating them as zero",
                table.source,
                ", ".join(missing),
            )

    entries = table.content()
    key = (entries, o12, o23)
    # Popped while it runs, so keep builds: an engine whose pass or check
    # fails is not kept, and the whole pair of a kept engine has been checked.
    engine = _engines.pop(key, None) or _Engine(entries, o12, o23)
    engine = _engines.keep(key, engine.checked, order)
    return PsiPair(HSeries(engine.psi[:order]), HSeries(engine.psi_inv[:order]), order, table.source)
