"""Truncated formal power series in the deformation parameter h.

A series of order N trusts the coefficients of h^0 .. h^(N-1) and knows
nothing beyond; every arithmetic operation returns the weakest order of
its inputs so precision is never silently inflated.  Coefficients may be
elements of any ring of the package, series included: see
:class:`~qjacobi.ncalg.Ring` for the protocol, which a series also
follows.  A product of series builds each output coefficient with one
``dot`` call, and a linear combination of series each coefficient with
one ``lincomb`` call, so a growing sum is merged once rather than once
per added term.  A coefficient ring's errors pass through unchanged.
"""

from __future__ import annotations

from typing import Sequence

from .ncalg import Alphabet, Ring, Scalar, parse_poly

__all__ = ["HSeries", "SeriesError", "parse_series"]


class SeriesError(ValueError):
    """Incompatible operands or an operation that would fabricate
    unknown coefficients."""


class HSeries(Ring):
    """A power series known modulo h^order, with exact coefficients."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Sequence):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise SeriesError("a series needs at least the h^0 coefficient")
        self.coeffs = coeffs
        self.order = len(coeffs)

    @classmethod
    def constant(cls, value, order: int) -> "HSeries":
        if order < 1:
            raise SeriesError("order must be positive")
        zero = value.ring_zero()
        return cls((value,) + (zero,) * (order - 1))

    @classmethod
    def unit(cls, exemplar, order: int) -> "HSeries":
        """The multiplicative identity, built from any coefficient of the
        intended ring."""
        return cls.constant(exemplar.ring_one(), order)

    # Ring protocol, so that series can be substitution images.
    def ring_one(self) -> "HSeries":
        return HSeries.unit(self.coeffs[0], self.order)

    def ring_zero(self) -> "HSeries":
        return HSeries.constant(self.coeffs[0].ring_zero(), self.order)

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coeffs)

    def dot(self, pairs) -> "HSeries":
        """The sum of ``a * b`` over the (a, b) pairs, known to the weakest
        order among them; each coefficient is one ``dot`` of its ring."""
        pairs = list(pairs)
        if not pairs:
            return self.ring_zero()
        if not all(isinstance(x, HSeries) for pair in pairs for x in pair):
            raise SeriesError("operand is not a series")
        n = min(min(a.order, b.order) for a, b in pairs)
        ring = pairs[0][0].coeffs[0]
        return HSeries([
            ring.dot([(a.coeffs[i], b.coeffs[k - i]) for a, b in pairs for i in range(k + 1)])
            for k in range(n)
        ])

    def lincomb(self, pairs) -> "HSeries":
        """The sum of ``c * x`` over the (scalar, series) pairs, known to
        the weakest order among this series and the pairs; each
        coefficient is one ``lincomb`` of its ring."""
        pairs = list(pairs)
        if not all(isinstance(x, HSeries) for _, x in pairs):
            raise SeriesError("operand is not a series")
        n = min([self.order] + [x.order for _, x in pairs])
        return HSeries([self.coeffs[k].lincomb([(c, x.coeffs[k]) for c, x in pairs]) for k in range(n)])

    def truncate(self, n: int) -> "HSeries":
        if n < 1:
            raise SeriesError("truncation order must be positive")
        if n > self.order:
            raise SeriesError(f"cannot extend knowledge from h^{self.order} to h^{n}")
        return HSeries(self.coeffs[:n])

    def shift(self, k: int) -> "HSeries":
        """Multiply by h^k; the result is known to order + k."""
        if k < 0:
            raise SeriesError("shift exponent must be nonnegative")
        zero = self.coeffs[0].ring_zero()
        return HSeries((zero,) * k + self.coeffs)

    def invert(self) -> "HSeries":
        """Two-sided inverse in the truncated ring; the constant term must
        be the multiplicative identity."""
        one = self.coeffs[0].ring_one()
        if self.coeffs[0] != one:
            raise SeriesError("series is not invertible: constant term is not the identity")
        inv = [one]
        for k in range(1, self.order):
            inv.append(-one.dot([(self.coeffs[j], inv[k - j]) for j in range(1, k + 1)]))
        return HSeries(inv)

    def exp(self) -> "HSeries":
        """Exponential of a series with zero constant term."""
        if not self.coeffs[0].is_zero:
            raise SeriesError("exp needs a zero constant term")
        result = HSeries.unit(self.coeffs[0], self.order)
        power = result
        for m in range(1, self.order):
            power = (power * self).scale(Scalar.rational(1, m))
            result = result + power
        return result

    def __eq__(self, other):
        """Equal orders and equal coefficients, so equal series hash
        equal; to compare modulo h^n, truncate both sides to n."""
        if not isinstance(other, HSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"HSeries(order={self.order})"

    def to_text(self) -> str:
        return "\n".join(f"h^{k}: {c.to_text()}" for k, c in enumerate(self.coeffs))

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": [c.to_text() for c in self.coeffs]}


def parse_series(text: str, alphabet: Alphabet, constants: tuple[str, ...] = ("ipi",)) -> HSeries:
    """Parse the canonical text form with polynomial coefficients."""
    coeffs = []
    for k, line in enumerate(text.strip().splitlines()):
        head, _, body = line.partition(":")
        if head.strip() != f"h^{k}":
            raise SeriesError(f"expected the h^{k} line, got {line!r}")
        coeffs.append(parse_poly(body.strip(), alphabet, constants))
    if not coeffs:
        raise SeriesError("no coefficient lines")
    return HSeries(coeffs)

