"""Shared test utilities: independent brute-force oracles and random data.

The oracle here recomputes the associator correction series by plain
fixed-point iteration at full order, with its own regex-based run
parser, so it shares no code path with the production engine beyond the
ring primitives.
"""

import re
from fractions import Fraction

from qjacobi.deformation import AB_ALPHABET, EkTable
from qjacobi.hseries import HSeries
from qjacobi.ncalg import NCPoly, Scalar
from qjacobi.psiengine import PSI_ALPHABET


def oracle_alpha_product(word, psi, psi_inv, c_img, d_img, unit):
    """Evaluate the conjugated image of a word over {A, B} directly.

    Chunks the word into maximal A-run/B-run blocks with a regex; a block
    with no B needs no conjugator pair at all because the pair would
    cancel immediately.
    """
    acc = unit
    for chunk in re.findall(r"A*B+|A+", "".join(word)):
        for _ in range(chunk.count("A")):
            acc = acc * c_img
        if "B" in chunk:
            acc = acc * psi_inv
            for _ in range(chunk.count("B")):
                acc = acc * d_img
            acc = acc * psi
    return acc


def oracle_psi(table: EkTable, order: int):
    """Fixed-point iteration for the pair at full order.

    Independent of the production schedule: every pass re-evaluates all
    blocks with the full current pair and iterates until nothing moves.
    """
    one = NCPoly.one(PSI_ALPHABET)
    unit = HSeries.unit(one, order)
    c_img = HSeries.constant(NCPoly.letter(PSI_ALPHABET, "O12"), order)
    d_img = HSeries.constant(NCPoly.letter(PSI_ALPHABET, "O23"), order)
    psi, psi_inv = unit, unit
    for _ in range(order + 1):
        acc, acc_inv = unit, unit
        for k in sorted(table.entries):
            gk = unit.scale(Scalar.zero())
            for word, coeff in table.entries[k].sorted_terms():
                gk = gk + oracle_alpha_product(word, psi, psi_inv, c_img, d_img, unit).scale(coeff)
            acc = acc + (-(psi * gk)).shift(k).truncate(order)
            acc_inv = acc_inv + gk.shift(k).truncate(order)
        if acc == psi and acc_inv == psi_inv:
            return psi, psi_inv
        psi, psi_inv = acc, acc_inv
    raise AssertionError("oracle iteration did not reach a fixed point")


def random_homogeneous_table(rng, max_degree=5, max_terms=3, constants=()) -> EkTable:
    """A random table with homogeneous entries in degrees 2..max_degree.

    The terms take ``constants`` in turn, each to the first or second
    power, and then one plain rational term, and so on round; with no
    constants every term is plain and nothing more is drawn."""
    entries = {}
    turns = tuple(constants) + (None,)
    drawn = 0
    degrees = [k for k in range(2, max_degree + 1) if rng.random() < 0.7]
    if not degrees:
        degrees = [2]
    for k in degrees:
        terms = []
        for _ in range(rng.randint(1, max_terms)):
            word = tuple(rng.choice("AB") for _ in range(k))
            coeff = Scalar.rational(Fraction(rng.randint(-6, 6), rng.randint(1, 6)))
            name = turns[drawn % len(turns)]
            drawn += 1
            if name is not None:
                coeff = coeff * Scalar.constant(name, rng.randint(1, 2))
            terms.append((word, coeff))
        poly = NCPoly(AB_ALPHABET, terms)
        if not poly.is_zero:
            entries[k] = poly
    if not entries:
        entries[2] = NCPoly.word(AB_ALPHABET, ("A", "B"))
    declared = tuple(name for name in constants if name != "ipi") + ("ipi",)
    return EkTable(entries=entries, constants=declared, source=f"random-{rng.random():.6f}")
