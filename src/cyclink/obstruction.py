"""A satellite concordance obstruction read from cover linking numbers.

For a two-component diagram (pattern knot plus an embedded circle marking
the solid torus), the pairwise linking numbers of the circle's lifts in a
prime-power cyclic cover obstruct the pattern from acting trivially on
concordance, provided the lift order hypotheses hold and the off-diagonal
linking numbers are all of one strict sign.
"""

from __future__ import annotations

from .cover import build_cover
from .diagram import LinkDiagram, _Record, pairwise_linking
from .homology import minimal_bounding_multiple
from .linking import LinkingReport, UndefinedEntry, linking_matrix

OBSTRUCTED = "obstructed"
INCONCLUSIVE = "inconclusive"

ALL_ZERO = "all-zero"
ALL_NONNEG = "all-nonneg-not-zero"
ALL_NONPOS = "all-nonpos-not-zero"
MIXED = "mixed"
UNDEFINED = "undefined"


def is_prime_power(n: int) -> bool:
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1
        p += 1
    return True  # n itself is prime


class ObstructionVerdict(_Record):
    """Outcome of the obstruction test, with everything it looked at."""

    __slots__ = _fields = ("q", "winding", "order", "hypotheses", "sign_profile", "verdict", "matrix")

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "winding": self.winding,
            "order": self.order,
            "hypotheses": dict(self.hypotheses),
            "sign_profile": self.sign_profile,
            "verdict": self.verdict,
            "matrix": self.matrix.to_dict(),
        }


def _sign_profile(report: LinkingReport) -> str:
    """The signs of the off-diagonal entries of an eta x eta report.

    The report is circulant (linking_matrix): entry (i, j) is entry
    (0, (j - i) mod g), so its off-diagonal values are those of row 0 past
    the self-pairing. Each is a Fraction, and its sign is its numerator's.
    """
    off_diagonal = report.entries[0][1:]
    if any(isinstance(e, UndefinedEntry) for e in off_diagonal):
        return UNDEFINED
    positive = any(e.numerator > 0 for e in off_diagonal)
    negative = any(e.numerator < 0 for e in off_diagonal)
    if not positive and not negative:
        return ALL_ZERO
    if not negative:
        return ALL_NONNEG
    if not positive:
        return ALL_NONPOS
    return MIXED


def evaluate_obstruction(diagram: LinkDiagram, q: int) -> ObstructionVerdict:
    """Run the obstruction test on a pattern diagram at cover degree q.

    The diagram must have exactly two components: the pattern knot (the
    branch) and the marking circle. "obstructed" is only reported when every
    hypothesis is met and the sign profile is strictly one-sided; anything
    else is "inconclusive", never a claim in the other direction.
    """
    if len(diagram.components) != 2:
        raise ValueError(
            "obstruction test needs exactly two components: a pattern knot "
            "and a marking circle"
        )
    eta = 1 - diagram.branch
    winding = pairwise_linking(diagram, eta, diagram.branch)
    cover = build_cover(diagram, q)
    report = linking_matrix(cover, eta, eta)
    order = minimal_bounding_multiple(cover, eta, cover.components_of[eta][0])

    hypotheses = {
        "prime_power_degree": is_prime_power(q),
        "degree_divides_winding": winding % q == 0,
        "integral_lifts": order == 1,
        "odd_order_or_winding_multiple": order is not None
        and (
            order % 2 == 1
            or (winding != 0 and winding % order == 0)
        ),
    }
    profile = _sign_profile(report)
    applicable = (
        hypotheses["prime_power_degree"]
        and hypotheses["degree_divides_winding"]
        and (hypotheses["integral_lifts"] or hypotheses["odd_order_or_winding_multiple"])
    )
    verdict = (
        OBSTRUCTED
        if applicable and profile in (ALL_NONNEG, ALL_NONPOS)
        else INCONCLUSIVE
    )
    return ObstructionVerdict(q, winding, order, hypotheses, profile, verdict, report)
