"""Linking numbers between lifted curves, read off a bounding chain.

Once a chain bounding one lifted curve is known, its linking number with any
other lifted curve is a finite sum over the second curve's underpasses: each
time the walked curve dives under a wall it picks up that wall lift's
coefficient, signed by the crossing.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .cover import CoverStructure, _lift
from .diagram import _Record
from .homology import TwoChain, _chain_lift, _first_solutions
from .rational_linalg import format_rational

SELF_PAIRING = "self-pairing"
NOT_NULL_HOMOLOGOUS = "not rationally null-homologous"


class UndefinedEntry(_Record):
    """Marker for a linking number the theory does not define."""

    __slots__ = _fields = ("reason",)

    def to_json(self) -> dict:
        return {"undefined": self.reason}


def _linking_sum(cover: CoverStructure, x, d: int, shift: int, bi: int, gb: tuple, gamma: int, group: tuple) -> Fraction:
    """lk of lift (gamma, group) with lift (bi, gb), bounded by the chain with
    coefficients x / d shifted `shift` sheets up: x[i][(j - 1 - shift) mod q]
    / d at the lift of branch arc i to sheet j.

    x holds a first solution's integer rows over its d (`_first_solutions`),
    or a TwoChain's Fractions with d = 1. The wall coefficients met are
    summed as integer numerators over den, the lcm of their denominators (1
    on integer rows), and the call makes one Fraction over den d. Sheets
    are 0-based here: the lift crossed from sheet j is on sheet j - 1 + off
    mod q, and it lies in gb when that is gb[0] - 1 mod len(cosets of bi).
    """
    diagram = cover.diagram
    branch = diagram.branch
    q = cover.q
    comp = diagram.components[gamma]
    g, first = len(cover.components_of[bi]), gb[0] - 1
    walls = []  # (sign, coefficient) of each branch wall lift passed under
    crossings = 0
    for j in group:
        for up, off in zip(comp.underpasses, cover.sigma[gamma]):
            oc = up.over.component
            s = j - 1 + off
            if oc == branch:
                walls.append((up.sign, x[up.over.arc][(s - shift) % q]))
            elif oc == bi and (s - first) % g == 0:
                crossings += up.sign
    den = lcm(*(v.denominator for _, v in walls))
    total = sum(sign * v.numerator * (den // v.denominator) for sign, v in walls)
    return Fraction(total + crossings * den * d, den * d)


def linking_number(cover: CoverStructure, chain: TwoChain, gamma: int | str, coset_j) -> Fraction | UndefinedEntry:
    """lk of the lifted curve described by (gamma, coset_j) with chain's curve.

    The chain is checked against the cover as verify_boundary checks it.
    Both curves must avoid the branch locus; the pairing is undefined when
    gamma's lift is not itself rationally null-homologous, and a curve cannot
    be paired with itself.
    """
    bounded = _chain_lift(cover, chain)
    lift = _lift(cover, gamma, coset_j)
    if lift == bounded:
        raise ValueError("self-pairing: that lifted curve is the chain's own boundary")
    if _first_solutions(cover)[lift[0]] is None:
        return UndefinedEntry(NOT_NULL_HOMOLOGOUS)
    return _linking_sum(cover, chain.x, 1, 0, *bounded, *lift)


def _entry(cover: CoverStructure, ai: int, ga: tuple, bi: int, gb: tuple) -> Fraction | UndefinedEntry:
    """One linking matrix entry: lk of lift (ai, ga) with lift (bi, gb).

    The lifts must be canonical (see cover._lift). The sum is read off
    the chain bounding (bi, gb), as in linking_number: the first solution
    of curve bi, shifted to coset gb.
    """
    if ai == bi and ga == gb:
        return UndefinedEntry(SELF_PAIRING)
    solutions = _first_solutions(cover)
    if solutions[bi] is None or solutions[ai] is None:
        return UndefinedEntry(NOT_NULL_HOMOLOGOUS)
    return _linking_sum(cover, *solutions[bi], gb[0] - 1, bi, gb, ai, ga)


class LinkingReport(_Record):
    """All pairwise linking numbers between the lifts of two curves."""

    __slots__ = _fields = ("curve_a", "curve_b", "cosets_a", "cosets_b", "entries")

    def entry(self, i: int, j: int) -> Fraction | UndefinedEntry:
        # Exact type tests, as in TwoChain.coefficient: True would read row 1, and -1 wraps.
        if type(i) is not int or type(j) is not int or not (0 <= i < len(self.entries) and 0 <= j < len(self.entries[i])):
            raise ValueError(f"no entry at row {i!r}, column {j!r}")
        return self.entries[i][j]

    def to_dict(self) -> dict:
        return {
            "a": self.curve_a,
            "b": self.curve_b,
            "cosets_a": [list(c) for c in self.cosets_a],
            "cosets_b": [list(c) for c in self.cosets_b],
            "entries": [
                [
                    e.to_json() if isinstance(e, UndefinedEntry) else format_rational(e)
                    for e in row
                ]
                for row in self.entries
            ],
        }


def linking_matrix(cover: CoverStructure, curve_a: int | str, curve_b: int | str) -> LinkingReport:
    """Linking numbers of every lift of curve_a with every lift of curve_b.

    Rows follow the lift cosets of curve_a, columns those of curve_b.
    Self-pairings (same curve, same coset) and lifts that fail to bound
    rationally produce UndefinedEntry values rather than errors.

    The deck shift preserves linking numbers and carries coset i of each
    curve to coset i + 1, so entry (i, j) is entry (0, (j - i) mod g_b) for
    g_b cosets of curve_b: only row 0 is summed, and row i is row 0
    rotated i places to the right, one slice each. Self-pairings and
    undefined entries follow the same orbits.
    """
    ai, _ = _lift(cover, curve_a, 1)  # sheet 1 lies in the first coset
    bi, _ = _lift(cover, curve_b, 1)
    cosets_a = cover.components_of[ai]
    cosets_b = cover.components_of[bi]
    first = tuple(_entry(cover, ai, cosets_a[0], bi, gb) for gb in cosets_b)
    g = len(cosets_b)
    entries = tuple(first[-i % g:] + first[:-i % g] for i in range(len(cosets_a)))
    return LinkingReport(ai, bi, cosets_a, cosets_b, entries)
