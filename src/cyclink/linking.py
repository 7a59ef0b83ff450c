"""Linking numbers between lifted curves, read off a bounding chain.

Once a chain bounding one lifted curve is known, its linking number with any
other lifted curve is a finite sum over the second curve's underpasses: each
time the walked curve dives under a wall it picks up that wall lift's
coefficient, signed by the crossing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cover import CoverStructure, resolve_coset, wrap_sheet
from .homology import TwoChain, _solved_chains, bounding_chain
from .rational_linalg import format_rational

SELF_PAIRING = "self-pairing"
NOT_NULL_HOMOLOGOUS = "not rationally null-homologous"


@dataclass(frozen=True)
class UndefinedEntry:
    """Marker for a linking number the theory does not define."""

    reason: str

    def to_json(self) -> dict:
        return {"undefined": self.reason}


def _linking_sum(cover: CoverStructure, chain: TwoChain, gamma: int, group: tuple[int, ...]) -> Fraction:
    diagram = cover.diagram
    branch = diagram.branch
    q = cover.q
    comp = diagram.components[gamma]
    chain_sheets = set(chain.coset)
    total = Fraction(0)
    for j in group:
        for up, off in zip(comp.underpasses, cover.sigma[gamma]):
            oc, oa = up.over.component, up.over.arc
            s = wrap_sheet(j + off, q)
            if oc == branch:
                total += up.sign * chain.x[oa][s - 1]
            elif oc == chain.curve and s in chain_sheets:
                total += up.sign
    return total


def linking_number(cover: CoverStructure, chain: TwoChain, gamma: int | str, coset_j) -> Fraction | UndefinedEntry:
    """lk of the lifted curve described by (gamma, coset_j) with chain's curve.

    Both curves must avoid the branch locus; the pairing is undefined when
    gamma's lift is not itself rationally null-homologous, and a curve cannot
    be paired with itself.
    """
    diagram = cover.diagram
    gi = diagram.component_index(gamma)
    if gi == diagram.branch:
        raise ValueError("cannot link against lifts of the branch component")
    group = resolve_coset(cover, gi, coset_j)
    if gi == chain.curve and group == tuple(chain.coset):
        raise ValueError("self-pairing: that lifted curve is the chain's own boundary")
    if bounding_chain(cover, gi, group) is None:
        return UndefinedEntry(NOT_NULL_HOMOLOGOUS)
    return _linking_sum(cover, chain, gi, group)


def _entry(cover: CoverStructure, ai: int, ga: tuple, bi: int, gb: tuple) -> Fraction | UndefinedEntry:
    """One linking matrix entry: lk of lift (ai, ga) with lift (bi, gb).

    The cosets must be canonical (see resolve_coset). The sum is read off
    the chain bounding (bi, gb), as in linking_number.
    """
    if ai == bi and ga == gb:
        return UndefinedEntry(SELF_PAIRING)
    chains = _solved_chains(cover)
    if chains[(bi, gb)] is None or chains[(ai, ga)] is None:
        return UndefinedEntry(NOT_NULL_HOMOLOGOUS)
    return _linking_sum(cover, chains[(bi, gb)], ai, ga)


@dataclass(frozen=True)
class LinkingReport:
    """All pairwise linking numbers between the lifts of two curves."""

    curve_a: int
    curve_b: int
    cosets_a: tuple[tuple[int, ...], ...]
    cosets_b: tuple[tuple[int, ...], ...]
    entries: tuple[tuple[Fraction | UndefinedEntry, ...], ...]

    def entry(self, i: int, j: int) -> Fraction | UndefinedEntry:
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
    """
    diagram = cover.diagram
    ai = diagram.component_index(curve_a)
    bi = diagram.component_index(curve_b)
    if diagram.branch in (ai, bi):
        raise ValueError("cannot link against lifts of the branch component")
    cosets_a = cover.components_of[ai]
    cosets_b = cover.components_of[bi]
    return LinkingReport(
        curve_a=ai,
        curve_b=bi,
        cosets_a=cosets_a,
        cosets_b=cosets_b,
        entries=tuple(
            tuple(_entry(cover, ai, ga, bi, gb) for gb in cosets_b) for ga in cosets_a
        ),
    )
