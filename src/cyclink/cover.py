"""Sheet bookkeeping for cyclic covers branched over one diagram component.

Everything downstream solvers need to know about the q-fold cyclic branched
cover is combinatorial and is computed here in one pass. The deck group Z/q
acts on the sheets by cyclic shifts, so walking along a component moves the
walker from sheet j to sheet j + t mod q, and one integer t per arc records
the walk. From the walks follow which lift of a wall is crossed at each
underpass (the sigma offsets) and how path-lifts of the non-branch
components close up into connected curves (the cosets).

A lift is named by a non-branch curve and a coset of sheets; `_lift` is the
one place that resolves such a name, refuses the branch and canonicalizes
the coset, for every module that takes a lift.
"""

from __future__ import annotations

from math import gcd

from .diagram import LinkDiagram, _Record, validate, writhe

# Largest cover degree build_cover accepts. The lift cosets hold q sheet
# labels per curve, so a larger q is refused before any of them is built.
MAX_COVER_DEGREE = 1_000_000


def wrap_sheet(value: int, q: int) -> int:
    """Reduce a sheet label mod q into the range 1..q."""
    return (value - 1) % q + 1


class CoverStructure(_Record):
    """The combinatorial structure of one branched cover.

    Sheets are named 1..q; the solvers index them from 0, sheet j at j - 1.
    sigma[c][i] is the offset in 0..q-1 of the wall lift crossed at
    underpass i of component c: walking in on sheet j, the walker crosses
    the lift with superscript wrap_sheet(j + offset, q), and the lift with
    superscript s sits on sheet wrap_sheet(s - offset, q). lbar[c] and
    components_of[c] are None at the branch; elsewhere lbar[c] is the
    linking number with the branch mod q, and components_of[c] lists the
    sheet cosets that form closed lifted curves. With g =
    len(components_of[c]) = gcd(lbar[c], q), coset s holds the sheets
    s + 1, s + 1 + g, ... up to q, so sheet j lies in coset (j - 1) % g
    and the deck group carries coset 0 to coset s in s sheet shifts.

    _memo keeps what cyclink.homology solves on this cover: one solve on
    the Alexander matrix, with its tail factored on the sheets ("tail",
    None on a rational homology sphere), one solution and one multiple per
    curve, and the chains asked for. It
    starts empty and is not a field: equality, hashing and repr ignore it,
    and a copy starts empty too.
    """

    _fields = ("q", "diagram", "sigma", "lbar", "components_of")
    __slots__ = (*_fields, "_memo")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        object.__setattr__(self, "_memo", {})


def _walk(diagram: LinkDiagram) -> tuple[list[list[int]], list[list[int]]]:
    """The sheet shifts of each component's walk and its wall offsets, before
    any reduction mod q.

    shifts[c][i] is the sheet shift accumulated walking component c from
    its basepoint to the start of arc i; shifts[c][-1] closes the walk.
    offsets[c][i] is sigma[c][i] before `% q` (see CoverStructure).
    """
    branch = diagram.branch
    shifts = []
    for comp in diagram.components:
        t = [0]
        for up in comp.underpasses:
            t.append(t[-1] + (up.sign if up.over.component == branch else 0))
        shifts.append(t)
    offsets = []
    for ci, comp in enumerate(diagram.components):
        offs = []
        for i, up in enumerate(comp.underpasses):
            oc = up.over.component
            # Walls of the branch hang below a negative crossing one lift lower.
            adjust = 1 if oc == branch and up.sign < 0 else 0
            offs.append(shifts[ci][i] - shifts[oc][up.over.arc] - adjust)
        offsets.append(offs)
    return shifts, offsets


def build_cover(diagram: LinkDiagram, q: int) -> CoverStructure:
    """Compute wall offsets and lift cosets for the q-fold cover.

    The branch component must have writhe divisible by q; otherwise the
    sheets fail to close up and a ValueError points at normalize_writhe.
    """
    # An exact type test, as in _lift: True would build a cover with q True.
    if type(q) is not int or q < 1:
        raise ValueError("cover degree q must be a positive integer")
    if q > MAX_COVER_DEGREE:
        raise ValueError(
            f"cover degree q={q} is above the limit of {MAX_COVER_DEGREE} sheets"
        )
    problems = validate(diagram)
    if problems:
        raise ValueError("invalid diagram: " + "; ".join(problems))
    w = writhe(diagram, diagram.branch)
    if w % q != 0:
        raise ValueError(
            f"branch component writhe {w} is not divisible by q={q}; "
            "apply normalize_writhe to the diagram first"
        )

    shifts, offsets = _walk(diagram)
    sigma = tuple(tuple(off % q for off in comp) for comp in offsets)

    branch = diagram.branch
    lbar: list[int | None] = []
    components_of: list[tuple[tuple[int, ...], ...] | None] = []
    for ci, comp in enumerate(diagram.components):
        if ci == branch:
            lbar.append(None)
            components_of.append(None)
            continue
        l = shifts[ci][-1] % q
        lbar.append(l)
        step = gcd(l, q)  # gcd(0, q) == q: every lift closes on its own sheet
        cosets = tuple(
            tuple(range(k, q + 1, step)) for k in range(1, step + 1)
        )
        components_of.append(cosets)

    return CoverStructure(q, diagram, sigma, tuple(lbar), tuple(components_of))


def _lift(cover: CoverStructure, curve: int | str, coset) -> tuple[int, tuple[int, ...]]:
    """The component index and canonical coset of a lift, named by any sheet or all of them."""
    ci = cover.diagram.component_index(curve)
    cosets = cover.components_of[ci]
    if cosets is None:
        raise ValueError(f"component {ci} is the branch; it lifts to the branch locus, not to curves")
    # Exact type tests: True would pass as sheet 1.
    if type(coset) is int:
        if 0 < coset <= cover.q:
            return ci, cosets[(coset - 1) % len(cosets)]
        raise ValueError(f"no lift of component {ci} contains sheet {coset}")
    sheets = list(coset) if hasattr(coset, "__iter__") else [coset]
    if not all(type(s) is int for s in sheets):
        raise ValueError(f"a coset is a sheet or a collection of sheets, not {coset!r}")
    wanted = tuple(sorted(set(sheets)))
    # The coset holding the smallest sheet is the only one it can be.
    if wanted and cosets[(wanted[0] - 1) % len(cosets)] == wanted:
        return ci, wanted
    raise ValueError(f"{wanted} is not a lift component of component {ci}")


def lift_components(cover: CoverStructure, curve: int | str) -> list[tuple[int, ...]]:
    """The sheet cosets whose path-lifts join into one closed curve each."""
    return list(cover.components_of[_lift(cover, curve, 1)[0]])


def resolve_coset(cover: CoverStructure, curve: int | str, coset) -> tuple[int, ...]:
    """Canonicalize a coset given as any sheet in it or as a collection."""
    return _lift(cover, curve, coset)[1]
