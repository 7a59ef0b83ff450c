"""Rational 2-chains bounding lifted curves in a cyclic branched cover.

The cover deformation-retracts onto a 2-complex with one vertical wall per
arc lift and one horizontal cell per sheet gap; a lifted curve bounds
rationally iff a linear system over the wall coefficients is consistent.
assemble_system writes that system down, bounding_chain solves it, and
verify_boundary recomputes the boundary of a candidate chain on the branch
wall edges, independently of how the system was assembled, in integers
over the lcm of the chain's denominators.

Sheets are 0-based throughout: column i*q + s is the lift of branch arc i
to sheet s + 1, and coset s of a curve is the one that starts at sheet
s + 1. The deck shift of the sheets permutes the cover system while
carrying each lift of a curve to the next, so each curve's first coset is
solved once per cover (`_first_solutions`), and every other chain is a
shift of it. The deck-group gauge, which changes no linking number, is
fixed by setting the branch's last arc to 0.

Every cover is solved on the branch's Alexander matrix M(t), one Laurent
row per run of the branch, in cyclink.alexander, which is imported only
once a cover is solved. Where the last Bareiss pivot D of its unit
phase's tail is a unit mod t^q - 1 the cover is a rational homology
sphere, as every corpus cover is, and the chains come from 1/D. On other
covers, such as a trefoil branch at q = 6, that tail is factored once on
the sheets, and the chains and the multiples are read off it. M(t) shares
no row with the full system of assemble_system, so the tests check both
against it. Each first solution is integer rows over one denominator d
in lowest terms, and Fractions are made only for a TwoChain. On a
rational homology sphere the solution is unique, and a curve's integral
multiple is that d, the lcm of its chain's denominators. The `cyclink`
logger reports each solve and each multiple at DEBUG level.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .cover import CoverStructure, _lift
from .diagram import _integer, _Record
from .rational_linalg import _fractions, _log_debug, _multiple
from .rational_linalg import format_rational, parse_rational

# assemble_system hands the system out dense, so above this many entries
# it is refused before the dense matrix is built (the corpus systems reach
# about 4 * 10**4).
MAX_SYSTEM_ENTRIES = 4_000_000

# The full system would have n(q + 1) rows for n branch arcs, though no
# solve builds it; above this many the cover is refused before M(t) is.
# The cap bounds the chain, n q coefficients that grow with q, and the
# tail's sheet system, q rows per tail row. At stevedore_w0 q=1999 (20,000
# rows) the first solutions take 0.18-0.24 s, a chain's Fractions 0.14 s
# more, evaluate_obstruction 0.28-0.34 s (50 MB peak); at twobridge_m2's
# cap q=768, 0.34-0.37 s, 0.6 s more and 0.37-0.39 s (39 MB); at the
# clasped wire's q=2496, no rational homology sphere, whose tail is 4,992
# x 2,496 on the sheets, 0.05-0.07 s and 0.22-0.23 s (67 MB, mostly its
# undefined 2496 x 2496 table). CPU time and peak RSS of one process on
# one core of a 2-vCPU host.
MAX_SYSTEM_ROWS = 20_000


class TwoChain(_Record):
    """A rational 2-chain whose boundary is one lifted curve.

    x[i][j-1] is the coefficient of the j-th lift of the wall under branch
    arc i; the lifted curve is the union of path-lifts of component `curve`
    over the sheets in `coset`, each taken with coefficient 1. An entry
    that is not exactly an int or a Fraction raises ValueError.
    """

    __slots__ = _fields = ("curve", "coset", "x")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Rows are frozen before the check, so it holds for the chain's life;
        # a float would be summed inexactly, and True is not a coefficient.
        x = tuple(map(tuple, self.x))
        for row in x:
            for v in row:
                if type(v) is not int and type(v) is not Fraction:
                    raise ValueError(f"chain entry {v!r} is not an int or a Fraction")
        object.__setattr__(self, "x", x)

    def coefficient(self, arc: int, sheet: int) -> Fraction:
        # Exact type tests, as in _lift: True would read arc 1, and -1 wraps.
        if type(arc) is not int or type(sheet) is not int or not (0 <= arc < len(self.x) and 0 < sheet <= len(self.x[arc])):
            raise ValueError(f"no coefficient at arc {arc!r}, sheet {sheet!r}")
        return self.x[arc][sheet - 1]

    def to_dict(self) -> dict:
        return {
            "curve": self.curve,
            "coset": list(self.coset),
            "x": [[format_rational(v) for v in row] for row in self.x],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TwoChain":
        if not isinstance(data, dict):
            raise ValueError("chain JSON must be an object")
        try:
            curve = _integer(data["curve"], "curve")
            coset = tuple(_integer(s, f"coset[{k}]") for k, s in enumerate(data["coset"]))
            x = data["x"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed chain JSON: {exc}") from exc
        # A string row would be read one character at a time.
        if not isinstance(x, list) or not all(isinstance(row, list) for row in x):
            raise ValueError(f"x must be a list of lists of rationals, not {x!r}")
        try:
            x = tuple(tuple(parse_rational(v) for v in row) for row in x)
        except ValueError as exc:
            raise ValueError(f"x: {exc}") from exc
        return cls(curve=curve, coset=coset, x=x)


def _chain_lift(cover: CoverStructure, chain: TwoChain) -> tuple[int, tuple[int, ...]]:
    """The lift a chain bounds, once its shape is checked against the cover."""
    x = chain.x
    if len(x) != cover.diagram.components[cover.diagram.branch].arc_count or set(map(len, x)) - {cover.q}:
        raise ValueError("chain shape does not match this cover")
    return _lift(cover, chain.curve, chain.coset)


def _refuse_rows(n: int, q: int) -> None:
    """ValueError if the full system of n branch arcs, n(q + 1) rows, is
    above MAX_SYSTEM_ROWS; checked before any row is built."""
    if n + n * q > MAX_SYSTEM_ROWS:
        raise ValueError(
            f"the cover system would be {n + n * q} x {n * q}, above the "
            f"limit of {MAX_SYSTEM_ROWS} rows"
        )


def _system_matrix(cover: CoverStructure):
    """The coefficient matrix of assemble_system as {col: int} rows, with its width.

    Column i*q + s holds the lift of branch arc i to sheet s + 1: the sum
    rows, then R_{i,s} for every underpass i and sheet s. No solve builds
    it; M(t) shares no row with it, so the tests read it as the oracle.
    """
    q, branch = cover.q, cover.diagram.branch
    comp = cover.diagram.components[branch]
    n = comp.arc_count
    _refuse_rows(n, q)
    # Vertical walls are built from sheet-gap cells, so the per-arc
    # coefficients must sum to zero.
    rows = [{i * q + s: 1 for s in range(q)} for i in range(n)]
    for i, (up, off) in enumerate(zip(comp.underpasses, cover.sigma[branch])):
        here, ahead, eps = i * q, (i + 1) % n * q, up.sign
        over = up.over.arc * q if up.over.component == branch else None
        for s in range(q):
            row = {here + s: 1}
            row[ahead + s] = row.get(ahead + s, 0) - 1
            if over is not None:
                a, b = over + (s + off) % q, over + (s + 1 + off) % q
                row[a] = row.get(a, 0) - eps
                row[b] = row.get(b, 0) + eps
            # Curve walls have fixed coefficients; _system_rhs carries them.
            rows.append({col: v for col, v in row.items() if v} if 0 in row.values() else row)
    return rows, n * q


def _system_rhs(cover: CoverStructure, ci: int, group: tuple[int, ...]) -> list[int]:
    """The right-hand side of assemble_system, row for row with the matrix."""
    branch = cover.diagram.branch
    q = cover.q
    comp = cover.diagram.components[branch]
    inside = [False] * q
    for j in group:
        inside[j - 1] = True
    rhs = [0] * comp.arc_count
    for up, off in zip(comp.underpasses, cover.sigma[branch]):
        if up.over.component == ci:
            rhs += [up.sign * (inside[(s + off) % q] - inside[(s + 1 + off) % q]) for s in range(q)]
        else:
            rhs += [0] * q
    return rhs


def assemble_system(cover: CoverStructure, curve: int | str, coset):
    """Linear system for chains bounding the given lifted curve.

    Returns (A, b, columns) where columns maps (branch arc, sheet) to the
    column index of that wall lift's coefficient. A depends only on the
    cover; only b depends on which lifted curve is being bounded.
    """
    ci, group = _lift(cover, curve, coset)
    rows, width = _system_matrix(cover)
    if len(rows) * width > MAX_SYSTEM_ENTRIES:
        raise ValueError(
            f"the cover system would be {len(rows)} x {width}, above the "
            f"limit of {MAX_SYSTEM_ENTRIES} entries"
        )
    q = cover.q
    columns = {(i, j): i * q + j - 1 for i in range(width // q) for j in range(1, q + 1)}
    dense = []
    for row in rows:
        entries = [0] * width
        for col, v in row.items():
            entries[col] = v
        dense.append(entries)
    return dense, _system_rhs(cover, ci, group), columns


def _curves(cover: CoverStructure) -> list[int]:
    # components_of is None at the branch, which has no lifts to bound.
    return [ci for ci, cosets in enumerate(cover.components_of) if cosets]


def _reduced(x: list, D: int, q: int) -> tuple:
    """x / D as (rows, d): x and D over gcd(D, *x), with D's sign moved
    into x so that d > 0, and x cut into rows of q. Then gcd(d, *x) = 1,
    so d is the lcm of the denominators of x / D."""
    g = gcd(D, *x)
    if D < 0:
        g = -g
    if g != 1:
        x = [v // g for v in x]
    return [x[k:k + q] for k in range(0, len(x), q)], D // g


def _first_solutions(cover: CoverStructure) -> dict:
    """Each curve's first-coset solution as (rows, d), keyed by curve, or
    None if it has none, solved once on M(t) (alexander._solve).

    rows[i][j-1] / d is the coefficient of the lift of branch arc i to
    sheet j, n rows of q ints over one denominator d > 0 in lowest terms
    (`_reduced`), so d is the lcm of the chain's denominators. The coset
    that starts at sheet 1+s is bounded by x_s[i][j] = x_0[i][(j - s) mod
    q]. Fractions are made only for a TwoChain (`_chain`).
    """
    memo = cover._memo
    if "solutions" not in memo:
        _refuse_rows(cover.diagram.components[cover.diagram.branch].arc_count, cover.q)
        # Imported here, so that validate and info never compile it.
        from .alexander import _solve

        found, memo["tail"] = _solve(cover, _curves(cover))
        memo["solutions"] = {ci: s and _reduced(*s, cover.q) for ci, s in found.items()}
    return memo["solutions"]


def _chain(cover: CoverStructure, ci: int, group: tuple[int, ...]) -> TwoChain | None:
    """The chain of a canonical lift, made when first asked for and kept on
    the cover: on the curve's first coset its first solution as Fractions,
    on another that chain shifted by the deck group."""
    chains = cover._memo.setdefault("chains", {})
    if (ci, group) not in chains:
        solution = _first_solutions(cover)[ci]
        q, s = cover.q, group[0] - 1  # the deck shift from the first coset
        if solution is None:
            chain = None
        elif s == 0:
            rows, d = solution
            chain = TwoChain(ci, group, [_fractions(row, d) for row in rows])
        else:
            # The first chain's rows are tuples of checked entries, so the
            # shifted rows need no check (TwoChain._make).
            x = _chain(cover, ci, cover.components_of[ci][0]).x
            chain = TwoChain._make((ci, group, tuple(row[q - s:] + row[:q - s] for row in x)))
        chains[(ci, group)] = chain
    return chains[(ci, group)]


def bounding_chain(cover: CoverStructure, curve: int | str, coset) -> TwoChain | None:
    """One rational chain bounding the lifted curve, or None if none exists.

    The chain of the curve's first coset is 0 on the branch's last arc. On
    a rational homology sphere it is the only such chain; on another cover
    it is the one that is zero on the free columns of M(t)'s tail written
    on the sheets (cyclink.alexander). The chain of the coset that starts at sheet 1+s is defined as the chain
    of the curve's first coset, shifted by the deck group s sheets up.
    """
    return _chain(cover, *_lift(cover, curve, coset))


def bounding_chains(cover: CoverStructure, curve: int | str) -> dict[tuple[int, ...], TwoChain | None]:
    """Bounding chains for every lift coset of the curve, keyed by coset.

    Unbounded lifts map to None. The dict is new on every call.
    """
    ci, _ = _lift(cover, curve, 1)  # sheet 1 lies in the first coset
    return {group: _chain(cover, ci, group) for group in cover.components_of[ci]}


def minimal_bounding_multiple(cover: CoverStructure, curve: int | str, coset) -> int | None:
    """Smallest d >= 1 such that d times the lifted curve bounds integrally.

    None when the curve does not even bound rationally. The deck shift permutes
    the system, so d is the same on every coset of the curve and solved once.

    On a rational homology sphere, D a unit mod t^q - 1, the solution x_0
    that is 0 on the last arc is unique, and d is its denominator, the lcm
    of its denominators (`_first_solutions`): an integral solution of
    A y = d b, less an integral gauge vector, is d x_0. Other covers take
    the Hermite reduction (rational_linalg._multiple) on M(t)'s tail on the
    sheets, whose multiple is the cover's (cyclink.alexander).
    """
    ci, _ = _lift(cover, curve, coset)
    orders = cover._memo.setdefault("orders", {})
    if ci not in orders:
        solution = _first_solutions(cover)[ci]
        factors = cover._memo["tail"]
        if factors is None:
            d = None if solution is None else solution[1]
            _log_debug(
                "minimal multiple: the chain's denominator, %s",
                "no chain" if d is None else f"{d.bit_length()} bits",
            )
        else:
            d = _multiple(factors, _curves(cover).index(ci))
        orders[ci] = d
    return orders[ci]


def verify_boundary(cover: CoverStructure, chain: TwoChain) -> bool:
    """Recompute the chain's boundary cell by cell and compare to its curve.

    This walks the 1-cells of the branch walls directly: side edges, bottom
    edges, and the slits cut where wall lifts pass under crossings. It
    shares no code path with assemble_system.

    The curve's own walls carry coefficient 1 whatever the chain, so their
    edges always close up: each side edge is met once from either side, and
    each bottom edge is the curve. Only the branch edges decide, with the
    curve's slit terms on them. The walk is in integers: each coefficient
    is scaled by the lcm `den` of the chain's denominators, so the curve's
    slit terms carry den instead of 1. The chain bounds its curve when
    every branch edge sums to 0.
    """
    ci, group = _chain_lift(cover, chain)
    diagram = cover.diagram
    q = cover.q
    branch = diagram.branch

    den = lcm(*(v.denominator for row in chain.x for v in row))
    x = [[v.numerator * (den // v.denominator) for v in row] for row in chain.x]
    n = len(x)

    # Branch wall lifts: bottom edge on the branch arc, one side edge up
    # each neighbouring sheet gap. side[i][j-1] is the side edge on sheet j
    # shared by the lifts of arcs i and i+1.
    bottom = [sum(row) for row in x]
    side = [[a - b for a, b in zip(row, x[(i + 1) % n])] for i, row in enumerate(x)]

    # Slits: where a wall lift passes under a crossing of the branch, its
    # bottom edge is interrupted and the two sides land one sheet apart.
    # Under a crossing of any other component both sides land on the same
    # edge and cancel, so only branch underpasses contribute. Sheets are
    # 0-based here, and edges[p - 1] wraps from sheet 1 to sheet q.
    for u, up in enumerate(diagram.components[branch].underpasses):
        oc, eps, off, edges = up.over.component, up.sign, cover.sigma[branch][u], side[u]
        if oc == branch:
            for s, v in enumerate(x[up.over.arc]):
                p = (s - off) % q
                edges[p] -= eps * v
                edges[p - 1] += eps * v
        elif oc == ci:
            for s in group:
                p = (s - 1 - off) % q
                edges[p] -= eps * den
                edges[p - 1] += eps * den

    return not any(bottom) and not any(map(any, side))
