"""Exact linear algebra over the rationals and the integers.

Everything here runs on arbitrary-precision numbers: `fractions.Fraction`
for rational data and Python ints for integer matrices. No floating point,
no fixed-width arithmetic. All rational work (particular solutions and
nullspaces) is one fraction-free Bareiss elimination, `_eliminate`, then
back-substitution. The integral work, the least multiple d for which
A x = d b has an integer solution, is a sparse unit-pivot elimination and
then a Hermite reduction modulo a maximal minor of the small tail it leaves.

Matrices are passed dense, but the cover systems are sparse: at most four
nonzeros per row apart from the per-arc sum rows, nearly all of them +-1.
Bareiss visits only the nonzero entries of the pivot row and of each target
row, and rescales a row lazily, when it is next used, since its piv/prev
rescales telescope; it returns the dense algorithm's integers. The unit
phase keeps each row as a {column: entry} dict with a column-to-rows index
and needs row operations only, because a +-1 pivot adds nothing to d. The
Hermite reduction then sees only the independent rows of what is left,
with every entry reduced modulo their minor, so none grows past it. The
`cyclink` logger reports each multiple's unit steps, tail shape and minor
size at DEBUG level.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import compress
from math import gcd, lcm


def format_rational(value: Fraction | int) -> str:
    """Serialize as 'p/q' in lowest terms, or plain 'p' for integers."""
    return str(Fraction(value))


def parse_rational(text: str) -> Fraction:
    """Read 'p/q' or 'p'; ValueError for anything but such a string."""
    # Fraction() would read 0.5 and True without a word.
    if not isinstance(text, str):
        raise ValueError(f"a rational must be a string, not {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc


def _integer_row(values: list) -> list:
    """The values scaled by the lcm of their denominators, unless all are ints."""
    if all(isinstance(x, int) for x in values):
        return values
    entries = [Fraction(x) for x in values]
    scale = lcm(*(x.denominator for x in entries))
    return [int(x * scale) for x in entries]


def _integer_rows(matrix, rhss):
    """Scale each row of [A|b_1..b_k] by the lcm of denominators, as int rows."""
    return [_integer_row(list(row) + [rhs[i] for rhs in rhss]) for i, row in enumerate(matrix)]


def _rescale(row, start, width, num, den):
    """row[j] = num * row[j] // den for the nonzero entries from start on."""
    if num != den:
        for j in compress(range(start, width), row[start:]):
            row[j] = num * row[j] // den


def _eliminate(rows, m, n, width):
    """In-place Bareiss forward elimination on integer rows of length width.

    Pivots are chosen among the first n columns only; any trailing columns
    ride along. Returns the pivot (row, col) list; after return, rows below
    the last pivot are zero in all n pivot-eligible columns.

    Each dense step sets row_i[j] = (piv * row_i[j] - factor * row_r[j]) // prev
    for every target row i and column j >= col. With a zero factor that is a
    piv/prev rescale; these telescope, so seen[i] keeps the pivot row i was
    last brought up to date with, and the row is scaled by prev // seen[i]
    only when it is next the pivot row or a target with a nonzero factor, or
    at the end if it stays below the rank. An update visits only the entries
    that can change: rows from r on are zero before col, and where row_r[j]
    is zero it is a rescale. Every entry ends as the dense algorithm's integer.
    """
    pivots: list[tuple[int, int]] = []
    seen = [1] * m
    prev = 1
    r = 0
    for col in range(n):
        pivot_row = next((i for i in range(r, m) if rows[i][col] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        seen[r], seen[pivot_row] = seen[pivot_row], seen[r]
        row_r = rows[r]
        _rescale(row_r, col, width, prev, seen[r])
        piv = row_r[col]
        support = [(j, row_r[j]) for j in compress(range(col + 1, width), row_r[col + 1:])]
        for i in range(r + 1, m):
            row_i = rows[i]
            if not row_i[col]:
                continue  # rescaling by piv/prev waits until the row is used
            _rescale(row_i, col, width, prev, seen[i])
            factor = row_i[col]
            if piv != prev:
                for j in compress(range(col + 1, width), row_i[col + 1:]):
                    if not row_r[j]:  # the update below does the others
                        row_i[j] = piv * row_i[j] // prev
            row_i[col] = 0
            for j, v in support:
                row_i[j] = (piv * row_i[j] - factor * v) // prev
            seen[i] = piv
        pivots.append((r, col))
        prev = piv
        r += 1
    for i in range(r, m):
        _rescale(rows[i], n, width, prev, seen[i])
    return pivots


def solve_particular(matrix, rhs) -> list[Fraction] | None:
    """One exact solution of A x = b, or None when the system is inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    return solve_many(matrix, [rhs])[0]


def solve_many(matrix, rhss) -> list[list[Fraction] | None]:
    """Solutions of A x = b for several right-hand sides, one elimination.

    Equivalent to [solve_particular(A, b) for b in rhss] but the coefficient
    matrix is eliminated once with every right-hand side riding along;
    consistency checks and back-substitution stay per-system.
    """
    if not rhss:
        return []
    m = len(matrix)
    if m == 0:
        return [[] for _ in rhss]
    n = len(matrix[0])
    for rhs in rhss:
        if len(rhs) != m:
            raise ValueError("right-hand side length does not match row count")
    k = len(rhss)
    rows = _integer_rows(matrix, rhss)
    pivots = _eliminate(rows, m, n, n + k)

    rank = len(pivots)
    return [
        None if any(rows[i][b] for i in range(rank, m))
        else _back_substitute(rows, pivots, [Fraction(0)] * n, b)
        for b in range(n, n + k)
    ]


def _back_substitute(rows, pivots, x, b_col=None):
    """Solve the echelon rows for x at the pivot columns, in place.

    x holds its free-column values on entry; the right-hand side is column
    b_col of the rows, or zero when b_col is None.
    """
    for row_idx, col in reversed(pivots):
        row = rows[row_idx]
        acc = Fraction(0 if b_col is None else row[b_col])
        for j in range(col + 1, len(x)):
            if row[j] and x[j]:
                acc -= row[j] * x[j]
        x[col] = acc / row[col]
    return x


def nullspace_basis(matrix) -> list[list[Fraction]]:
    """A basis of the rational nullspace of A, one vector per free column.

    The vector for free column f is 1 at f and 0 at the other free columns:
    the basis read off the reduced row echelon form.
    """
    m = len(matrix)
    if m == 0:
        return []
    n = len(matrix[0])
    rows = _integer_rows(matrix, [])
    pivots = _eliminate(rows, m, n, n)
    pivot_cols = {col for _, col in pivots}
    basis = []
    for free in range(n):
        if free in pivot_cols:
            continue
        vec = [Fraction(0)] * n
        vec[free] = Fraction(1)
        basis.append(_back_substitute(rows, pivots, vec))
    return basis


def _eliminate_units(matrix, rhs):
    """Row-only elimination with +-1 pivots on sparse rows, mirrored on rhs.

    Each row is a {col: entry} dict, and `where` maps each column to the
    live rows that are nonzero in it. While a live row holds a unit, the
    shortest such row pivots at its unit column with the fewest live rows
    (ties to the lowest index), which keeps fill-in and the loss of units
    low. The pivot column is cleared from every other live row, and the
    pivot row and column retire. The column operations that would clear the
    rest of the pivot row touch no other row, since the pivot column is zero
    elsewhere, so they are left out: the retired pair is a diagonal entry 1
    of the Smith form and adds nothing to the multiple. A row of [A | b]
    that holds a non-int is first scaled by the lcm of its denominators,
    which leaves its integer solutions unchanged.

    Returns the live rows, their right-hand sides and the number of pivots.
    """
    rows, c = [], []
    for row, b in zip(matrix, rhs):
        entries = {j: row[j] for j in compress(range(len(row)), row)}
        if type(b) is not int or not all(type(v) is int for v in entries.values()):
            *values, b = _integer_row([*entries.values(), b])
            entries = dict(zip(entries, values))
        rows.append(entries)
        c.append(b)
    where = defaultdict(set)
    for i, row in enumerate(rows):
        for j in row:
            where[j].add(i)
    # (length, row) of every live row that may hold a unit; an entry whose
    # row has since retired or changed length is stale and skipped.
    queue = [(len(row), i) for i, row in enumerate(rows)]
    heapify(queue)
    steps = 0
    while queue:
        length, r = heappop(queue)
        row_r = rows[r]
        if row_r is None or len(row_r) != length:
            continue
        units = [j for j, v in row_r.items() if v == 1 or v == -1]
        if not units:
            continue  # queued again if a later pivot changes the row
        col = min(units, key=lambda j: (len(where[j]), j))
        rows[r] = None
        for j in row_r:
            where[j].remove(r)
        u = row_r.pop(col)
        for i in where.pop(col):
            row_i = rows[i]
            k = row_i.pop(col) * u  # row_i -= k * row_r clears col, as u * u == 1
            for j, v in row_r.items():
                old = row_i.get(j)
                if old is None:
                    row_i[j] = -k * v
                    where[j].add(i)
                elif old == k * v:
                    del row_i[j]
                    where[j].remove(i)
                else:
                    row_i[j] = old - k * v
            c[i] -= k * c[r]
            heappush(queue, (len(row_i), i))
        steps += 1
    live = [i for i, row in enumerate(rows) if row is not None]
    return [rows[i] for i in live], [c[i] for i in live], steps


def minimal_scalar_integer_solution(matrix, rhs) -> int | None:
    """Least d >= 1 such that A x = d b has an integer solution x.

    Returns None when A x = b is not even rationally solvable. The unit
    pivots come first, on sparse rows (`_eliminate_units`); they leave the
    tail T y = d c. A row of [T | c] that is a rational combination of
    the others is an equation they imply for every y, so Bareiss on the
    transpose picks a maximal independent set of them, r rows. If c's row
    of the transpose is a pivot, c is outside the span of T. Otherwise the
    last pivot is an r x r minor of those rows of T, D != 0, so their
    column lattice L holds D Z^r, and d is the order of c in Z^r / L.
    The Hermite reduction modulo D (Domich, Kannan and Trotter, 1987)
    finds a triangular basis h_0, ..., h_{r-1} of L, h_i zero before i:
    h_i starts as D e_i, and a Euclid loop on coordinate i folds each
    generator into it, keeping the remainders for the next coordinate.
    Then d collects, coordinate by coordinate, the least factor that
    makes c's entry a multiple of h_i[i], and clears it with h_i. Every
    entry is kept modulo D, which changes neither L nor the order.
    """
    if len(rhs) != len(matrix):
        raise ValueError("right-hand side length does not match row count")
    rows, c, steps = _eliminate_units(matrix, rhs)
    cols = sorted(set().union(*rows))
    # [T | c] transposed: one row per column of T, then c
    c_row = list(c)
    transposed = [[row.get(j, 0) for row in rows] for j in cols] + [c_row]
    pivots = _eliminate(transposed, len(transposed), len(rows), len(rows))
    keep = [i for _, i in pivots]
    D = abs(transposed[pivots[-1][0]][pivots[-1][1]]) if pivots else 1
    # Only a program that has imported logging can have configured the
    # `cyclink` logger; importing it here would slow every CLI start.
    logging = sys.modules.get("logging")
    if logging and logging.getLogger("cyclink").isEnabledFor(logging.DEBUG):
        logging.getLogger("cyclink").debug(
            "minimal multiple: %d unit steps, tail %d x %d, %d rows independent, minor %d bits",
            steps, len(rows), len(cols), len(keep), D.bit_length(),
        )
    if any(row is c_row for row in transposed[:len(pivots)]):
        return None
    r = len(keep)
    gens = [g for j in cols if any(g := [rows[i].get(j, 0) % D for i in keep])]
    v = [c[i] % D for i in keep]
    d = 1
    for i in range(r):
        h = [0] * r
        h[i] = D
        rest = []
        for g in gens:
            while g[i]:
                k = h[i] // g[i]
                h, g = g, [(p - k * s) % D for p, s in zip(h, g)]
            if any(g):
                rest.append(g)
        gens = rest
        k = h[i] // gcd(h[i], v[i])
        t = k * v[i] // h[i]
        v = [(k * p - t * s) % D for p, s in zip(v, h)]
        d *= k
    return d
