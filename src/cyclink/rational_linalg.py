"""Exact linear algebra over the rationals and the integers.

Everything here runs on arbitrary-precision numbers: `fractions.Fraction`
for rational data and Python ints for integer matrices. No floating point,
no fixed-width arithmetic. All rational work (particular solutions and
nullspaces) is one fraction-free Bareiss elimination, `_eliminate`, then
back-substitution. The integral work, the least multiple d for which
A x = d b has an integer solution, is a sparse unit-pivot elimination and
then a dense Smith reduction of the small tail it leaves.

Matrices are passed dense, but the cover systems are sparse: at most four
nonzeros per row apart from the per-arc sum rows, nearly all of them +-1.
Bareiss visits only the nonzero entries of the pivot row and of each target
row, and rescales a row lazily, when it is next used, since its piv/prev
rescales telescope; it returns the dense algorithm's integers. The unit
phase keeps each row as a {column: entry} dict with a column-to-rows index
and needs row operations only, because a +-1 pivot adds nothing to d. The
Smith reduction then sees only the independent rows of what is left, and
updates S only in its active block, where the source row or column is
nonzero. The `cyclink` logger reports each multiple's unit steps and tail
shape at DEBUG level.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain, compress, islice
from math import gcd, lcm


def format_rational(value: Fraction | int) -> str:
    """Serialize as 'p/q' in lowest terms, or plain 'p' for integers."""
    return str(Fraction(value))


def parse_rational(text: str) -> Fraction:
    return Fraction(text)


def _integer_rows(matrix, rhss):
    """Scale each row of [A|b_1..b_k] by the lcm of denominators, as int rows."""
    rows = []
    for i, row in enumerate(matrix):
        merged = list(row) + [rhs[i] for rhs in rhss]
        if all(isinstance(x, int) for x in merged):
            rows.append(merged)
            continue
        entries = [Fraction(x) for x in merged]
        scale = lcm(*(x.denominator for x in entries)) if entries else 1
        rows.append([int(x * scale) for x in entries])
    return rows


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
    of the Smith form and adds nothing to the multiple.

    Returns the live rows, their right-hand sides and the number of pivots.
    """
    rows = [{j: int(row[j]) for j in compress(range(len(row)), row)} for row in matrix]
    c = [int(v) for v in rhs]
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


class _SmithWorkspace:
    """Row/column reduction of a dense integer matrix to a Smith form, in place.

    Row operations are mirrored on the right-hand side c, which ends as R c
    for the accumulated row transform R. Step t of `reduce` works on the
    block of S from row t and column t on; outside it, S is already
    diagonal, so the operations visit only that block, and within it only
    the nonzero entries of the source row or column. The diagonal keeps its
    signs.
    """

    def __init__(self, matrix, rhs):
        self.S = matrix
        self.m = len(matrix)
        self.n = len(matrix[0]) if matrix else 0
        self.t = 0
        self.c = rhs

    def swap_rows(self, i, j):
        if i == j:
            return
        self.S[i], self.S[j] = self.S[j], self.S[i]
        self.c[i], self.c[j] = self.c[j], self.c[i]

    def add_row(self, i, j, k):
        """row_i += k * row_j on S and on c."""
        if k == 0:
            return
        si, sj = self.S[i], self.S[j]
        # row j is zero before column t
        for col in compress(range(self.n), sj):
            si[col] += k * sj[col]
        self.c[i] += k * self.c[j]

    def swap_cols(self, i, j):
        if i == j:
            return
        for row in islice(self.S, self.t, None):
            row[i], row[j] = row[j], row[i]

    def add_col(self, j, i, k):
        """col_j += k * col_i on S."""
        if k == 0:
            return
        for row in islice(self.S, self.t, None):
            if row[i]:
                row[j] += k * row[i]

    def _pivot(self):
        """An entry of least absolute value in the active block.

        Among those, the least Markowitz count (row nonzeros - 1) times
        (column nonzeros - 1) wins, then the first in row-major order: the
        pivot whose row and column operations touch the fewest entries.
        """
        S, t, n = self.S, self.t, self.n
        support = [list(compress(range(n), S[i])) for i in range(t, self.m)]
        in_col = Counter(chain.from_iterable(support))
        best = None
        for i, cols in enumerate(support, t):
            for j in cols:
                key = (abs(S[i][j]), (len(cols) - 1) * (in_col[j] - 1))
                if best is None or key < best[0]:
                    best = (key, i, j)
        return None if best is None else best[1:]

    def reduce(self):
        S, m, n = self.S, self.m, self.n
        for t in range(min(m, n)):
            self.t = t
            pivot = self._pivot()
            if pivot is None:
                break
            self.swap_rows(t, pivot[0])
            self.swap_cols(t, pivot[1])

            dirty = True
            while dirty:
                dirty = False
                piv = S[t][t]
                for i in range(t + 1, m):
                    if S[i][t]:
                        self.add_row(i, t, -(S[i][t] // piv))
                        if S[i][t]:
                            # Remainder is smaller than the pivot; promote it.
                            self.swap_rows(t, i)
                            dirty = True
                            break
                if dirty:
                    continue
                for j in range(t + 1, n):
                    if S[t][j]:
                        self.add_col(j, t, -(S[t][j] // piv))
                        if S[t][j]:
                            self.swap_cols(t, j)
                            dirty = True
                            break
                if dirty:
                    continue
                piv = S[t][t]
                if abs(piv) == 1:
                    continue  # a unit divides every entry
                for i in range(t + 1, m):
                    row = S[i]
                    if any(row[j] % piv for j in compress(range(n), row)):
                        self.add_row(t, i, 1)
                        dirty = True
                        break


def minimal_scalar_integer_solution(matrix, rhs) -> int | None:
    """Least d >= 1 such that A x = d b has an integer solution x.

    Returns None when A x = b is not even rationally solvable. The unit
    pivots come first, on sparse rows (`_eliminate_units`); they leave the
    tail T y = d c. A row of [T | c] that is a rational combination of
    the others is an equation they imply for every y, so Bareiss on the
    transpose picks a maximal independent set of them, and the dense Smith
    reduction runs on those rows only. Writing them as S z = d c' with S
    diagonal, solvability forces c' to vanish on the zero rows of S, and
    each nonzero s_i contributes s_i / gcd(s_i, c'_i) to d. When c is not
    in the span of T, one row more than the rank of T is kept, and it ends
    as a zero row of S with c'_i != 0.
    """
    rows, c, steps = _eliminate_units(matrix, rhs)
    cols = sorted(set().union(*rows))
    # [T | c] transposed: one row per column of T, then c
    transposed = [[row.get(j, 0) for row in rows] for j in cols] + [list(c)]
    keep = [i for _, i in _eliminate(transposed, len(transposed), len(rows), len(rows))]
    ws = _SmithWorkspace([[rows[i].get(j, 0) for j in cols] for i in keep], [c[i] for i in keep])
    # Only a program that has imported logging can have configured the
    # `cyclink` logger; importing it here would slow every CLI start.
    logging = sys.modules.get("logging")
    if logging and logging.getLogger("cyclink").isEnabledFor(logging.DEBUG):
        logging.getLogger("cyclink").debug(
            "minimal multiple: %d unit steps, tail %d x %d, %d rows independent",
            steps, len(rows), len(cols), len(keep),
        )
    ws.reduce()
    d = 1
    for i, ci in enumerate(ws.c):
        s = ws.S[i][i] if i < ws.n else 0
        if s == 0:
            if ci != 0:
                return None
        elif ci != 0:
            d = lcm(d, s // gcd(s, ci))
    return d
