"""Exact linear algebra over the rationals and the integers.

Everything here runs on arbitrary-precision numbers: `fractions.Fraction`
for rational data and Python ints for integer matrices. No floating point,
no fixed-width arithmetic. All rational work (particular solutions and
nullspaces) is one fraction-free Bareiss elimination, `_eliminate`, then
back-substitution; all integral work is one Smith reduction.

Matrices are stored dense, but the cover systems are sparse: at most four
nonzeros per row apart from the per-arc sum rows, nearly all of them +-1.
Both kernels therefore skip zero entries. Bareiss visits only the nonzero
entries of the pivot row and of each target row, and rescales a row lazily,
when it is next used, since its piv/prev rescales telescope. The Smith
reduction stops its pivot search at the first unit, skips the divisibility
sweep when the pivot is a unit, and updates S only in the active block and
only where the source row or column is nonzero. Neither the skips nor the
deferral change a result: each kernel returns the dense algorithm's integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, islice
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


@dataclass(frozen=True)
class SNFResult:
    """A = U S V with U, V unimodular and S diagonal, s_i | s_{i+1}, s_i >= 0."""

    U: list
    S: list
    V: list

    @property
    def diagonal(self) -> list[int]:
        return [self.S[i][i] for i in range(min(len(self.S), len(self.S[0]) if self.S else 0))]


class _SmithWorkspace:
    """Row/column reduction of an integer matrix to Smith normal form.

    Row operations are mirrored on an optional right-hand side (giving R b
    for the accumulated row transform R). With transforms=True they also
    land inversely on U, and column operations inversely on V, so that
    A = U S V holds at every step; callers that never read U and V skip them.

    Step t of `reduce` works on the block of S from row t and column t on;
    outside it, S is already diagonal, so the operations on S visit only
    that block, and within it only the nonzero entries of the source row or
    column. U and V are dense and updated in full.
    """

    def __init__(self, matrix, rhs=None, transforms=False):
        self.S = [[int(x) for x in row] for row in matrix]
        self.m = len(self.S)
        self.n = len(self.S[0]) if self.S else 0
        self.t = 0
        self.U = self.V = None
        if transforms:
            self.U = [[int(i == j) for j in range(self.m)] for i in range(self.m)]
            self.V = [[int(i == j) for j in range(self.n)] for i in range(self.n)]
        self.c = None if rhs is None else [int(x) for x in rhs]

    def swap_rows(self, i, j):
        if i == j:
            return
        self.S[i], self.S[j] = self.S[j], self.S[i]
        if self.U is not None:
            for row in self.U:
                row[i], row[j] = row[j], row[i]
        if self.c is not None:
            self.c[i], self.c[j] = self.c[j], self.c[i]

    def add_row(self, i, j, k):
        """row_i += k * row_j on S; the inverse operation lands on U."""
        if k == 0:
            return
        si, sj = self.S[i], self.S[j]
        # row j is zero before column t
        for col in compress(range(self.n), sj):
            si[col] += k * sj[col]
        if self.U is not None:
            for row in self.U:
                row[j] -= k * row[i]
        if self.c is not None:
            self.c[i] += k * self.c[j]

    def negate_row(self, i):
        self.S[i] = [-x for x in self.S[i]]
        if self.U is not None:
            for row in self.U:
                row[i] = -row[i]
        if self.c is not None:
            self.c[i] = -self.c[i]

    def swap_cols(self, i, j):
        if i == j:
            return
        for row in islice(self.S, self.t, None):
            row[i], row[j] = row[j], row[i]
        if self.V is not None:
            self.V[i], self.V[j] = self.V[j], self.V[i]

    def add_col(self, j, i, k):
        """col_j += k * col_i on S; the inverse operation lands on V."""
        if k == 0:
            return
        for row in islice(self.S, self.t, None):
            if row[i]:
                row[j] += k * row[i]
        if self.V is not None:
            vi, vj = self.V[i], self.V[j]
            for col in range(len(vi)):
                vi[col] -= k * vj[col]

    def _pivot(self):
        """The first entry of least absolute value in the active block, row-major.

        A unit is the least possible, so the scan stops at the first one.
        """
        S, t = self.S, self.t
        best = None
        for i in range(t, self.m):
            row = S[i]
            # row i is zero before column t
            for j in compress(range(self.n), row):
                v = abs(row[j])
                if best is None or v < best[0]:
                    if v == 1:
                        return i, j
                    best = (v, i, j)
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
        for i in range(min(m, n)):
            if S[i][i] < 0:
                self.negate_row(i)


def smith_normal_form(matrix) -> SNFResult:
    """Smith normal form with both unimodular transforms, A = U S V."""
    ws = _SmithWorkspace(matrix, transforms=True)
    ws.reduce()
    return SNFResult(U=ws.U, S=ws.S, V=ws.V)


def minimal_scalar_integer_solution(matrix, rhs) -> int | None:
    """Least d >= 1 such that A x = d b has an integer solution x.

    Returns None when A x = b is not even rationally solvable. Writing
    A = U S V and c = U^{-1} b, solvability forces c to vanish on the zero
    rows of S, and each pivot row contributes s_i / gcd(s_i, c_i) to d.
    """
    ws = _SmithWorkspace(matrix, rhs)
    ws.reduce()
    diag = [ws.S[i][i] for i in range(min(ws.m, ws.n))]
    d = 1
    for i in range(ws.m):
        s = diag[i] if i < len(diag) else 0
        if s == 0:
            if ws.c[i] != 0:
                return None
        elif ws.c[i] != 0:
            d = lcm(d, s // gcd(s, ws.c[i]))
    return d
