"""Exact linear algebra over the rationals and the integers.

All arithmetic is on Python ints and `fractions.Fraction`s. Every solver
factors [A | b_1..b_k] once (`_factor`): the rows become {col: int} dicts,
a rational row scaled by the lcm of its denominators; a unit phase
(`_eliminate_units`) pivots on +-1 entries with row operations only and
keeps each retired row; fraction-free Bareiss (`_eliminate`) brings the
rest, the tail, to echelon form with the right-hand sides riding along.
The factorization's parts are named (`_Factors`), D, the last Bareiss
pivot, among them.

Rational answers follow reduced row echelon form. The free columns F are
the columns that are combinations of the columns to their left. A
particular solution is zero on F, and the null basis has one vector per f
in F, 1 at f and 0 on the rest of F. Back-substitution through the tail,
then through the retired rows, reads answers off in integers over one
denominator per vector, but for the tail's own free columns G. So the
kernel vectors for G (`_kernel`) are reduced right to left to the basis
for F (`_null_basis`), and each solution is made zero on F (`_solutions`,
which `solve_many` and a cover's chains both read). A cover factors here
only the tail of its Alexander matrix written on the sheets, and only when
it is no rational homology sphere (cyclink.alexander). The least d for which
A x = d b has an integer solution reads the same factorization
(`_multiple`). The `cyclink` logger reports each reduction and each
multiple's tail at DEBUG level.
"""

from __future__ import annotations

import sys
from collections import defaultdict, namedtuple
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import compress
from math import gcd, lcm

_ZERO = Fraction(0)


def format_rational(value: Fraction | int) -> str:
    """Serialize as 'p/q' in lowest terms, or plain 'p' for integers."""
    # An int or a Fraction prints so already; anything else, True or 0.5
    # among them, is read as a Fraction first.
    if type(value) is int or type(value) is Fraction:
        return str(value)
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


def _log_debug(message: str, *args) -> None:
    # Only a program that has imported logging can have configured the
    # `cyclink` logger; importing it here would slow every CLI start.
    logging = sys.modules.get("logging")
    if logging and logging.getLogger("cyclink").isEnabledFor(logging.DEBUG):
        logging.getLogger("cyclink").debug(message, *args)


def _sparse_rows(matrix, rhss):
    """A as {col: int} rows and each b as a list of ints, row by row scaled
    to integers, which changes neither rational nor integer solutions."""
    rows = []
    rhs = [list(b) for b in rhss]
    for i, row in enumerate(matrix):
        entries = {j: row[j] for j in compress(range(len(row)), row)}
        values = [*entries.values(), *(b[i] for b in rhs)]
        if not all(type(v) is int for v in values):
            values = [Fraction(v) for v in values]
            scale = lcm(*(v.denominator for v in values))
            values = [int(v * scale) for v in values]
            entries = dict(zip(entries, values))
            for b, v in zip(rhs, values[len(entries):]):
                b[i] = v
        rows.append(entries)
    return rows, rhs


def _fractions(values, den) -> list[Fraction]:
    return [Fraction(v, den) if v else _ZERO for v in values]


def _rescale(row, start, width, num, den):
    """row[j] = num * row[j] // den for the nonzero entries from start on."""
    if num != den:
        for j in compress(range(start, width), row[start:]):
            row[j] = num * row[j] // den


def _eliminate(rows, m, n, width):
    """In-place Bareiss forward elimination on integer rows of length width.

    Pivots are chosen among the first n columns only; any trailing columns
    ride along. Returns the pivot columns, pivot k in row k; after return,
    rows below the last pivot are zero in all n pivot-eligible columns.

    Each dense step sets row_i[j] = (piv * row_i[j] - factor * row_r[j]) // prev
    for every target row i and column j >= col. With a zero factor that is a
    piv/prev rescale; these telescope, so seen[i] keeps the pivot row i was
    last brought up to date with, and the row is scaled by prev // seen[i]
    only when it is next the pivot row or a target with a nonzero factor, or
    at the end if it stays below the rank. An update visits only the entries
    that can change: rows from r on are zero before col, and where row_r[j]
    is zero it is a rescale. Every entry ends as the dense algorithm's integer.
    """
    pivots: list[int] = []
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
        pivots.append(col)
        prev = piv
        r += 1
    for i in range(r, m):
        _rescale(rows[i], n, width, prev, seen[i])
    return pivots


def _eliminate_units(rows, rhs):
    """Row-only elimination with +-1 pivots on {col: int} rows, in place.

    rhs[t][i] is row i's entry of right-hand side t. While a live row holds
    a unit, the shortest such row pivots at its unit column with the fewest
    live rows (ties to the lowest index; `where` maps columns to live rows),
    which keeps fill-in and the loss of units low. The column is cleared
    from the other live rows, right-hand sides included, and the row retires
    as (col, u, rest, b): u x_col + rest . x = b, u = +-1, rest on columns
    still live. The column operations that would clear rest touch no other
    row, so the pair is a Smith entry 1 and adds nothing to a multiple.

    Returns the live rows, each right-hand side on them, and the retired
    rows in pivot order.
    """
    where = defaultdict(set)
    for i, row in enumerate(rows):
        for j in row:
            where[j].add(i)
    # (length, row) of every live row that may hold a unit; an entry whose
    # row has since retired or changed length is stale and skipped.
    queue = [(len(row), i) for i, row in enumerate(rows)]
    heapify(queue)
    retired = []
    while queue:
        length, r = heappop(queue)
        row_r = rows[r]
        if row_r is None or len(row_r) != length:
            continue
        col = None
        for j, v in row_r.items():
            if v == 1 or v == -1:
                k = len(where[j])
                if col is None or k < fewest or k == fewest and j < col:
                    col, fewest = j, k
        if col is None:
            continue  # queued again if a later pivot changes the row
        rows[r] = None
        for j in row_r:
            where[j].remove(r)
        u = row_r.pop(col)
        items = list(row_r.items())
        b_r = [b[r] for b in rhs]
        for i in where.pop(col):
            row_i = rows[i]
            k = row_i.pop(col) * u  # row_i -= k * row_r clears col, as u * u == 1
            for j, v in items:
                v *= k
                old = row_i.get(j)
                if old is None:
                    row_i[j] = -v
                    where[j].add(i)
                elif old == v:
                    del row_i[j]
                    where[j].remove(i)
                else:
                    row_i[j] = old - v
            for b, v in zip(rhs, b_r):
                b[i] -= k * v
            heappush(queue, (len(row_i), i))
        retired.append((col, u, row_r, b_r))
    live = [i for i, row in enumerate(rows) if row is not None]
    return [rows[i] for i in live], [[b[i] for i in live] for b in rhs], retired


# What `_factor` leaves: the tail and each b on it, the retired rows, the
# tail's columns (ascending), its echelon rows with the right-hand sides
# riding along, the echelon column of each pivot (pivot k in row k), the
# tail's free columns G, and D, the last pivot (1 without a pivot).
_Factors = namedtuple("_Factors", "tail rhs retired cols echelon pivots free D")


def _factor(rows, rhs, n: int) -> _Factors:
    """[A | b_1..b_k], as {col: int} rows and a list per b, factored once.

    The unit phase retires most rows; Bareiss brings the rest, the tail
    over the columns that never pivoted, to echelon form. The tail and each
    b are left as the unit phase left them, but in the order Bareiss left
    the echelon rows, so their first rank rows are the pivot rows.
    """
    tail, rhs, retired = _eliminate_units(rows, rhs)
    pivoted = {col for col, *_ in retired}
    cols = [j for j in range(n) if j not in pivoted]
    echelon = [[row.get(j, 0) for j in cols] + [b[i] for b in rhs] for i, row in enumerate(tail)]
    # Bareiss moves rows between slots and updates them in place.
    slot = {id(row): i for i, row in enumerate(echelon)}
    pivots = _eliminate(echelon, len(tail), len(cols), len(cols) + len(rhs))
    moved = [slot[id(row)] for row in echelon]
    used = set(pivots)
    free = [j for k, j in enumerate(cols) if k not in used]
    D = echelon[len(pivots) - 1][pivots[-1]] if pivots else 1
    return _Factors([tail[i] for i in moved], [[b[i] for i in moved] for b in rhs], retired, cols, echelon, pivots, free, D)


def _consistent(factors, t: int) -> bool:
    """Whether b_t is in the rational span of A's columns: it is zero on
    every echelon row below the rank."""
    w = len(factors.cols)
    return not any(row[w + t] for row in factors.echelon[len(factors.pivots):])


def _steps(factors):
    """Back-substitution as (col, p, rest, b), p x_col + rest . x = b with
    rest on columns solved before col or in G: the tail's pivot rows, then
    the retired rows, each last first."""
    cols, w = factors.cols, len(factors.cols)
    for row, c in reversed(list(zip(factors.echelon, factors.pivots))):
        yield cols[c], row[c], [(cols[j], row[j]) for j in compress(range(c + 1, w), row[c + 1:w])], row[w:]
    for col, u, rest, b in reversed(factors.retired):
        yield col, u, rest.items(), b


def _kernel(factors) -> dict:
    """For each g in G, D times the kernel vector that is 1 at g and 0 on
    the rest of G, as {col: int}: `_steps` with b = 0 for every g at once
    over {col: {g: int}}, as each vector has a few dozen nonzeros on a
    cover system."""
    vectors = {g: {} for g in factors.free}
    X = defaultdict(dict, {g: {g: factors.D} for g in vectors})
    for col, p, rest, _ in _steps(factors) if vectors else ():
        acc = defaultdict(int)
        for j, v in rest:
            for g, y in X[j].items():
                acc[g] -= v * y
        X[col] = {g: y // p for g, y in acc.items() if y}
    for j, ys in X.items():
        for g, y in ys.items():
            vectors[g][j] = y
    return vectors


def _primitive(w: dict) -> dict:
    """w over the gcd of its entries, its last nonzero made positive."""
    k = gcd(*w.values()) if w[max(w)] > 0 else -gcd(*w.values())
    return {j: v // k for j, v in w.items()}


def _clear(u, w, p):
    """u[p] w - w[p] u, zero at p, `_primitive` ({col: int})."""
    a, c = u[p], w[p]
    out = {j: a * w.get(j, 0) - c * u.get(j, 0) for j in w.keys() | u.keys()}
    return _primitive({j: v for j, v in out.items() if v})


def _null_basis(factors) -> list:
    """The reduced-row-echelon null basis as (f, w), f in F ascending and w
    an integer {col: int} vector: the vector for f is w / w[f].

    A kernel vector's last nonzero is a free column, and the vector for f is
    the only one that ends at f with 1 and is 0 on the rest of F. So each of
    `_kernel`'s vectors, one per g in G, is cleared at the ends of those
    before it, and they at its end. F is their ends; G = F when each ends at
    its g, and then none is cleared.
    """
    ends, kernel = {}, _kernel(factors)
    for w in map(_primitive, kernel.values()):
        for e in [e for e in w if e in ends]:
            w = _clear(ends[e], w, e)
        f = max(w)
        for e in [e for e, u in ends.items() if f in u]:
            ends[e] = _clear(w, ends[e], f)
        ends[f] = w
    if kernel:
        _log_debug("null basis: nullity %d, |F| %d, G = F: %s", len(kernel), len(ends), list(ends) == list(kernel))
    return sorted(ends.items())


def _solution(factors, n: int, t: int, basis):
    """D times the solution for b_t that is zero on F, in integers, and D:
    the one that is 0 on G (`_steps`, exact as D, the last Bareiss pivot, is
    a nonzero minor of the pivot rows), less x[f] times f's vector w / w[f]."""
    D = factors.D
    x = [0] * n
    for col, p, rest, b in _steps(factors):
        acc = D * b[t]
        for j, v in rest:
            acc -= v * x[j]
        x[col] = acc // p
    for f, w in basis:
        if c := x[f]:
            if (a := w[f]) != 1:
                x, D = [a * v for v in x], a * D
            for j, v in w.items():
                x[j] -= c * v
    return x, D


def _solutions(factors, n: int) -> list:
    """Each b's solution that is zero on F, as `_solution`'s (x, D) over n
    columns, or None where b is not `_consistent`."""
    basis = _null_basis(factors)
    return [_solution(factors, n, t, basis) if _consistent(factors, t) else None for t in range(len(factors.rhs))]


def _multiple(factors, t: int) -> int | None:
    """Least d >= 1 such that A x = d b_t has an integer solution, or None.

    Any factorization will do. A +-1 unit pivot adds nothing to d, so d is
    the least for which T y = d c has one, T the tail and c b_t on it. The
    first r tail rows, the rank, are Bareiss's pivot rows: a maximal
    independent set. If c is in the span of T, every other row of [T | c]
    is a rational combination of them, an equation they imply for every y.
    The last pivot is an r x r minor of those rows of T, so D = |last
    pivot| != 0, their column lattice L holds D Z^r, and d is the order of
    c in Z^r / L. The Hermite reduction modulo D (Domich, Kannan and
    Trotter, 1987) finds a triangular basis h_0, ..., h_{r-1} of L, h_i zero
    before i: h_i starts as D e_i, and a Euclid loop on coordinate i folds
    each generator into it, keeping the remainders for the next coordinate.
    Then d collects, coordinate by coordinate, the least factor that makes
    c's entry a multiple of h_i[i], and clears it with h_i. Every entry is
    kept modulo D, which changes neither L nor the order.
    """
    tail, r, D, consistent = factors.tail, len(factors.pivots), abs(factors.D), _consistent(factors, t)
    _log_debug(
        "minimal multiple: %d unit steps, tail %d x %d, %d rows independent, minor %d bits",
        len(factors.retired), len(tail), len(set().union(*tail)), r + (not consistent), D.bit_length(),
    )
    if not consistent:
        return None
    gens = [g for j in factors.cols if any(g := [row.get(j, 0) % D for row in tail[:r]])]
    v = [x % D for x in factors.rhs[t][:r]]
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
        e = k * v[i] // h[i]
        v = [(k * p - e * s) % D for p, s in zip(v, h)]
        d *= k
    return d


def _factor_system(matrix, rhss):
    """`_factor` of A and each b as `_sparse_rows`, and A's width,
    once every b is checked to have one entry per row of A."""
    for rhs in rhss:
        if len(rhs) != len(matrix):
            raise ValueError("right-hand side length does not match row count")
    n = len(matrix[0]) if matrix else 0
    return _factor(*_sparse_rows(matrix, rhss), n), n


def solve_particular(matrix, rhs) -> list[Fraction] | None:
    """One exact solution of A x = b, or None when the system is inconsistent.

    It is zero at every free column (one that is a combination of the
    columns to its left), so the answer is deterministic.
    """
    return solve_many(matrix, [rhs])[0]


def solve_many(matrix, rhss) -> list[list[Fraction] | None]:
    """[solve_particular(A, b) for b in rhss], from one factorization of A."""
    return [s and _fractions(*s) for s in _solutions(*_factor_system(matrix, rhss))]


def nullspace_basis(matrix) -> list[list[Fraction]]:
    """A basis of the rational nullspace of A, one vector per free column.

    The vector for free column f is 1 at f and 0 at the other free columns:
    the basis read off the reduced row echelon form.
    """
    factors, n = _factor_system(matrix, [])
    return [_fractions([w.get(j, 0) for j in range(n)], w[f]) for f, w in _null_basis(factors)]


def minimal_scalar_integer_solution(matrix, rhs) -> int | None:
    """Least d >= 1 such that A x = d b has an integer solution x.

    Returns None when A x = b is not even rationally solvable. It is read
    off one factorization of [A | b] (`_multiple`).
    """
    return _multiple(_factor_system(matrix, [rhs])[0], 0)
