"""Chains on a cyclic branched cover, solved on its Alexander matrix.

Let X_i = sum_s x_{i,s} t^s collect the coefficients of branch arc i's
wall lifts, sheets s = 0..q-1, in R = Z[t]/(t^q - 1), t the deck shift.
The cover system's underpass rows R_{i,s}, all q sheets at once, are then
row i of M(t), the branch's n x n Alexander matrix over Z[t, 1/t]:

    X_i - X_{i+1} + eps (t^-(off+1) - t^-off) X_over = eps (t^-off - t^-(off+1)) I

The t terms stand where the branch passes under itself (over arc `over`,
sign eps), the right-hand side where it passes under the curve, and off is
the wall offset before `% q` (cover._walk), so on a writhe-0 branch M(t) is
the same at every q. I = sum_k t^(kg) holds the g-spaced sheets of the
curve's first coset. The sum rows need no row, as at t = 1 every row reads
X_i(1) = X_{i+1}(1).

M(t) is written on the knot's own arcs, the runs of `_runs`: an
underpass of another component ends no arc of the knot, and its row, X_i =
X_{i+1} + b_i, is substituted before any row is built (`_alexander_matrix`).
The last run's column is left out: it is 0, which fixes the deck-group
gauge on the branch's last arc. `_solve` then takes these steps.
- A unit phase (`_eliminate_units`) pivots on entries +-t^a, as
  rational_linalg._eliminate_units does on integers, on one row per kept
  underpass instead of n(q + 1).
- Fraction-free Bareiss (`_bareiss`) brings the small tail to echelon form
  over Z[t, 1/t], where every division is exact (`_divide`). Its last
  pivot D is +-t^k times a first minor of M(t), the Alexander polynomial.
  Nothing so far is reduced mod t^q - 1, so on a writhe-0 branch the
  factorization is the same at every q.
- u = 1/D mod t^q - 1 comes from a linear recurrence and one deg D x deg D
  integer system (`_inverse`). If that system is singular, D is a zero
  divisor mod t^q - 1 and the cover no rational homology sphere.
- If D is a unit, the echelon is back-substituted in Z[t, 1/t], which
  gives D times each tail column; times u I they are integer q-vectors
  over u's denominator. Only consistency needs I: the rows that Bareiss
  leaves below the rank must vanish times I, that is mod t^g - 1.
- If not, the unit phase's tail is written on the sheets, each right-hand
  side times I, and factored once (rational_linalg._factor); the chains
  are its solutions zero on its free columns, and the multiples its own
  (rational_linalg._multiple). Both carry over to the full system: a
  pivot +-t^a is a unit, X_i = X_rep + c_i I is integral, and with the
  last run at 0 the sum rows are implied in integers.
- Either way the retired rows are back-substituted in R, and the runs are
  expanded: x_i = x_rep + den c_i I.
"""

from __future__ import annotations

from collections import defaultdict
from heapq import heapify, heappop, heappush
from math import gcd

from .cover import CoverStructure, _walk
from .rational_linalg import _eliminate, _factor, _log_debug, _solutions

# Laurent polynomials are {exponent: int} dicts without zero coefficients.
_ONE, _MINUS_ONE = {0: 1}, {0: -1}


def _fold(p: dict, q: int) -> dict:
    """p, or p mod t^q - 1 on exponents 0..q-1 once its exponents span q or more."""
    if len(p) > 1 and max(p) - min(p) >= q:
        out = defaultdict(int)
        for e, c in p.items():
            out[e % q] += c
        return {e: c for e, c in out.items() if c}
    return p


def _mul(a: dict, b: dict) -> dict:
    if len(b) < len(a):
        a, b = b, a
    if len(a) == 1:
        (e, c), = a.items()
        return {e + f: c * v for f, v in b.items()}
    out = defaultdict(int)
    for e, c in a.items():
        for f, v in b.items():
            out[e + f] += c * v
    return {k: v for k, v in out.items() if v}


def _submul(a: dict, k: dict, b: dict) -> dict:
    """a - k b."""
    out = dict(a)
    for f, c in k.items():
        for e, v in b.items():
            e += f
            v = out.get(e, 0) - c * v
            if v:
                out[e] = v
            else:
                del out[e]
    return out


def _divide(a: dict, b: dict) -> dict:
    """a / b in Z[t, 1/t]; ArithmeticError unless b divides a."""
    if not a:
        return {}
    la, lb = min(a), min(b)
    rem = [0] * (max(a) - la + 1)
    for e, c in a.items():
        rem[e - la] = c
    div = [0] * (max(b) - lb + 1)
    for e, c in b.items():
        div[e - lb] = c
    out, top, m = {}, div[-1], len(div) - 1
    # Long division from the top; the quotient spans la - lb .. max(a) - max(b).
    for k in range(len(rem) - m - 1, -1, -1):
        if c := rem[k + m]:
            v, r = divmod(c, top)
            if r:
                break
            for j, w in enumerate(div):
                rem[k + j] -= v * w
            out[la - lb + k] = v
    if any(rem):
        raise ArithmeticError("inexact Laurent division")
    return out


def _runs(diagram) -> tuple[list[bool], list[int]]:
    """The branch's runs, which M(t) is written on: joins[i] says that
    arc i joins arc i + 1's run, across an underpass i < n - 1 of another
    component, and block[i] numbers arc i's run from 0. Underpass n - 1
    never joins, so runs do not wrap, each run's highest arc is its
    representative, and arc n - 1 represents the last run, block[-1]."""
    branch = diagram.branch
    ups = diagram.components[branch].underpasses
    n = max(1, len(ups))
    joins = [i < n - 1 and up.over.component != branch for i, up in enumerate(ups)] or [False]
    block, m = [], 0
    for join in joins:
        block.append(m)
        m += not join
    return joins, block


def _alexander_matrix(cover: CoverStructure, curves: list[int]):
    """M(t) on the branch's runs (`_runs`), less the last run's column,
    as {col: Laurent} rows, one per kept underpass; each curve's
    right-hand side on them, without I; and the merge map (block, consts),
    with which `_solve` expands the runs.

    Across an underpass i < n - 1 under another component, row i reads
    X_i - X_{i+1} = b_i, so X_i = X_{i+1} + b_i: arc i joins a run, and
    X_i = X_rep + c_i with the curve's Laurent constant c_i = c_{i+1} + b_i
    (consts[t][i], {} at a representative). The rows kept are the branch's
    self-underpasses and underpass n - 1. Row i of them reads X_i - X_{i+1}
    + K_i X_over = b_i, K_i = eps (t^-(off+1) - t^-off), and on the runs
    its right-hand side is b_i + c_{i+1} - K_i c_over, as i represents its
    run.
    """
    diagram = cover.diagram
    branch = diagram.branch
    ups = diagram.components[branch].underpasses
    offs = _walk(diagram)[1][branch]
    joins, block = _runs(diagram)
    n, last = len(block), block[-1]
    bs, consts = [], []
    for ci in curves:
        b = [{-off: up.sign, -off - 1: -up.sign} if up.over.component == ci else {} for up, off in zip(ups, offs)]
        c = [{}] * n
        for i in range(n - 2, -1, -1):
            if joins[i]:
                c[i] = _submul(c[i + 1], _MINUS_ONE, b[i]) if b[i] else c[i + 1]
        bs.append(b)
        consts.append(c)
    rows, rhs = [], [[] for _ in curves]
    for i in range(len(ups)):
        if joins[i]:
            continue
        up, off, ahead = ups[i], offs[i], (i + 1) % n
        row = {block[i]: _ONE, block[ahead]: _MINUS_ONE}  # one entry where both are the last run
        k = over = None
        if up.over.component == branch:
            k, over = {-off - 1: up.sign, -off: -up.sign}, up.over.arc
            row[block[over]] = _submul(row.get(block[over], {}), _MINUS_ONE, k)
        rows.append({col: p for col, p in row.items() if col < last and p})  # the last run is 0
        for b, c, r in zip(bs, consts, rhs):
            v = _submul(b[i], _MINUS_ONE, c[ahead]) if c[ahead] else b[i]
            r.append(_submul(v, k, c[over]) if k and c[over] else v)
    return rows, rhs, (block, consts)


def _eliminate_units(rows, rhs):
    """rational_linalg._eliminate_units on {col: Laurent} rows: the units are
    +-t^a, and every entry stays in Z[t, 1/t], unreduced mod t^q - 1. A row
    retires as (col, a, u, rest, b): u t^a x_col + rest . x = b, u = +-1.

    Returns the live rows, each right-hand side on them, and the retired
    rows in pivot order.
    """
    where = defaultdict(set)
    for i, row in enumerate(rows):
        for j in row:
            where[j].add(i)
    queue = [(len(row), i) for i, row in enumerate(rows)]
    heapify(queue)
    retired = []
    while queue:
        length, r = heappop(queue)
        row_r = rows[r]
        if row_r is None or len(row_r) != length:
            continue
        col = None
        for j, p in row_r.items():
            if len(p) == 1 and abs(next(iter(p.values()))) == 1:
                k = len(where[j])
                if col is None or k < fewest or k == fewest and j < col:
                    col, fewest = j, k
        if col is None:
            continue  # queued again if a later pivot changes the row
        rows[r] = None
        for j in row_r:
            where[j].remove(r)
        (a, u), = row_r.pop(col).items()
        items = list(row_r.items())
        b_r = [b[r] for b in rhs]
        for i in where.pop(col):
            row_i = rows[i]
            # row_i -= k * row_r clears col: k u t^a is row_i's entry there.
            k = {e - a: v * u for e, v in row_i.pop(col).items()}
            for j, v in items:
                new = _submul(row_i.get(j, {}), k, v)
                if new:
                    if j not in row_i:
                        where[j].add(i)
                    row_i[j] = new
                elif row_i.pop(j, None) is not None:
                    where[j].remove(i)
            for b, v in zip(rhs, b_r):
                if v:
                    b[i] = _submul(b[i], k, v)
            heappush(queue, (len(row_i), i))
        retired.append((col, a, u, row_r, b_r))
    live = [i for i, row in enumerate(rows) if row is not None]
    return [rows[i] for i in live], [[b[i] for i in live] for b in rhs], retired


def _bareiss(rows, c: int):
    """Fraction-free elimination over Z[t, 1/t] on the first c columns of
    dense rows of Laurent entries, any further columns riding along, in
    place. Every entry is a minor of the input, so each division is exact.
    Returns the last pivot, or None if a column has no pivot."""
    prev = _ONE
    for k in range(c):
        live = [i for i in range(k, len(rows)) if rows[i][k]]
        if not live:
            return None
        r = min(live, key=lambda i: len(rows[i][k]))
        rows[k], rows[r] = rows[r], rows[k]
        row_k = rows[k]
        piv = row_k[k]
        for row in rows[k + 1:]:
            f = row[k]
            for j in range(k + 1, len(row)):
                v = _submul(_mul(piv, row[j]), f, row_k[j])
                row[j] = _divide(v, prev) if v and k else v
            row[k] = {}
        prev = piv
    return prev


def _inverse(D: dict, q: int):
    """(u, den) with D u = den mod t^q - 1, u a list of q ints in lowest
    terms with den, or None if D is a zero divisor there.

    Mod t^q - 1, D = t^r P with P = P_0 + ... + P_d t^d, P_0 P_d != 0, of
    least degree d < q. 1/P is the periodic u with sum_k P_k u_{s-k} =
    [s = 0]. Scaled to U_s = P_0^(s+1) u_s this is the integer recurrence
    U_s = [s = 0] - sum_k c_k U_{s-k}, c_k = P_k P_0^(k-1), run from s = 0
    with U_{-j} = Y_j unknown: U_s = h_s - sum_m I_m h_{s-m}, h the
    recurrence's impulse response and I_m = sum_{k>m} c_k Y_{k-m}. The
    wrap conditions U_{q-j} = P_0^q Y_j, j = 1..d, are a d x d integer
    system (O(q d) steps in all, never a q x q circulant), singular exactly
    when P has no inverse.
    """
    f = [0] * q
    for e, c in D.items():
        f[e % q] += c
    nz = [s for s, v in enumerate(f) if v]
    if not nz:
        return None
    # P starts after the longest cyclic run of zeros, so d is least.
    z = len(nz)
    r = max(((nz[(i + 1) % z] - nz[i] - 1) % q, nz[(i + 1) % z]) for i in range(z))[1]
    P = f[r:] + f[:r]
    d = max(s for s, v in enumerate(P) if v)
    p0 = P[0]
    if d == 0:
        u, den = [1] + [0] * (q - 1), p0
    else:
        c = [0] + [P[k] * p0 ** (k - 1) for k in range(1, d + 1)]
        h = [1] + [0] * (q - 1)
        for s in range(1, q):
            h[s] = -sum(c[k] * h[s - k] for k in range(1, min(s, d) + 1))
        top = p0 ** q
        wrap = [
            [sum(c[i + m] * h[q - j - m] for m in range(d - i + 1) if q - j - m >= 0) + (top if i == j else 0) for i in range(1, d + 1)]
            + [h[q - j]]
            for j in range(1, d + 1)
        ]
        if len(_eliminate(wrap, d, d, d + 1)) < d:
            return None
        det, Y = wrap[-1][-2], [0] * d  # Y_j = Y[j - 1] / det
        for k in range(d - 1, -1, -1):
            row = wrap[k]
            Y[k] = (det * row[d] - sum(row[j] * Y[j] for j in range(k + 1, d))) // row[k]
        I = [sum(c[k] * Y[k - m - 1] for k in range(m + 1, d + 1)) for m in range(d)]
        u = [0] * q
        scale = 1
        for s in range(q - 1, -1, -1):  # u_s = det U_s / (det P_0^(s+1)), over det P_0^q
            u[s] = (det * h[s] - sum(I[m] * h[s - m] for m in range(min(s, d - 1) + 1))) * scale
            scale *= p0
        den = det * top
    g = gcd(den, *u)
    return [v // g for v in u[r:] + u[:r]], den // g


def _times(p: dict, x: list, q: int) -> list:
    """p x mod t^q - 1, x a list of q coefficients."""
    shifts = defaultdict(int)  # p mod t^q - 1, as x's rotations
    for e, c in p.items():
        shifts[-e % q] += c
    out = [0] * q
    for s, c in shifts.items():
        if c:
            out = [o + c * v for o, v in zip(out, x[s:] + x[:s])]
    return out


def _sheets(p: dict, g: int, q: int, scale: int = 1) -> list:
    """scale p I mod t^q - 1 as q coefficients: entry s sums p's
    coefficients at exponents congruent to s mod g."""
    out = [0] * g
    for e, c in p.items():
        out[e % g] += scale * c
    return out * (q // g)


def _on_sheets(tail, rhs, cols, gs, q):
    """The unit phase's tail as integer rows on the sheets, and each
    right-hand side times I (g = gs[t]): row k q + s of tail row k holds
    p_e at column k_j q + (s - e) mod q for each entry p of column j, k_j
    its place in cols."""
    at = {j: k * q for k, j in enumerate(cols)}
    rows = []
    for row in tail:
        sheets = [{} for _ in range(q)]
        for j, p in row.items():
            for e, v in p.items():
                for s, out in enumerate(sheets):
                    k = at[j] + (s - e) % q
                    out[k] = out.get(k, 0) + v
        rows += [{k: v for k, v in out.items() if v} for out in sheets]
    return rows, [[v for b in r for v in _sheets(b, g, q)] for r, g in zip(rhs, gs)]


def _factor_laurent(cover: CoverStructure, curves: list[int]):
    """M(t) on the runs with each curve's right-hand side through the unit
    phase and Bareiss, all in Z[t, 1/t], so the same at every q on a
    writhe-0 branch: the tail and each right-hand side on it as the unit
    phase left them; the tail's echelon rows, the right-hand sides riding
    along; the tail's columns; the retired rows; D, the last pivot, or None
    if the tail's columns are dependent over Q(t); and the merge map."""
    rows, rhs, merge = _alexander_matrix(cover, curves)
    tail, rhs, retired = _eliminate_units(rows, rhs)
    pivoted = {col for col, *_ in retired}
    cols = [j for j in range(merge[0][-1]) if j not in pivoted]
    echelon = [[row.get(j, {}) for j in cols] + [b[i] for b in rhs] for i, row in enumerate(tail)]
    return tail, rhs, echelon, cols, retired, _bareiss(echelon, len(cols)), merge


def _solve(cover: CoverStructure, curves: list[int]):
    """Each curve's first solution as (x, den), x[i*q + s] / den the
    coefficient of the lift of branch arc i to sheet s + 1, or None where
    the curve bounds no chain; and the tail's sheet system factored
    (rational_linalg._factor), or None if D is a unit mod t^q - 1. Logs
    one DEBUG line, and a second on the sheets."""
    q = cover.q
    tail, rhs, echelon, cols, retired, D, (block, consts) = _factor_laurent(cover, curves)
    c, w = len(cols), len(cols) * q
    gs = [len(cover.components_of[ci]) for ci in curves]
    inverse = None if D is None else _inverse(D, q)
    _log_debug(
        "alexander route: M(t) %d x %d, %d unit steps, tail %d x %d, %s",
        len(retired) + len(echelon), block[-1], len(retired), len(echelon), c,
        "tail columns dependent" if D is None else
        f"D of degree {max(D) - min(D)}, {max(abs(v) for v in D.values()).bit_length()} bits, "
        + (f"a zero divisor mod t^{q} - 1" if inverse is None else f"1/D over {inverse[1].bit_length()} bits"),
    )
    found = {}  # t: ({tail column: q ints, times I}, den)
    factors = None
    if inverse:
        u, den = inverse
        for t, g in enumerate(gs):
            # Below the rank each row must vanish times I, that is mod t^g - 1.
            if any(_fold(row[c + t], g) for row in echelon[c:]):
                continue
            y = [None] * c  # D times the tail's columns, in Z[t, 1/t]
            for k in range(c - 1, -1, -1):
                row = echelon[k]
                acc = _mul(D, row[c + t])
                for j in range(k + 1, c):
                    acc = _submul(acc, row[j], y[j])
                y[k] = _divide(acc, row[k])
            uI = u if g == q else [sum(u[s::g]) for s in range(g)] * (q // g)
            found[t] = {col: _times(y[k], uI, q) for k, col in enumerate(cols)}, den
    else:
        sheet_rows, sheet_rhs = _on_sheets(tail, rhs, cols, gs, q)
        factors = _factor(sheet_rows, sheet_rhs, w)
        _log_debug(
            "tail route: sheet system %d x %d, %d unit steps, rank %d, nullity %d",
            len(sheet_rows), w, len(factors.retired), w - len(factors.free), len(factors.free),
        )
        for t, s in enumerate(_solutions(factors, w)):
            if s:
                found[t] = {col: s[0][k * q:k * q + q] for k, col in enumerate(cols)}, s[1]
    solutions = dict.fromkeys(curves)
    zero = [0] * q  # the last run
    for t, (x, den) in found.items():
        g = gs[t]
        for col, a, sign, rest, b in reversed(retired):
            acc = _sheets(b[t], g, q, den)
            for j, p in rest.items():
                acc = [s - v for s, v in zip(acc, _times(p, x[j], q))]
            s = a % q  # x_col = sign t^-a acc
            x[col] = [sign * v for v in acc[s:] + acc[:s]]
        flat = []
        for k, ck in zip(block, consts[t]):
            row = x.get(k, zero)
            if ck:
                row = row[:]
                for e, v in ck.items():
                    v *= den
                    for s in range(e % g, q, g):
                        row[s] += v
            flat += row
        solutions[curves[t]] = (flat, den)
    return solutions, factors
