"""The Alexander-matrix route against the full cover system and sympy.

The cover's chains are solved on M(t), the branch's Alexander matrix over
Z[t, 1/t] (cyclink.alexander). The oracles: the chains read off the full
system of assemble_system (`_factor` and `_solutions` on `_system_matrix`
and `_system_rhs`, every row and column kept); its nullity for when D is a
unit; sympy's determinant of M(t) read off the sheet system's rows, for
the last Bareiss pivot D; sympy's gcd for when D is invertible mod t^q -
1; and Fox's formula |H_1| = |Res(Delta, (t^q - 1)/(t - 1))| for the
multiples.
"""

import random
from fractions import Fraction

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from conftest import CORPUS_AND_SWEEP, battery_covers, clasped_wire_diagram, fixture, trefoil_diagram
from cyclink import alexander, build_cover, evaluate_obstruction, minimal_bounding_multiple, normalize_writhe, writhe
from cyclink import cover as cover_module
from cyclink.fixtures import corpus_names
from cyclink.homology import _curves, _system_matrix, _system_rhs
from cyclink.rational_linalg import _factor, _solutions

t = sympy.Symbol("t")


def check_routes_agree(cover) -> bool:
    """D is a unit mod t^q - 1 exactly when the full system has nullity
    q - 1, and then M(t)'s chains are the full system's; whether it is.

    The full system's chain is its reduced-row-echelon solution, zero on
    its free columns F. It is 0 on the branch's last arc, as M(t)'s is:
    - Let t_i be the sheet shift at the start of branch arc i and, for
      s = 1..q-1, g_s the integral vector that is +1 at arc i on 0-based
      sheet (s - t_i) mod q and -1 on sheet -t_i mod q, for every arc i.
      Each g_s is in the kernel: it sums to 0 on every arc, and across an
      underpass the over-arc terms cancel the step of t. On the last arc
      the g_s are a sheet permutation of e_s - e_0.
    - So each sheet s >= 1 of the last arc is in F, as a gauge combination
      is e_s - e_0 there and has its last nonzero in that column. The
      solution is 0 on those sheets, and its sum row makes sheet 0 zero.
    With nullity q - 1 the g_s span the kernel, so the solution that is 0
    on the last arc is unique, and M(t)'s chain is that one.
    """
    curves = _curves(cover)
    rows, width = _system_matrix(cover)
    full = _factor(rows, [_system_rhs(cover, ci, cover.components_of[ci][0]) for ci in curves], width)
    found, tail = alexander._solve(cover, curves)
    assert (tail is None) == (len(full.free) == cover.q - 1)
    if tail is not None:
        return False
    for ci, solution in zip(curves, _solutions(full, width)):
        if found[ci] is None:
            assert solution is None, ci
            continue
        (x, den), (y, D) = found[ci], solution
        assert [Fraction(v, den) for v in x] == [Fraction(v, D) for v in y], ci
    return True


@pytest.mark.parametrize("name, q", CORPUS_AND_SWEEP + [("twobridge_m2", 29), ("twobridge_m2", 37), ("stevedore_w0", 200)])
def test_the_route_takes_every_corpus_cover_with_the_full_systems_chains(name, q):
    assert check_routes_agree(build_cover(fixture(name).diagram, q))


@pytest.mark.parametrize("name", sorted(corpus_names()))
def test_the_route_takes_every_fixture_at_q_1_to_13_with_the_full_systems_chains(name):
    for q in range(1, 14):
        assert check_routes_agree(build_cover(normalize_writhe(fixture(name).diagram, q), q)), q


@pytest.mark.parametrize("q", range(2, 7))
def test_the_route_on_the_battery(q):
    fallbacks = [seed for seed, cover in battery_covers(q) if not check_routes_agree(cover)]
    # The four covers with nullity above q - 1 (test_homology).
    assert len(fallbacks) == (4 if q == 6 else 0), fallbacks


@pytest.mark.parametrize("q", range(2, 13))
def test_a_trefoil_branch_falls_back_exactly_where_phi6_divides_t_q_minus_1(q):
    # The trefoil's Alexander polynomial is t^2 - t + 1, the sixth
    # cyclotomic polynomial: a zero divisor mod t^q - 1 exactly when 6 | q.
    for diagram in (trefoil_diagram(), clasped_wire_diagram()):
        assert check_routes_agree(build_cover(normalize_writhe(diagram, q), q)) == (q % 6 != 0)


def laurent(p: dict):
    return sum(c * t**e for e, c in p.items())


def normal(p) -> list:
    """The coefficients of p with t^k and the sign divided out, low first."""
    coeffs = sympy.Poly(sympy.expand(p * t**200), t).all_coeffs()[::-1]
    coeffs = coeffs[next(i for i, c in enumerate(coeffs) if c):]
    while not coeffs[-1]:
        coeffs.pop()
    return coeffs if coeffs[-1] > 0 else [-c for c in coeffs]


def sympy_first_minor(cover, drop: int):
    """The minor of M(t) without the last arc's column and row `drop`, from
    the sheet system: R_{i,0} reads row i of M(t) with x_{j,s} as t^-s,
    its exponent lifted from mod q to (-q/2, q/2]."""
    rows, width = _system_matrix(cover)
    q = cover.q
    n = width // q
    M = []
    for i in range(n):
        if i == drop:
            continue
        entries = [{} for _ in range(n - 1)]
        for col, v in rows[n + i * q].items():
            j, s = divmod(col, q)
            if j < n - 1:
                e = -s % q
                e = e - q if e > q // 2 else e
                entries[j][e] = entries[j].get(e, 0) + v
        low = min(e for p in entries for e in p)  # times t^-low, a unit, for polynomial entries
        M.append([sum(c * t ** (e - low) for e, c in p.items()) for p in entries])
    return DomainMatrix.from_list_sympy(n - 1, n - 1, M).convert_to(sympy.ZZ[t]).det().as_expr()


WRITHE_ZERO = sorted({name for name, _ in CORPUS_AND_SWEEP if writhe(fixture(name).diagram, fixture(name).diagram.branch) == 0})


def alexander_pivot(name: str) -> dict:
    """D, which on a writhe-0 branch is the same at every q
    (test_the_factorization_is_the_same_at_every_q)."""
    return alexander._factor_laurent(build_cover(fixture(name).diagram, 3), [])[5]


@pytest.mark.parametrize("name", WRITHE_ZERO)
def test_the_factorization_is_the_same_at_every_q(name):
    # Nothing is reduced mod t^q - 1 before the inverse, so the echelon, the
    # retired rows and D do not depend on q; the curves' right-hand sides
    # ride along without I.
    covers = [build_cover(fixture(name).diagram, q) for q in (3, 7, 101)]
    factors = [alexander._factor_laurent(cover, _curves(cover)) for cover in covers]
    for factor in factors[1:]:
        assert factor == factors[0]
    assert factors[0][5] is not None


@pytest.mark.parametrize("name, q", CORPUS_AND_SWEEP)
def test_the_alexander_matrix_has_a_row_per_kept_underpass_and_a_column_per_run(name, q):
    # A run is a set of arcs joined by underpasses of other components
    # (alexander._runs); rows stay at the branch's self-underpasses and at
    # underpass n - 1, and the last run's column is left out.
    cover = build_cover(fixture(name).diagram, q)
    branch = cover.diagram.branch
    ups = cover.diagram.components[branch].underpasses
    kept = [i for i, up in enumerate(ups) if up.over.component == branch or i == len(ups) - 1]
    rows, rhs, (block, consts) = alexander._alexander_matrix(cover, _curves(cover))
    assert len(rows) == len(kept) and all(len(r) == len(kept) for r in rhs)
    assert block[-1] == len(kept) - 1 == len(set(block)) - 1
    assert set().union(*rows) == set(range(block[-1]))
    for c in consts:  # a run's representative, its highest arc, carries no constant
        assert all(not c[i] for i in kept)


@pytest.mark.parametrize("name", WRITHE_ZERO)
def test_the_last_pivot_is_a_first_minor_of_the_alexander_matrix(name):
    D = normal(laurent(alexander_pivot(name)))
    cover = build_cover(fixture(name).diagram, 101)
    n = cover.diagram.components[cover.diagram.branch].arc_count
    for drop in (0, n - 1):
        assert normal(sympy_first_minor(cover, drop)) == D


@pytest.mark.parametrize(
    "name, delta",
    [
        ("stevedore_w0", (t - 2) * (2 * t - 1)),
        ("twobridge_m1", (t**3 - 6 * t**2 + 8 * t - 2) * (2 * t**3 - 8 * t**2 + 6 * t - 1)),
        ("twobridge_m2", (t**5 - 10 * t**4 + 32 * t**3 - 38 * t**2 + 16 * t - 2) * (2 * t**5 - 16 * t**4 + 38 * t**3 - 32 * t**2 + 10 * t - 1)),
    ],
)
def test_the_last_pivot_is_the_alexander_polynomial(name, delta):
    assert normal(laurent(alexander_pivot(name))) == normal(delta)


@pytest.mark.parametrize("name, q", [(name, q) for name, q in CORPUS_AND_SWEEP if name in WRITHE_ZERO])
def test_the_multiple_divides_the_order_of_the_first_homology(name, q):
    # Fox: |H_1| = |Res(Delta, 1 + t + ... + t^(q-1))| on a rational
    # homology sphere, and d times every lift bounds integrally for d = |H_1|.
    D = alexander_pivot(name)
    delta = sympy.Poly(sympy.expand(laurent(D) * t ** -min(D)), t)
    order = abs(int(sympy.resultant(delta, sympy.Poly(sum(t**k for k in range(q)), t))))
    cover = build_cover(fixture(name).diagram, q)
    for ci in _curves(cover):
        assert order % minimal_bounding_multiple(cover, ci, 1) == 0


@pytest.mark.parametrize("seed", range(40))
def test_the_inverse_mod_t_q_minus_1_against_sympy(seed):
    rng = random.Random(seed)
    q = rng.choice([1, 2, 3, 4, 5, 6, 7, 8, 12, 30, 97])
    shift = rng.randint(-40, 40)
    D = {e + shift: c for e in range(rng.randint(1, 6)) if (c := rng.randint(-4, 4))} or {shift: 3}
    inverse = alexander._inverse(D, q)
    poly = sympy.Poly(sympy.expand(laurent(D) * t ** (40 - shift)), t)
    invertible = sympy.gcd(poly, sympy.Poly(t**q - 1, t)).degree() == 0
    assert (inverse is not None) == invertible, (D, q)
    if inverse is None:
        return
    u, den = inverse
    assert sympy.gcd_list([den, *u]) == 1
    product = [0] * q
    for e, c in D.items():
        for s, v in enumerate(u):
            product[(e + s) % q] += c * v
    assert product == [den] + [0] * (q - 1)


def test_laurent_division_is_exact_or_refused():
    a, b = {-3: 2, -1: -1, 4: 7}, {-1: 1, 0: -2, 2: 5}
    assert alexander._divide(alexander._mul(a, b), b) == a
    with pytest.raises(ArithmeticError):
        alexander._divide(alexander._submul(alexander._mul(a, b), {0: 1}, {0: 1}), b)


def test_a_zero_divisor_cover_builds_m_of_t_once(monkeypatch):
    # The clasped wire at q = 6 is no rational homology sphere. M(t) is
    # built once, D is found a zero divisor, and its unit phase's tail is
    # factored on the sheets; the diagram is walked for sigma and for M(t).
    calls = []

    def counting(f):
        def counted(*args):
            calls.append(f.__name__)
            return f(*args)
        return counted

    diagram = normalize_writhe(clasped_wire_diagram(), 6)
    walk = counting(cover_module._walk)
    monkeypatch.setattr(cover_module, "_walk", walk)
    monkeypatch.setattr(alexander, "_walk", walk)
    monkeypatch.setattr(alexander, "_alexander_matrix", counting(alexander._alexander_matrix))
    assert evaluate_obstruction(diagram, 6).order is None
    assert (calls.count("_alexander_matrix"), calls.count("_walk")) == (1, 2)
