"""Exact linear algebra: solver, nullspace, Hermite tail, scalar multiples.

sympy is the independent oracle throughout; the implementation under test
never touches it.
"""

import logging
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
import sympy

from conftest import CORPUS_AND_SWEEP, fixture, solution_fractions, sympy_minimal_multiple, sympy_minimal_multiples, trefoil_diagram
from cyclink import alexander, rational_linalg
from cyclink.homology import _first_solutions, _system_matrix, _system_rhs
from cyclink.rational_linalg import _eliminate, _eliminate_units, _factor, _null_basis, _sparse_rows
from cyclink import (
    assemble_system,
    bounding_chains,
    build_cover,
    format_rational,
    minimal_bounding_multiple,
    minimal_scalar_integer_solution,
    normalize_writhe,
    nullspace_basis,
    parse_rational,
    solve_many,
    solve_particular,
    verify_boundary,
)
from property_checks import fraction_boundary


def random_system(rng, max_dim=6, pool=(-2, -1, 0, 0, 1, 2)):
    m = rng.randint(1, max_dim)
    n = rng.randint(1, max_dim)
    A = [[rng.choice(pool) for _ in range(n)] for _ in range(m)]
    b = [rng.choice(pool) for _ in range(m)]
    return A, b


def satisfies(A, x, b):
    n = len(A[0])
    return all(
        sum(Fraction(A[i][j]) * x[j] for j in range(n)) == b[i]
        for i in range(len(A))
    )


# -- solve_particular --------------------------------------------------------


def test_solver_unique_system():
    x = solve_particular([[2, 1], [1, -1]], [7, -1])
    assert x == [Fraction(2), Fraction(3)]


def test_solver_reports_inconsistency():
    assert solve_particular([[1, 1], [2, 2]], [1, 3]) is None


def test_solver_underdetermined_returns_some_solution():
    A = [[1, 2, 3]]
    x = solve_particular(A, [6])
    assert satisfies(A, x, [6])


def test_solver_empty_matrix():
    assert solve_particular([], []) == []


def test_solver_accepts_fraction_entries():
    A = [[Fraction(1, 2), 1], [0, Fraction(1, 3)]]
    b = [Fraction(5, 2), 1]
    x = solve_particular(A, b)
    assert satisfies(A, x, b)


def test_solver_rescales_rows_with_zero_pivot_entries():
    # During fraction-free elimination, a row with a zero in the pivot
    # column still needs the pivot/previous rescale. Skipping it on this
    # diagonal system truncates a later exact division and used to turn a
    # solvable system into a reported inconsistency.
    A = [[2, 0, 0], [0, 1, 0], [0, 0, 1]]
    b = [2, 0, -2]
    x = solve_particular(A, b)
    assert x is not None
    assert satisfies(A, x, b)


def test_solver_zero_factor_rescale_exactness():
    # Same failure mode, non-diagonal shape: the skipped rescale corrupted
    # later rows into a wrong "solution".
    A = [[0, -1, 1], [0, 1, 2], [-2, -1, -1]]
    b = [3, 3, 3]
    x = solve_particular(A, b)
    assert satisfies(A, x, b)


def test_solver_against_sympy_on_random_systems():
    rng = random.Random(20240817)
    for _ in range(300):
        A, b = random_system(rng)
        x = solve_particular(A, b)
        M = sympy.Matrix(A)
        consistent = M.rank() == M.row_join(sympy.Matrix(b)).rank()
        if x is None:
            assert not consistent, (A, b)
        else:
            assert consistent, (A, b)
            assert satisfies(A, x, b), (A, b, x)


def test_solver_on_built_consistent_systems():
    # Systems built from a known solution are always solvable, including
    # the rank-deficient ones.
    rng = random.Random(99)
    for _ in range(200):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        A = [[rng.choice((-1, 0, 1)) for _ in range(n)] for _ in range(m)]
        x0 = [rng.randint(-3, 3) for _ in range(n)]
        b = [sum(A[i][j] * x0[j] for j in range(n)) for i in range(m)]
        x = solve_particular(A, b)
        assert x is not None and satisfies(A, x, b), (A, b)


# -- solve_many ---------------------------------------------------------------


def test_solve_many_matches_individual_solves():
    rng = random.Random(424242)
    for _ in range(120):
        A, _ = random_system(rng)
        m = len(A)
        rhss = [
            [rng.choice((-2, -1, 0, 1, 2)) for _ in range(m)]
            for _ in range(rng.randint(1, 4))
        ]
        assert solve_many(A, rhss) == [solve_particular(A, b) for b in rhss]


def test_solve_many_zero_factor_rescale_with_riding_columns():
    # The zero-factor rescale bug would corrupt every riding column at once.
    A = [[2, 0, 0], [0, 1, 0], [0, 0, 1]]
    rhss = [[2, 0, -2], [1, 1, 1]]
    first, second = solve_many(A, rhss)
    assert satisfies(A, first, rhss[0])
    assert satisfies(A, second, rhss[1])


def test_solve_many_mixed_consistency():
    A = [[1, 1], [2, 2]]
    got = solve_many(A, [[1, 2], [1, 3]])
    assert got[0] == [Fraction(1), Fraction(0)]
    assert got[1] is None


def test_solve_many_empty_inputs():
    assert solve_many([[1]], []) == []
    assert solve_many([], [[], []]) == [[], []]


def test_solve_many_rejects_mismatched_rhs_length():
    with pytest.raises(ValueError):
        solve_many([[1, 0], [0, 1]], [[1, 2], [3]])


# -- the free-column convention against sympy --------------------------------


def rank_deficient_system(rng, pool):
    """B C with a random inner dimension, so often rank deficient, plus two
    right-hand sides in its image and one at random."""
    m, n = rng.randint(1, 7), rng.randint(1, 7)
    inner = rng.randint(1, min(m, n))
    B = [[rng.choice(pool) for _ in range(inner)] for _ in range(m)]
    C = [[rng.choice((-2, -1, 0, 0, 1, 1, 2)) for _ in range(n)] for _ in range(inner)]
    A = [[sum(B[i][t] * C[t][j] for t in range(inner)) for j in range(n)] for i in range(m)]
    rhss = []
    for _ in range(2):
        x0 = [rng.choice(pool) for _ in range(n)]
        rhss.append([sum(a * x for a, x in zip(row, x0)) for row in A])
    rhss.append([rng.choice(pool) for _ in range(m)])
    return A, rhss


def sympy_particular(A, b):
    """sympy's Gauss-Jordan solution with every free parameter 0, or None."""
    try:
        sol, params = sympy.Matrix(A).gauss_jordan_solve(sympy.Matrix(b))
    except ValueError:
        return None
    return list(sol.subs({p: 0 for p in params}))


RATIONAL_POOL = [Fraction(p, q) for p in range(-3, 4) for q in (1, 1, 1, 2, 3)]


def first_pass_moves_F(A):
    """Whether the tail's free columns G, from the one factorization, are
    not F, the non-pivot columns of sympy's rref."""
    factors = _factor(*_sparse_rows(A, []), len(A[0]))
    used = set(factors.pivots)
    rref_pivots = sympy.Matrix(A).rref()[1]
    return [j for k, j in enumerate(factors.cols) if k not in used] != [j for j in range(len(A[0])) if j not in rref_pivots]


def assert_solutions_match_sympy(A, rhss):
    """solve_many against sympy's Gauss-Jordan solution; returns whether the
    tail's own free columns were not F, so the convention had to move it."""
    ours = solve_many(A, rhss)
    assert [x and [sympy.Rational(v) for v in x] for x in ours] == [
        sympy_particular(A, b) for b in rhss
    ], (A, rhss)
    return first_pass_moves_F(A)


def test_solve_many_is_sympy_gauss_jordan_with_free_parameters_zero():
    # The oracle shares no code with the factorization. Unit-heavy entries
    # make the unit phase retire columns out of order, so the draw reaches
    # systems whose tail leaves other free columns than F.
    rng = random.Random(20261019)
    pool = (-1, 1, -1, 1, 0, 2, Fraction(1, 2))
    moved = sum(assert_solutions_match_sympy(*rank_deficient_system(rng, pool)) for _ in range(200))
    assert moved > 20, moved
    for _ in range(100):
        assert_solutions_match_sympy(*rank_deficient_system(rng, RATIONAL_POOL))


def test_solve_many_is_sympy_gauss_jordan_on_cover_shaped_systems():
    rng = random.Random(3)
    pool = (1, -1, 1, -1, 1, -1, 2, -2, 3)
    moved = sum(assert_solutions_match_sympy(*cover_shaped_system(rng, pool)) for _ in range(40))
    assert moved > 10, moved


# -- the Bareiss kernel against the textbook algorithm ------------------------


def dense_bareiss(rows, m, n):
    """Textbook fraction-free elimination, the oracle for _eliminate.

    At every step each row below the pivot is replaced in full by
    (piv * row_i - factor * row_r) // prev: nothing is skipped or deferred.
    Returns the pivots and how many of those replacements were a plain
    rescale (zero factor, piv != prev) of a nonzero row.
    """
    pivots, prev, r, rescales = [], 1, 0, 0
    for col in range(n):
        p = next((i for i in range(r, m) if rows[i][col]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        row_r, piv = rows[r], rows[r][col]
        for i in range(r + 1, m):
            f = rows[i][col]
            rescales += not f and piv != prev and any(rows[i])
            rows[i] = [(piv * a - f * b) // prev for a, b in zip(rows[i], row_r)]
        pivots.append((r, col))
        prev, r = piv, r + 1
    return pivots, rescales


def assert_kernel_matches_dense(rows, n):
    """_eliminate leaves the same rows and pivot columns as the oracle,
    whose pivot k is in row k.

    Returns the oracle's rescales, its echelon rows and its pivots.
    """
    ours, theirs = [list(row) for row in rows], [list(row) for row in rows]
    m = len(rows)
    pivots, rescales = dense_bareiss(theirs, m, n)
    assert _eliminate(ours, m, n, len(rows[0])) == [col for _, col in pivots]
    assert ours == theirs
    return rescales, theirs, pivots


def fraction_back_substitution(rows, pivots, n, b_col):
    """The solution of echelon rows that is zero at every column without a
    pivot, in Fractions, or None when a zero row has a nonzero b_col."""
    if any(row[b_col] for row in rows[len(pivots):]):
        return None
    x = [Fraction(0)] * n
    for r, col in reversed(pivots):
        row = rows[r]
        x[col] = (row[b_col] - sum(row[j] * x[j] for j in range(col + 1, n))) / Fraction(row[col])
    return x


@pytest.mark.parametrize("name, q", CORPUS_AND_SWEEP + [("twobridge_m2", 11)])
def test_kernel_matches_dense_bareiss_on_cover_systems(name, q):
    # Every lift's right-hand side rides along, as the integral columns do.
    # The oracle's echelon rows, back-substituted in Fractions with every
    # column without a pivot at zero, give what solve_many gives.
    cover = build_cover(fixture(name).diagram, q)
    matrix, width = _system_matrix(cover)
    matrix = [[row.get(j, 0) for j in range(width)] for row in matrix]
    lifts = [(ci, g) for ci, cosets in enumerate(cover.components_of) for g in cosets or ()]
    rhss = [_system_rhs(cover, ci, g) for ci, g in lifts]
    rows = [row + [rhs[i] for rhs in rhss] for i, row in enumerate(matrix)]
    n = len(matrix[0])
    _, echelon, pivots = assert_kernel_matches_dense(rows, n)
    oracle = [fraction_back_substitution(echelon, pivots, n, n + t) for t in range(len(rhss))]
    assert solve_many(matrix, rhss) == oracle
    # The cover path leaves out the last arc, which fixes the gauge, and
    # solves each curve's first coset; it must land on the same solution.
    for ci, solution in _first_solutions(cover).items():
        want = oracle[lifts.index((ci, cover.components_of[ci][0]))]
        x = solution_fractions(solution)
        assert (x and [v for row in x for v in row]) == want, (name, q, ci)


@pytest.mark.parametrize("name, q", CORPUS_AND_SWEEP)
def test_cover_nullity_is_q_minus_one(name, q):
    # The deck group's gauge freedom: one null vector per nontrivial sheet
    # shift, on every corpus and sweep system.
    A, _, _ = assemble_system(build_cover(fixture(name).diagram, q), "eta", 1)
    assert len(nullspace_basis(A)) == q - 1


LARGE_COVERS = [("stevedore_w0", 96), ("stevedore_w0", 160), ("twobridge_m2", 64)]


def count_factor_calls(monkeypatch):
    """The list that each `_factor` call, by alexander or rational_linalg,
    appends its width to."""
    calls = []

    def counted(rows, rhs, n):
        calls.append(n)
        return _factor(rows, rhs, n)

    monkeypatch.setattr(rational_linalg, "_factor", counted)
    monkeypatch.setattr(alexander, "_factor", counted)
    return calls


@pytest.mark.parametrize("name, q", CORPUS_AND_SWEEP + LARGE_COVERS)
def test_a_rational_homology_sphere_factors_no_sheet_system(name, q, monkeypatch):
    # On these covers D is a unit mod t^q - 1, so the chains are read off
    # M(t) and nothing is factored on the sheets.
    calls = count_factor_calls(monkeypatch)
    cover = build_cover(fixture(name).diagram, q)
    _first_solutions(cover)
    assert calls == []
    if (name, q) not in LARGE_COVERS:
        return
    for ci, cosets in enumerate(cover.components_of):
        if not cosets:
            continue  # the branch
        chains = bounding_chains(cover, ci)
        for coset, chain in chains.items():
            assert chain is not None and verify_boundary(cover, chain), (ci, coset)
        if (name, q) == ("stevedore_w0", 96):
            # The Fraction-by-Fraction boundary agrees on a large cover too.
            assert all(fraction_boundary(cover, chain) for chain in chains.values())
            # The public path factors the whole system, gauge and all, so
            # it pivots differently on its way to the same solution.
            A, b, columns = assemble_system(cover, ci, cosets[0])
            x = solve_particular(A, b)
            assert all(x[col] == chains[cosets[0]].coefficient(*arc_sheet) for arc_sheet, col in columns.items())


@pytest.mark.parametrize("name, q", [("stevedore_w0", 3), ("twobridge_m1", 4), ("twobridge_m2", 11)])
def test_the_multiple_eliminates_nothing_after_the_cover_factorization(name, q, monkeypatch):
    # These covers are rational homology spheres, solved on M(t): once their
    # chains are solved, the multiple eliminates nothing more.
    calls = []

    def counted(rows, m, n, width):
        calls.append((m, n))
        return _eliminate(rows, m, n, width)

    def counting(step):
        def counted_step(*args):
            calls.append(step.__name__)
            return step(*args)
        return counted_step

    monkeypatch.setattr(rational_linalg, "_eliminate", counted)
    monkeypatch.setattr(alexander, "_eliminate", counted)
    monkeypatch.setattr(alexander, "_eliminate_units", counting(alexander._eliminate_units))
    monkeypatch.setattr(alexander, "_bareiss", counting(alexander._bareiss))
    cover = build_cover(fixture(name).diagram, q)
    _first_solutions(cover)
    assert calls
    calls.clear()
    d = minimal_bounding_multiple(cover, "eta", 1)
    assert calls == []
    # The public solver factors [A | b], gauge and all, in one pass.
    A, b, _ = assemble_system(cover, "eta", 1)
    assert minimal_scalar_integer_solution(A, b) == d
    assert len(calls) == 1


@pytest.mark.parametrize("name, q", CORPUS_AND_SWEEP)
def test_the_multiple_reads_independent_rows_and_a_minor_off_the_factorization(name, q):
    # The first rank tail rows are Bareiss's pivot rows, and D, the last
    # pivot's absolute value, is the absolute determinant of those rows on
    # the pivot columns; sympy shares no code with either. The full cover
    # system has q - 1 free columns, the deck-group gauge.
    rows, width = _system_matrix(build_cover(fixture(name).diagram, q))
    factors = _factor(rows, [], width)
    assert len(factors.free) == q - 1
    tail, cols, echelon, pivots = factors.tail, factors.cols, factors.echelon, factors.pivots
    r = len(pivots)
    # Pivot k leads echelon row k, and the rows below the rank are zero.
    assert [next((j for j, v in enumerate(row[:len(cols)]) if v), None) for row in echelon] == pivots + [None] * (len(echelon) - r)
    rows = sympy.Matrix(r, len(cols), lambda i, j: tail[i].get(cols[j], 0))
    assert rows.rank() == r
    assert factors.D == (echelon[r - 1][pivots[-1]] if pivots else 1)
    assert abs(rows.extract(range(r), pivots).det()) == abs(factors.D)


@pytest.mark.parametrize("q, nullity", [(2, 1), (3, 2), (5, 4), (6, 7), (12, 13)])
def test_a_trefoil_branch_factors_the_tail_on_the_sheets_from_q_6(q, nullity, caplog, monkeypatch):
    # The trefoil's Alexander polynomial is t^2 - t + 1, the sixth
    # cyclotomic polynomial. From q = 6 on it is a zero divisor mod t^q - 1
    # and the cover no rational homology sphere: M(t)'s tail is factored
    # once on the sheets, where the nullity is the full system's less the
    # gauge's q - 1, and its basis is brought to the reduced-row-echelon one.
    calls = count_factor_calls(monkeypatch)
    cover = build_cover(normalize_writhe(trefoil_diagram(), q), q)
    free = nullity - (q - 1)
    with caplog.at_level(logging.DEBUG, logger="cyclink"):
        _, factors = alexander._solve(cover, [])
    assert len(calls) == (1 if free else 0)
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("null basis")]
    assert lines == ([f"null basis: nullity {free}, |F| {free}, G = F: False"] if free else [])
    rows, width = _system_matrix(cover)
    assert len(sympy.Matrix([[row.get(j, 0) for j in range(width)] for row in rows]).nullspace()) == nullity
    if not free:
        assert factors is None
        return
    basis = _null_basis(factors)
    assert len(basis) == free
    # Each vector is in the kernel of M(t)'s tail, multiplied out mod t^q - 1.
    tail, _, _, cols, *_ = alexander._factor_laurent(cover, [])
    for f, w in basis:
        X = {j: [w.get(k * q + s, 0) for s in range(q)] for k, j in enumerate(cols)}
        for row in tail:
            assert not any(map(sum, zip([0] * q, *(alexander._times(p, X[j], q) for j, p in row.items()))))


def test_kernel_matches_dense_bareiss_on_sparse_random_matrices():
    # Mostly zeros, so most rows have a zero factor at most steps and carry
    # their rescale over several pivots before they are used.
    rng = random.Random(6)
    rescales = 0
    for _ in range(400):
        m, n, k = rng.randint(2, 9), rng.randint(2, 9), rng.randint(0, 3)
        rows = [[rng.choice((0, 0, 0, 0, 1, -1, 2, -3, 5)) for _ in range(n + k)] for _ in range(m)]
        rescales += assert_kernel_matches_dense(rows, n)[0]
    assert rescales > 400


def test_kernel_matches_dense_bareiss_on_rank_deficient_products():
    # A = B C with an inner dimension below min(m, n): rank deficiency and
    # pivots that are not units.
    rng = random.Random(7)
    for _ in range(200):
        m, n, k = rng.randint(2, 8), rng.randint(2, 8), rng.randint(1, 4)
        B = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(m)]
        C = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        rows = [
            [sum(B[i][t] * C[t][j] for t in range(k)) for j in range(n)]
            + [rng.randint(-4, 4)]
            for i in range(m)
        ]
        assert_kernel_matches_dense(rows, n)


def test_kernel_defers_the_rescale_of_zero_factor_rows():
    # Rows 1 and 2 have zero factors under the pivot 2, then under 3; the
    # dense algorithm rescales them at each step, the kernel when used.
    rows = [[2, 0, 0, 1], [0, 3, 0, 1], [0, 0, 5, 1], [0, 0, 0, 0]]
    assert assert_kernel_matches_dense(rows, 3)[0] == 3


# -- nullspace ---------------------------------------------------------------


def test_nullspace_vectors_annihilate_matrix():
    rng = random.Random(5)
    for _ in range(120):
        A, _ = random_system(rng, max_dim=5)
        basis = nullspace_basis(A)
        n = len(A[0])
        M = sympy.Matrix(A)
        assert len(basis) == n - M.rank()
        for v in basis:
            assert all(
                sum(Fraction(A[i][j]) * v[j] for j in range(n)) == 0
                for i in range(len(A))
            )
        if basis:
            assert sympy.Matrix([[sympy.Rational(x) for x in v] for v in basis]).rank() == len(basis)


@pytest.mark.parametrize(
    "name, q", [("twobridge_m1", 4), ("stevedore_w5", 5), ("cable_n5_k2", 5)]
)
def test_nullspace_matches_sympy_on_corpus_systems(name, q):
    cover = build_cover(fixture(name).diagram, q)
    A, _, _ = assemble_system(cover, "eta", 1)
    basis = nullspace_basis(A)
    theirs = sympy.Matrix(A).nullspace()
    # Both read the basis off the reduced echelon form, one vector per free
    # column, so they agree vector for vector, not only in span.
    assert [[sympy.Rational(x) for x in v] for v in basis] == [list(v) for v in theirs]
    M = sympy.Matrix(A)
    for v in basis:
        assert M * sympy.Matrix([sympy.Rational(x) for x in v]) == sympy.zeros(len(A), 1)


def test_nullspace_basis_is_sympy_nullspace_vector_for_vector():
    rng = random.Random(8128)
    for pool in (RATIONAL_POOL, (-2, -1, 0, 1, 1, 2, 3)):
        for _ in range(120):
            A, _ = rank_deficient_system(rng, pool)
            ours = [[sympy.Rational(v) for v in vec] for vec in nullspace_basis(A)]
            assert ours == [list(v) for v in sympy.Matrix(A).nullspace()], A


def sympy_rref_solution(A, b):
    """The solution read off sympy's rref of [A | b], zero at every free
    column, or None when b's column holds a pivot."""
    n = len(A[0])
    R, pivots = sympy.Matrix(A).row_join(sympy.Matrix(b)).rref()
    if n in pivots:
        return None
    x = [sympy.Integer(0)] * n
    for i, p in enumerate(pivots):
        x[p] = R[i, n]
    return x


def test_nullspace_and_solutions_are_sympy_rref_where_the_first_pass_moves_F():
    # Unit-heavy products B C of nullity at least 2, kept only where the
    # one factorization leaves other free columns than F, so every answer
    # comes through the reduction of its kernel vectors.
    rng = random.Random(19)
    found = 0
    for _ in range(4000):
        m, n = rng.randint(2, 8), rng.randint(3, 9)
        inner = rng.randint(1, n - 2)
        B = [[rng.choice((-1, 1, -1, 1, 0, 2)) for _ in range(inner)] for _ in range(m)]
        C = [[rng.choice((-2, -1, 0, 1, 1, 2)) for _ in range(n)] for _ in range(inner)]
        A = [[sum(B[i][t] * C[t][j] for t in range(inner)) for j in range(n)] for i in range(m)]
        if not first_pass_moves_F(A):
            continue
        theirs = sympy.Matrix(A).nullspace()
        assert len(theirs) >= 2
        assert [[sympy.Rational(v) for v in vec] for vec in nullspace_basis(A)] == [list(v) for v in theirs], A
        x0 = [rng.randint(-2, 2) for _ in range(n)]
        rhss = [[sum(a * x for a, x in zip(row, x0)) for row in A], [rng.randint(-2, 2) for _ in range(m)]]
        assert [x and [sympy.Rational(v) for v in x] for x in solve_many(A, rhss)] == [
            sympy_rref_solution(A, b) for b in rhss
        ], (A, rhss)
        found += 1
        if found == 60:
            break
    assert found == 60


@pytest.mark.parametrize("name, q, same", [("twobridge_m1", 4, False), ("stevedore_w5", 5, False), ("twobridge_m0", 5, True)])
def test_each_public_solver_factors_once_and_logs_its_reduction(name, q, same, monkeypatch, caplog):
    # The full cover system keeps the deck-group gauge, nullity q - 1. On
    # the first two the one factorization leaves other free columns than F.
    calls = count_factor_calls(monkeypatch)
    A, b, _ = assemble_system(build_cover(fixture(name).diagram, q), "eta", 1)
    line = f"null basis: nullity {q - 1}, |F| {q - 1}, G = F: {same}"
    for solve, lines in [
        (lambda: solve_particular(A, b), [line]),
        (lambda: solve_many(A, [b, b]), [line]),
        (lambda: nullspace_basis(A), [line]),
        (lambda: minimal_scalar_integer_solution(A, b), []),
    ]:
        calls.clear()
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="cyclink"):
            solve()
        assert len(calls) == 1
        assert [r.getMessage() for r in caplog.records if r.getMessage().startswith("null basis")] == lines


def test_nullspace_of_invertible_matrix_is_empty():
    assert nullspace_basis([[1, 2], [3, 4]]) == []


# -- multiples against sympy's Smith form ------------------------------------


def right_hand_sides(rng, A):
    """Three right-hand sides for A x = d b: A x0 for an integer x0 (d must
    be 1), A x0 divided by the gcd of its entries (solvable over Q, and d
    divides that gcd), and one at random (often not solvable at all)."""
    m, n = len(A), len(A[0])
    x0 = [rng.randint(-3, 3) for _ in range(n)]
    image = [sum(A[i][j] * x0[j] for j in range(n)) for i in range(m)]
    content = gcd(*image) or 1
    return [image, [v // content for v in image], [rng.randint(-4, 4) for _ in range(m)]]


def assert_multiples_match_sympy(A, rhss):
    """minimal_scalar_integer_solution agrees with the sympy oracle, and its
    None agrees with the rational solver's. Returns the multiples."""
    ours = [minimal_scalar_integer_solution(A, b) for b in rhss]
    assert ours == sympy_minimal_multiples(A, rhss), (A, rhss)
    for b, d, x in zip(rhss, ours, solve_many(A, rhss)):
        assert (x is None) == (d is None), (A, b)
        if x is not None:
            assert satisfies(A, x, b)
    return ours


def test_smith_form_small_example():
    A = [[2, 4], [6, 8]]
    # x = (1, 0) gives (2, 6). For b = (1, 0), 2x + 4y = d and 6x + 8y = 0
    # give x = -d and y = 3d/4, so d = 4 although 2 is a Smith entry.
    assert assert_multiples_match_sympy(A, [[2, 6], [1, 0], [0, 1], [0, 0]]) == [1, 4, 4, 1]


def test_smith_form_properties_on_random_matrices():
    rng = random.Random(31337)
    multiples = set()
    for _ in range(150):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        rhss = right_hand_sides(rng, A)
        ours = assert_multiples_match_sympy(A, rhss)
        assert ours[0] == 1
        assert ours[1] is not None and (gcd(*rhss[0]) or 1) % ours[1] == 0
        multiples.update(ours)
    assert None in multiples and len(multiples) > 8, multiples


def test_smith_form_matches_sympy_diagonal():
    rng = random.Random(777)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        assert_multiples_match_sympy(A, right_hand_sides(rng, A))


def cover_shaped_system(rng, pool=(1, -1, 2, -2, 3, -3)):
    """A sparse integer system shaped like a cover system, with three rhs.

    At most four nonzeros per row, drawn from the pool, so that with the
    default pool the tail keeps non-unit entries and the Hermite reduction
    meets non-trivial gcds. A few rows repeat others up to sign, which makes
    the system tall and rank-deficient like a cover system. The first rhs
    repeats their values too, so it is often solvable over Q; the second
    is random; the third is A x0 divided by the gcd of its entries, which
    is solvable over Q.
    """
    k = rng.randint(10, 24)
    n = k + rng.randint(1, 4)
    base = []
    for _ in range(k):
        row = [0] * n
        for j in rng.sample(range(n), rng.randint(1, 4)):
            row[j] = rng.choice(pool)
        base.append((row, rng.randint(-3, 3)))
    rows = list(base)
    for _ in range(rng.randint(2, 6)):
        row, v = rng.choice(base)
        s = rng.choice((1, -1))
        rows.append(([s * x for x in row], s * v))
    rng.shuffle(rows)
    A = [row for row, _ in rows]
    x0 = [rng.randint(-2, 2) for _ in range(n)]
    image = [sum(a * x for a, x in zip(row, x0)) for row in A]
    content = gcd(*image) or 1
    return A, [
        [v for _, v in rows],
        [rng.choice((0, 0, 1, -1, 2)) for _ in rows],
        [v // content for v in image],
    ]


def test_smith_kernel_against_sympy_on_cover_shaped_systems():
    rng = random.Random(2024)
    multiples = set()
    for _ in range(16):
        A, rhss = cover_shaped_system(rng)
        multiples.update(assert_multiples_match_sympy(A, rhss))
    # the draw reaches unsolvable, integral and non-integral right-hand sides
    assert None in multiples and 1 in multiples and len(multiples) > 4, multiples


def test_unit_phase_then_tail_against_sympy_on_cover_shaped_systems():
    # Mostly +-1 entries, as in a cover system: the unit pivots do most of
    # the work, and the Hermite reduction sees only what they leave.
    rng = random.Random(20261018)
    tails = empty = 0
    multiples = []
    for _ in range(60):
        A, rhss = cover_shaped_system(rng, pool=(1, -1, 1, -1, 1, -1, 2, -2, 3))
        rows, _, _ = _eliminate_units(*_sparse_rows(A, [rhss[0]]))
        tail = [row for row in rows if row]
        assert all(abs(v) != 1 for row in tail for v in row.values())
        tails += bool(tail)
        empty += not tail
        multiples += assert_multiples_match_sympy(A, rhss)
    assert tails > 40 and empty > 0, (tails, empty)
    unsolvable = multiples.count(None)
    non_integral = sum(d is not None and d > 1 for d in multiples)
    assert unsolvable > 40 and non_integral > 15, (unsolvable, non_integral)


# -- minimal integral multiples ----------------------------------------------


def test_minimal_multiple_single_even_equation():
    assert minimal_scalar_integer_solution([[2]], [1]) == 2


def test_minimal_multiple_combines_prime_factors():
    assert minimal_scalar_integer_solution([[2, 0], [0, 3]], [1, 1]) == 6


def test_minimal_multiple_is_one_for_integral_solutions():
    assert minimal_scalar_integer_solution([[2]], [4]) == 1
    assert minimal_scalar_integer_solution([[2, 0], [0, 3]], [4, -9]) == 1
    assert minimal_scalar_integer_solution([[2]], [1]) != 1


def test_minimal_multiple_none_when_rationally_unsolvable():
    assert minimal_scalar_integer_solution([[1, 1], [2, 2]], [1, 3]) is None
    assert minimal_scalar_integer_solution([[0]], [5]) is None


def test_minimal_multiple_none_on_a_zero_row_with_nonzero_rhs():
    # The unit pivot at (0, 0) clears row 1 to zero with c_1 = 2 - 1.
    rows, c, retired = _eliminate_units(*_sparse_rows([[1, 0], [1, 0]], [[1, 2]]))
    assert (rows, c, len(retired)) == ([{}], [[1]], 1)
    assert minimal_scalar_integer_solution([[1, 0], [1, 0]], [1, 2]) is None
    assert minimal_scalar_integer_solution([[1, 0], [1, 0]], [3, 3]) == 1
    # The same behind a non-unit tail: 2y = d and a zero row with c = 1.
    assert minimal_scalar_integer_solution([[1, 1], [0, 2], [1, 1]], [0, 1, 1]) is None
    assert minimal_scalar_integer_solution([[1, 1], [0, 2], [1, 1]], [0, 1, 0]) == 2
    # A zero row from the start.
    assert minimal_scalar_integer_solution([[0, 0], [2, 0]], [1, 1]) is None


def test_minimal_multiple_with_an_empty_tail():
    # Unit pivots retire every column: the Hermite reduction gets no rows.
    A = [[1, 2, 0], [0, 1, 3], [1, 2, 1]]
    rows, c, retired = _eliminate_units(*_sparse_rows(A, [[3, 5, 7]]))
    assert len(retired) == 3 and rows == [] and c == [[]]
    assert minimal_scalar_integer_solution(A, [3, 5, 7]) == 1
    # Tall, with every extra row cleared to zero: consistent or not.
    A = [[1, 0], [0, -1], [1, 1], [2, -3]]
    assert minimal_scalar_integer_solution(A, [1, 1, 0, 5]) == 1
    assert minimal_scalar_integer_solution(A, [1, 1, 0, 4]) is None
    # No rows, or rows without columns.
    assert minimal_scalar_integer_solution([], []) == 1
    assert minimal_scalar_integer_solution([[], []], [0, 0]) == 1
    assert minimal_scalar_integer_solution([[], []], [0, 1]) is None


def test_minimal_multiple_logs_its_shape_at_debug_only(caplog):
    A, b = [[1, 1, 0], [1, -1, 0], [0, 0, 4]], [1, 0, 2]
    with caplog.at_level(logging.WARNING, logger="cyclink"):
        assert minimal_scalar_integer_solution(A, b) == 2
    assert caplog.records == []
    with caplog.at_level(logging.DEBUG, logger="cyclink"):
        assert minimal_scalar_integer_solution(A, b) == 2
    # The minor is |-2 * 4| = 8, the last Bareiss pivot of the 2 x 2 tail.
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
        (
            "cyclink",
            logging.DEBUG,
            "minimal multiple: 1 unit steps, tail 2 x 2, 2 rows independent, minor 4 bits",
        )
    ]
    # An inconsistent tail is logged too: 2y = 1 and 0 = 1 give two
    # independent rows of [T | c] where T has rank 1.
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="cyclink"):
        assert minimal_scalar_integer_solution([[1, 1], [0, 2], [1, 1]], [0, 1, 1]) is None
    assert [r.getMessage() for r in caplog.records] == [
        "minimal multiple: 1 unit steps, tail 2 x 1, 2 rows independent, minor 2 bits"
    ]


def test_minimal_multiple_takes_rationals_exactly():
    # int() would truncate 1/2 to 0: 3 and None instead of 12 and 1.
    assert minimal_scalar_integer_solution([[2, 0], [0, 3]], [Fraction(1, 2), 1]) == 12
    assert minimal_scalar_integer_solution([[Fraction(1, 2)]], [1]) == 1
    assert minimal_scalar_integer_solution([[Fraction(2, 3), 0], [0, 1]], [1, Fraction(1, 5)]) == 10


@pytest.mark.parametrize("rhs", [[1], [1, 1, 5]])
def test_minimal_multiple_rejects_mismatched_rhs_length(rhs):
    with pytest.raises(ValueError, match="right-hand side length does not match row count"):
        minimal_scalar_integer_solution([[2, 0], [0, 3]], rhs)


def test_minimal_multiple_of_rational_systems_against_sympy():
    # Oracle: sympy's Smith form of each system with every row of [A | b]
    # scaled to integers by the lcm of its denominators.
    rng = random.Random(2718)
    pool = [Fraction(p, q) for p in range(-3, 4) for q in (1, 1, 2, 3, 4)]
    for _ in range(150):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        A = [[rng.choice(pool) for _ in range(n)] for _ in range(m)]
        b = [rng.choice(pool) for _ in range(m)]
        scaled_A, scaled_b = [], []
        for row, v in zip(A, b):
            scale = lcm(*(x.denominator for x in row), v.denominator)
            scaled_A.append([int(x * scale) for x in row])
            scaled_b.append(int(v * scale))
        assert minimal_scalar_integer_solution(A, b) == sympy_minimal_multiple(scaled_A, scaled_b), (A, b)


def test_minimal_multiple_zero_rhs():
    assert minimal_scalar_integer_solution([[3, 1], [0, 2]], [0, 0]) == 1


def test_minimal_multiple_is_minimal():
    rng = random.Random(4242)
    for _ in range(120):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        b = [rng.randint(-4, 4) for _ in range(m)]
        d = minimal_scalar_integer_solution(A, b)
        if d is None:
            assert solve_particular(A, b) is None
            continue
        assert minimal_scalar_integer_solution(A, [d * v for v in b]) == 1
        for smaller in range(1, d):
            if d % smaller == 0:
                assert minimal_scalar_integer_solution(A, [smaller * v for v in b]) != 1


# -- rational formatting -----------------------------------------------------


def test_format_rational_omits_unit_denominator():
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(7) == "7"
    assert format_rational(Fraction(-5, 7)) == "-5/7"


@pytest.mark.parametrize("value, text", [(True, "1"), (False, "0"), (0.5, "1/2"), (-0.25, "-1/4")])
def test_format_rational_reads_anything_but_an_int_or_a_fraction_as_a_fraction(value, text):
    # An exact int or Fraction prints as it is; a bool or a float, whose
    # str differs, goes through Fraction first.
    assert format_rational(value) == text


def test_parse_rational_round_trip():
    for text in ("3", "-5/7", "0", "22/7"):
        assert format_rational(parse_rational(text)) == text
    assert parse_rational("4/2") == 2


def test_parse_rational_rejects_garbage():
    # Fraction() would raise ZeroDivisionError on "1/0" and read 0.5 and True.
    for text in ("three", "1/0", 0.5, True, None):
        with pytest.raises(ValueError):
            parse_rational(text)
