"""Bounding chains: system assembly, solving, and the cell-level oracle."""

import logging
import random
import re
import zlib
from fractions import Fraction
from math import gcd, lcm

import pytest

from builders import ClosedBraid, random_diagram
from conftest import (
    CORPUS_AND_SWEEP,
    battery_covers,
    clasped_wire_diagram,
    fixture,
    hopf_diagram,
    hopf_pair_beside_unknot,
    sympy_hermite_multiple,
    sympy_minimal_multiple,
    sympy_minimal_multiples,
    solution_fractions,
    torus_knot_with_eta,
    wire_with_meridian,
)
from cyclink import alexander, homology
from cyclink.alexander import _alexander_matrix, _times
from cyclink.homology import _first_solutions, _system_matrix, _system_rhs
from cyclink.rational_linalg import _consistent, _eliminate_units, _factor, _fractions, _multiple, _null_basis, _solutions, _sparse_rows
from cyclink import (
    TwoChain,
    linking_matrix,
    assemble_system,
    bounding_chain,
    bounding_chains,
    build_cover,
    evaluate_obstruction,
    lift_components,
    minimal_bounding_multiple,
    minimal_scalar_integer_solution,
    normalize_writhe,
    nullspace_basis,
    parse_rational,
    solve_particular,
    verify_boundary,
)
from cyclink.fixtures import corpus_names
from property_checks import (
    check_against_per_lift_solve,
    fraction_linking_sum,
    check_chains,
    chains_of,
    curve_indices,
    fraction_boundary,
    independent_walks,
    per_lift_chain,
    perturbed,
)

CORPUS_PAIRS = [(name, q) for name in corpus_names() for q in fixture(name).writhe_zero_mod]


def cover_for(name, q):
    return build_cover(normalize_writhe(fixture(name).diagram, q), q)


def test_system_dimensions_and_column_map():
    cover = cover_for("stevedore_w0", 3)
    rows, rhs, columns = assemble_system(cover, "eta", 1)
    branch = cover.diagram.components[cover.diagram.branch]
    n, q = branch.arc_count, 3
    assert len(columns) == n * q
    assert all(len(r) == n * q for r in rows)
    assert len(rows) == n + len(branch.underpasses) * q
    assert len(rhs) == len(rows)
    assert columns[(0, 1)] == 0
    assert columns[(1, 1)] == q
    assert sorted(columns.values()) == list(range(n * q))


def test_system_starts_with_per_arc_sum_rows():
    cover = cover_for("cable_n3_k0", 3)
    rows, rhs, columns = assemble_system(cover, "eta", 2)
    n = cover.diagram.components[cover.diagram.branch].arc_count
    for i in range(n):
        expected = [0] * (n * 3)
        for j in (1, 2, 3):
            expected[columns[(i, j)]] = 1
        assert rows[i] == expected
        assert rhs[i] == 0


def test_system_rejects_branch_curve():
    cover = cover_for("cable_n3_k0", 3)
    with pytest.raises(ValueError):
        assemble_system(cover, "K", 1)
    with pytest.raises(ValueError):
        bounding_chain(cover, "K", 1)


def test_chains_satisfy_their_own_system():
    cover = cover_for("stevedore_w0", 4)
    for coset in lift_components(cover, "eta"):
        rows, rhs, columns = assemble_system(cover, "eta", coset)
        chain = bounding_chain(cover, "eta", coset)
        assert chain is not None
        flat = [chain.x[i][j - 1] for (i, j) in sorted(columns, key=columns.get)]
        for row, b in zip(rows, rhs):
            assert sum(Fraction(a) * v for a, v in zip(row, flat)) == b


def test_chain_rows_sum_to_zero():
    for name, q in (("cable_n3_k0", 3), ("stevedore_w2", 4), ("twobridge_m0", 2)):
        cover = cover_for(name, q)
        for coset in lift_components(cover, "eta"):
            chain = bounding_chain(cover, "eta", coset)
            assert chain is not None
            for row in chain.x:
                assert sum(row) == 0


def test_boundary_oracle_accepts_solver_output():
    for name, q in (("cable_n3_k0", 3), ("stevedore_w0", 2), ("twobridge_m1", 3)):
        cover = cover_for(name, q)
        for coset in lift_components(cover, "eta"):
            chain = bounding_chain(cover, "eta", coset)
            assert chain is not None
            assert verify_boundary(cover, chain)


def test_boundary_oracle_rejects_corrupted_chains():
    cover = cover_for("cable_n3_k0", 3)
    chain = bounding_chain(cover, "eta", 2)
    assert verify_boundary(cover, chain)
    x = [list(row) for row in chain.x]
    x[0][0] += 1
    bad = TwoChain(curve=chain.curve, coset=chain.coset, x=tuple(map(tuple, x)))
    assert not verify_boundary(cover, bad)


def test_boundary_oracle_rejects_wrong_coset_claim():
    cover = cover_for("cable_n3_k0", 3)
    chain = bounding_chain(cover, "eta", 2)
    relabeled = TwoChain(curve=chain.curve, coset=(1,), x=chain.x)
    assert not verify_boundary(cover, relabeled)


def test_boundary_oracle_shape_checks():
    cover = cover_for("cable_n3_k0", 3)
    chain = bounding_chain(cover, "eta", 1)
    with pytest.raises(ValueError):
        verify_boundary(cover, TwoChain(curve=cover.diagram.branch, coset=(1,), x=chain.x))
    with pytest.raises(ValueError):
        verify_boundary(cover, TwoChain(curve=chain.curve, coset=(1,), x=chain.x[1:]))


def with_entries(chain, x, coset=None):
    return TwoChain(chain.curve, coset or chain.coset, tuple(map(tuple, x)))


def assert_verdict(cover, chain, expected):
    assert verify_boundary(cover, chain) is fraction_boundary(cover, chain) is expected


@pytest.mark.parametrize("name, q", CORPUS_AND_SWEEP)
def test_boundary_check_gives_the_fraction_oracle_verdict(name, q):
    # Every lift bounds, and so does its chain moved by a nullspace
    # combination; one coefficient moved by 1/7, or a coset it does not
    # bound, does not. The oracle adds one Fraction at a time.
    rng = random.Random(zlib.crc32(f"{name}:{q}".encode()))
    cover = build_cover(fixture(name).diagram, q)
    A, _, columns = assemble_system(cover, "eta", 1)
    basis = nullspace_basis(A)
    for (ci, coset), chain in chains_of(cover).items():
        assert_verdict(cover, chain, True)
        assert_verdict(cover, perturbed(chain, basis, columns, rng), True)
        x = [list(row) for row in chain.x]
        x[rng.randrange(len(x))][rng.randrange(q)] += rng.choice((1, -1)) * Fraction(1, 7)
        assert_verdict(cover, with_entries(chain, x), False)
        cosets = lift_components(cover, ci)
        other = cosets[cosets.index(coset) - 1]
        if other != coset:
            assert_verdict(cover, with_entries(chain, chain.x, other), False)


@pytest.mark.parametrize("name, q", [("cable_n3_k1", 3), ("cable_n5_k2", 5), ("cable_n7_k3", 7)])
def test_boundary_check_on_all_integer_chains(name, q):
    # These lifts bound integrally, so their chains hold ints alone and the
    # common denominator is 1; d times a chain of a lift with multiple d
    # bounds d times the lift, not the lift.
    cover = build_cover(fixture(name).diagram, q)
    for (ci, coset), chain in chains_of(cover).items():
        assert minimal_bounding_multiple(cover, ci, coset) == 1
        assert_verdict(cover, with_entries(chain, [[int(v) for v in row] for row in chain.x]), True)
        assert_verdict(cover, with_entries(chain, [[0] * q for _ in chain.x]), False)
    cover = build_cover(fixture("stevedore_w0").diagram, 3)
    chain = bounding_chain(cover, "eta", 1)
    assert_verdict(cover, with_entries(chain, [[int(7 * v) for v in row] for row in chain.x]), False)


@pytest.mark.parametrize("entry", [0.5, "1/7", True])
def test_boundary_check_refuses_inexact_entries(entry):
    # In floats the stevedore_w0 q=3 chain does not sum to a boundary,
    # though its exact form does; a str is no number, and True no coefficient.
    cover = cover_for("stevedore_w0", 3)
    chain = bounding_chain(cover, "eta", 1)
    assert verify_boundary(cover, chain)
    x = [list(row) for row in chain.x]
    x[0][0] = entry
    with pytest.raises(ValueError, match=f"^chain entry {re.escape(repr(entry))} is not an int or a Fraction$"):
        verify_boundary(cover, with_entries(chain, x))
    with pytest.raises(ValueError, match="^chain entry 0.14285714285714285 "):
        verify_boundary(cover, with_entries(chain, [[float(v) for v in row] for row in chain.x]))


@pytest.mark.parametrize("entry", [0.5, "1/7", True])
def test_a_chain_refuses_inexact_entries_when_built(entry):
    # linking_number read True as 1 and raised AttributeError on 0.5 and
    # "1/7"; no function that takes a chain now sees such an entry.
    cover = cover_for("stevedore_w0", 3)
    chain = bounding_chain(cover, "eta", 1)
    x = [[entry if v else v for v in row] for row in chain.x]
    with pytest.raises(ValueError, match=f"^chain entry {re.escape(repr(entry))} is not an int or a Fraction$"):
        with_entries(chain, x)


def test_a_chain_built_from_lists_keeps_its_checked_entries():
    # Rows given as lists are frozen, so no entry can be swapped for a float
    # after the check.
    cover = cover_for("stevedore_w0", 3)
    chain = bounding_chain(cover, "eta", 1)
    listed = TwoChain(chain.curve, chain.coset, [list(row) for row in chain.x])
    assert listed == chain and type(listed.x) is tuple and all(type(row) is tuple for row in listed.x)
    assert verify_boundary(cover, listed)


def test_meridian_lift_bounds_integrally_at_every_degree():
    d = wire_with_meridian()
    for q in (1, 2, 3, 5):
        cover = build_cover(d, q)
        for coset in lift_components(cover, "eta"):
            assert minimal_bounding_multiple(cover, "eta", coset) == 1
            chain = bounding_chain(cover, "eta", coset)
            assert chain is not None
            assert verify_boundary(cover, chain)


def test_minimal_multiple_on_a_nontrivial_lift():
    cover = cover_for("stevedore_w0", 2)
    assert minimal_bounding_multiple(cover, "eta", 1) == 9


def test_minimal_multiple_is_least_among_divisors():
    cover = cover_for("stevedore_w0", 2)
    rows, rhs, _ = assemble_system(cover, "eta", 1)
    assert minimal_scalar_integer_solution(rows, [9 * b for b in rhs]) == 1
    for d in (1, 3):
        assert minimal_scalar_integer_solution(rows, [d * b for b in rhs]) != 1


def test_twobridge_m1_q4_multiple_against_sympy_smith_form():
    # The printed table states 1875 for this row; the corpus carries the
    # corrected 18785. sympy's Smith decomposition settles it without
    # sharing any code with cyclink's solver.
    fx = fixture("twobridge_m1")
    cover = build_cover(fx.diagram, 4)
    rows, rhs, _ = assemble_system(cover, "eta", 1)
    oracle = sympy_minimal_multiple(rows, rhs)
    assert oracle == minimal_bounding_multiple(cover, "eta", 1) == 18785
    (stated,) = [
        e.value
        for e in fx.expected
        if e.op == "order_divides" and e.args["q"] == 4
    ]
    assert stated == oracle
    (row,) = [
        e.value
        for e in fx.expected
        if e.op == "linking_row" and e.args["q"] == 4
    ]
    for text in row:
        assert oracle % parse_rational(text).denominator == 0, text


@pytest.mark.parametrize("name, q", [("stevedore_w0", 8), ("twobridge_m0", 8)])
def test_off_table_multiple_against_sympy_smith_form(name, q):
    # Writhe-0 rows above the corpus degrees, 90 x 80 systems; larger sweep
    # rows (twobridge_m2 at q >= 6) are out of sympy's reach.
    cover = build_cover(fixture(name).diagram, q)
    rows, rhs, _ = assemble_system(cover, "eta", 1)
    assert (len(rows), len(rows[0])) == (90, 80)
    assert sympy_minimal_multiple(rows, rhs) == minimal_bounding_multiple(cover, "eta", 1) == 765


@pytest.mark.parametrize("q", [5, 8, 11, 16, 24, 32, 201])
def test_stevedore_w0_multiple_follows_its_closed_form(q):
    # Observed on every degree checked, not proved: 2^q - 1 for odd q and
    # 3 (2^q - 1) for even q, which fits the Alexander polynomial
    # (2t - 1)(t - 2). At q = 32 the system is 330 x 320; at q = 201 it is
    # 2020 x 2010, above the entry cap of the dense assemble_system.
    cover = build_cover(fixture("stevedore_w0").diagram, q)
    assert minimal_bounding_multiple(cover, "eta", 1) == (2**q - 1) * (3 if q % 2 == 0 else 1)


def test_only_the_dense_system_is_capped_by_entries():
    # The solvers hold sparse rows, so only their count is bounded, before
    # any row is built; assemble_system refuses a dense matrix above its
    # entry cap before building it.
    with pytest.raises(ValueError, match=r"^the cover system would be 2010 x 2000, above the limit of 4000000 entries$"):
        assemble_system(build_cover(fixture("stevedore_w0").diagram, 200), "eta", 1)
    with pytest.raises(ValueError, match=r"^the cover system would be 20010 x 20000, above the limit of 20000 rows$"):
        bounding_chain(build_cover(fixture("stevedore_w0").diagram, 2000), "eta", 1)


@pytest.mark.parametrize(
    "q, multiple",
    [
        (11, 154604335368143),
        (16, 46325676773370472334109),
        (24, 146411958895740558430244847258939),
        (28, 769323940434425008791649188400638969),
        (32, 22392598564797188085685105474168238880356253),
    ],
)
def test_twobridge_m2_multiple_at_large_degree(q, multiple):
    # The values up to q = 24 were first computed by a dense Smith reduction
    # of the whole system (312 x 286, 442 x 416 and 650 x 624, out of sympy's
    # reach), whose entries grow past a million bits at q = 24. Those at
    # q = 28 and 32 come from a dense Smith reduction of the independent
    # tail, which took 5 s and 88 s; modulo the tail's minor each takes a
    # fraction of a second.
    cover = build_cover(fixture("twobridge_m2").diagram, q)
    assert minimal_bounding_multiple(cover, "eta", 1) == multiple


@pytest.mark.parametrize(
    "name, q, multiple",
    [
        ("twobridge_m2", 16, 46325676773370472334109),
        ("twobridge_m2", 24, 146411958895740558430244847258939),
        ("twobridge_m1", 24, 5972792605337383865),
    ],
)
def test_large_degree_multiple_against_sympy_hermite_form(name, q, multiple):
    # At twobridge_m1 q = 24 the tail has 36 independent rows; a dense Smith
    # reduction of it, sympy's included, does not finish in minutes, while
    # sympy's Hermite form modulo a minor takes under a second.
    cover = build_cover(fixture(name).diagram, q)
    rows, rhs, _ = assemble_system(cover, "eta", 1)
    assert sympy_hermite_multiple(rows, rhs) == minimal_bounding_multiple(cover, "eta", 1) == multiple


@pytest.mark.parametrize("name, q", [(name, q) for name, q in CORPUS_PAIRS if name.startswith("cable")])
def test_the_hermite_oracle_on_rank_zero_tails(name, q):
    # Every cable row leaves a tail of rank 0 after the unit phase on the
    # full system, and M(t)'s unit phase leaves no column at all.
    cover = build_cover(fixture(name).diagram, q)
    _, _, _, cols, _, D, _ = alexander._factor_laurent(cover, [])
    assert cols == [] and D == {0: 1}
    for ci in curve_indices(cover.diagram):
        rows, rhs, _ = assemble_system(cover, ci, cover.components_of[ci][0])
        tail, _, _ = _eliminate_units(*_sparse_rows(rows, [rhs]))
        assert tail and not any(tail)
        assert sympy_hermite_multiple(rows, rhs) == minimal_bounding_multiple(cover, ci, 1)
    # A rank-0 tail with a nonzero right-hand side: x + y = 1 and 2.
    assert sympy_hermite_multiple([[1, 1], [1, 1]], [1, 2]) is None
    assert minimal_scalar_integer_solution([[1, 1], [1, 1]], [1, 2]) is None


def test_unbounded_lift_reports_none():
    d = normalize_writhe(clasped_wire_diagram(), 6)
    cover = build_cover(d, 6)
    lifts = lift_components(cover, "eta")
    assert len(lifts) == 6
    for coset in lifts:
        assert bounding_chain(cover, "eta", coset) is None
        assert minimal_bounding_multiple(cover, "eta", coset) is None


def test_clasp_lift_bounds_at_other_degrees():
    base = clasped_wire_diagram()
    for q in (2, 3):
        cover = build_cover(normalize_writhe(base, q), q)
        for coset in lift_components(cover, "eta"):
            chain = bounding_chain(cover, "eta", coset)
            assert chain is not None
            assert verify_boundary(cover, chain)


def test_two_chain_dict_round_trip():
    cover = cover_for("stevedore_w0", 3)
    chain = bounding_chain(cover, "eta", 2)
    again = TwoChain.from_dict(chain.to_dict())
    assert again == chain
    assert again.coefficient(0, 1) == chain.x[0][0]


@pytest.mark.parametrize("arc, sheet", [(0, 0), (-1, 1), (True, 1), (0, 4), (10, 1), (0, True), (0.0, 1), (0, "1")])
def test_a_chain_coefficient_refuses_an_arc_or_sheet_it_does_not_have(arc, sheet):
    # Arcs are 0..9 and sheets 1..3. Indexed as they were, sheet 0 read
    # sheet 3, arc -1 the last arc, True arc 1, and sheet 4 an IndexError.
    chain = bounding_chain(cover_for("stevedore_w0", 3), "eta", 1)
    assert chain.coefficient(9, 3) == chain.x[9][2]
    with pytest.raises(ValueError, match="^no coefficient at arc"):
        chain.coefficient(arc, sheet)


@pytest.mark.parametrize(
    "data",
    [
        {"curve": 1.9},
        {"curve": True},
        {"curve": "0"},
        {"coset": [True]},
        {"coset": [2.7]},
        {"coset": [1, "2"]},
        {"curve": 1.9, "coset": [True, 2.7]},
        {"x": [["1/0"]]},
        {"x": [[0.5]]},
        {"x": [[True]]},
        {"x": [[1]]},
        {"x": "12"},
        {"x": [["1"], "2"]},
    ],
)
def test_two_chain_from_dict_rejects_non_integer_fields(data):
    # curve and coset hold integers; x holds rationals, as strings in lists.
    good = bounding_chain(cover_for("stevedore_w0", 3), "eta", 2).to_dict()
    field = next(iter(data))
    reason = "" if field == "x" else ".*must be an integer"
    with pytest.raises(ValueError, match=rf"^{field}\b{reason}"):
        TwoChain.from_dict({**good, **data})


@pytest.mark.parametrize(
    "data, message",
    [
        ([], "chain JSON must be an object"),
        ("x", "chain JSON must be an object"),
        (None, "chain JSON must be an object"),
        ({"curve": 1, "x": []}, "malformed chain JSON: 'coset'"),
        ({"coset": [1], "x": []}, "malformed chain JSON: 'curve'"),
        ({"curve": 1, "coset": [1]}, "malformed chain JSON: 'x'"),
        ({"curve": 1, "coset": 1, "x": []}, "malformed chain JSON: 'int' object is not iterable"),
    ],
)
def test_two_chain_from_dict_rejects_a_malformed_document(data, message):
    # As diagram_from_dict does; these raised KeyError and TypeError.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TwoChain.from_dict(data)


def test_a_curve_named_by_a_bool_or_a_float_is_refused_and_leaves_the_memo_alone():
    # isinstance(False, int) holds: an isinstance test would resolve False to
    # curve 0 and cache a chain with curve False, which a later query for
    # curve 0 would get back and from_dict would refuse.
    cover = cover_for("stevedore_w0", 3)
    eta = cover.diagram.component_index("eta")
    for curve in (False, True, float(eta), None):
        with pytest.raises(ValueError, match=rf"^a component is named by an index or a name, not {curve!r}$"):
            bounding_chain(cover, curve, 1)
    chain = bounding_chain(cover, eta, 1)
    assert type(chain.curve) is int
    assert TwoChain.from_dict(chain.to_dict()) == chain


@pytest.mark.parametrize("coset", [True, 1.0, None, "1", [1.0], [1, True], [[1]]])
def test_a_coset_that_is_not_sheets_is_refused(coset):
    # An isinstance test would read True as sheet 1; none of these names a
    # sheet, so each is a ValueError, not a TypeError.
    cover = cover_for("stevedore_w0", 3)
    for call in (bounding_chain, minimal_bounding_multiple):
        with pytest.raises(ValueError, match=rf"^a coset is a sheet or a collection of sheets, not {re.escape(repr(coset))}$"):
            call(cover, "eta", coset)


@pytest.mark.parametrize("name, q", CORPUS_PAIRS)
def test_corpus_chains_equal_the_per_lift_solve(name, q):
    # Every lift past the first coset gets the deck shift of the first
    # chain; on the corpus that is exactly what solving the lift's own
    # system gives.
    cover = build_cover(fixture(name).diagram, q)
    ci = cover.diagram.component_index("eta")
    for coset in lift_components(cover, "eta"):
        assert bounding_chain(cover, "eta", coset) == per_lift_chain(cover, ci, coset), coset
    # The shifted chains skip the entry check: each must be what the
    # checking constructor makes, rows of exact int and Fraction entries.
    for chain in bounding_chains(cover, "eta").values():
        assert chain == TwoChain(chain.curve, chain.coset, chain.x)
        assert type(chain.x) is tuple and all(type(row) is tuple for row in chain.x)
        assert {type(v) for row in chain.x for v in row} <= {int, Fraction}


def test_deck_shift_differs_from_the_per_lift_solve_by_a_gauge_vector():
    # On this random cover three lifts get a chain other than their own
    # solve. Both bound the same curve, so they differ by a nullspace
    # vector, and every linking number and multiple agrees.
    cover = build_cover(normalize_writhe(random_diagram(random.Random(248)), 6), 6)
    chains = chains_of(cover)
    differ = {
        coset for (ci, coset), chain in chains.items() if chain != per_lift_chain(cover, ci, coset)
    }
    assert differ == {(3,), (4,), (5,)}
    check_chains(cover, chains)
    check_against_per_lift_solve(cover, chains)


def test_bounding_chains_matches_single_coset_solver():
    for name, q in [("cable_n3_k0", 3), ("stevedore_w2", 4)]:
        cover = cover_for(name, q)
        family = bounding_chains(cover, "eta")
        assert set(family) == set(lift_components(cover, "eta"))
        for coset, chain in family.items():
            assert chain == bounding_chain(cover, "eta", coset)


def test_bounding_chains_keeps_unbounded_lifts_as_none():
    cover = build_cover(normalize_writhe(clasped_wire_diagram(), 6), 6)
    family = bounding_chains(cover, "eta")
    assert len(family) == 6
    assert all(chain is None for chain in family.values())


def test_bounding_chains_rejects_branch():
    cover = cover_for("stevedore_w0", 2)
    with pytest.raises(ValueError, match="branch"):
        bounding_chains(cover, "K")


def test_warm_cover_answers_equal_a_fresh_solve():
    # Oracle: the plain solvers on a cover that has answered nothing yet.
    # Multiples are compared on the first and last lift; each costs a Smith
    # reduction on either side.
    for name in corpus_names():
        fx = fixture(name)
        for q in fx.writhe_zero_mod:
            if q > 5:
                continue
            warm = build_cover(fx.diagram, q)
            fresh = build_cover(fx.diagram, q)
            cosets = lift_components(warm, "eta")
            probed = {cosets[0], cosets[-1]}
            for coset in cosets:
                bounding_chain(warm, "eta", coset)
            for coset in probed:
                minimal_bounding_multiple(warm, "eta", coset)
            for coset in cosets:
                rows, rhs, columns = assemble_system(fresh, "eta", coset)
                x = solve_particular(rows, rhs)
                chain = bounding_chain(warm, "eta", coset)
                if x is None:
                    assert chain is None, (name, q, coset)
                else:
                    assert chain.x == tuple(
                        tuple(x[columns[(i, j)]] for j in range(1, q + 1))
                        for i in range(len(chain.x))
                    ), (name, q, coset)
                if coset in probed:
                    assert minimal_bounding_multiple(warm, "eta", coset) == (
                        minimal_scalar_integer_solution(rows, rhs)
                    ), (name, q, coset)


def test_mutating_bounding_chains_result_leaves_the_cover_alone():
    cover = cover_for("stevedore_w2", 4)
    first = bounding_chains(cover, "eta")
    expected = dict(first)
    first.clear()
    assert bounding_chains(cover, "eta") == expected
    family = bounding_chains(cover, "eta")
    family[next(iter(family))] = None
    assert bounding_chains(cover, "eta") == expected
    for coset, chain in expected.items():
        assert bounding_chain(cover, "eta", coset) is chain


def test_cover_factorization_logs_once_at_debug_only(caplog):
    # One solve per cover serves the multiple and the chains; M(t) logs one
    # DEBUG line per cover, the tail's sheet system one more, and nothing is
    # logged above DEBUG. A rational homology sphere is solved on M(t); the
    # trefoil's cover at q = 6 is not one, as its Alexander polynomial, the
    # sixth cyclotomic polynomial, is a zero divisor, and M(t)'s tail is
    # factored on the sheets.
    def ask(cover):
        minimal_bounding_multiple(cover, "eta", 1)
        bounding_chains(cover, "eta")
        minimal_bounding_multiple(cover, "eta", 2)

    with caplog.at_level(logging.WARNING, logger="cyclink"):
        ask(cover_for("stevedore_w0", 3))
    assert caplog.records == []
    with caplog.at_level(logging.DEBUG, logger="cyclink"):
        ask(cover_for("stevedore_w0", 3))
        ask(build_cover(normalize_writhe(trefoil_with_meridian(), 6), 6))
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
        (
            "cyclink",
            logging.DEBUG,
            "alexander route: M(t) 8 x 7, 6 unit steps, tail 2 x 1, D of degree 2, 3 bits, 1/D over 3 bits",
        ),
        ("cyclink", logging.DEBUG, "minimal multiple: the chain's denominator, 3 bits"),
        (
            "cyclink",
            logging.DEBUG,
            "alexander route: M(t) 6 x 5, 4 unit steps, tail 2 x 1, D of degree 2, 1 bits, a zero divisor mod t^6 - 1",
        ),
        (
            "cyclink",
            logging.DEBUG,
            "tail route: sheet system 12 x 6, 4 unit steps, rank 4, nullity 2",
        ),
        ("cyclink", logging.DEBUG, "null basis: nullity 2, |F| 2, G = F: False"),
        ("cyclink", logging.DEBUG, "minimal multiple: 4 unit steps, tail 8 x 0, 0 rows independent, minor 1 bits"),
    ]


# The cover is solved on M(t), its tail factored on the sheets when D is no
# unit mod t^q - 1, and on a rational homology sphere the multiple is read
# off the chain. The oracles below check each step against the full system
# on every corpus and sweep cover and on the random_diagram battery (seeds
# 0-299, q = 2..6).


def gauge_vectors(cover):
    """g_s for s = 1..q-1 as flat columns i*q + sheet: +1 at arc i on 0-based
    sheet (s - t_i) mod q and -1 on sheet -t_i mod q, t_i the sheet shift of
    the branch's walk at the start of arc i."""
    q, branch = cover.q, cover.diagram.branch
    walk = independent_walks(cover.diagram)[branch]
    n = cover.diagram.components[branch].arc_count
    out = []
    for s in range(1, q):
        g = [0] * (n * q)
        for i in range(n):
            g[i * q + (s - walk[i]) % q] += 1
            g[i * q + -walk[i] % q] -= 1
        out.append(g)
    return out


def check_sum_row_differences_are_underpass_sums(cover):
    # S_i - S_{i+1} = sum over s of R_{i,s}, rows and right-hand sides, on
    # the dense system of every lift.
    q = cover.q
    for ci in curve_indices(cover.diagram):
        for coset in cover.components_of[ci]:
            A, b, _ = assemble_system(cover, ci, coset)
            width = len(A[0])
            n = width // q
            for i in range(n):
                block = range(n + i * q, min(len(A), n + (i + 1) * q))  # empty without underpasses
                nxt = (i + 1) % n
                underpass_sum = [sum(col) for col in zip([0] * width, *(A[k] for k in block))]
                assert [u - v for u, v in zip(A[i], A[nxt])] == underpass_sum
                assert b[i] - b[nxt] == sum(b[k] for k in block) == 0


def check_the_full_system_gives_the_same_answers(cover):
    # Factoring every row and column of the full system gives the same
    # multiples and the same lifts bound. On a rational homology sphere
    # the chains are the same too (test_alexander.check_routes_agree);
    # elsewhere the cover's chain is zero on the free columns of M(t)'s
    # tail on the sheets, and both bound their curve.
    curves = curve_indices(cover.diagram)
    rows, width = _system_matrix(cover)
    rhss = [_system_rhs(cover, ci, cover.components_of[ci][0]) for ci in curves]
    full = _factor(rows, rhss, width)
    solutions = _first_solutions(cover)
    for t, (ci, x) in enumerate(zip(curves, [s and _fractions(*s) for s in _solutions(full, width)])):
        chain = solution_fractions(solutions[ci])
        assert (chain is None) == (x is None)
        if len(full.free) == cover.q - 1:
            assert (chain and [v for row in chain for v in row]) == x
        elif x is not None:
            q, coset = cover.q, cover.components_of[ci][0]
            assert verify_boundary(cover, TwoChain(ci, coset, chain))
            assert verify_boundary(cover, TwoChain(ci, coset, [x[k:k + q] for k in range(0, width, q)]))
        assert minimal_bounding_multiple(cover, ci, 1) == _multiple(full, t)


def check_gauge_vectors(cover):
    # Every g_s is in the kernel, and adds to every chain without changing
    # its boundary. When the nullity is q - 1, the g_s span the kernel and
    # the reduced-row-echelon null basis of the full system is integral (the
    # cover's factorization leaves the gauge out, and has no basis there).
    q = cover.q
    rows, width = _system_matrix(cover)
    gauges = gauge_vectors(cover)
    for g in gauges:
        assert all(sum(v * g[col] for col, v in row.items()) == 0 for row in rows)
    for ci in curve_indices(cover.diagram):
        for coset, chain in bounding_chains(cover, ci).items():
            if chain is None:
                continue
            for g in gauges:
                x = [[v + g[i * q + s] for s, v in enumerate(row)] for i, row in enumerate(chain.x)]
                assert verify_boundary(cover, TwoChain(ci, coset, x))
    basis = nullspace_basis([[row.get(j, 0) for j in range(width)] for row in rows])
    if len(basis) == q - 1:
        assert all(v.denominator == 1 for z in basis for v in z)


def check_the_last_arc_is_zero(cover):
    # The last run of M(t) is 0, so every chain of every coset is 0 on the
    # branch's last arc, and the full system's reduced row echelon form has
    # sheets 1..q-1 of that arc among its free columns.
    q = cover.q
    rows, width = _system_matrix(cover)
    F = {f for f, _ in _null_basis(_factor(rows, [], width))}
    assert set(range(width - q + 1, width)) <= F
    for ci in curve_indices(cover.diagram):
        for chain in bounding_chains(cover, ci).values():
            assert chain is None or not any(chain.x[-1])


def check_the_merge(cover):
    # Arc i < n - 1 joins arc i + 1 exactly when the branch passes under
    # another component there. On every merged arc the constants sum to 0
    # over the sheets and are x_i - x_rep(i) on the first solution.
    branch = cover.diagram.branch
    ups = cover.diagram.components[branch].underpasses
    q, curves = cover.q, curve_indices(cover.diagram)
    _, _, (block, consts) = _alexander_matrix(cover, curves)
    n = len(block)
    assert [block[i] == block[i + 1] for i in range(n - 1)] == [up.over.component != branch for up in ups[:n - 1]]
    rep = {k: i for i, k in enumerate(block)}  # each run's highest arc
    solutions = _first_solutions(cover)
    for ci, c in zip(curves, consts):
        I = [0] * q
        for j in cover.components_of[ci][0]:
            I[j - 1] = 1
        for i, ck in enumerate(c):
            step = _times(ck, I, q)
            if any(step):
                assert rep[block[i]] != i and sum(step) == 0
            if solutions[ci]:
                rows, d = solutions[ci]
                x, y = rows[i], rows[rep[block[i]]]
                assert [u - v for u, v in zip(x, y)] == [d * c for c in step]


def check_the_denominator_is_the_chains_lcm(cover):
    # Each first solution's d is positive, shares no factor with all of its
    # numerators, and is the lcm of the denominators of every chain that
    # bounding_chains makes from it.
    solutions = _first_solutions(cover)
    for ci in curve_indices(cover.diagram):
        chains = bounding_chains(cover, ci)
        if solutions[ci] is None:
            assert all(chain is None for chain in chains.values())
            continue
        rows, d = solutions[ci]
        assert d > 0 and gcd(d, *(v for row in rows for v in row)) == 1
        for chain in chains.values():
            assert lcm(*(v.denominator for row in chain.x for v in row)) == d


def hermite_calls(monkeypatch):
    """The curve indices homology passes to _multiple from now on."""
    calls = []
    monkeypatch.setattr(homology, "_multiple", lambda factors, t: calls.append(t) or _multiple(factors, t))
    return calls


def check_the_rule_against_hermite(cover, monkeypatch):
    # The rule takes every curve of a cover with nullity q - 1, and equals
    # the Hermite reduction on the full system; other covers call it on the
    # tail's sheet system.
    cover = build_cover(cover.diagram, cover.q)  # nothing memoized yet
    calls = hermite_calls(monkeypatch)
    curves = curve_indices(cover.diagram)
    rows, width = _system_matrix(cover)
    factors = _factor(rows, [_system_rhs(cover, ci, cover.components_of[ci][0]) for ci in curves], width)
    qhs = len(factors.free) == cover.q - 1
    for t, ci in enumerate(curves):
        assert minimal_bounding_multiple(cover, ci, 1) == _multiple(factors, t)
        if qhs:
            solution = _first_solutions(cover)[ci]
            assert (solution and solution[1]) == _multiple(factors, t)
    assert calls == ([] if qhs else list(range(len(curves))))
    return qhs


@pytest.mark.parametrize("name, q", CORPUS_AND_SWEEP)
def test_implied_rows_and_the_chain_multiple_on_the_corpus(name, q, monkeypatch):
    cover = build_cover(fixture(name).diagram, q)
    check_sum_row_differences_are_underpass_sums(cover)
    check_the_full_system_gives_the_same_answers(cover)
    check_gauge_vectors(cover)
    check_the_last_arc_is_zero(cover)
    check_the_merge(cover)
    check_the_denominator_is_the_chains_lcm(cover)
    assert check_the_rule_against_hermite(cover, monkeypatch)


@pytest.mark.parametrize("q", range(2, 7))
def test_implied_rows_and_the_chain_multiple_on_the_battery(q, monkeypatch):
    hermite = []
    for seed, cover in battery_covers(q):
        check_sum_row_differences_are_underpass_sums(cover)
        check_the_full_system_gives_the_same_answers(cover)
        check_gauge_vectors(cover)
        check_the_last_arc_is_zero(cover)
        check_the_merge(cover)
        check_the_denominator_is_the_chains_lcm(cover)
        if not check_the_rule_against_hermite(cover, monkeypatch):
            hermite.append(seed)
    # Only four battery covers, all at q = 6, have nullity above q - 1.
    assert len(hermite) == (4 if q == 6 else 0), hermite


def sympy_check_multiples(cover):
    curves = curve_indices(cover.diagram)
    systems = [assemble_system(cover, ci, cover.components_of[ci][0]) for ci in curves]
    if systems:
        want = sympy_minimal_multiples(systems[0][0], [b for _, b, _ in systems])
        assert [minimal_bounding_multiple(cover, ci, 1) for ci in curves] == want


def system_rows(name, q):
    diagram = fixture(name).diagram
    return diagram.components[diagram.branch].arc_count * (q + 1)


@pytest.mark.parametrize("name, q", [(name, q) for name, q in CORPUS_AND_SWEEP if system_rows(name, q) <= 64])
def test_the_chain_multiple_against_sympy_smith_form_on_the_corpus(name, q):
    # Systems up to 64 rows; sympy's Smith form takes seconds above that.
    sympy_check_multiples(build_cover(fixture(name).diagram, q))


@pytest.mark.parametrize("q", range(2, 7))
def test_the_chain_multiple_against_sympy_smith_form_on_the_battery(q):
    # A fifth of the battery: the Smith form of all 300 seeds takes about
    # 15 s; the Hermite comparison above covers every seed.
    for _, cover in battery_covers(q, range(60)):
        sympy_check_multiples(cover)


def trefoil_with_meridian(before=0, span=1):
    """The trefoil as a closed 2-braid, with eta around `span` strands
    after `before` of its three crossings."""
    cb = ClosedBraid(2)
    for _ in range(before):
        cb.step(0, 1)
    eta = cb.meridian(0, span)
    for _ in range(3 - before):
        cb.step(0, 1)
    k = cb.close()
    return cb.builder.to_diagram(branch=k, names={k: "K", eta: "eta"})


def torus_link_2_4():
    """T(2, 4): the branch passes under eta twice and never under itself."""
    cb = ClosedBraid(2)
    for _ in range(4):
        cb.step(0, 1)
    first, second = cb.builder.death(1), cb.builder.death(0)
    return cb.builder.to_diagram(branch=first, names={first: "K", second: "eta"})


def branch_underpasses(diagram):
    """B where the branch passes under itself, o under another component."""
    underpasses = diagram.components[diagram.branch].underpasses
    return "".join("B" if up.over.component == diagram.branch else "o" for up in underpasses)


@pytest.mark.parametrize(
    "make, q, pattern",
    [
        # no underpasses: one arc and only its sum row
        (hopf_pair_beside_unknot, 2, ""),
        (hopf_pair_beside_unknot, 5, ""),
        # no self-crossings: one run, which keeps the closing condition
        # sum_i b_{i,s} = 0 as rows with no entries
        (hopf_diagram, 3, "o"),
        (wire_with_meridian, 4, "o"),
        (torus_link_2_4, 3, "oo"),
        # the last underpass is under eta, and never merges
        (lambda: trefoil_with_meridian(3, 2), 3, "BoBBo"),
        # a run that ends at arc n - 1
        (lambda: trefoil_with_meridian(2), 3, "BBoB"),
        (torus_link_2_4, 4, "oo"),
        # normalize_writhe kinks, which are self-crossings
        (trefoil_with_meridian, 2, "BoBBB"),
        (lambda: trefoil_with_meridian(2), 4, "BBoBB"),
        (clasped_wire_diagram, 6, "oBoBBBBB"),
    ],
)
def test_the_merge_against_the_full_system_on_its_edge_cases(make, q, pattern):
    cover = build_cover(normalize_writhe(make(), q), q)
    assert branch_underpasses(cover.diagram) == pattern
    check_the_merge(cover)
    check_the_full_system_gives_the_same_answers(cover)
    check_gauge_vectors(cover)
    check_the_last_arc_is_zero(cover)
    for ci in curve_indices(cover.diagram):
        for chain in bounding_chains(cover, ci).values():
            assert chain is None or verify_boundary(cover, chain)


@pytest.mark.parametrize("make, multiple", [(trefoil_with_meridian, 1), (clasped_wire_diagram, None)])
@pytest.mark.parametrize("q", [6, 12])
def test_trefoil_branch_covers_take_the_hermite_route(make, multiple, q, monkeypatch):
    # The trefoil's Alexander polynomial is the sixth cyclotomic one, so from
    # q = 6 on the cover is no rational homology sphere (nullity q + 1).
    calls = hermite_calls(monkeypatch)
    cover = build_cover(normalize_writhe(make(), q), q)
    assert minimal_bounding_multiple(cover, "eta", 1) == multiple
    assert calls == [0]
    A, b, _ = assemble_system(cover, "eta", 1)
    assert minimal_scalar_integer_solution(A, b) == multiple


@pytest.mark.parametrize("name, q", [("twobridge_m2", 48), ("stevedore_w0", 256)])
def test_large_covers_read_the_multiple_off_the_chain(name, q, monkeypatch):
    # The Hermite reduction would take about as long as the factorization
    # at twobridge_m2 q=48, and 18 s at q=200.
    calls = hermite_calls(monkeypatch)
    order = evaluate_obstruction(fixture(name).diagram, q).order
    assert calls == []
    if name == "stevedore_w0":
        assert order == 3 * (2**q - 1)  # the closed form at even q
        return
    # The full system's Hermite reduction: 0.3 s here, 3 s at stevedore_w0
    # q=256, where its tail carries the gauge columns.
    cover = build_cover(fixture(name).diagram, q)
    rows, width = _system_matrix(cover)
    eta = cover.diagram.component_index("eta")
    assert order == _multiple(_factor(rows, [_system_rhs(cover, eta, cover.components_of[eta][0])], width), 0)


@pytest.mark.parametrize("make", [trefoil_with_meridian, clasped_wire_diagram])
@pytest.mark.parametrize("q", [2, 3, 5, 6, 12, 60])
def test_trefoil_branch_chains_are_zero_on_the_last_arc(make, q):
    # From q = 6 on these covers are no rational homology spheres; the
    # gauge is fixed on the last arc all the same, as M(t)'s last run is 0.
    cover = build_cover(normalize_writhe(make(), q), q)
    check_the_last_arc_is_zero(cover)
    check_the_full_system_gives_the_same_answers(cover)


def torus_3_4():
    return torus_knot_with_eta(3, 8)


def torus_2_5():
    return torus_knot_with_eta(2, 5)


def torus_2_7():
    return torus_knot_with_eta(2, 7)


TAIL_ROUTE = [(torus_3_4, 6, 2), (torus_3_4, 30, 2), (torus_2_5, 10, 1), (torus_2_5, 30, 1), (torus_2_7, 14, 1)] + [
    (make, q, multiple) for make, multiple in ((trefoil_with_meridian, 1), (clasped_wire_diagram, None)) for q in (6, 12, 60)
]


@pytest.mark.parametrize("make, q, multiple", TAIL_ROUTE)
def test_zero_divisor_covers_against_the_full_system(make, q, multiple):
    # On each of these covers D is a zero divisor mod t^q - 1 and M(t)'s
    # tail is factored on the sheets. The multiple is sympy's Hermite
    # multiple of the full system, every chain bounds, the same lifts bound
    # as in the full system, and every linking number reads the same off
    # the full system's own chains, which differ from the cover's.
    cover = build_cover(normalize_writhe(make(), q), q)
    solutions = _first_solutions(cover)
    assert cover._memo["tail"] is not None
    curves = curve_indices(cover.diagram)
    lifts = [(ci, coset) for ci in curves for coset in cover.components_of[ci]]
    rows, width = _system_matrix(cover)
    full = _solutions(_factor(rows, [_system_rhs(cover, *lift) for lift in lifts], width), width)
    full = {lift: s and [_fractions(s[0][k:k + q], s[1]) for k in range(0, width, q)] for lift, s in zip(lifts, full)}
    for ci in curves:
        A, b, _ = assemble_system(cover, ci, cover.components_of[ci][0])
        assert minimal_bounding_multiple(cover, ci, 1) == sympy_hermite_multiple(A, b) == multiple
    # Each first solution is zero on the free columns of the tail's sheet
    # system. Tail column k holds run cols[k], represented by its highest arc.
    _, _, _, cols, _, _, (block, _) = alexander._factor_laurent(cover, [])
    rep = {k: i for i, k in enumerate(block)}
    for f, _ in _null_basis(cover._memo["tail"]):
        k, s = divmod(f, q)
        assert all(x is None or x[0][rep[cols[k]]][s] == 0 for x in solutions.values())
    for lift in lifts:
        chain = bounding_chain(cover, *lift)
        assert (chain is None) == (full[lift] is None), lift
        assert chain is None or verify_boundary(cover, chain)
    for a in curves:
        for b in curves:
            report = linking_matrix(cover, a, b)
            for i, ga in enumerate(report.cosets_a):
                for j, gb in enumerate(report.cosets_b):
                    x = full[(b, gb)]
                    if (a, ga) != (b, gb) and x is not None and full[(a, ga)] is not None:
                        assert report.entry(i, j) == fraction_linking_sum(cover, x, b, gb, a, ga)


@pytest.mark.parametrize("make", [hopf_pair_beside_unknot, hopf_diagram])
@pytest.mark.parametrize("q", [2, 3, 5])
def test_a_one_arc_branch_factors_with_no_columns(make, q):
    # The branch's only arc is its last run, so M(t) has no column. Beside
    # the Hopf pair it passes under nothing and has no row either; under the
    # Hopf link's eta it keeps one row with no entries, the closing
    # condition, and consistency is read off its right-hand side.
    cover = build_cover(make(), q)
    curves = curve_indices(cover.diagram)
    tail, _, _, cols, _, D, _ = alexander._factor_laurent(cover, curves)
    assert cols == [] and D == {0: 1}
    assert tail == ([] if make is hopf_pair_beside_unknot else [{}])
    rows = [{}] * (q - 1) if tail else []
    for ci in curves:
        for chain in bounding_chains(cover, ci).values():
            assert chain is not None and verify_boundary(cover, chain) and not any(map(any, chain.x))
        assert minimal_bounding_multiple(cover, ci, 1) == 1
    if rows:
        # Eta's path lift over sheet 1 alone does not close up, and its
        # right-hand side is nonzero on an empty row.
        eta = cover.diagram.component_index("eta")
        loose = _system_rhs(cover, eta, (1,))[1:q]
        factors = _factor(rows, [[0] * (q - 1), loose], 0)
        assert [_consistent(factors, t) for t in (0, 1)] == [True, False]
        assert [_multiple(factors, t) for t in (0, 1)] == [1, None]
