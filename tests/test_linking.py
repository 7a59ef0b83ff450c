"""Linking numbers of lifted curves."""

import random
from fractions import Fraction

import pytest

from conftest import CORPUS_AND_SWEEP, battery_covers, clasped_wire_diagram, fixture, hopf_pair_beside_unknot
from cyclink import (
    UndefinedEntry,
    bounding_chain,
    build_cover,
    lift_components,
    linking_matrix,
    linking_number,
    mirror,
    normalize_writhe,
    nullspace_basis,
    assemble_system,
    TwoChain,
    pairwise_linking,
    verify_boundary,
)
from cyclink.fixtures import corpus_names
from cyclink.homology import _first_solutions
from cyclink.linking import NOT_NULL_HOMOLOGOUS, SELF_PAIRING, _entry, _linking_sum
from property_checks import curve_indices, fraction_linking_sum


def cover_for(name, q):
    return build_cover(normalize_writhe(fixture(name).diagram, q), q)


def test_split_pair_lifts_link_like_the_plane_diagram():
    for sign in (1, -1):
        d = hopf_pair_beside_unknot(sign)
        for q in (1, 2, 4):
            report = linking_matrix(build_cover(d, q), "eta1", "eta2")
            for i in range(q):
                for j in range(q):
                    assert report.entry(i, j) == (sign if i == j else 0)


def test_degree_one_matrix_is_classical_linking():
    d = hopf_pair_beside_unknot(-1)
    cover = build_cover(d, 1)
    report = linking_matrix(cover, "eta1", "eta2")
    assert report.entry(0, 0) == pairwise_linking(d, 1, 2)


def test_published_sample_value():
    report = linking_matrix(cover_for("stevedore_w0", 2), "eta", "eta")
    assert report.entry(0, 1) == Fraction(2, 9)
    assert isinstance(report.entry(0, 0), UndefinedEntry)
    assert report.entry(0, 0).reason == SELF_PAIRING


@pytest.mark.parametrize("i, j", [(-1, 0), (0, -1), (True, 0), (0, True), (2, 0), (0, 2), (0.0, 0), (0, "1")])
def test_an_entry_refuses_a_row_or_column_the_report_does_not_have(i, j):
    # Rows and columns are 0..1. Indexed as they were, -1 read the last
    # row, True row 1, and 0.0 a TypeError.
    report = linking_matrix(cover_for("stevedore_w0", 2), "eta", "eta")
    assert report.entry(1, 0) == report.entries[1][0]
    with pytest.raises(ValueError, match="^no entry at row"):
        report.entry(i, j)


def test_matrix_is_symmetric_where_defined():
    report = linking_matrix(cover_for("stevedore_w0", 4), "eta", "eta")
    size = len(report.cosets_a)
    for i in range(size):
        for j in range(size):
            if i != j:
                assert report.entry(i, j) == report.entry(j, i)


def test_matrix_rejects_branch_curves():
    cover = cover_for("stevedore_w0", 2)
    with pytest.raises(ValueError):
        linking_matrix(cover, "K", "eta")
    with pytest.raises(ValueError):
        linking_matrix(cover, "eta", "K")


def test_linking_number_rejects_branch_and_self_pairing():
    cover = cover_for("stevedore_w0", 3)
    chain = bounding_chain(cover, "eta", 1)
    with pytest.raises(ValueError):
        linking_number(cover, chain, "K", 1)
    with pytest.raises(ValueError, match="self"):
        linking_number(cover, chain, "eta", 1)
    assert linking_number(cover, chain, "eta", 2) == Fraction(1, 7)


def test_linking_number_rejects_a_chain_of_another_cover():
    # The q=5 chain read on the q=3 cover gave 27/31; verify_boundary
    # refuses it for its shape, and so must linking_number.
    chain = bounding_chain(cover_for("stevedore_w0", 5), "eta", 1)
    cover = cover_for("stevedore_w0", 3)
    with pytest.raises(ValueError, match="shape"):
        verify_boundary(cover, chain)
    with pytest.raises(ValueError, match="shape"):
        linking_number(cover, chain, "eta", 2)
    assert linking_number(cover, bounding_chain(cover, "eta", 1), "eta", 2) == Fraction(1, 7)


def test_linking_number_canonicalizes_the_chain_coset():
    # A coset written [3, 1] is the lift (1, 3): its chain still bounds, and
    # pairing it with (1, 3) is a self-pairing, not the 14/9 it once gave.
    cover = cover_for("stevedore_w2", 4)
    chain = bounding_chain(cover, "eta", 1)
    assert chain.coset == (1, 3)
    reordered = TwoChain(curve=chain.curve, coset=(3, 1), x=chain.x)
    assert verify_boundary(cover, reordered)
    with pytest.raises(ValueError, match="self-pairing"):
        linking_number(cover, reordered, "eta", 1)
    assert linking_number(cover, reordered, "eta", 2) == linking_number(cover, chain, "eta", 2)


def test_gauge_invariance_on_one_fixture():
    cover = cover_for("stevedore_w0", 3)
    rows, _, columns = assemble_system(cover, "eta", 1)
    chain = bounding_chain(cover, "eta", 1)
    basis = nullspace_basis(rows)
    assert basis
    baseline = [linking_number(cover, chain, "eta", j) for j in (2, 3)]
    rng = random.Random(1)
    n = cover.diagram.components[cover.diagram.branch].arc_count
    for _ in range(5):
        flat = [chain.x[i][j - 1] for i in range(n) for j in range(1, 4)]
        for vec in basis:
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            flat = [a + c * v for a, v in zip(flat, vec)]
        perturbed = TwoChain(
            curve=chain.curve,
            coset=chain.coset,
            x=tuple(
                tuple(flat[columns[(i, j)]] for j in range(1, 4))
                for i in range(n)
            ),
        )
        assert [
            linking_number(cover, perturbed, "eta", j) for j in (2, 3)
        ] == baseline


def test_undefined_when_the_other_lift_does_not_bound():
    d = normalize_writhe(clasped_wire_diagram(), 6)
    cover = build_cover(d, 6)
    report = linking_matrix(cover, "eta", "eta")
    for i in range(6):
        for j in range(6):
            entry = report.entry(i, j)
            assert isinstance(entry, UndefinedEntry)
            expected = SELF_PAIRING if i == j else NOT_NULL_HOMOLOGOUS
            assert entry.reason == expected
    assert report.to_dict()["entries"][0][1] == {
        "undefined": "not rationally null-homologous"
    }


def test_mirror_negates_the_multiset_of_defined_entries():
    base = fixture("stevedore_w0").diagram
    for q in (2, 3):
        plain = linking_matrix(
            build_cover(normalize_writhe(base, q), q), "eta", "eta"
        )
        mirrored = linking_matrix(
            build_cover(normalize_writhe(mirror(base), q), q), "eta", "eta"
        )
        def defined(report):
            return sorted(
                e
                for row in report.entries
                for e in row
                if not isinstance(e, UndefinedEntry)
            )
        assert defined(mirrored) == sorted(-e for e in defined(plain))


def test_report_dict_shape():
    report = linking_matrix(cover_for("cable_n3_k0", 3), "eta", "eta")
    data = report.to_dict()
    assert data["cosets_a"] == [[1], [2], [3]]
    assert data["entries"][0][1] == "1"
    assert data["entries"][0][0] == {"undefined": "self-pairing"}


def test_two_meridian_lifts_do_not_link():
    from builders import ClosedBraid

    cb = ClosedBraid(1)
    m1 = cb.meridian(0, 1)
    m2 = cb.meridian(0, 1)
    k = cb.close()
    d = cb.builder.to_diagram(branch=k, names={k: "K", m1: "eta1", m2: "eta2"})
    for q in (1, 2, 3):
        cover = build_cover(d, q)
        # Winding one joins all path-lifts into a single curve.
        assert lift_components(cover, "eta1") == [tuple(range(1, q + 1))]
        report = linking_matrix(cover, "eta1", "eta2")
        assert report.entry(0, 0) == 0


def test_linking_sum_equals_the_fraction_by_fraction_sum_on_the_corpus():
    # The library sums integer numerators over one common denominator; the
    # oracle adds one Fraction per wall lift passed under, on the chain
    # bounding_chain builds. The library reads the same chain both ways: as
    # that chain, and as the curve's first solution shifted s sheets up.
    pairs = 0
    for name in corpus_names():
        for q in fixture(name).writhe_zero_mod:
            cover = build_cover(fixture(name).diagram, q)
            ci = cover.diagram.component_index("eta")
            cosets = lift_components(cover, "eta")
            for s, gb in enumerate(cosets):
                chain = bounding_chain(cover, "eta", gb)
                for ga in cosets:
                    if chain is not None and ga != gb:
                        pairs += 1
                        expected = fraction_linking_sum(cover, chain.x, ci, gb, ci, ga)
                        assert _linking_sum(cover, chain.x, 1, 0, ci, gb, ci, ga) == expected, (name, q, gb, ga)
                        rows, d = _first_solutions(cover)[ci]
                        assert _linking_sum(cover, rows, d, s, ci, gb, ci, ga) == expected, (name, q, gb, ga)
    assert pairs > 300, pairs


@pytest.mark.parametrize("q", range(2, 7))
def test_a_linking_sum_reads_its_rows_over_their_denominator(q):
    # A first solution (rows, d) is the chain rows / d, so rows and d scaled
    # together leave every linking number as it was. Where one curve passes
    # under another, the crossing adds an integer, which must be read over
    # d as well; no corpus pair has both such a crossing and d > 1.
    crossed = 0
    for _, cover in battery_covers(q, range(100)):
        solutions = _first_solutions(cover)
        curves = curve_indices(cover.diagram)
        for b in curves:
            if solutions[b] is None:
                continue
            rows, d = solutions[b]
            scaled = [[7 * v for v in row] for row in rows]
            for a in curves:
                if a != b:
                    crossed += any(up.over.component == b for up in cover.diagram.components[a].underpasses)
                for s, gb in enumerate(cover.components_of[b]):
                    for ga in cover.components_of[a]:
                        if (a, ga) != (b, gb) and solutions[a] is not None:
                            want = _entry(cover, a, ga, b, gb)
                            assert _linking_sum(cover, scaled, 7 * d, s, b, gb, a, ga) == want, (a, b, ga, gb)
    assert crossed > 20, crossed


def check_circulant_matrices(cover):
    """linking_matrix, which sums row 0 only, equals the entry-by-entry table
    for every ordered pair of curves, and each defined entry, summed in
    integers over the first solution's denominator, equals the oracle's
    Fraction-by-Fraction sum on the chain bounding_chain makes; returns how
    many pairs have g_a != g_b."""
    curves = curve_indices(cover.diagram)
    unequal = 0
    for a in curves:
        for b in curves:
            cosets_a, cosets_b = cover.components_of[a], cover.components_of[b]
            table = tuple(tuple(_entry(cover, a, ga, b, gb) for gb in cosets_b) for ga in cosets_a)
            assert linking_matrix(cover, a, b).entries == table, (a, b)
            for ga, row in zip(cosets_a, table):
                for gb, e in zip(cosets_b, row):
                    if not isinstance(e, UndefinedEntry):
                        chain = bounding_chain(cover, b, gb)
                        assert e == fraction_linking_sum(cover, chain.x, b, gb, a, ga), (a, b, ga, gb)
            unequal += len(cosets_a) != len(cosets_b)
    return unequal


@pytest.mark.parametrize("name, q", CORPUS_AND_SWEEP)
def test_circulant_matrix_equals_every_entry_on_the_corpus(name, q):
    check_circulant_matrices(build_cover(fixture(name).diagram, q))


@pytest.mark.parametrize("q", range(2, 7))
def test_circulant_matrix_equals_every_entry_on_the_battery(q):
    # Curves with different numbers of lifts give rectangular matrices whose
    # orbits meet row 0 in gcd(g_a, g_b) ways; the battery holds hundreds.
    assert sum(check_circulant_matrices(cover) for _, cover in battery_covers(q)) > 200
