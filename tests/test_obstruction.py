"""The satellite concordance obstruction."""

from fractions import Fraction

import pytest

from conftest import CORPUS_AND_SWEEP, fixture, hopf_diagram, torus_knot_with_eta, wire_with_meridian
from cyclink import LinkingReport, UndefinedEntry, evaluate_obstruction, is_prime_power, mirror, normalize_writhe
from cyclink.linking import NOT_NULL_HOMOLOGOUS, SELF_PAIRING
from cyclink.obstruction import (
    ALL_NONNEG,
    ALL_NONPOS,
    ALL_ZERO,
    INCONCLUSIVE,
    MIXED,
    OBSTRUCTED,
    UNDEFINED,
    _sign_profile,
)


def verdict_for(name, q):
    fx = fixture(name)
    return evaluate_obstruction(normalize_writhe(fx.diagram, q), q)


def test_is_prime_power_table():
    yes = {2, 3, 4, 5, 7, 8, 9, 11, 16, 25, 27, 32, 121}
    no = {-4, 0, 1, 6, 10, 12, 15, 36, 100}
    for n in yes:
        assert is_prime_power(n), n
    for n in no:
        assert not is_prime_power(n), n


def test_requires_exactly_two_components():
    from conftest import hopf_pair_beside_unknot

    with pytest.raises(ValueError):
        evaluate_obstruction(hopf_pair_beside_unknot(), 2)


def test_cable_with_positive_row_is_obstructed():
    verdict = verdict_for("cable_n3_k0", 3)
    assert verdict.verdict == OBSTRUCTED
    assert verdict.winding == 3
    assert verdict.sign_profile == ALL_NONNEG
    assert verdict.hypotheses["prime_power_degree"]
    assert verdict.hypotheses["degree_divides_winding"]


def test_all_zero_rows_are_inconclusive():
    for name, q in (("cable_n5_k2", 5), ("cable_n7_k3", 7)):
        verdict = verdict_for(name, q)
        assert verdict.sign_profile == ALL_ZERO
        assert verdict.verdict == INCONCLUSIVE


def test_fractional_one_sided_rows_are_obstructed():
    verdict = verdict_for("stevedore_w0", 2)
    assert verdict.verdict == OBSTRUCTED
    assert verdict.order == 9
    verdict = verdict_for("stevedore_w6", 3)
    assert verdict.verdict == OBSTRUCTED
    assert verdict.sign_profile == ALL_NONPOS


def test_non_prime_power_degree_is_inconclusive():
    fx = fixture("stevedore_w0")
    d = normalize_writhe(fx.diagram, 6)
    verdict = evaluate_obstruction(d, 6)
    assert not verdict.hypotheses["prime_power_degree"]
    assert verdict.verdict == INCONCLUSIVE


def test_degree_must_divide_winding():
    # Winding 2 at q = 3: the covering hypothesis fails, whatever the signs.
    fx = fixture("stevedore_w2")
    d = normalize_writhe(fx.diagram, 3)
    verdict = evaluate_obstruction(d, 3)
    assert not verdict.hypotheses["degree_divides_winding"]
    assert verdict.verdict == INCONCLUSIVE


def test_meridian_pattern_is_inconclusive():
    # A single meridian marks the identity pattern: nothing to obstruct.
    verdict = evaluate_obstruction(wire_with_meridian(), 1)
    assert verdict.verdict == INCONCLUSIVE
    assert verdict.order == 1
    assert verdict.hypotheses["integral_lifts"]


@pytest.mark.parametrize(
    "strands, crossings, q, order, entry",
    [
        (3, 8, 6, 2, Fraction(1, 2)),  # T(3, 4)
        (3, 8, 30, 2, Fraction(5, 2)),
        (2, 5, 10, 1, 1),  # T(2, 5)
        (2, 5, 30, 1, 3),
        (2, 7, 14, 1, 1),  # T(2, 7)
    ],
)
def test_torus_knot_verdicts_on_zero_divisor_covers(strands, crossings, q, order, entry):
    # Each cover is no rational homology sphere: the knot's Alexander
    # polynomial is a zero divisor mod t^q - 1. These values are cyclink's
    # own, not published ones; eta goes around every strand.
    verdict = evaluate_obstruction(normalize_writhe(torus_knot_with_eta(strands, crossings), q), q)
    assert verdict.order == order
    assert verdict.matrix.entries[0][1:] == (entry,) * (len(verdict.matrix.entries[0]) - 1)
    assert verdict.sign_profile == ALL_NONNEG
    assert verdict.verdict == INCONCLUSIVE


def test_mirror_does_not_change_the_verdict():
    for name, q in (
        ("stevedore_w0", 2),
        ("stevedore_w0", 3),
        ("cable_n3_k0", 3),
        ("cable_n5_k2", 5),
    ):
        fx = fixture(name)
        plain = evaluate_obstruction(normalize_writhe(fx.diagram, q), q)
        flipped = evaluate_obstruction(
            normalize_writhe(mirror(fx.diagram), q), q
        )
        assert flipped.verdict == plain.verdict
        if plain.sign_profile == ALL_NONNEG:
            assert flipped.sign_profile == ALL_NONPOS
        elif plain.sign_profile == ALL_NONPOS:
            assert flipped.sign_profile == ALL_NONNEG
        else:
            assert flipped.sign_profile == plain.sign_profile


def test_verdict_dict_is_json_friendly():
    import json

    verdict = verdict_for("stevedore_w0", 2)
    data = verdict.to_dict()
    assert json.loads(json.dumps(data)) == data
    assert data["verdict"] == OBSTRUCTED
    assert data["order"] == 9
    assert set(data["hypotheses"]) == {
        "prime_power_degree",
        "degree_divides_winding",
        "integral_lifts",
        "odd_order_or_winding_multiple",
    }


def test_hopf_pattern_obstructed_at_degree_one():
    # Winding one, integral lifts, single strictly positive entry... but a
    # 1x1 matrix has no off-diagonal entries, so the profile is all-zero.
    verdict = evaluate_obstruction(hopf_diagram(), 1)
    assert verdict.sign_profile == ALL_ZERO
    assert verdict.verdict == INCONCLUSIVE


def full_sign_profile(report):
    """The sign profile of every off-diagonal entry of the report, compared
    as Fractions: the oracle for _sign_profile, which reads row 0 only."""
    off_diagonal = [e for i, row in enumerate(report.entries) for j, e in enumerate(row) if i != j]
    if any(isinstance(e, UndefinedEntry) for e in off_diagonal):
        return UNDEFINED
    if all(e == 0 for e in off_diagonal):
        return ALL_ZERO
    if all(e >= 0 for e in off_diagonal):
        return ALL_NONNEG
    if all(e <= 0 for e in off_diagonal):
        return ALL_NONPOS
    return MIXED


@pytest.mark.parametrize("name, q", CORPUS_AND_SWEEP)
def test_the_sign_profile_of_row_zero_is_that_of_the_whole_table(name, q):
    verdict = evaluate_obstruction(fixture(name).diagram, q)
    assert verdict.sign_profile == _sign_profile(verdict.matrix) == full_sign_profile(verdict.matrix)


def circulant_report(first):
    """An eta x eta report with row 0 `first`, each row i it rotated i
    places to the right, as linking_matrix builds it."""
    g = len(first)
    cosets = tuple((k + 1,) for k in range(g))
    entries = tuple(tuple(first[(j - i) % g] for j in range(g)) for i in range(g))
    return LinkingReport(0, 0, cosets, cosets, entries)


SELF = UndefinedEntry(SELF_PAIRING)
LOOSE = UndefinedEntry(NOT_NULL_HOMOLOGOUS)


@pytest.mark.parametrize(
    "off_diagonal, profile",
    [
        ([], ALL_ZERO),
        ([Fraction(0)], ALL_ZERO),
        ([Fraction(0), Fraction(0), Fraction(0)], ALL_ZERO),
        ([Fraction(1, 3), Fraction(0), Fraction(2, 3)], ALL_NONNEG),
        ([Fraction(5, 7)], ALL_NONNEG),
        ([Fraction(0), Fraction(-1, 9), Fraction(-1, 9)], ALL_NONPOS),
        ([Fraction(-3)], ALL_NONPOS),
        ([Fraction(1, 2), Fraction(-1, 2)], MIXED),
        ([Fraction(0), Fraction(-7, 3), Fraction(0), Fraction(1, 99)], MIXED),
        ([LOOSE, LOOSE], UNDEFINED),
        ([Fraction(1), LOOSE, Fraction(1)], UNDEFINED),
    ],
)
def test_the_sign_profile_on_hand_built_circulant_reports(off_diagonal, profile):
    report = circulant_report([SELF, *off_diagonal])
    assert _sign_profile(report) == full_sign_profile(report) == profile
