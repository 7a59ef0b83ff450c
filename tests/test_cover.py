"""Sheet bookkeeping: walks, wall offsets, lift cosets."""

import random

import pytest

from builders import random_diagram
from conftest import fixture, hopf_diagram, trefoil_diagram, wire_with_meridian
from cyclink import (
    TwoChain,
    assemble_system,
    bounding_chain,
    bounding_chains,
    build_cover,
    evaluate_obstruction,
    lift_components,
    linking_matrix,
    linking_number,
    minimal_bounding_multiple,
    normalize_writhe,
    resolve_coset,
    verify_boundary,
    wrap_sheet,
)
from cyclink.cover import MAX_COVER_DEGREE
from cyclink.fixtures import corpus_names
from property_checks import check_cover_tables, independent_walks, sigma_at


def test_wrap_sheet_lands_in_one_to_q():
    assert wrap_sheet(0, 3) == 3
    assert wrap_sheet(3, 3) == 3
    assert wrap_sheet(4, 3) == 1
    assert wrap_sheet(-1, 3) == 2
    assert wrap_sheet(1, 1) == 1
    assert [wrap_sheet(v, 4) for v in range(1, 9)] == [1, 2, 3, 4, 1, 2, 3, 4]


def test_wall_hit_superscript_is_a_bijection_with_inverse():
    for offset in range(4):
        supers = [wrap_sheet(j + offset, 4) for j in range(1, 5)]
        assert sorted(supers) == [1, 2, 3, 4]
        for j in range(1, 5):
            assert wrap_sheet(wrap_sheet(j + offset, 4) - offset, 4) == j


def test_build_cover_rejects_bad_degree_and_invalid_diagrams():
    d = hopf_diagram()
    with pytest.raises(ValueError):
        build_cover(d, 0)
    from cyclink import LinkComponent, LinkDiagram

    with pytest.raises(ValueError, match="invalid diagram"):
        build_cover(LinkDiagram((LinkComponent("K", ()),), 5), 2)


@pytest.mark.parametrize("q", [True, 2.0, 2.5, "3"])
def test_a_degree_that_is_not_exactly_an_int_is_refused(q):
    # Never coerced: True would pass as q = 1 and 2.0 as q = 2, and on a
    # writhe-0 diagram normalize_writhe would have nothing else to refuse.
    d = fixture("stevedore_w0").diagram
    for call in (build_cover, evaluate_obstruction):
        with pytest.raises(ValueError, match="^cover degree q must be a positive integer$"):
            call(d, q)
    with pytest.raises(ValueError, match="^q must be a positive integer$"):
        normalize_writhe(d, q)


def test_build_cover_refuses_a_degree_above_the_limit():
    with pytest.raises(ValueError, match=f"above the limit of {MAX_COVER_DEGREE} sheets"):
        build_cover(fixture("stevedore_w0").diagram, MAX_COVER_DEGREE + 1)


def test_build_cover_rejects_undivisible_writhe_with_hint():
    with pytest.raises(ValueError, match="normalize_writhe"):
        build_cover(trefoil_diagram(), 2)
    # After normalizing, the same degree is accepted.
    build_cover(normalize_writhe(trefoil_diagram(), 2), 2)


def test_branch_walk_shifts_only_at_self_crossings():
    d = trefoil_diagram()  # three positive self-crossings
    assert independent_walks(d) == [[0, 1, 2, 3]]
    cover = build_cover(d, 3)
    # Arc i runs under arc i - 1 (mod 3), one sheet further along the walk.
    assert cover.sigma == ((1, 1, 1),)
    check_cover_tables(cover)


def test_pseudo_walls_do_not_shift_the_walk():
    d = wire_with_meridian()  # K dives under eta once, eta under K once
    cover = build_cover(d, 4)
    k, eta = d.branch, d.component_index("eta")
    walks = independent_walks(d)
    assert walks[k] == [0, 0]
    # eta's single underpass is under the branch, so its walk does shift.
    assert walks[eta][-1] in (1, -1)
    assert cover.lbar[eta] == walks[eta][-1] % 4
    check_cover_tables(cover)


def test_wall_hit_offsets_follow_walk_and_sign():
    d = normalize_writhe(trefoil_diagram(-1), 3)
    cover = build_cover(d, 3)
    # Every crossing is a self-crossing of the branch, so each one shifts.
    walk = [0]
    for up in d.components[0].underpasses:
        walk.append(walk[-1] + up.sign)
    for i, up in enumerate(d.components[0].underpasses):
        adjust = 1 if up.sign < 0 and up.over.component == d.branch else 0
        expected = (walk[i] - walk[up.over.arc] - adjust) % 3
        assert cover.sigma[0][i] == expected


def test_cover_offsets_match_independent_walks_on_corpus():
    for name in corpus_names():
        for q in fixture(name).writhe_zero_mod:
            check_cover_tables(build_cover(fixture(name).diagram, q))


def test_lift_cosets_partition_the_sheets():
    cover = build_cover(normalize_writhe(fixture("stevedore_w2").diagram, 4), 4)
    eta = cover.diagram.component_index("eta")
    assert cover.lbar[eta] == 2
    assert lift_components(cover, "eta") == [(1, 3), (2, 4)]

    cover = build_cover(fixture("cable_n3_k0").diagram, 3)
    assert cover.lbar[cover.diagram.component_index("eta")] == 0
    assert lift_components(cover, "eta") == [(1,), (2,), (3,)]

    cover = build_cover(fixture("twobridge_m0").diagram, 5)
    assert lift_components(cover, "eta") == [(1,), (2,), (3,), (4,), (5,)]


def test_lift_components_rejects_branch():
    cover = build_cover(hopf_diagram(), 1)
    with pytest.raises(ValueError):
        lift_components(cover, "K")


def test_resolve_coset_accepts_member_or_collection():
    cover = build_cover(normalize_writhe(fixture("stevedore_w2").diagram, 4), 4)
    assert resolve_coset(cover, "eta", 1) == (1, 3)
    assert resolve_coset(cover, "eta", 3) == (1, 3)
    assert resolve_coset(cover, "eta", 2) == (2, 4)
    assert resolve_coset(cover, "eta", [3, 1]) == (1, 3)
    assert resolve_coset(cover, "eta", (1, 3)) == (1, 3)
    with pytest.raises(ValueError):
        resolve_coset(cover, "eta", 9)
    with pytest.raises(ValueError):
        resolve_coset(cover, "eta", (1, 2))
    with pytest.raises(ValueError):
        resolve_coset(cover, "K", 1)


def test_lift_cosets_are_residue_classes_of_the_first_sheet():
    # Coset s of a curve holds the sheets = s + 1 mod g, g the coset count,
    # so a sheet names its coset by arithmetic alone; checked on stevedore_w2
    # q=4 (lbar 2) and on seeded random diagrams.
    rng = random.Random(14)
    covers = [build_cover(normalize_writhe(fixture("stevedore_w2").diagram, 4), 4)]
    for _ in range(30):
        q = rng.randint(1, 8)
        covers.append(build_cover(normalize_writhe(random_diagram(rng), q), q))
    strides, chains = set(), 0
    for cover in covers:
        q = cover.q
        for c, cosets in enumerate(cover.components_of):
            if cosets is None:
                continue
            g = len(cosets)
            strides.add((g, q))
            assert cosets == tuple(tuple(range(s + 1, q + 1, g)) for s in range(g))
            for j in range(1, q + 1):
                coset = resolve_coset(cover, c, j)
                assert j in coset and coset in cosets
                chain = bounding_chain(cover, c, j)
                if chain is not None:
                    assert chain.coset == coset
                    chains += 1
            for j in (0, -1, q + 1):
                with pytest.raises(ValueError, match=f"^no lift of component {c} contains sheet {j}$"):
                    resolve_coset(cover, c, j)
    assert any(1 < g < q for g, q in strides) and chains > 30


def test_every_lift_argument_refuses_the_branch_alike():
    cover = build_cover(fixture("stevedore_w0").diagram, 3)
    chain = bounding_chain(cover, "eta", 1)
    on_branch = TwoChain(curve=1, coset=(1,), x=chain.x)
    calls = [
        lambda: lift_components(cover, "K"),
        lambda: resolve_coset(cover, 1, (1, 2, 3)),
        lambda: assemble_system(cover, "K", 1),
        lambda: bounding_chain(cover, "K", 1),
        lambda: bounding_chains(cover, "K"),
        lambda: minimal_bounding_multiple(cover, "K", 1),
        lambda: verify_boundary(cover, on_branch),
        lambda: linking_number(cover, chain, "K", 1),
        lambda: linking_number(cover, on_branch, "eta", 2),
        lambda: linking_matrix(cover, "K", "eta"),
        lambda: linking_matrix(cover, "eta", "K"),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"^component 1 is the branch; it lifts to the branch locus, not to curves$"):
            call()


def test_sigma_at_bounds_checks():
    cover = build_cover(hopf_diagram(), 1)
    assert sigma_at(cover, "eta", 0, 1) == 1
    with pytest.raises(ValueError):
        sigma_at(cover, "eta", 5, 1)
    with pytest.raises(ValueError):
        sigma_at(cover, "eta", 0, 2)


def test_degree_one_cover_is_trivial():
    for d in (hopf_diagram(), trefoil_diagram(), wire_with_meridian(span=2, wires=2)):
        cover = build_cover(d, 1)
        assert cover.q == 1
        for ci in range(len(d.components)):
            assert all(off == 0 for off in cover.sigma[ci])
            if ci != d.branch:
                assert cover.components_of[ci] == ((1,),)
                assert cover.lbar[ci] == 0
