"""Sheet bookkeeping: walks, wall hits, lift cosets."""

import pytest

from conftest import fixture, hopf_diagram, trefoil_diagram, wire_with_meridian
from cyclink import (
    BRANCH_WALL,
    PSEUDO_WALL,
    SheetMap,
    WallHit,
    build_cover,
    lift_components,
    normalize_writhe,
    resolve_coset,
    wrap_sheet,
)
from property_checks import sigma_at


def test_wrap_sheet_lands_in_one_to_q():
    assert wrap_sheet(0, 3) == 3
    assert wrap_sheet(3, 3) == 3
    assert wrap_sheet(4, 3) == 1
    assert wrap_sheet(-1, 3) == 2
    assert wrap_sheet(1, 1) == 1
    assert [wrap_sheet(v, 4) for v in range(1, 9)] == [1, 2, 3, 4, 1, 2, 3, 4]


def test_sheet_map_shift_apply_invert():
    m = SheetMap.from_shift(2, 5)
    assert m.q == 5
    assert m.shift == 2
    assert [m.apply(j) for j in range(1, 6)] == [3, 4, 5, 1, 2]
    for j in range(1, 6):
        assert m.invert(m.apply(j)) == j
    assert SheetMap.from_shift(0, 4).is_identity()
    assert not m.is_identity()
    assert SheetMap.from_shift(7, 5).shift == 2


def test_wall_hit_superscript_is_a_bijection_with_inverse():
    for offset in range(4):
        hit = WallHit(BRANCH_WALL, 0, 0, offset, 4)
        supers = [hit.superscript_of(j) for j in range(1, 5)]
        assert sorted(supers) == [1, 2, 3, 4]
        for j in range(1, 5):
            assert hit.lift_with_superscript(hit.superscript_of(j)) == j


def test_build_cover_rejects_bad_degree_and_invalid_diagrams():
    d = hopf_diagram()
    with pytest.raises(ValueError):
        build_cover(d, 0)
    from cyclink import LinkComponent, LinkDiagram

    with pytest.raises(ValueError, match="invalid diagram"):
        build_cover(LinkDiagram((LinkComponent("K", ()),), 5), 2)


def test_build_cover_rejects_undivisible_writhe_with_hint():
    with pytest.raises(ValueError, match="normalize_writhe"):
        build_cover(trefoil_diagram(), 2)
    # After normalizing, the same degree is accepted.
    build_cover(normalize_writhe(trefoil_diagram(), 2), 2)


def test_branch_walk_shifts_only_at_self_crossings():
    d = trefoil_diagram()  # three positive self-crossings
    cover = build_cover(d, 3)
    walk = cover.omega[0]
    assert [m.shift for m in walk] == [0, 1, 2, 0]
    assert walk[-1].is_identity()


def test_pseudo_walls_do_not_shift_the_walk():
    d = wire_with_meridian()  # K dives under eta once, eta under K once
    cover = build_cover(d, 4)
    k, eta = d.branch, d.component_index("eta")
    assert all(m.is_identity() for m in cover.omega[k])
    # eta's single underpass is under the branch, so its walk does shift.
    assert cover.omega[eta][-1].shift in (1, 4 - 1)
    assert cover.lbar[eta] == cover.omega[eta][-1].shift


def test_wall_kind_tracks_overstrand_component():
    d = normalize_writhe(fixture("stevedore_w2").diagram, 4)
    cover = build_cover(d, 4)
    for ci, comp in enumerate(d.components):
        for i, up in enumerate(comp.underpasses):
            hit = cover.sigma[ci][i]
            expected = BRANCH_WALL if up.over.component == d.branch else PSEUDO_WALL
            assert hit.wall_kind == expected
            assert (hit.wall_component, hit.wall_arc) == (
                up.over.component,
                up.over.arc,
            )


def test_wall_hit_offsets_follow_walk_and_sign():
    d = normalize_writhe(trefoil_diagram(-1), 3)
    cover = build_cover(d, 3)
    walk = cover.omega[0]
    for i, up in enumerate(d.components[0].underpasses):
        adjust = 1 if up.sign < 0 and up.over.component == d.branch else 0
        expected = (walk[i].shift - walk[up.over.arc].shift - adjust) % 3
        assert cover.sigma[0][i].offset == expected


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
            assert all(m.is_identity() for m in cover.omega[ci])
            assert all(h.superscript_of(1) == 1 for h in cover.sigma[ci])
            if ci != d.branch:
                assert cover.components_of[ci] == ((1,),)
                assert cover.lbar[ci] == 0
