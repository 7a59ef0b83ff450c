"""Diagram data structure: validation, invariants, serialization."""

import json
import re

import pytest

from conftest import hopf_diagram, trefoil_diagram, wire_with_meridian
from cyclink import (
    FORMAT,
    LinkComponent,
    LinkDiagram,
    OverstrandRef,
    Underpass,
    build_cover,
    diagram_from_dict,
    diagram_to_dict,
    load_diagram,
    mirror,
    normalize_writhe,
    pairwise_linking,
    save_diagram,
    validate,
    writhe,
)
from cyclink.fixtures import fixture_diagram_path


def kinked_unknot(signs) -> LinkDiagram:
    # Arc i ends at underpass i, so a chain of kinks can reference itself.
    ups = tuple(
        Underpass(s, OverstrandRef(0, i)) for i, s in enumerate(signs)
    )
    return LinkDiagram((LinkComponent("K", ups),), 0)


def test_writhe_counts_signed_self_crossings():
    assert writhe(trefoil_diagram(1), 0) == 3
    assert writhe(trefoil_diagram(-1), 0) == -3
    assert writhe(kinked_unknot([1, 1, -1]), 0) == 1


def test_pairwise_linking_hopf_both_orders():
    for sign in (1, -1):
        d = hopf_diagram(sign)
        assert pairwise_linking(d, 0, 1) == sign
        assert pairwise_linking(d, 1, 0) == sign


def test_pairwise_linking_rejects_equal_components():
    with pytest.raises(ValueError):
        pairwise_linking(hopf_diagram(), 0, 0)


def test_meridian_linking_matches_span():
    for span in (1, 2, 3):
        d = wire_with_meridian(span=span, wires=3)
        eta = d.component_index("eta")
        assert abs(pairwise_linking(d, eta, d.branch)) == span


def test_arc_count_of_crossingless_component_is_one():
    comp = LinkComponent("eta", ())
    assert comp.arc_count == 1
    assert LinkComponent("K", (Underpass(1, OverstrandRef(0, 0)),) * 3).arc_count == 3


def test_component_index_by_name_index_and_digit_string():
    d = hopf_diagram()
    assert d.component_index("K") == 0
    assert d.component_index("eta") == 1
    assert d.component_index(1) == 1
    assert d.component_index("1") == 1
    with pytest.raises(ValueError):
        d.component_index("gamma")
    with pytest.raises(ValueError):
        d.component_index(5)


def test_component_index_reads_only_the_plain_decimal_form():
    # int() reads all four as 1, the branch of stevedore_w0.
    d = load_diagram(fixture_diagram_path("stevedore_w0"))
    assert (d.component_index("0"), d.component_index("1")) == (0, 1)
    for key in (" 1", "+1", "01", "\u0661"):
        with pytest.raises(ValueError, match=f"^no component named {re.escape(repr(key))}$"):
            d.component_index(key)


def test_validate_accepts_built_diagrams():
    assert validate(hopf_diagram()) == []
    assert validate(trefoil_diagram()) == []


def test_validate_reports_each_violation():
    bad_sign = kinked_unknot([2])
    assert any("sign" in p for p in validate(bad_sign))

    bad_arc = LinkDiagram(
        (LinkComponent("K", (Underpass(1, OverstrandRef(0, 7)),)),), 0
    )
    assert any("arc" in p for p in validate(bad_arc))

    bad_component = LinkDiagram(
        (LinkComponent("K", (Underpass(1, OverstrandRef(3, 0)),)),), 0
    )
    assert any("component 3" in p for p in validate(bad_component))

    dupes = LinkDiagram(
        (LinkComponent("K", ()), LinkComponent("K", ())), 0
    )
    assert any("duplicate" in p for p in validate(dupes))

    bad_branch = LinkDiagram((LinkComponent("K", ()),), 4)
    assert any("branch" in p for p in validate(bad_branch))

    assert validate(LinkDiagram((), 0)) == ["diagram has no components"]


def one_sided_clasp() -> LinkDiagram:
    """K passes under eta once, but eta never passes under K.

    Structurally sound, yet no planar diagram reads linking number 1 off
    one component and 0 off the other.
    """
    return LinkDiagram(
        (
            LinkComponent("K", (Underpass(1, OverstrandRef(1, 0)),)),
            LinkComponent("eta", ()),
        ),
        0,
    )


def test_validate_reports_asymmetric_linking():
    d = one_sided_clasp()
    assert pairwise_linking(d, 0, 1) == 1 and pairwise_linking(d, 1, 0) == 0
    assert validate(d) == [
        "components 0 and 1 link 1 times read from 0 but 0 times read from 1"
    ]
    with pytest.raises(ValueError, match="invalid diagram: components 0 and 1"):
        build_cover(d, 1)
    # With the missing crossing added, both sides agree.
    fixed = LinkDiagram(
        (d.components[0], LinkComponent("eta", (Underpass(1, OverstrandRef(0, 0)),))),
        d.branch,
    )
    assert validate(fixed) == []


def test_normalize_writhe_reaches_zero_mod_q():
    d = trefoil_diagram()  # writhe 3
    for q in (1, 2, 3, 4, 5, 6):
        out = normalize_writhe(d, q)
        assert writhe(out, out.branch) % q == 0
        assert validate(out) == []


def test_normalize_writhe_is_noop_when_already_divisible():
    d = trefoil_diagram()
    assert normalize_writhe(d, 3) is d
    assert normalize_writhe(d, 1) is d


def test_normalize_writhe_picks_fewer_kinks():
    d = trefoil_diagram()  # writhe 3
    # q=4: one positive kink beats three negative ones.
    out = normalize_writhe(d, 4)
    added = len(out.components[0].underpasses) - len(d.components[0].underpasses)
    assert added == 1
    assert writhe(out, 0) == 4
    # q=2: one kink either way; the tie goes to the positive side.
    out = normalize_writhe(d, 2)
    assert writhe(out, 0) == 4


def test_normalize_writhe_rejects_bad_degree():
    with pytest.raises(ValueError):
        normalize_writhe(trefoil_diagram(), 0)


@pytest.mark.parametrize("branch, message", [(5, "branch index 5 out of range"), (-1, "branch index -1 out of range"), (True, "branch index True is not an integer"), (0.0, "branch index 0.0 is not an integer")])
def test_normalize_writhe_refuses_a_branch_index_it_cannot_read(branch, message):
    # Indexed as they were, 5 and True (read as 1) raised IndexError, -1
    # kinked the last component, and 0.0 raised TypeError.
    d = trefoil_diagram()
    bad = LinkDiagram(d.components, branch)
    assert message in validate(bad)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        normalize_writhe(bad, 2)


def test_mirror_negates_signs_and_is_an_involution():
    d = hopf_diagram()
    m = mirror(d)
    assert pairwise_linking(m, 0, 1) == -1
    assert writhe(mirror(trefoil_diagram()), 0) == -3
    assert mirror(m) == d


def test_dict_round_trip_preserves_diagram():
    d = hopf_diagram()
    data = diagram_to_dict(d)
    assert data["format"] == FORMAT
    assert diagram_from_dict(data) == d


def test_dict_round_trip_survives_json():
    d = trefoil_diagram(-1)
    again = diagram_from_dict(json.loads(json.dumps(diagram_to_dict(d))))
    assert again == d


def test_from_dict_rejects_unknown_format():
    data = diagram_to_dict(hopf_diagram())
    data["format"] = "something-else"
    with pytest.raises(ValueError):
        diagram_from_dict(data)


def test_file_round_trip(tmp_path):
    d = hopf_diagram()
    path = tmp_path / "hopf.json"
    save_diagram(d, path)
    assert load_diagram(path) == d


@pytest.mark.parametrize(
    "path, value",
    [
        (("components", 0, "underpasses", 0, "sign"), True),
        (("components", 0, "underpasses", 0, "over", "arc"), 1.9),
        (("components", 0, "underpasses", 0, "over", "component"), "0"),
        (("branch",), 0.0),
    ],
)
def test_from_dict_rejects_non_integer_fields(path, value):
    data = diagram_to_dict(hopf_diagram())
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(ValueError, match="must be an integer"):
        diagram_from_dict(data)


@pytest.mark.parametrize(
    "underpass, message",
    [
        ({"sign": True, "over": {"component": 0, "arc": 0}}, "sign must be an integer, not True"),
        ({"sign": 1, "over": {"component": 0, "arc": 1.9}}, "over.arc must be an integer, not 1.9"),
        ({"sign": 1, "over": {"component": "0", "arc": 0}}, "over.component must be an integer, not '0'"),
        # Fields are read in order, so a bad field is named before a later one is missed.
        ({"over": {"component": None}}, "over.component must be an integer, not None"),
        ({"over": {"component": 0, "arc": False}}, "over.arc must be an integer, not False"),
        ({"sign": 1, "over": {"arc": 0}}, "malformed diagram JSON: 'component'"),
        ({"over": {"component": 0, "arc": 0}}, "malformed diagram JSON: 'sign'"),
    ],
)
def test_from_dict_names_the_first_bad_underpass_field_exactly(underpass, message):
    data = diagram_to_dict(hopf_diagram())
    data["components"][1]["underpasses"][0] = underpass
    prefix = "" if message.startswith("malformed") else "component 1 underpass 0: "
    with pytest.raises(ValueError) as info:
        diagram_from_dict(data)
    assert str(info.value) == prefix + message


@pytest.mark.parametrize("value", [None, ["e"], 3])
def test_from_dict_rejects_non_string_names(value):
    # str() would have read null as "None" and ["e"] as "['e']".
    data = diagram_to_dict(hopf_diagram())
    data["components"][1]["name"] = value
    with pytest.raises(ValueError, match="component 1 name must be a string"):
        diagram_from_dict(data)


def _with_first_underpass(diagram, field, value):
    comp = diagram.components[0]
    up = comp.underpasses[0]
    if field == "sign":
        up = Underpass(value, up.over)
    elif field == "component":
        up = Underpass(up.sign, OverstrandRef(value, up.over.arc))
    else:
        up = Underpass(up.sign, OverstrandRef(up.over.component, value))
    comp = LinkComponent(comp.name, (up,) + comp.underpasses[1:])
    return LinkDiagram((comp,) + diagram.components[1:], diagram.branch)


@pytest.mark.parametrize(
    "field, value",
    [
        ("sign", True),
        ("sign", 1.0),
        ("component", False),
        ("component", 1.0),
        ("arc", False),
        ("arc", 0.5),
        ("branch", True),
        ("branch", 0.0),
    ],
)
def test_validate_rejects_non_integer_fields_of_built_diagrams(field, value):
    # Diagrams built in Python skip diagram_from_dict, so validate is the
    # only check before build_cover indexes with these values.
    d = hopf_diagram()
    if field == "branch":
        bad = LinkDiagram(d.components, value)
    else:
        bad = _with_first_underpass(d, field, value)
    problems = validate(bad)
    assert any(f"{field}" in p and f"{value!r} is not" in p for p in problems), problems
    with pytest.raises(ValueError, match="invalid diagram"):
        build_cover(bad, 2)
