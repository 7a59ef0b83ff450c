"""Value classes: immutable slotted records with dataclass-style semantics.

Each row builds one record class from positional fields, a record that
differs in one field, and the repr a frozen dataclass would print. The
last tests pin the names the package exports and how it loads them.
"""

import copy
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cyclink
from conftest import fixture, trefoil_diagram
from cyclink import (
    CoverStructure,
    LinkComponent,
    LinkDiagram,
    LinkingReport,
    ObstructionVerdict,
    OverstrandRef,
    TwoChain,
    UndefinedEntry,
    Underpass,
    bounding_chain,
    build_cover,
    diagram_from_dict,
    diagram_to_dict,
    mirror,
    normalize_writhe,
)
from cyclink.diagram import _Record
from cyclink.fixtures import Expectation, Fixture

UP = Underpass(-1, OverstrandRef(1, 7))
UP_REPR = "Underpass(sign=-1, over=OverstrandRef(component=1, arc=7))"
UNLINK = LinkDiagram((LinkComponent("K", ()), LinkComponent("eta", ())), 0)
UNLINK_REPR = (
    "LinkDiagram(components=(LinkComponent(name='K', underpasses=()), "
    "LinkComponent(name='eta', underpasses=())), branch=0)"
)
REPORT = LinkingReport(1, 1, ((1,),), ((1,),), ((UndefinedEntry("self-pairing"),),))
REPORT_REPR = (
    "LinkingReport(curve_a=1, curve_b=1, cosets_a=((1,),), cosets_b=((1,),), "
    "entries=((UndefinedEntry(reason='self-pairing'),),))"
)
EXPECTATION = Expectation("lk", {"q": 3}, "1/2", "Table 1")
EXPECTATION_REPR = "Expectation(op='lk', args={'q': 3}, value='1/2', source='Table 1')"

ROWS = [
    (OverstrandRef, (1, 7), (1, 8), "OverstrandRef(component=1, arc=7)"),
    (Underpass, (-1, OverstrandRef(1, 7)), (1, OverstrandRef(1, 7)), UP_REPR),
    (LinkComponent, ("eta", (UP,)), ("eta", ()), f"LinkComponent(name='eta', underpasses=({UP_REPR},))"),
    (LinkDiagram, (UNLINK.components, 0), (UNLINK.components, 1), UNLINK_REPR),
    (
        CoverStructure,
        (2, UNLINK, ((), ()), (None, 0), (None, ((1,), (2,)))),
        (2, UNLINK, ((), ()), (None, 0), (None, ((1, 2),))),
        f"CoverStructure(q=2, diagram={UNLINK_REPR}, sigma=((), ()), lbar=(None, 0), "
        "components_of=(None, ((1,), (2,))))",
    ),
    (
        TwoChain,
        (1, (1, 2), ((Fraction(1, 2), 0),)),
        (1, (1, 2), ((Fraction(1, 3), 0),)),
        "TwoChain(curve=1, coset=(1, 2), x=((Fraction(1, 2), 0),))",
    ),
    (UndefinedEntry, ("self-pairing",), ("not rationally null-homologous",), "UndefinedEntry(reason='self-pairing')"),
    (LinkingReport, (1, 1, ((1,),), ((1,),), ((UndefinedEntry("self-pairing"),),)), (1, 1, ((1,),), ((1,),), ((Fraction(0),),)), REPORT_REPR),
    (
        ObstructionVerdict,
        (3, 0, None, {"prime_power": True}, "undefined", "inconclusive", REPORT),
        (3, 0, None, {"prime_power": True}, "undefined", "obstructed", REPORT),
        "ObstructionVerdict(q=3, winding=0, order=None, hypotheses={'prime_power': True}, "
        f"sign_profile='undefined', verdict='inconclusive', matrix={REPORT_REPR})",
    ),
    (Expectation, ("lk", {"q": 3}, "1/2", "Table 1"), ("lk", {"q": 3}, "1/3", "Table 1"), EXPECTATION_REPR),
    (
        Fixture,
        ("unlink", UNLINK, 0, (1, 2), (EXPECTATION,)),
        ("unlink", UNLINK, 1, (1, 2), (EXPECTATION,)),
        f"Fixture(name='unlink', diagram={UNLINK_REPR}, winding=0, writhe_zero_mod=(1, 2), "
        f"expected=({EXPECTATION_REPR},))",
    ),
]
ROW_IDS = [row[0].__name__ for row in ROWS]


@pytest.fixture(params=ROWS, ids=ROW_IDS)
def row(request):
    return request.param


def test_positional_and_keyword_construction_agree(row):
    cls, args, _, _ = row
    record = cls(*args)
    assert record == cls(**dict(zip(cls._fields, args)))
    assert record == cls(**dict(reversed(list(zip(cls._fields, args)))))
    assert record == cls(args[0], **dict(zip(cls._fields[1:], args[1:])))
    assert tuple(getattr(record, name) for name in cls._fields) == args


def test_equality_and_hash_follow_the_exact_class_and_the_fields(row):
    cls, args, other, _ = row
    record = cls(*args)
    assert record == cls(*args) and not record != cls(*args)
    assert record != cls(*other)
    assert record != args
    subclass = type(cls.__name__, (cls,), {"__slots__": ()})
    assert record != subclass(*args)
    assert record.__eq__(subclass(*args)) is NotImplemented
    # A record with a dict field is unhashable, as its field tuple is.
    try:
        expected = hash(args)
    except TypeError:
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(record)
    else:
        assert hash(record) == expected


def test_a_wrong_argument_list_raises_type_error(row):
    cls, args, _, _ = row
    first, call = cls._fields[0], f"^{cls.__name__}\\(\\) "
    wrong = [
        lambda: cls(*args, args[0]),  # one positional argument too many
        lambda: cls(*args[:-1]),  # the last field missing
        lambda: cls(**dict(zip(cls._fields[1:], args[1:]))),  # the first missing
        lambda: cls(*args, extra=1),  # an unknown keyword
        lambda: cls(*args, **{first: args[0]}),  # the first field twice
    ]
    for make in wrong:
        with pytest.raises(TypeError, match=call):
            make()


def test_repr_reads_like_the_constructor_call(row):
    cls, args, _, text = row
    assert repr(cls(*args)) == text


def test_fields_cannot_be_assigned_or_deleted(row):
    cls, args, _, _ = row
    record = cls(*args)
    name = cls._fields[0]
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
        setattr(record, name, args[0])
    with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, name) is args[0]


def test_pickle_and_copies_rebuild_an_equal_record(row):
    cls, args, _, _ = row
    record = cls(*args)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(record, protocol)) == record
    assert copy.copy(record) == record
    deep = copy.deepcopy(record)
    assert deep == record and type(deep) is cls


# _make skips the argument binding and any __init__ of the class's own, so
# it serves the records without one, such as those built per underpass.
BULK_ROWS = [row for row in ROWS if row[0].__init__ is _Record.__init__]


@pytest.mark.parametrize("row", BULK_ROWS, ids=[row[0].__name__ for row in BULK_ROWS])
def test_the_bulk_constructor_builds_the_same_record(row):
    cls, args, _, text = row
    made, record = cls._make(args), cls(*args)
    assert type(made) is cls and made == record and not made != record
    assert repr(made) == repr(record) == text
    try:
        expected = hash(record)
    except TypeError:
        expected = None
    if expected is not None:
        assert hash(made) == expected
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copied = pickle.loads(pickle.dumps(made, protocol))
        assert copied == record and type(copied) is cls


def test_diagrams_loaded_and_built_by_keyword_agree():
    # diagram_from_dict, normalize_writhe and mirror build their underpasses
    # with _make; keyword construction is the reference.
    def rebuilt(d):
        return LinkDiagram(
            components=tuple(
                LinkComponent(
                    name=c.name,
                    underpasses=tuple(
                        Underpass(sign=u.sign, over=OverstrandRef(component=u.over.component, arc=u.over.arc))
                        for u in c.underpasses
                    ),
                )
                for c in d.components
            ),
            branch=d.branch,
        )

    d = trefoil_diagram()  # writhe 3, so one positive kink at q = 4
    for made in (normalize_writhe(d, 4), mirror(d), diagram_from_dict(diagram_to_dict(mirror(d)))):
        assert made == rebuilt(made) and hash(made) == hash(rebuilt(made)) and repr(made) == repr(rebuilt(made))
    n = len(d.components[d.branch].underpasses)
    assert normalize_writhe(d, 4).components[d.branch].underpasses[n:] == (Underpass(1, OverstrandRef(d.branch, n)),)


def test_the_cover_memo_is_not_a_field():
    cover = build_cover(fixture("stevedore_w0").diagram, 3)
    fresh = build_cover(fixture("stevedore_w0").diagram, 3)
    bounding_chain(cover, "eta", 1)
    assert cover._memo and not fresh._memo
    assert cover == fresh and hash(cover) == hash(fresh) and repr(cover) == repr(fresh)
    assert "_memo" not in repr(cover)
    # Built by keyword, a cover starts with an empty memo of its own too.
    by_keyword = CoverStructure(**{name: getattr(cover, name) for name in CoverStructure._fields})
    assert by_keyword == cover and by_keyword._memo == {} and by_keyword._memo is not fresh._memo
    # A copy is rebuilt from the fields, so it solves again on first use.
    for copied in (pickle.loads(pickle.dumps(cover)), copy.deepcopy(cover)):
        assert copied == cover and copied._memo == {}
        assert bounding_chain(copied, "eta", 1) == bounding_chain(cover, "eta", 1)


@pytest.mark.parametrize("entry", [0.5, True])
def test_a_chain_built_by_keyword_freezes_its_rows_and_checks_its_entries(entry):
    chain = TwoChain(curve=1, coset=(1,), x=[[Fraction(1, 2), 0]])
    assert chain.x == ((Fraction(1, 2), 0),) and type(chain.x[0]) is tuple
    with pytest.raises(ValueError, match=f"^chain entry {entry!r} is not an int or a Fraction$"):
        TwoChain(curve=1, coset=(1,), x=[[entry, 0]])


PUBLIC = [
    "CoverStructure", "FORMAT", "LinkComponent", "LinkDiagram", "LinkingReport",
    "ObstructionVerdict", "OverstrandRef", "TwoChain", "UndefinedEntry", "Underpass",
    "__version__", "assemble_system", "bounding_chain", "bounding_chains", "build_cover",
    "diagram_from_dict", "diagram_to_dict", "evaluate_obstruction", "format_rational",
    "is_prime_power", "lift_components", "linking_matrix", "linking_number", "load_diagram",
    "minimal_bounding_multiple", "minimal_scalar_integer_solution", "mirror", "normalize_writhe",
    "nullspace_basis", "pairwise_linking", "parse_rational", "resolve_coset", "save_diagram",
    "solve_many", "solve_particular", "validate", "verify_boundary", "wrap_sheet", "writhe",
]


def test_the_public_names_are_pinned_and_resolve():
    assert sorted(cyclink.__all__) == PUBLIC and len(PUBLIC) == 39
    for name in PUBLIC:
        getattr(cyclink, name)


# Where each public name is defined.
HOMES = {
    "cover": ["CoverStructure", "build_cover", "lift_components", "resolve_coset", "wrap_sheet"],
    "diagram": [
        "FORMAT", "LinkComponent", "LinkDiagram", "OverstrandRef", "Underpass",
        "diagram_from_dict", "diagram_to_dict", "load_diagram", "mirror", "normalize_writhe",
        "pairwise_linking", "save_diagram", "validate", "writhe",
    ],
    "homology": [
        "TwoChain", "assemble_system", "bounding_chain", "bounding_chains",
        "minimal_bounding_multiple", "verify_boundary",
    ],
    "linking": ["LinkingReport", "UndefinedEntry", "linking_matrix", "linking_number"],
    "obstruction": ["ObstructionVerdict", "evaluate_obstruction", "is_prime_power"],
    "rational_linalg": [
        "format_rational", "minimal_scalar_integer_solution", "nullspace_basis",
        "parse_rational", "solve_many", "solve_particular",
    ],
}


def fresh(code: str):
    """Run `code` in a new `python -S` with this checkout's cyclink; the
    JSON it prints last."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_the_homes_cover_the_public_names():
    assert sorted(["__version__", *(name for names in HOMES.values() for name in names)]) == PUBLIC


def test_a_bare_import_loads_no_module_of_the_package():
    loaded = fresh(
        "import json, sys, cyclink; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('cyclink'))))"
    )
    assert loaded == ["cyclink"]


@pytest.mark.parametrize("home_first", [False, True])
def test_each_public_name_is_its_home_modules_object(home_first):
    # With home_first the home modules are imported before any name is
    # asked of the package; otherwise each name is asked first.
    found = fresh(f"""
import importlib, json, cyclink
homes = {HOMES!r}
if {home_first!r}:
    for home in homes:
        importlib.import_module("cyclink." + home)
bad = []
for home, names in homes.items():
    for name in names:
        value = getattr(cyclink, name)
        if value is not getattr(importlib.import_module("cyclink." + home), name):
            bad.append(name)
        elif vars(cyclink)[name] is not value:
            bad.append(name + " (not bound)")
print(json.dumps(bad))
""")
    assert found == []


def test_a_module_of_the_package_resolves_after_a_bare_import():
    found = fresh(
        "import json, cyclink; "
        f"print(json.dumps([getattr(cyclink, home).__name__ for home in {sorted(HOMES)!r}]))"
    )
    assert found == [f"cyclink.{home}" for home in sorted(HOMES)]


def test_a_star_import_binds_every_public_name_and_dir_lists_them():
    found = fresh(
        "import json, cyclink; listed = dir(cyclink); ns = {}; "
        "exec('from cyclink import *', ns); "
        "print(json.dumps([listed, sorted(n for n in ns if n != '__builtins__')]))"
    )
    listed, bound = found
    assert set(PUBLIC) <= set(listed) and listed == sorted(listed)
    assert bound == PUBLIC


def test_an_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="^module 'cyclink' has no attribute 'no_such_name'$"):
        cyclink.no_such_name
    assert not hasattr(cyclink, "bounding_chain_")
