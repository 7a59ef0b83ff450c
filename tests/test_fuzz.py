"""Fuzzing of the input contract: malformed input is an error, never a crash.

Diagram dicts are drawn mostly well formed, with values of the wrong type or
range mixed in. The library must either build a cover or raise ValueError,
and the CLI must exit 0 or 2 (1 would be an internal error).
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from cyclink import (
    FORMAT,
    build_cover,
    diagram_from_dict,
    diagram_to_dict,
    normalize_writhe,
    validate,
)
from cyclink.cli import main

JUNK = st.sampled_from([None, True, 1.5, "1", [], {}, 10**30, -1, 7])
SIGNS = st.sampled_from([1, -1])
DEGREES = st.integers(-1, 12)

FUZZ = settings(derandomize=True, deadline=None, max_examples=80, database=None)


@st.composite
def sound_dicts(draw, min_components=1):
    """A structurally valid diagram dict with symmetric linking numbers.

    Each crossing of two components is entered once under each of them, as
    in a planar diagram; the arcs it passes under are drawn freely.
    """
    k = draw(st.integers(min_components, 3))
    unders: list[list[tuple[int, int]]] = [[] for _ in range(k)]
    for _ in range(draw(st.integers(0, 4))):
        c = draw(st.integers(0, k - 1))
        unders[c].append((draw(SIGNS), c))
    if k > 1:
        for _ in range(draw(st.integers(0, 3))):
            a, b = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
            sign = draw(SIGNS)
            unders[a].append((sign, b))
            unders[b].append((sign, a))
    unders = [draw(st.permutations(u)) for u in unders]
    arcs = [max(1, len(u)) for u in unders]
    return {
        "format": FORMAT,
        "branch": draw(st.integers(0, k - 1)),
        "components": [
            {
                "name": ("K", "eta", "eta2")[ci] if draw(st.booleans()) else f"c{ci}",
                "underpasses": [
                    {
                        "sign": sign,
                        "over": {"component": oc, "arc": draw(st.integers(0, arcs[oc] - 1))},
                    }
                    for sign, oc in u
                ],
            }
            for ci, u in enumerate(unders)
        ],
    }


@st.composite
def corrupted(draw, documents):
    """One field of a sound document replaced by a value of the wrong type or range."""
    data = draw(documents)
    fields = [(data, "branch"), (data, "format")]
    for comp in data["components"]:
        fields.append((comp, "underpasses"))
        for up in comp["underpasses"]:
            fields += [(up, "sign"), (up["over"], "component"), (up["over"], "arc")]
    holder, key = draw(st.sampled_from(fields))
    if draw(st.booleans()):
        holder[key] = draw(JUNK)
    else:
        del holder[key]
    return data


def diagram_dicts():
    # Whole documents of the wrong shape.
    broken = st.one_of(
        JUNK,
        st.just({"format": FORMAT, "branch": 0, "components": "K"}),
        st.just({"format": FORMAT, "branch": 0, "components": [["K", []]]}),
    )
    return st.one_of(sound_dicts(), sound_dicts(), sound_dicts(), corrupted(sound_dicts()), broken)


@FUZZ
@given(data=diagram_dicts(), q=st.integers(1, 12))
def test_diagram_contract_is_value_errors_only(data, q):
    try:
        diagram = diagram_from_dict(data)
    except ValueError:
        return
    problems = validate(diagram)
    if problems:
        try:
            build_cover(diagram, q)
        except ValueError as exc:
            assert str(exc).startswith("invalid diagram: ")
        else:
            raise AssertionError("build_cover accepted an invalid diagram")
        return
    cover = build_cover(normalize_writhe(diagram, q), q)
    for offsets in cover.sigma:
        assert all(type(off) is int and 0 <= off < q for off in offsets)


def commands(path, q):
    file_and_q = (path, "-q", str(q))
    sheet = st.one_of(st.integers(1, max(q, 1)), st.integers(-1, 13)).map(str)
    # Index strings resolve too, so most draws name a real component.
    curve = st.sampled_from(["0", "1", "2", "K", "eta"])
    return st.one_of(
        st.tuples(st.just("validate"), st.just(path)),
        st.tuples(st.sampled_from(["info", "obstruct"]), st.just(file_and_q)),
        st.tuples(
            st.sampled_from(["chain", "order"]), st.just(file_and_q),
            st.just("--curve"), curve, st.just("--coset"), sheet,
        ),
        st.tuples(st.just("matrix"), st.just(file_and_q), st.just("--a"), curve, st.just("--b"), curve),
        st.tuples(
            st.just("lk"), st.just(file_and_q),
            st.just("--a"), curve, st.just("--i"), sheet,
            st.just("--b"), curve, st.just("--j"), sheet,
        ),
    )


def flatten(parts):
    for part in parts:
        if isinstance(part, tuple):
            yield from flatten(part)
        else:
            yield part


@FUZZ
@given(
    data=st.data(),
    document=sound_dicts(min_components=2),
    q=st.one_of(st.integers(1, 12), DEGREES),
    kinks=st.integers(0, 3),
    as_json=st.booleans(),
)
def test_cli_exits_zero_or_two(data, document, q, kinks, as_json):
    if data.draw(st.integers(0, 3)) == 0:
        document = data.draw(diagram_dicts())
    if q >= 1 and kinks:
        # A degree rarely divides a random writhe; add the kinks for most
        # documents so that the solvers run too.
        try:
            diagram = diagram_from_dict(document)
        except ValueError:
            pass
        else:
            if not validate(diagram):
                document = diagram_to_dict(normalize_writhe(diagram, q))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "diagram.json"
        path.write_text(json.dumps(document))
        argv = list(flatten(data.draw(commands(str(path), q))))
        if as_json:
            argv.append("--json")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2), (argv, err.getvalue())
    if code == 2:
        assert err.getvalue() or out.getvalue()
