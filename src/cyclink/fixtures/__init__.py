"""Bundled diagram fixtures with published expected values.

Each fixture is a two-component diagram (pattern knot "K" as branch, marking
circle "eta") plus a list of expected-value records used by the acceptance
tests. Loading a fixture re-checks its declared consistency facts (validity,
linking symmetry included, the declared winding number, writhe divisibility,
and that each stated minimal multiple is divisible by every denominator of
the same row) so that an encoding regression fails loudly at load time
rather than as a wrong number later.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from ..diagram import _Record, load_diagram, pairwise_linking, validate, writhe
from ..rational_linalg import parse_rational

_DATA = Path(__file__).parent / "data"


class FixtureError(ValueError):
    """A bundled fixture failed its own consistency checks."""


class Expectation(_Record):
    """One externally sourced expected value for a fixture."""

    __slots__ = _fields = ("op", "args", "value", "source")


class Fixture(_Record):
    __slots__ = _fields = ("name", "diagram", "winding", "writhe_zero_mod", "expected")

    @property
    def eta(self) -> int:
        return self.diagram.component_index("eta")


def _corpus() -> dict:
    with open(_DATA / "corpus.json", encoding="utf-8") as fh:
        return json.load(fh)


def corpus_names() -> list[str]:
    return sorted(_corpus().keys())


def fixture_diagram_path(name: str) -> Path:
    """Path of the fixture's diagram file (handy for CLI round trips)."""
    entry = _corpus().get(name)
    if entry is None:
        raise FixtureError(f"unknown fixture {name!r}")
    return _DATA / entry["diagram"]


def _canonical(name: str) -> str:
    # stevedore_q3_w6 is accepted as a spelling of stevedore_w6
    m = re.fullmatch(r"stevedore_q(\d+)_w(\d+)", name)
    return f"stevedore_w{m.group(2)}" if m else name


def _check_multiples(name: str, expected: tuple[Expectation, ...]) -> None:
    # If d times lift 1 bounds an integral chain C, then lk(lift 1, b) is
    # (C . b) / d for every lift b, so d is a multiple of each denominator
    # in lift 1's linking row.
    rows = {
        (e.args["q"], e.args.get("curve")): e.value
        for e in expected
        if e.op == "linking_row"
    }
    for e in expected:
        if e.op != "order_divides" or e.args.get("coset") != 1:
            continue
        q = e.args["q"]
        for text in rows.get((q, e.args.get("curve")), ()):
            den = parse_rational(text).denominator
            if e.value % den:
                raise FixtureError(
                    f"{name} q={q}: stated multiple {e.value} is not divisible "
                    f"by the denominator {den} of row entry {text}"
                )


def load_fixture(name: str) -> Fixture:
    name = _canonical(name)
    entry = _corpus().get(name)
    if entry is None:
        raise FixtureError(f"unknown fixture {name!r}")
    diagram = load_diagram(_DATA / entry["diagram"])

    problems = validate(diagram)
    if problems:
        raise FixtureError(f"{name}: invalid diagram: {'; '.join(problems)}")
    if len(diagram.components) != 2:
        raise FixtureError(f"{name}: expected exactly two components")
    branch = diagram.branch
    eta = 1 - branch
    if diagram.components[eta].name != "eta":
        raise FixtureError(f"{name}: non-branch component must be named 'eta'")

    winding = int(entry["winding"])
    # validate has checked that both components read the same linking number.
    seen = pairwise_linking(diagram, eta, branch)
    if seen != winding:
        raise FixtureError(
            f"{name}: winding {winding} declared but diagram gives {seen}"
        )

    mods = tuple(int(q) for q in entry.get("writhe_zero_mod", ()))
    w = writhe(diagram, branch)
    for q in mods:
        if w % q != 0:
            raise FixtureError(f"{name}: branch writhe {w} not divisible by {q}")

    expected = tuple(
        Expectation(
            op=e["op"],
            args=dict(e.get("args", {})),
            value=e["value"],
            source=e.get("source", ""),
        )
        for e in entry.get("expected", ())
    )
    _check_multiples(name, expected)
    return Fixture(
        name=name,
        diagram=diagram,
        winding=winding,
        writhe_zero_mod=mods,
        expected=expected,
    )
