"""Oriented link diagrams encoded as underpass lists.

A diagram is stored one component at a time. Walking along a component in
the direction of its orientation, an arc ends exactly where the walker
passes under another strand, so a component with n underpasses has n arcs
and ``underpasses[i]`` is the crossing at the head of arc i. Overpasses do
not interrupt arcs; they are implicit, since arc (c, a) appears as the
``over`` reference of every crossing where it is the overstrand.

One component is distinguished as the branch curve. The covering machinery
in :mod:`cyclink.cover` consumes these diagrams and requires the branch
writhe to vanish mod q; :func:`normalize_writhe` adds the kinks that
arrange this.
"""

from __future__ import annotations

import json

FORMAT = "cyclink-diagram-1"


class _Record:
    """An immutable record: the fields named in _fields, each in a slot.

    The fields are taken by position, in _fields order, or by keyword, as
    a dataclass takes them; a missing, extra or unknown argument raises
    TypeError. Two records are equal when they are of the same class with
    equal fields, and hash as the tuple of their fields; repr reads like
    the constructor call. Pickle and copy rebuild a record from its fields
    by position. `_make` builds a record of values in _fields order
    without the argument binding, for records built in bulk.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # Each field's slot setter, which stores past the refusing
        # __setattr__ faster than object.__setattr__ finds it by name.
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            # Bound as a dataclass binds them: by position, then by keyword.
            values = dict(zip(fields, args))
            for name in kwargs:
                if name not in fields or name in values:
                    raise TypeError(f"{type(self).__name__}() got an unexpected or repeated argument {name!r}")
            values.update(kwargs)
            if len(args) > len(fields) or len(values) < len(fields):
                raise TypeError(f"{type(self).__name__}() takes {len(fields)} fields, {', '.join(fields)}, not {len(args) + len(kwargs)}")
            args = [values[name] for name in fields]
        for setter, value in zip(self._setters, args):
            setter(self, value)

    @classmethod
    def _make(cls, values):
        self = object.__new__(cls)
        for setter, value in zip(cls._setters, values):
            setter(self, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class OverstrandRef(_Record):
    """The arc passing over at some crossing: component index plus arc index."""

    __slots__ = _fields = ("component", "arc")


class Underpass(_Record):
    """One undercrossing along a walk: crossing sign and the overstrand arc."""

    __slots__ = _fields = ("sign", "over")


class LinkComponent(_Record):
    __slots__ = _fields = ("name", "underpasses")

    @property
    def arc_count(self) -> int:
        # A closed curve that never passes under anything is one arc.
        return max(1, len(self.underpasses))


class LinkDiagram(_Record):
    __slots__ = _fields = ("components", "branch")

    def component_index(self, key: int | str) -> int:
        """Resolve a component given by index or by name."""
        # An exact type test: False would pass as index 0, and 1.0 as 1.
        if type(key) is int:
            if not 0 <= key < len(self.components):
                raise ValueError(f"component index {key} out of range")
            return key
        if not isinstance(key, str):
            raise ValueError(f"a component is named by an index or a name, not {key!r}")
        for i, c in enumerate(self.components):
            if c.name == key:
                return i
        # Only the plain decimal form of an index: int() would also read
        # " 1", "+1", "01" and non-ASCII digits.
        for i in range(len(self.components)):
            if key == str(i):
                return i
        raise ValueError(f"no component named {key!r}")


def _branch_problem(diagram: LinkDiagram) -> str | None:
    # An exact type test: True == 1 would pass as a branch index, and 0.5
    # as one in range until it is used as an index.
    if type(diagram.branch) is not int:
        return f"branch index {diagram.branch!r} is not an integer"
    if not 0 <= diagram.branch < len(diagram.components):
        return f"branch index {diagram.branch} out of range"
    return None


def validate(diagram: LinkDiagram) -> list[str]:
    """Check structural consistency; returns a list of violations, empty if valid."""
    problems: list[str] = []
    if not diagram.components:
        problems.append("diagram has no components")
        return problems
    if problem := _branch_problem(diagram):
        problems.append(problem)
    seen: set[str] = set()
    components = diagram.components
    for ci, comp in enumerate(components):
        if comp.name in seen:
            problems.append(f"duplicate component name {comp.name!r}")
        seen.add(comp.name)
        for ai, up in enumerate(comp.underpasses):
            sign, oc, arc = up.sign, up.over.component, up.over.arc
            # The location is formatted only for an underpass with a problem.
            if type(sign) is int and sign in (1, -1) and type(oc) is int and 0 <= oc < len(components) and type(arc) is int and 0 <= arc < components[oc].arc_count:
                continue
            where = f"component {ci} ({comp.name}) underpass {ai}"
            if type(sign) is not int or sign not in (1, -1):
                problems.append(f"{where}: sign {sign!r} is not +1 or -1")
            if type(oc) is not int:
                problems.append(f"{where}: overstrand component {oc!r} is not an integer")
                continue
            if not 0 <= oc < len(components):
                problems.append(f"{where}: overstrand component {oc} out of range")
                continue
            target = components[oc]
            if type(arc) is not int:
                problems.append(f"{where}: overstrand arc {arc!r} is not an integer")
            elif not 0 <= arc < target.arc_count:
                problems.append(
                    f"{where}: overstrand arc {arc} out of range for "
                    f"component {oc} with {target.arc_count} arcs"
                )
    if problems:
        return problems
    # A planar diagram reads the same linking number off either component.
    for a in range(len(diagram.components)):
        for b in range(a + 1, len(diagram.components)):
            ab = pairwise_linking(diagram, a, b)
            ba = pairwise_linking(diagram, b, a)
            if ab != ba:
                problems.append(
                    f"components {a} and {b} link {ab} times read from {a} "
                    f"but {ba} times read from {b}"
                )
    return problems


def writhe(diagram: LinkDiagram, component: int) -> int:
    """Signed count of self-crossings of one component."""
    comp = diagram.components[component]
    return sum(u.sign for u in comp.underpasses if u.over.component == component)


def pairwise_linking(diagram: LinkDiagram, a: int, b: int) -> int:
    """Linking number of components a and b, read off from a's underpasses.

    For a planar-realizable diagram this equals the count read off from b's
    underpasses; validate reports any pair where the two differ.
    """
    if a == b:
        raise ValueError("pairwise linking needs two distinct components")
    comp = diagram.components[a]
    return sum(u.sign for u in comp.underpasses if u.over.component == b)


def normalize_writhe(diagram: LinkDiagram, q: int) -> LinkDiagram:
    """Append kinks to the branch component until its writhe vanishes mod q.

    Uses whichever of the two kink counts is smaller: r positive kinks with
    r = (-writhe) mod q, or r' negative kinks with r' = writhe mod q. Ties go
    to positive kinks. Each kink is one extra arc whose underpass records the
    kink arc itself as overstrand.
    """
    # An exact type test, as in build_cover: True would pass as q = 1.
    if type(q) is not int or q < 1:
        raise ValueError("q must be a positive integer")
    if problem := _branch_problem(diagram):
        raise ValueError(problem)
    w = writhe(diagram, diagram.branch)
    r_pos = (-w) % q
    r_neg = w % q
    count, sign = (r_pos, 1) if r_pos <= r_neg else (r_neg, -1)
    if count == 0:
        return diagram
    comp = diagram.components[diagram.branch]
    ups = list(comp.underpasses)
    for _ in range(count):
        ups.append(Underpass._make((sign, OverstrandRef._make((diagram.branch, len(ups))))))
    comps = list(diagram.components)
    comps[diagram.branch] = LinkComponent(comp.name, tuple(ups))
    return LinkDiagram(tuple(comps), diagram.branch)


def mirror(diagram: LinkDiagram) -> LinkDiagram:
    """The mirror diagram: every crossing sign negated, over/under kept."""
    comps = []
    for comp in diagram.components:
        ups = tuple([Underpass._make((-u.sign, u.over)) for u in comp.underpasses])
        comps.append(LinkComponent(comp.name, ups))
    return LinkDiagram(tuple(comps), diagram.branch)


def diagram_to_dict(diagram: LinkDiagram) -> dict:
    return {
        "format": FORMAT,
        "branch": diagram.branch,
        "components": [
            {
                "name": c.name,
                "underpasses": [
                    {
                        "sign": u.sign,
                        "over": {"component": u.over.component, "arc": u.over.arc},
                    }
                    for u in c.underpasses
                ],
            }
            for c in diagram.components
        ],
    }


def _integer(value, where: str) -> int:
    # int() would read True as 1 and 1.9 as 1 without a word.
    if type(value) is not int:
        raise ValueError(f"{where} must be an integer, not {value!r}")
    return value


def diagram_from_dict(data: dict) -> LinkDiagram:
    if not isinstance(data, dict):
        raise ValueError("diagram JSON must be an object")
    fmt = data.get("format")
    if fmt != FORMAT:
        raise ValueError(f"unsupported diagram format {fmt!r}, expected {FORMAT!r}")
    make_ref, make_up = OverstrandRef._make, Underpass._make
    try:
        comps = []
        for ci, c in enumerate(data["components"]):
            ups = []
            for ui, u in enumerate(c["underpasses"]):
                over = u["over"]
                # Read and checked in this order, as _integer reads them below.
                if type(oc := over["component"]) is int and type(arc := over["arc"]) is int and type(sign := u["sign"]) is int:
                    ups.append(make_up((sign, make_ref((oc, arc)))))
                    continue
                # The first field that is not an int raises; only then is
                # its location formatted.
                at = f"component {ci} underpass {ui}: "
                _integer(over["component"], at + "over.component")
                _integer(over["arc"], at + "over.arc")
                _integer(u["sign"], at + "sign")
            name = c["name"]
            # str() would turn null into "None" and ["e"] into "['e']".
            if not isinstance(name, str):
                raise ValueError(f"component {ci} name must be a string, not {name!r}")
            comps.append(LinkComponent(name, tuple(ups)))
        branch = _integer(data["branch"], "branch")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed diagram JSON: {exc}") from exc
    return LinkDiagram(tuple(comps), branch)


def load_diagram(path) -> LinkDiagram:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            # RecursionError: arrays or objects nested too deep to parse
            raise ValueError(f"not valid JSON: {exc}") from exc
    return diagram_from_dict(data)


def save_diagram(diagram: LinkDiagram, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(diagram_to_dict(diagram), fh, indent=1)
        fh.write("\n")
