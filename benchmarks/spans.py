"""In-memory span tracer that wraps cyclink's public functions from outside.

Nothing here is imported by cyclink itself. `Tracer.install` replaces each
target function in every loaded `cyclink*` module namespace that binds it,
so a call is traced wherever it is made from (`cyclink.homology.solve_many`
as well as `cyclink.rational_linalg.solve_many`). A target that no longer
exists is skipped, and its layer then reports zero calls.

A span is (id, parent, op, name, start_ns, end_ns, attrs). `op` is the id
of the benchmark operation that caused it, so the spans of one operation
share it. A layer's self time is its span durations minus the time covered
by their direct children.

Solver statistics (system shape, a matrix fingerprint, bit size of the
solution, nullity) are computed inside a `trace.stats` child span, so that
they are charged to the tracer and not to the layer being measured.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import sys
import time
from contextlib import contextmanager

# layer name -> (defining module, public functions it covers)
TARGETS = {
    "diagram": (
        "cyclink.diagram",
        (
            "load_diagram",
            "diagram_from_dict",
            "diagram_to_dict",
            "save_diagram",
            "validate",
            "writhe",
            "pairwise_linking",
            "normalize_writhe",
            "mirror",
        ),
    ),
    "cover": ("cyclink.cover", ("build_cover", "lift_components", "resolve_coset")),
    "homology.assemble": ("cyclink.homology", ("assemble_system",)),
    "homology.chain": ("cyclink.homology", ("bounding_chain", "bounding_chains")),
    "homology.verify": ("cyclink.homology", ("verify_boundary",)),
    "homology.order": ("cyclink.homology", ("minimal_bounding_multiple",)),
    "linking": ("cyclink.linking", ("linking_number", "linking_matrix")),
    "obstruction": ("cyclink.obstruction", ("evaluate_obstruction",)),
    "rational_linalg.solve": (
        "cyclink.rational_linalg",
        ("solve_particular", "solve_many"),
    ),
    "rational_linalg.snf": (
        "cyclink.rational_linalg",
        (
            "smith_normal_form",
            "minimal_scalar_integer_solution",
            "integral_solution_exists",
        ),
    ),
    "rational_linalg.nullspace": ("cyclink.rational_linalg", ("nullspace_basis",)),
    "cli.main": ("cyclink.cli", ("main",)),
}

SOLVE = "rational_linalg.solve"
NULLSPACE = "rational_linalg.nullspace"
STATS = "trace.stats"
OP = "op"


def _is_cover(value) -> bool:
    return hasattr(value, "components_of") and hasattr(value, "sigma")


class Tracer:
    """Spans and solver statistics of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.enabled = True
        self.solves: list[dict] = []
        self.nullities: list[dict] = []
        self._next_id = 1
        # Covers are numbered on first sight and kept alive, so that an id()
        # is never reused for a different cover within the run.
        self._cover_serial: dict[int, int] = {}
        self._covers: list = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str, attrs: dict) -> dict:
        parent = self.stack[-1] if self.stack else None
        span = {
            "id": self._next_id,
            "parent": parent["id"] if parent else None,
            "op": parent["op"] if parent else self._next_id,
            "name": name,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
            "attrs": attrs,
        }
        self._next_id += 1
        self.stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end_ns"] = time.perf_counter_ns()
        self.stack.pop()
        self.spans.append(span)

    @contextmanager
    def op(self, label: str, cover=None):
        """Root span of one benchmark operation."""
        attrs = {"label": label}
        if cover is not None:
            attrs.update(self._cover_attrs(cover))
        span = self._open(OP, attrs)
        try:
            yield span
        finally:
            self._close(span)

    @contextmanager
    def paused(self):
        """Calls made inside (answer checks) are not traced."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def adopt(self, child: dict, parent: dict) -> None:
        """Attach what a traced subprocess wrote (see `write`) under `parent`."""
        remap = {}
        for span in child["spans"]:
            remap[span["id"]] = self._next_id
            self._next_id += 1
        for span in child["spans"]:
            self.spans.append(
                {
                    **span,
                    "id": remap[span["id"]],
                    "parent": remap.get(span["parent"], parent["id"]),
                    "op": parent["op"],
                }
            )
        # Cover serials restart in every process; qualify them by operation.
        for solve in child["solves"]:
            cover = solve["cover"]
            self.solves.append(
                {**solve, "cover": None if cover is None else f"{parent['op']}:{cover}"}
            )
        self.nullities.extend(child["nullities"])

    def _cover_attrs(self, cover) -> dict:
        key = id(cover)
        if key not in self._cover_serial:
            self._cover_serial[key] = len(self._covers)
            self._covers.append(cover)
        return {"cover": self._cover_serial[key], "q": cover.q}

    def _nearest(self, attr: str):
        for span in reversed(self.stack):
            if attr in span["attrs"]:
                return span["attrs"][attr]
        return None

    # -- wrapping ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target function wherever a cyclink module binds it."""
        for layer, (module_name, names) in TARGETS.items():
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            for name in names:
                original = getattr(module, name, None)
                if not callable(original):
                    continue
                wrapper = self._wrap(layer, original)
                for loaded_name, loaded in list(sys.modules.items()):
                    if loaded is None or not (
                        loaded_name == "cyclink" or loaded_name.startswith("cyclink.")
                    ):
                        continue
                    for attr, value in list(vars(loaded).items()):
                        if value is original:
                            setattr(loaded, attr, wrapper)

    def _wrap(self, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            attrs = tracer._cover_attrs(args[0]) if args and _is_cover(args[0]) else {}
            outer = not tracer.stack or tracer.stack[-1]["name"] != layer
            span = tracer._open(layer, attrs)
            try:
                result = fn(*args, **kwargs)
                if outer and layer == SOLVE:
                    tracer._solve_stats(args, result)
                elif outer and layer == NULLSPACE:
                    tracer._nullspace_stats(result)
                return result
            finally:
                tracer._close(span)

        return traced

    def _solve_stats(self, args, result) -> None:
        stats = self._open(STATS, {})
        try:
            matrix = args[0]
            solutions = result if result and isinstance(result[0], (list, type(None))) else [result]
            bits = 0
            for x in solutions:
                for v in x or ():
                    bits = max(bits, v.numerator.bit_length(), v.denominator.bit_length())
            self.solves.append(
                {
                    "cover": self._nearest("cover"),
                    "fingerprint": hashlib.blake2b(
                        repr(matrix).encode(), digest_size=16
                    ).hexdigest(),
                    "rows": len(matrix),
                    "cols": len(matrix[0]) if matrix else 0,
                    "bits": bits,
                }
            )
        except (AttributeError, IndexError, TypeError):
            pass  # a solver whose signature changed: no statistics, no crash
        finally:
            self._close(stats)

    def _nullspace_stats(self, result) -> None:
        stats = self._open(STATS, {})
        try:
            self.nullities.append({"nullity": len(result), "q": self._nearest("q")})
        except TypeError:
            pass
        finally:
            self._close(stats)

    # -- output ------------------------------------------------------------

    def with_self_time(self) -> list[dict]:
        """Spans in start order, each with its self time in ns."""
        covered: dict[int, int] = {}
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] = covered.get(span["parent"], 0) + (
                    span["end_ns"] - span["start_ns"]
                )
        out = []
        for span in sorted(self.spans, key=lambda s: (s["start_ns"], s["id"])):
            duration = span["end_ns"] - span["start_ns"]
            out.append({**span, "self_ns": duration - covered.get(span["id"], 0)})
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "spans": self.with_self_time(),
                    "solves": self.solves,
                    "nullities": self.nullities,
                },
                fh,
            )


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """calls and self_ms per layer, plus the solver statistics."""
    spans = tracer.with_self_time()
    by_id = {s["id"]: s for s in spans}
    out: dict[str, float] = {}
    for layer in TARGETS:
        if layer == "cli.main":
            continue
        mine = [s for s in spans if s["name"] == layer]
        calls = sum(
            1
            for s in mine
            if s["parent"] is None or by_id.get(s["parent"], {}).get("name") != layer
        )
        out[f"{layer}.calls"] = calls
        out[f"{layer}.self_ms"] = sum(s["self_ns"] for s in mine) / 1e6
    solves = tracer.solves
    distinct = {(s["cover"], s["fingerprint"]) for s in solves}
    out[f"{SOLVE}.distinct_ratio"] = len(distinct) / len(solves) if solves else 0.0
    out[f"{SOLVE}.rows_max"] = max((s["rows"] for s in solves), default=0)
    out[f"{SOLVE}.cols_max"] = max((s["cols"] for s in solves), default=0)
    out[f"{SOLVE}.bits_max"] = max((s["bits"] for s in solves), default=0)
    out[f"{NULLSPACE}.nullity_excess"] = sum(
        n["nullity"] - (n["q"] - 1) for n in tracer.nullities if n["q"] is not None
    )
    return out
