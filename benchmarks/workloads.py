"""The three workloads of the cyclink benchmark.

Each workload is built from a seed (`op_list`) and exposes its operations
as `prepare(op, state, tracer) -> (call, finish)`: `call()` is the one
timed call into cyclink, and `finish(result)` returns
`(golden_key, answer, invariants_ok)`. `run.py` compares `answer` with
`golden.json[golden_key]` (frozen by `freeze.py`) and requires
`invariants_ok`, which holds the checks that need no golden value:
published corpus values, `verify_boundary`, A v = 0 for nullspace vectors,
gauge invariance and CLI exit codes.

Per-item seeds come from `zlib.crc32`, never from `hash()`, whose value for
a str changes with PYTHONHASHSEED.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import random
import subprocess
import sys
import zlib
from fractions import Fraction
from math import gcd
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_out"
GOLDEN_PATH = BENCH_DIR / "golden.json"


def item_rng(*parts) -> random.Random:
    return random.Random(zlib.crc32(":".join(str(p) for p in parts).encode()))


def digest(data) -> str:
    text = data if isinstance(data, bytes) else json.dumps(data, sort_keys=True).encode()
    return hashlib.sha256(text).hexdigest()


def label(op: tuple) -> str:
    return " ".join(str(part) for part in op)


def import_cyclink():
    """Import cyclink afresh from this checkout's src/, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "cyclink" or n.startswith("cyclink.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    ck = importlib.import_module("cyclink")
    fixtures = importlib.import_module("cyclink.fixtures")
    if not Path(ck.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"cyclink imported from {ck.__file__}, not from {SRC}")
    return ck, fixtures


def lift_count(winding: int, q: int) -> int:
    """Number of lift cosets of a curve with this winding around the branch."""
    return gcd(winding % q, q)


def entry_text(entry) -> str:
    reason = getattr(entry, "reason", None)
    return f"undefined: {reason}" if reason is not None else str(Fraction(entry))


class CorpusTables:
    """One op is one table row: `evaluate_obstruction` on a diagram file."""

    name = "corpus_tables"

    # Off-table rows: writhe-0 fixtures at degrees the corpus does not list.
    SWEEP = (
        [("stevedore_w0", q) for q in (1, 6, 7, 8, 9, 10, 11)]
        + [("twobridge_m0", q) for q in (6, 7, 8, 9, 10, 11)]
        + [("twobridge_m1", q) for q in (6, 7, 8)]
        + [("twobridge_m2", q) for q in (6, 7)]
    )

    # Published values the code is known to disagree with, and what it gives.
    KNOWN_DISCREPANCIES = {
        # The published row states multiple 1875, but the same row's entry
        # 3036/18785 has denominator 18785, which is also what the code gives.
        ("twobridge_m1", 4): {"order": 18785},
    }

    def __init__(self, seed: int):
        self.ck, fixtures = import_cyclink()
        self.paths = {}
        self.published = {}
        for name in fixtures.corpus_names():
            fx = fixtures.load_fixture(name)
            self.paths[name] = str(fixtures.fixture_diagram_path(name))
            for q in fx.writhe_zero_mod:
                self.published[(name, q)] = {}
            for exp in fx.expected:
                row = self.published[(name, exp.args["q"])]
                if exp.op == "linking_row":
                    row["row"] = [Fraction(v) for v in exp.value]
                elif exp.op == "order_divides":
                    row["order"] = exp.value
                elif exp.op == "obstruction":
                    row["verdict"] = exp.value
        self.rows = sorted(self.published) + self.SWEEP
        self.ops = self.op_list(seed)

    def op_list(self, seed: int) -> list[tuple]:
        ops = self.pool()
        item_rng(self.name, seed).shuffle(ops)
        return ops

    def pool(self) -> list[tuple]:
        return [("row", name, q) for name, q in self.rows]

    def new_state(self) -> dict:
        return {}

    def prepare(self, op, state, tracer):
        _, name, q = op
        ck, path = self.ck, self.paths[name]

        def call():
            return ck.evaluate_obstruction(ck.load_diagram(path), q)

        def finish(verdict):
            data = verdict.to_dict()
            row = [entry_text(e) for e in verdict.matrix.entries[0][1:]]
            answer = {
                "row": row,
                "order": verdict.order,
                "verdict": verdict.verdict,
                "digest": digest(data),
            }
            return label(op), answer, self._matches_published(name, q, verdict)

        return call, finish

    def _matches_published(self, name, q, verdict) -> bool:
        pub = self.published.get((name, q))
        if pub is None:
            return True
        ok = True
        if "row" in pub:
            got = [entry_text(e) for e in verdict.matrix.entries[0][1:]]
            ok &= got == [str(v) for v in pub["row"]]
        if "order" in pub:
            known = self.KNOWN_DISCREPANCIES.get((name, q))
            if known is not None:
                ok &= verdict.order == known["order"]
            else:
                ok &= verdict.order is not None and pub["order"] % verdict.order == 0
        if "verdict" in pub:
            ok &= verdict.verdict == pub["verdict"]
        return ok


class LiftQueries:
    """One op is one library call on a fixed set of medium covers.

    Per cover: `bounding_chain` and `verify_boundary` for every lift,
    `linking_number` for every ordered pair of lifts,
    `minimal_bounding_multiple` of lift 1 (the one the obstruction uses),
    one `nullspace_basis`, and a chain moved by a seeded nullspace
    combination that must still bound (`verify_boundary`) and give the
    same linking numbers.
    """

    name = "lift_queries"
    # Chosen so that p50 and p90 fall inside plateaus of the latency
    # distribution, the lk and chain calls of stevedore_w5 and of
    # stevedore_w12. With cable_n5_k0 q=5 added, p50 sat where cheap 10-arc
    # lk calls give way to 15-22-arc ones and jumped by up to 45%; with
    # stevedore_w8 q=4 added, it sat between its calls and stevedore_w5's
    # and moved by 8% from run to run.
    COVERS = (
        ("twobridge_m1", 4),
        ("stevedore_w12", 4),
        ("stevedore_w5", 5),
        ("twobridge_m0", 5),
    )

    def __init__(self, seed: int):
        self.ck, fixtures = import_cyclink()
        self.covers = {}
        self.lifts = {}
        for name, q in self.COVERS:
            fx = fixtures.load_fixture(name)
            self.covers[name] = self.ck.build_cover(fx.diagram, q)
            self.lifts[name] = lift_count(fx.winding, q)
        self.ops = self.op_list(seed)

    def op_list(self, seed: int) -> list[tuple]:
        blocks = []
        for name, q in self.COVERS:
            rng = item_rng(self.name, seed, name, q)
            lifts = list(range(1, self.lifts[name] + 1))
            rng.shuffle(lifts)
            pairs = [(i, j) for i in lifts for j in lifts if i != j]
            rng.shuffle(pairs)
            k0 = rng.choice(lifts)
            block = (
                [("chain", name, q, k) for k in lifts]
                + [("verify", name, q, k) for k in lifts]
                + [("order", name, q, 1)]
                + [("lk", name, q, i, j) for i, j in pairs]
                + [("nullspace", name, q)]
                + [("gauge_verify", name, q, k0, rng.getrandbits(32))]
                + [("gauge_lk", name, q, k0, j) for j in lifts if j != k0]
            )
            blocks.append(block)
        item_rng(self.name, seed).shuffle(blocks)
        return [op for block in blocks for op in block]

    def pool(self) -> list[tuple]:
        return [op for op in self.op_list(0) if not op[0].startswith("gauge_")]

    def new_state(self) -> dict:
        return {"chains": {}, "nullspace": {}, "gauge": {}}

    def prepare(self, op, state, tracer):
        kind, name, q = op[:3]
        ck, cover = self.ck, self.covers[name]
        chains = state["chains"]
        key = label(op)

        if kind == "chain":
            k = op[3]

            def call():
                return ck.bounding_chain(cover, "eta", k)

            def finish(chain):
                chains[(name, k)] = chain
                return key, chain and digest(chain.to_dict()), chain is not None

        elif kind in ("verify", "gauge_verify"):
            if kind == "verify":
                chain = chains[(name, op[3])]
            else:
                chain = self._perturbed(chains[(name, op[3])], state["nullspace"][name], op[4])
                state["gauge"][name] = chain

            def call():
                return ck.verify_boundary(cover, chain)

            def finish(ok):
                return (key if kind == "verify" else None), ok, ok is True

        elif kind == "order":
            k = op[3]

            def call():
                return ck.minimal_bounding_multiple(cover, "eta", k)

            def finish(order):
                return key, order, order is not None

        elif kind in ("lk", "gauge_lk"):
            i, j = op[3], op[4]
            chain = chains[(name, i)] if kind == "lk" else state["gauge"][name]

            def call():
                return ck.linking_number(cover, chain, "eta", j)

            def finish(value):
                return label(("lk", name, q, i, j)), entry_text(value), True

        elif kind == "nullspace":

            def call():
                rows, _, columns = ck.assemble_system(cover, "eta", 1)
                return rows, columns, ck.nullspace_basis(rows)

            def finish(result):
                rows, columns, basis = result
                state["nullspace"][name] = (basis, columns)
                in_kernel = all(
                    sum(a * v for a, v in zip(row, vec) if a) == 0
                    for vec in basis
                    for row in rows
                )
                return key, len(basis), in_kernel

        else:
            raise ValueError(f"unknown op {op!r}")
        return call, finish

    def _perturbed(self, chain, nullspace, perturb_seed):
        basis, columns = nullspace
        rng = random.Random(perturb_seed)
        flat = {col: chain.x[i][j - 1] for (i, j), col in columns.items()}
        for vec in basis:
            c = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
            for col in flat:
                flat[col] += c * vec[col]
        n, q = len(chain.x), len(chain.x[0])
        x = tuple(
            tuple(flat[columns[(i, j)]] for j in range(1, q + 1)) for i in range(n)
        )
        return self.ck.TwoChain(curve=chain.curve, coset=chain.coset, x=x)


class CliSession:
    """One op is one `python -m cyclink.cli ... --json` subprocess."""

    name = "cli_session"
    PAIRS = (
        ("stevedore_w0", 3),
        ("twobridge_m0", 4),
        ("cable_n3_k1", 3),
        ("stevedore_w8", 4),
        ("stevedore_w5", 5),
        ("twobridge_m1", 4),
        ("cable_n5_k0", 5),
        ("stevedore_w12", 4),
    )
    SAMPLED = 8  # validate and info ops drawn per pass
    # Sized for run time: q=3000000 ends in a MemoryError (exit 1) today.
    LARGE_Q = 100000
    LARGE_FIXTURES = ("stevedore_w0", "twobridge_m0")
    # Branch writhe not divisible by q: rejected with exit 2.
    BAD_WRITHE = (
        ("cable_n3_k0", 2),
        ("cable_n5_k0", 3),
        ("cable_n5_k2", 2),
        ("cable_n7_k1", 3),
        ("cable_n7_k3", 4),
    )
    # Copies of this fixture with one overstrand arc out of range: exit 2.
    BAD_ARC_SOURCE = "stevedore_w0"

    def __init__(self, seed: int):
        self.ck, fixtures = import_cyclink()
        self.files = {}
        self.winding = {}
        self.corpus_pairs = []
        for name in fixtures.corpus_names():
            fx = fixtures.load_fixture(name)
            self.files[name] = str(fixtures.fixture_diagram_path(name))
            self.winding[name] = fx.winding
            self.corpus_pairs += [(name, q) for q in fx.writhe_zero_mod]
        self.chain_covers = {
            name: self.ck.build_cover(fixtures.load_fixture(name).diagram, q)
            for name, q in self.PAIRS
        }
        self.bad_arcs = self._write_bad_arc_files(fixtures)
        self.ops = self.op_list(seed)

    def _write_bad_arc_files(self, fixtures) -> int:
        data = self.ck.diagram_to_dict(fixtures.load_fixture(self.BAD_ARC_SOURCE).diagram)
        spots = [
            (ci, ui)
            for ci, comp in enumerate(data["components"])
            for ui in range(len(comp["underpasses"]))
        ]
        out = WORK_DIR / "inputs"
        out.mkdir(parents=True, exist_ok=True)
        for k, (ci, ui) in enumerate(spots):
            bad = json.loads(json.dumps(data))
            over = bad["components"][ci]["underpasses"][ui]["over"]
            target = bad["components"][over["component"]]
            over["arc"] = max(1, len(target["underpasses"]))
            path = out / f"bad_arc_{k}.json"
            path.write_text(json.dumps(bad, indent=1) + "\n", encoding="utf-8")
            self.files[f"bad_arc_{k}"] = str(path)
        return len(spots)

    def _ops_for(self, name, q, pick) -> list[tuple]:
        """chain, lk, matrix, order and obstruct ops on one (fixture, q)."""
        lifts = lift_count(self.winding[name], q)
        qs = str(q)
        i, j = pick(lifts)
        return [
            ("chain", "-q", qs, "--curve", "eta", "--coset", str(i), f"@{name}", "--json"),
            ("lk", "-q", qs, "--a", "eta", "--i", str(i), "--b", "eta", "--j", str(j),
             f"@{name}", "--json"),
            ("matrix", "-q", qs, "--a", "eta", "--b", "eta", f"@{name}", "--json"),
            ("order", "-q", qs, "--curve", "eta", "--coset", str(j), f"@{name}", "--json"),
            ("obstruct", "-q", qs, f"@{name}", "--json"),
        ]

    def op_list(self, seed: int) -> list[tuple]:
        rng = item_rng(self.name, seed)
        ops = [("validate", f"@{name}", "--json")
               for name in rng.sample(sorted(self.winding), self.SAMPLED)]
        ops += [("info", "-q", str(q), f"@{name}", "--json")
                for name, q in rng.sample(self.corpus_pairs, self.SAMPLED)]
        for name, q in self.PAIRS:
            ops += self._ops_for(name, q, lambda n: rng.sample(range(1, n + 1), 2))
        ops.append(("info", "-q", str(self.LARGE_Q), f"@{rng.choice(self.LARGE_FIXTURES)}",
                    "--json"))
        ops.append(("validate", f"@bad_arc_{rng.randrange(self.bad_arcs)}", "--json"))
        name, q = rng.choice(self.BAD_WRITHE)
        ops.append(("info", "-q", str(q), f"@{name}", "--json"))
        rng.shuffle(ops)
        return ops

    def pool(self) -> list[tuple]:
        ops = [("validate", f"@{name}", "--json") for name in sorted(self.winding)]
        ops += [("info", "-q", str(q), f"@{name}", "--json") for name, q in self.corpus_pairs]
        for name, q in self.PAIRS:
            n = lift_count(self.winding[name], q)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i != j:
                        ops += self._ops_for(name, q, lambda _: (i, j))
        ops += [("info", "-q", str(self.LARGE_Q), f"@{name}", "--json")
                for name in self.LARGE_FIXTURES]
        ops += [("validate", f"@bad_arc_{k}", "--json") for k in range(self.bad_arcs)]
        ops += [("info", "-q", str(q), f"@{name}", "--json") for name, q in self.BAD_WRITHE]
        return list(dict.fromkeys(ops))

    def new_state(self) -> dict:
        return {}

    def _expected_exit(self, op) -> int:
        name = op[-2][1:]
        rejected = name.startswith("bad_arc_") or (
            op[0] == "info" and (name, int(op[2])) in self.BAD_WRITHE
        )
        return 2 if rejected else 0

    def prepare(self, op, state, tracer):
        args = [self.files[t[1:]] if t.startswith("@") else t for t in op]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        if tracer is None:
            argv = [sys.executable, "-m", "cyclink.cli", *args]
        else:
            spans_path = WORK_DIR / f"cli-spans-{os.getpid()}.json"
            spans_path.unlink(missing_ok=True)
            argv = [sys.executable, str(BENCH_DIR / "cli_traced.py"), str(spans_path), *args]

        def call():
            return subprocess.run(
                argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, timeout=120,
            )

        def finish(proc):
            if tracer is not None:
                with open(spans_path, encoding="utf-8") as fh:
                    tracer.adopt(json.load(fh), tracer.stack[-1])
            ok = proc.returncode == self._expected_exit(op)
            if ok and op[0] == "chain":
                ok = self._chain_bounds(op, proc.stdout)
            answer = {"exit": proc.returncode, "stdout_sha256": digest(proc.stdout)}
            return label(op), answer, ok

        return call, finish

    def _chain_bounds(self, op, stdout: bytes) -> bool:
        data = json.loads(stdout)
        if "undefined" in data:
            return True
        chain = self.ck.TwoChain.from_dict(data)
        return self.ck.verify_boundary(self.chain_covers[op[-2][1:]], chain)


WORKLOADS = {w.name: w for w in (CorpusTables, LiftQueries, CliSession)}
