"""Acceptance battery: every published expectation in the corpus, timed.

Each criterion gets one test that prints a single "criterion N: PASS/FAIL"
line (visible under pytest -s or in captured output) and then asserts. All
numeric comparisons are exact rational equality; the per-case time budgets
are wall-clock upper bounds.

Corrected record: the printed two-bridge row m=1, q=4 states minimal
multiple 1875, but its own linking entry 3036/18785 (lowest terms) forces
a multiple of 18785, because d times a lift bounding an integral chain
makes d*lk an integer. The corpus carries 18785 for that row and keeps the
printed 1875 beside it. test_homology.py checks 18785 against sympy's Smith
decomposition (test_twobridge_m1_q4_multiple_against_sympy_smith_form), and
the fixture loader rejects any stated multiple that a row denominator rules
out. The assertions here are unchanged and special-case no row.
"""

import random
import time
import zlib

from cyclink import (
    TwoChain,
    UndefinedEntry,
    bounding_chain,
    build_cover,
    evaluate_obstruction,
    lift_components,
    linking_matrix,
    minimal_bounding_multiple,
    parse_rational,
    resolve_coset,
    verify_boundary,
)
from cyclink.fixtures import corpus_names

from builders import random_diagram
from conftest import fixture
from property_checks import run_battery

CABLES = sorted(n for n in corpus_names() if n.startswith("cable_"))
STEVEDORES = sorted(n for n in corpus_names() if n.startswith("stevedore_w"))
TWOBRIDGES = sorted(n for n in corpus_names() if n.startswith("twobridge_"))


def finish(criterion, failures, notes=()):
    for note in notes:
        print(f"criterion {criterion}: note: {note}")
    print(f"criterion {criterion}: {'FAIL' if failures else 'PASS'}")
    assert not failures, "\n".join(failures)


def expectations(name, op):
    fx = fixture(name)
    return [e for e in fx.expected if e.op == op]


def computed_row(cover, curve):
    report = linking_matrix(cover, curve, curve)
    return [report.entry(0, j) for j in range(1, len(report.cosets_b))]


def check_linking_row(name, exp, failures, budget):
    fx = fixture(name)
    q = exp.args["q"]
    started = time.monotonic()
    cover = build_cover(fx.diagram, q)
    row = computed_row(cover, exp.args["curve"])
    elapsed = time.monotonic() - started
    want = [parse_rational(s) for s in exp.value]
    if len(row) != len(want):
        failures.append(
            f"{name} q={q}: row has {len(row)} off-diagonal entries, "
            f"published row has {len(want)}"
        )
        return
    for j, (got, stated) in enumerate(zip(row, want)):
        if isinstance(got, UndefinedEntry):
            failures.append(
                f"{name} q={q} entry {j}: undefined ({got.reason}), "
                f"published value {stated}"
            )
        elif got != stated:
            failures.append(
                f"{name} q={q} entry {j}: computed {got}, published {stated}"
            )
    if elapsed > budget:
        failures.append(f"{name} q={q}: took {elapsed:.2f}s, budget {budget}s")


def check_multiple(name, exp, failures, notes):
    fx = fixture(name)
    q = exp.args["q"]
    cover = build_cover(fx.diagram, q)
    coset = resolve_coset(cover, exp.args["curve"], exp.args["coset"])
    got = minimal_bounding_multiple(cover, exp.args["curve"], coset)
    stated = exp.value
    if got is None:
        failures.append(f"{name} q={q}: no integral multiple bounds the lift")
    elif stated % got != 0:
        failures.append(
            f"{name} q={q}: computed minimal multiple {got} does not divide "
            f"the published multiple {stated}"
        )
    elif got != stated:
        notes.append(
            f"{name} q={q}: computed multiple {got} strictly divides "
            f"published {stated}"
        )


def test_criterion_1_cable_linking_tables():
    failures = []
    for name in CABLES:
        for exp in expectations(name, "linking_row"):
            check_linking_row(name, exp, failures, budget=1.0)
    finish(1, failures)


def test_criterion_2_cable_chain_vectors():
    failures = []
    checked = 0
    for name in CABLES:
        for exp in expectations(name, "chain_contains"):
            fx = fixture(name)
            q = exp.args["q"]
            started = time.monotonic()
            cover = build_cover(fx.diagram, q)
            curve = exp.args["curve"]
            coset = resolve_coset(cover, curve, exp.args["coset"])
            vec = [parse_rational(s) for s in exp.value]
            if len(vec) % q != 0:
                failures.append(
                    f"{name} q={q}: vector length {len(vec)} not a multiple of q"
                )
                continue
            n = len(vec) // q
            chain = TwoChain(
                curve=next(
                    ci
                    for ci, comp in enumerate(cover.diagram.components)
                    if comp.name == curve
                ),
                coset=coset,
                x=tuple(
                    tuple(vec[i * q + (j - 1)] for j in range(1, q + 1))
                    for i in range(n)
                ),
            )
            solved = bounding_chain(cover, curve, coset)
            elapsed = time.monotonic() - started
            if solved is None:
                failures.append(f"{name} q={q}: solver produced no chain")
            if not verify_boundary(cover, chain):
                failures.append(
                    f"{name} q={q} coset {exp.args['coset']}: published chain "
                    "vector does not bound the lift"
                )
            if elapsed > 1.0:
                failures.append(f"{name} q={q}: took {elapsed:.2f}s, budget 1s")
            checked += 1
    if checked != 2:
        failures.append(f"expected 2 published chain vectors, found {checked}")
    finish(2, failures)


def test_criterion_3_stevedore_table():
    failures = []
    notes = []
    rows = 0
    for name in STEVEDORES:
        row_exps = expectations(name, "linking_row")
        mult_exps = {e.args["q"]: e for e in expectations(name, "order_divides")}
        for exp in row_exps:
            q = exp.args["q"]
            started = time.monotonic()
            check_linking_row(name, exp, failures, budget=10.0)
            check_multiple(name, mult_exps[q], failures, notes)
            elapsed = time.monotonic() - started
            if elapsed > 10.0:
                failures.append(
                    f"{name} q={q}: row took {elapsed:.2f}s, budget 10s"
                )
            rows += 1
    if rows != 20:
        failures.append(f"expected 20 published rows, found {rows}")
    finish(3, failures, notes)


def test_criterion_4_twobridge_table():
    failures = []
    notes = []
    rows = 0
    for name in TWOBRIDGES:
        row_exps = expectations(name, "linking_row")
        mult_exps = {e.args["q"]: e for e in expectations(name, "order_divides")}
        for exp in row_exps:
            q = exp.args["q"]
            started = time.monotonic()
            check_linking_row(name, exp, failures, budget=60.0)
            check_multiple(name, mult_exps[q], failures, notes)
            elapsed = time.monotonic() - started
            if elapsed > 60.0:
                failures.append(
                    f"{name} q={q}: row took {elapsed:.2f}s, budget 60s"
                )
            rows += 1
    if rows != 12:
        failures.append(f"expected 12 published rows, found {rows}")
    finish(4, failures, notes)


def test_criterion_5_obstruction_verdicts():
    failures = []
    count = 0
    for name in corpus_names():
        for exp in expectations(name, "obstruction"):
            fx = fixture(name)
            q = exp.args["q"]
            verdict = evaluate_obstruction(fx.diagram, q)
            if verdict.verdict != exp.value:
                failures.append(
                    f"{name} q={q}: verdict {verdict.verdict}, "
                    f"published {exp.value}"
                )
            count += 1
    if count != 23:
        failures.append(f"expected 23 published verdicts, found {count}")
    finish(5, failures)


def test_criterion_6_property_battery():
    failures = []
    for name in corpus_names():
        fx = fixture(name)
        for q in fx.writhe_zero_mod:
            try:
                # crc32, unlike hash(), does not change with PYTHONHASHSEED
                rng = random.Random(zlib.crc32(f"{name}:{q}".encode()) % 10**6)
                run_battery(fx.diagram, q, rng)
            except AssertionError as err:
                failures.append(f"{name} q={q}: {str(err) or 'battery assertion'}")
    for seed in range(1000, 1050):
        rng = random.Random(seed)
        diagram = random_diagram(rng)
        q = rng.randint(1, 5)
        try:
            run_battery(diagram, q, rng)
        except AssertionError as err:
            failures.append(
                f"random seed={seed} q={q}: {str(err) or 'battery assertion'}"
            )
    finish(6, failures)


def test_criterion_7_coset_lift_path():
    failures = []
    fx = fixture("stevedore_w2")
    cover = build_cover(fx.diagram, 4)
    cosets = lift_components(cover, "eta")
    if len(cosets) != 2 or any(len(c) != 2 for c in cosets):
        failures.append(f"expected 2 lift components of size 2, got {cosets}")
    if sorted(map(tuple, cosets)) != [(1, 3), (2, 4)]:
        failures.append(f"expected cosets (1,3) and (2,4), got {cosets}")
    try:
        run_battery(fx.diagram, 4, random.Random(42))
    except AssertionError as err:
        failures.append(f"battery on stevedore_w2 q=4: {str(err) or 'assertion'}")
    finish(7, failures)
