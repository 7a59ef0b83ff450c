"""Reusable invariant battery run against one diagram at one cover degree.

Each check asserts a structural fact the construction must satisfy for every
valid input: walks close up correctly, produced chains really bound their
curves and agree with each lift solved on its own, linking numbers are gauge
independent, symmetric, and behave under mirroring, and degree one collapses
to classical diagram linking. The acceptance suite runs this battery over the
whole fixture corpus plus randomized diagrams; the unit suite runs it on
hand-picked cases.
"""

from __future__ import annotations

import random
from collections import defaultdict
from fractions import Fraction
from itertools import accumulate

from cyclink import (
    TwoChain,
    UndefinedEntry,
    assemble_system,
    bounding_chain,
    build_cover,
    evaluate_obstruction,
    lift_components,
    linking_matrix,
    linking_number,
    minimal_bounding_multiple,
    minimal_scalar_integer_solution,
    mirror,
    normalize_writhe,
    nullspace_basis,
    pairwise_linking,
    resolve_coset,
    solve_particular,
    verify_boundary,
    wrap_sheet,
    writhe,
)

PERTURBATIONS = 10


def sigma_at(cover, component, arc: int, j: int) -> int:
    """Superscript of the wall lift crossed at an underpass, entered on sheet j."""
    ci = cover.diagram.component_index(component)
    offsets = cover.sigma[ci]
    if not 0 <= arc < len(offsets):
        raise ValueError(f"component {ci} has no underpass {arc}")
    if not 1 <= j <= cover.q:
        raise ValueError(f"sheet {j} out of range 1..{cover.q}")
    return wrap_sheet(j + offsets[arc], cover.q)


def curve_indices(diagram):
    return [ci for ci in range(len(diagram.components)) if ci != diagram.branch]


def independent_walks(diagram):
    """Each component's sheet walk, as prefix sums of its branch-crossing signs.

    walks[c][i] is the shift accumulated up to the start of arc i of
    component c, and walks[c][-1] is the shift of the closed walk.
    """
    branch = diagram.branch
    return [
        [0, *accumulate(u.sign if u.over.component == branch else 0 for u in comp.underpasses)]
        for comp in diagram.components
    ]


def check_cover_tables(cover):
    diagram = cover.diagram
    q = cover.q
    branch = diagram.branch
    walks = independent_walks(diagram)
    # Only self-crossings of the branch shift its walk, so it closes up
    # after writhe steps, which q divides.
    assert walks[branch][-1] == writhe(diagram, branch)
    assert walks[branch][-1] % q == 0
    for ci, comp in enumerate(diagram.components):
        assert len(cover.sigma[ci]) == len(comp.underpasses)
        for arc, (up, off) in enumerate(zip(comp.underpasses, cover.sigma[ci])):
            assert type(off) is int and 0 <= off < q
            # Walls of the branch hang one lift lower below a negative crossing.
            lower = 1 if up.over.component == branch and up.sign < 0 else 0
            gap = walks[ci][arc] - walks[up.over.component][up.over.arc] - lower
            assert (off - gap) % q == 0
            supers = [sigma_at(cover, ci, arc, j) for j in range(1, q + 1)]
            assert sorted(supers) == list(range(1, q + 1))
        if ci != branch:
            assert walks[ci][-1] == pairwise_linking(diagram, ci, branch)
            assert cover.lbar[ci] == walks[ci][-1] % q
            step = len(lift_components(cover, ci)[0])
            assert step * len(lift_components(cover, ci)) == q


def chains_of(cover):
    """Every (curve, coset) with its bounding chain, or None where unbounded."""
    out = {}
    for ci in curve_indices(cover.diagram):
        for coset in lift_components(cover, ci):
            out[(ci, coset)] = bounding_chain(cover, ci, coset)
    return out


def check_chains(cover, chains):
    for (ci, coset), chain in chains.items():
        if chain is None:
            continue
        assert chain.curve == ci and chain.coset == coset
        assert verify_boundary(cover, chain)
        for row in chain.x:
            assert sum(row) == 0


def per_lift_chain(cover, ci, coset):
    """The chain of one lift solved from that lift's own system, or None.

    This is the oracle for the deck shift: the library solves only the first
    coset of each curve and shifts its chain to the other cosets.
    """
    rows, rhs, columns = assemble_system(cover, ci, coset)
    x = solve_particular(rows, rhs)
    if x is None:
        return None
    n, q = len(columns) // cover.q, cover.q
    return TwoChain(
        curve=ci,
        coset=coset,
        x=tuple(tuple(x[columns[(i, j)]] for j in range(1, q + 1)) for i in range(n)),
    )


def check_against_per_lift_solve(cover, chains):
    """Existence, multiples and linking numbers agree with each lift solved alone.

    The shifted chain may differ from the lift's own solution by a nullspace
    vector, so linking numbers are compared rather than coefficients.
    """
    alone = {lift: per_lift_chain(cover, *lift) for lift in chains}
    for (ci, coset), chain in chains.items():
        assert (chain is None) == (alone[(ci, coset)] is None)
        rows, rhs, _ = assemble_system(cover, ci, coset)
        assert minimal_bounding_multiple(cover, ci, coset) == (
            minimal_scalar_integer_solution(rows, rhs)
        )
        if chain is None:
            continue
        for other in chains:
            if other != (ci, coset):
                assert linking_number(cover, chain, *other) == linking_number(
                    cover, alone[(ci, coset)], *other
                )


def fraction_linking_sum(cover, x, bi, gb, gamma, group):
    """lk of lift (gamma, group) with lift (bi, gb), bounded by coefficients x,
    added up one Fraction at a time: the oracle for linking._linking_sum."""
    branch, q = cover.diagram.branch, cover.q
    total = Fraction(0)
    for j in group:
        for up, off in zip(cover.diagram.components[gamma].underpasses, cover.sigma[gamma]):
            s = wrap_sheet(j + off, q)
            if up.over.component == branch:
                total += up.sign * x[up.over.arc][s - 1]
            elif up.over.component == bi and s in gb:
                total += up.sign
    return total


def fraction_boundary(cover, chain):
    """Whether the chain bounds its curve, with the boundary added up one
    Fraction at a time into cells keyed by 4-tuples: the oracle for
    homology.verify_boundary, which sums integers over one denominator."""
    diagram, q = cover.diagram, cover.q
    branch = diagram.branch
    ci = diagram.component_index(chain.curve)
    group = resolve_coset(cover, ci, chain.coset)
    n = len(chain.x)
    boundary = defaultdict(Fraction)
    for i in range(n):
        for j in range(1, q + 1):
            v = chain.x[i][j - 1]
            boundary[("h", branch, i, None)] += v
            boundary[("v", branch, i, j)] += v
            boundary[("v", branch, (i - 1) % n, j)] -= v
    m = diagram.components[ci].arc_count
    for u in range(m):
        for s in group:
            boundary[("h", ci, u, s)] += 1
            boundary[("v", ci, u, s)] += 1
            boundary[("v", ci, (u - 1) % m, s)] -= 1
    for u, up in enumerate(diagram.components[branch].underpasses):
        oc, oa, eps, off = up.over.component, up.over.arc, up.sign, cover.sigma[branch][u]
        if oc == branch:
            slits = [(s, chain.x[oa][s - 1]) for s in range(1, q + 1)]
        elif oc == ci:
            slits = [(s, 1) for s in group]
        else:
            continue
        for s, v in slits:
            p = wrap_sheet(s - off, q)
            boundary[("v", branch, u, p)] -= eps * v
            boundary[("v", branch, u, wrap_sheet(p - 1, q))] += eps * v
    target = {("h", ci, u, s): 1 for u in range(m) for s in group}
    return {k: v for k, v in boundary.items() if v} == target


def perturbed(chain, basis, columns, rng):
    n = len(chain.x)
    q = len(chain.x[0]) if n else 0
    flat = [chain.x[i][j - 1] for i in range(n) for j in range(1, q + 1)]
    for vec in basis:
        c = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
        flat = [a + c * v for a, v in zip(flat, vec)]
    return TwoChain(
        curve=chain.curve,
        coset=chain.coset,
        x=tuple(
            tuple(flat[columns[(i, j)]] for j in range(1, q + 1))
            for i in range(n)
        ),
    )


def check_gauge_invariance(cover, chains, rng):
    diagram = cover.diagram
    bases = {}
    for ci in curve_indices(diagram):
        first = lift_components(cover, ci)[0]
        rows, _, columns = assemble_system(cover, ci, first)
        bases[ci] = (nullspace_basis(rows), columns)
    targets = list(chains)
    for (ci, coset), chain in chains.items():
        if chain is None:
            continue
        basis, columns = bases[ci]
        others = [t for t in targets if t != (ci, coset)]
        baseline = [
            linking_number(cover, chain, oc, ocoset) for oc, ocoset in others
        ]
        for _ in range(PERTURBATIONS):
            alt = perturbed(chain, basis, columns, rng)
            assert verify_boundary(cover, alt)
            got = [
                linking_number(cover, alt, oc, ocoset) for oc, ocoset in others
            ]
            assert got == baseline
            assert got == [
                fraction_linking_sum(cover, alt.x, ci, coset, oc, ocoset) for oc, ocoset in others
            ]


def check_symmetry(cover):
    curves = curve_indices(cover.diagram)
    for a in curves:
        for b in curves:
            if a > b:
                continue
            forward = linking_matrix(cover, a, b)
            backward = linking_matrix(cover, b, a)
            for i in range(len(forward.cosets_a)):
                for j in range(len(forward.cosets_b)):
                    assert forward.entry(i, j) == backward.entry(j, i)


def defined_entries(report):
    return sorted(
        e for row in report.entries for e in row if not isinstance(e, UndefinedEntry)
    )


def undefined_reasons(report):
    return sorted(
        e.reason for row in report.entries for e in row if isinstance(e, UndefinedEntry)
    )


def check_mirror(diagram, q, plain_cover):
    mirrored = build_cover(normalize_writhe(mirror(diagram), q), q)
    curves = curve_indices(diagram)
    for a in curves:
        for b in curves:
            if a > b:
                continue
            plain = linking_matrix(plain_cover, a, b)
            flipped = linking_matrix(mirrored, a, b)
            assert defined_entries(flipped) == sorted(
                -e for e in defined_entries(plain)
            )
            assert undefined_reasons(flipped) == undefined_reasons(plain)
    if len(diagram.components) == 2:
        ours = evaluate_obstruction(plain_cover.diagram, q)
        theirs = evaluate_obstruction(mirrored.diagram, q)
        assert ours.verdict == theirs.verdict


def check_degree_one(diagram):
    cover = build_cover(diagram, 1)
    curves = curve_indices(diagram)
    for a in curves:
        for b in curves:
            report = linking_matrix(cover, a, b)
            entry = report.entry(0, 0)
            if a == b:
                assert isinstance(entry, UndefinedEntry)
            else:
                assert entry == pairwise_linking(diagram, a, b)


def run_battery(diagram, q, rng=None):
    """All invariant checks for one diagram at degree q (and at degree 1)."""
    rng = rng or random.Random(0)
    prepared = normalize_writhe(diagram, q)
    cover = build_cover(prepared, q)
    check_cover_tables(cover)
    chains = chains_of(cover)
    check_chains(cover, chains)
    check_against_per_lift_solve(cover, chains)
    check_gauge_invariance(cover, chains, rng)
    check_symmetry(cover)
    check_mirror(prepared, q, cover)
    check_degree_one(normalize_writhe(diagram, 1))
    return cover, chains
