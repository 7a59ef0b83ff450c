"""Shared diagram factories and the sympy multiple oracle for the test suite.

Everything here leans on the geometric Builder so that the diagrams are
planar-realizable by construction; tests then probe the library against
facts that are forced by the geometry (linking numbers of torus links,
meridian counts, mirror behaviour) rather than against its own output.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import sympy
from sympy.matrices.normalforms import hermite_normal_form, smith_normal_decomp
from sympy.polys.matrices import DomainMatrix

from builders import Builder, ClosedBraid, closed_braid_diagram, random_diagram
from cyclink import LinkDiagram, build_cover, normalize_writhe
from cyclink.fixtures import Fixture, corpus_names, load_fixture
from cyclink.rational_linalg import _eliminate_units, _sparse_rows


def sympy_minimal_multiple(rows, rhs):
    """Least d with A x = d b solvable over Z, read off sympy's U A V = D.

    With x = V y the system becomes D y = d U b, so row i needs D_ii to
    divide d (U b)_i, and a zero row of D needs (U b)_i = 0.
    """
    return sympy_minimal_multiples(rows, [rhs])[0]


def sympy_minimal_multiples(rows, rhss):
    """sympy_minimal_multiple for several right-hand sides, one decomposition."""
    A = sympy.Matrix(rows)
    D, U, V = smith_normal_decomp(A, domain=sympy.ZZ)
    assert D == U * A * V
    out = []
    for rhs in rhss:
        c = U * sympy.Matrix(rhs)
        d = 1
        for i in range(D.rows):
            dii = int(D[i, i]) if i < D.cols else 0
            if dii == 0:
                if c[i] != 0:
                    d = None
                    break
            else:
                d = lcm(d, dii // gcd(dii, int(c[i])))
        out.append(d)
    return out


def sympy_hermite_multiple(rows, rhs):
    """Least d with A x = d b solvable over Z, read off sympy's Hermite forms.

    For tails out of reach of sympy's Smith form. The unit phase leaves
    T y = d c; T' and c' are the rows of T and c that sympy's rref finds
    independent in [T | c]. When c is in the span of T, T' has full row
    rank r, and d is the order of c' modulo the column lattice L of T':
    the index of L in Z^r over the index of L + Z c', each the product of
    a Hermite diagonal. sympy reduces modulo D, the determinant of r
    independent columns of T', which is a multiple of both indices. A tail
    of rank 0 has no entries: d is 1 when c vanishes on it, None otherwise.
    """
    T, c, _ = _eliminate_units(*_sparse_rows(rows, [rhs]))
    c = c[0]
    if not any(T):
        return None if any(c) else 1
    cols = sorted(set().union(*T))
    T = sympy.Matrix([[row.get(j, 0) for j in cols] for row in T])
    Tc = T.row_join(sympy.Matrix(c))
    _, keep = DomainMatrix.from_Matrix(Tc.T).to_field().rref()
    T, Tc = T.extract(list(keep), list(range(T.cols))), Tc.extract(list(keep), list(range(Tc.cols)))
    _, minor = DomainMatrix.from_Matrix(T).to_field().rref()
    if len(minor) < len(keep):
        return None
    D = abs(int(DomainMatrix.from_Matrix(T.extract(list(range(T.rows)), list(minor))).det()))
    index = sympy.prod(hermite_normal_form(T, D=D).diagonal())
    return int(index // sympy.prod(hermite_normal_form(Tc, D=D).diagonal()))


@lru_cache(maxsize=None)
def fixture(name: str) -> Fixture:
    # Fixtures are frozen; caching keeps repeated loads out of the profile.
    return load_fixture(name)


# Off-table writhe-0 rows, as in the benchmark's corpus_tables q-sweep.
SWEEP = (
    [("stevedore_w0", q) for q in (1, 6, 7, 8, 9, 10, 11)]
    + [("twobridge_m0", q) for q in (6, 7, 8, 9, 10, 11)]
    + [("twobridge_m1", q) for q in (6, 7, 8)]
    + [("twobridge_m2", q) for q in (6, 7)]
)
CORPUS_AND_SWEEP = [
    (name, q) for name in corpus_names() for q in fixture(name).writhe_zero_mod
] + SWEEP


def solution_fractions(solution):
    """A first solution (rows, d) of homology._first_solutions as its rows
    of Fractions rows / d, or None."""
    return None if solution is None else [[Fraction(v, solution[1]) for v in row] for row in solution[0]]


def battery_covers(q: int, seeds=range(300)):
    """Fresh degree-q covers of the random_diagram battery, one per seed,
    each diagram first brought to a writhe q divides."""
    for seed in seeds:
        yield seed, build_cover(normalize_writhe(random_diagram(random.Random(seed)), q), q)


def hopf_diagram(sign: int = 1) -> LinkDiagram:
    """Hopf link as the closed 2-braid with two same-sign crossings."""
    cb = ClosedBraid(2)
    cb.step(0, sign)
    cb.step(0, sign)
    first = cb.builder.death(1)
    second = cb.builder.death(0)
    return cb.builder.to_diagram(branch=first, names={first: "K", second: "eta"})


def trefoil_diagram(sign: int = 1) -> LinkDiagram:
    return closed_braid_diagram(2, [(0, sign)] * 3)


def wire_with_meridian(span: int = 1, wires: int = 1, **kw) -> LinkDiagram:
    """An unknot closed from `wires` strands plus a circle around the first
    `span` of them. One positive crossing per adjacent pair joins the
    strands into a single component."""
    cb = ClosedBraid(wires)
    m = cb.meridian(0, span, **kw)
    for s in range(wires - 1):
        cb.step(s, 1)
    k = cb.close()
    return cb.builder.to_diagram(branch=k, names={k: "K", m: "eta"})


def hopf_pair_beside_unknot(sign: int = 1) -> LinkDiagram:
    """An unknotted branch next to a split-off Hopf pair eta1, eta2.

    The pair never touches the branch, so each lift stays in its own sheet
    copy and every cover-level linking number is forced by the classical
    one: sign on the diagonal, zero elsewhere.
    """
    b = Builder()
    b.birth(0)
    k = b.death(0)
    b.birth(0)
    b.birth(1)
    b.cross_signed(2, sign)
    b.cross_signed(2, sign)
    first = b.death(1)
    second = b.death(0)
    return b.to_diagram(
        branch=k, names={k: "K", first: "eta1", second: "eta2"}
    )


def clasped_wire_diagram() -> LinkDiagram:
    """Trefoil plus a winding-zero circle around a wire/return pair.

    The circle is inserted between braid crossings, so the two strands it
    encircles sit on different sheets of the cover walk. Its lifts bound
    at q = 2 and 3 but not at q = 6, which makes this the standing example
    of a defined-input / undefined-value linking computation.
    """
    cb = ClosedBraid(2)
    cb.step(0, 1)
    clasp = cb.builder.meridian(1, 2)
    cb.step(0, 1)
    cb.step(0, 1)
    k = cb.close()
    return cb.builder.to_diagram(branch=k, names={k: "K", clasp: "eta"})


def torus_knot_with_eta(strands: int, crossings: int) -> LinkDiagram:
    """The torus knot T(strands, crossings / (strands - 1)) as a closed
    braid (sigma_1 ... sigma_{strands-1})^k, with eta around every strand
    before the first crossing."""
    cb = ClosedBraid(strands)
    eta = cb.meridian(0, strands)
    for i in range(crossings):
        cb.step(i % (strands - 1), 1)
    k = cb.close()
    return cb.builder.to_diagram(branch=k, names={k: "K", eta: "eta"})
