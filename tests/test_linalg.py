from fractions import Fraction
from itertools import product
from math import gcd

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from schemoids import linalg
from schemoids.extensions import _FiberTables, trivial_system
from schemoids.fincat import terminal_category

from oracles import (
    dense_cohomology_invariants,
    kernel_lattice_mod,
    quotient_invariants,
    smith_normal_form,
    solve_mod,
    sparse_rows,
)


def check_snf(a):
    d, u, v = smith_normal_form(a)
    assert linalg.mat_eq_mod(linalg.mat_mul(linalg.mat_mul(u, a), v), d, None)
    diag = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
    for i in range(len(diag) - 1):
        if diag[i + 1]:
            assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
        # off-diagonal must vanish
    for i, row in enumerate(d):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0
    return diag


def test_snf_known():
    assert check_snf([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == [2, 2, 156]
    assert check_snf([[1, 0], [0, 1]]) == [1, 1]
    assert check_snf([[0, 0], [0, 0]]) == [0, 0]
    assert check_snf([[2, 0], [0, 3]]) == [1, 6]


@settings(max_examples=40)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3), min_size=2, max_size=4))
def test_snf_random(a):
    check_snf(a)


def test_solve_mod():
    a = [[2]]
    assert solve_mod(a, [1], 4) is None
    x = solve_mod(a, [2], 4)
    assert x is not None and (2 * x[0] - 2) % 4 == 0
    a = [[1, 1], [0, 2]]
    x = solve_mod(a, [3, 2], 6)
    assert x is not None
    assert (x[0] + x[1] - 3) % 6 == 0 and (2 * x[1] - 2) % 6 == 0


def test_solve_mod_p_matches_general():
    a = [[1, 2, 0], [0, 1, 1]]
    b = [1, 2]
    rows = sparse_rows(a)
    for p in (2, 3, 5):
        xp = linalg.solve(rows, b, 3, p)
        assert xp is not None and solve_mod(a, b, p) is not None
        for row, bi in zip(a, b):
            assert (sum(r * x for r, x in zip(row, xp)) - bi) % p == 0
    # inconsistent over F_p: x0 + x1 = 1 and 2 x0 + 2 x1 = 0 when p != 2
    assert linalg.solve(sparse_rows([[1, 1], [2, 2]]), [1, 0], 2, 3) is None
    assert solve_mod([[1, 1], [2, 2]], [1, 0], 3) is None


def test_solve_over_composite_moduli():
    # 2 x = 1 has no solution mod 4 or mod 6; 2 x = 2 has one
    assert linalg.solve([{0: 2}], [1], 1, 4) is None
    assert linalg.solve([{0: 2}], [1], 1, 6) is None
    for m in (4, 6, 8, 12):
        x = linalg.solve([{0: 2}], [2], 1, m)
        assert x is not None and (2 * x[0] - 2) % m == 0
    a = [[1, 1], [0, 2]]
    x = linalg.solve(sparse_rows(a), [3, 2], 2, 6)
    assert x is not None
    assert (x[0] + x[1] - 3) % 6 == 0 and (2 * x[1] - 2) % 6 == 0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3), min_size=1, max_size=4),
       st.lists(st.integers(-4, 4), min_size=4, max_size=4),
       st.sampled_from([2, 3, 4, 6, 8, 9, 12]))
def test_solve_matches_smith_route(a, b, m):
    b = b[:len(a)]
    x = linalg.solve(sparse_rows(a), b, 3, m)
    assert (x is None) == (solve_mod(a, b, m) is None)
    if x is not None:
        for row, bi in zip(a, b):
            assert (sum(r * xi for r, xi in zip(row, x)) - bi) % m == 0


@st.composite
def square_matrices_mod(draw):
    """A square matrix of integers and a modulus m, with m^r at most 216."""
    m, r = draw(st.sampled_from([(m, r) for m in (2, 3, 4, 6, 8, 9, 12) for r in range(4)
                                 if m ** r <= 216]))
    mat = tuple(tuple(draw(st.lists(st.integers(-6, 6), min_size=r, max_size=r)))
                for _ in range(r))
    return mat, m


@settings(max_examples=200, deadline=None)
@given(square_matrices_mod())
def test_fiber_table_is_a_bijection_exactly_when_det_is_a_unit(case):
    """A matrix's table on the positions of (Z/m)^r, as an extension builds
    it, permutes them exactly when gcd(det, m) = 1; the determinant comes
    from sympy."""
    mat, m = case
    r = len(mat)
    point = terminal_category()
    tables = _FiberTables(point, trivial_system(point, m, r))
    table = tables.table(mat, r)
    det = int(sympy.Matrix(r, r, [x for row in mat for x in row]).det())
    assert (sorted(table) == list(range(m ** r))) == (gcd(det, m) == 1)


def test_kernel_and_quotient():
    # C: Z/4 --2--> Z/4 has kernel {0,2} and image {0,2}; H = ker/im trivial
    a = [[2]]
    k = kernel_lattice_mod(a, 4)
    gens = [[2, 4]]
    assert quotient_invariants(k, gens) == []
    assert linalg.homology([{0: 2}], [{0: 2}], 4) == ((), 0)
    # ker(0)/im(2) in Z/4 is Z/2
    k = kernel_lattice_mod([[0]], 4)
    assert quotient_invariants(k, [[2, 4]]) == [2]
    assert linalg.homology([{0: 2}], [{}], 4) == ((2,), 0)
    # Z^2 / <2e1, 3e2> = Z/6
    assert quotient_invariants([[1, 0], [0, 1]], [[2, 0], [0, 3]]) == [6]
    assert linalg.homology([{0: 2}, {1: 3}], [], 6) == ((6,), 0)
    # over Q: ker(0) / im(0) on Q^2, and ker(1 1) / im(1, -1)
    assert linalg.homology([{}, {}], [], None) == ((), 2)
    assert linalg.homology([{0: 1}, {0: -1}], [{0: 1, 1: 1}], None) == ((), 0)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.integers(0, 3), st.integers(0, 3),
       st.lists(st.integers(-3, 3), min_size=9, max_size=9),
       st.lists(st.integers(0, 10 ** 6), min_size=3, max_size=3),
       st.sampled_from([2, 3, 4, 6, 8, 9, 12]))
def test_homology_matches_smith_lattice(n, r_prev, r_next, entries, picks, m):
    """ker d_n / im d_prev over Z/m on (Z/m)^n against the dense Smith
    lattice route; the rows of d_n are drawn from the left annihilator of
    d_prev mod m, found by enumeration."""
    it = iter(entries)
    g = [[next(it) for _ in range(r_prev)] for _ in range(n)]
    annihilator = [h for h in product(range(m), repeat=n)
                   if all(sum(h[i] * g[i][j] for i in range(n)) % m == 0 for j in range(r_prev))]
    d_n = [list(annihilator[x % len(annihilator)]) for x in picks[:r_next]] or [[0] * n]
    want = dense_cohomology_invariants(g, d_n, n, m)
    got, free = linalg.homology(sparse_rows(g), sparse_rows(d_n), m)
    assert free == 0 and list(got) == want


def test_rank():
    assert linalg.rank(sparse_rows([[1, 2], [2, 4]])) == 1
    assert linalg.rank(sparse_rows([[1, 1], [1, 1]]), 2) == 1
    assert linalg.rank(sparse_rows([[2, 0], [0, 1]]), 2) == 1
    assert linalg.rank([{0: Fraction(1, 2), 1: Fraction(1, 3)}, {0: 3, 1: 2}]) == 1
    with pytest.raises(ValueError):
        linalg.rank([{0: 1}], 4)


def test_prime_check():
    assert [n for n in range(2, 20) if linalg.is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
