"""Tests for exact cyclotomic scalars, matrices, and Laurent polynomials."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charvar.exactalg import (
    ExactMatrix,
    ExactScalar,
    IntEchelon,
    LaurentMatrix,
    LaurentPoly,
    cyclotomic_polynomial,
    nullspace,
    rank,
    root_of_unity,
)

# Frozen oracle: coefficient rows of a known incidence system on six
# elements grouped in three families of two; its kernel is spanned by the
# two difference vectors below.  (Derived by hand and frozen before the
# matrix code was written.)
INCIDENCE_ROWS = [
    (1, 1, 1, 1, 1, 1),
    (1, 0, 0, 1, 1, 0),
    (1, 0, 1, 0, 0, 1),
    (0, 1, 1, 0, 1, 0),
    (0, 1, 0, 1, 0, 1),
]
INCIDENCE_KERNEL = [
    (1, 1, 0, 0, -1, -1),
    (0, 0, 1, 1, -1, -1),
]


def same_span(vecs_a, vecs_b, ncols):
    ech_a = IntEchelon(ncols)
    ech_a.add_rows(vecs_a)
    ech_b = IntEchelon(ncols)
    ech_b.add_rows(vecs_b)
    both = ech_a.clone()
    both.add_rows(vecs_b)
    return ech_a.rank == ech_b.rank == both.rank


# ---------------------------------------------------------------------------
# cyclotomic polynomials and scalars
# ---------------------------------------------------------------------------


def test_cyclotomic_polynomial_small_orders():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_root_of_unity_order_two_is_rational():
    s = root_of_unity(2, 1)
    assert s.is_rational()
    assert s.as_rational() == -1


def test_root_of_unity_cube_power_two():
    s = root_of_unity(3, 2)
    expected = ExactScalar(3, [Fraction(-1), Fraction(-1)])
    assert s == expected


def test_cube_root_squares_to_reduced_form():
    z = root_of_unity(3)
    assert z * z == ExactScalar(3, [Fraction(-1), Fraction(-1)])


def test_cross_order_equality():
    # the same value written in two compatible cyclotomic orders compares equal
    z6 = root_of_unity(6)
    z3 = root_of_unity(3)
    assert z6 * z6 * z6 == ExactScalar.from_rational(-1)
    assert z6 * z6 == z3


def test_scalar_inverse_and_division():
    z = root_of_unity(5, 2)
    assert (z / z).is_one()
    assert (z * z.inverse()).is_one()
    q = ExactScalar.from_rational(Fraction(3, 7))
    assert q.inverse() == ExactScalar.from_rational(Fraction(7, 3))


def test_scalar_pow_negative():
    z = root_of_unity(7, 3)
    assert z**7 == ExactScalar.one()
    assert z**-1 == z.inverse()
    assert z**-3 == (z**3).inverse()


def test_scalar_json_round_trip():
    vals = [
        ExactScalar.from_rational(Fraction(-5, 6)),
        root_of_unity(12, 5),
        ExactScalar.zero(),
        root_of_unity(3) + ExactScalar.from_rational(2),
    ]
    for v in vals:
        assert ExactScalar.from_json(v.to_json()) == v
    assert ExactScalar.from_json("3") == ExactScalar.from_rational(3)
    assert ExactScalar.from_json(4) == ExactScalar.from_rational(4)


def test_scalar_json_rejects_bad_input():
    with pytest.raises(ValueError):
        ExactScalar.from_json({"order": 0, "coeffs": []})
    with pytest.raises(ValueError):
        ExactScalar.from_json({"order": 3, "coeffs": ["1"]})
    with pytest.raises(ValueError):
        ExactScalar.from_json(True)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=24))
def test_root_of_unity_has_exact_order(m, k):
    z = root_of_unity(m, k)
    assert z**m == ExactScalar.one()


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=1, max_value=10))
def test_all_roots_multiply_to_unity_polynomial(m):
    # product of (x - zeta^k) over k = 0..m-1 equals x^m - 1, checked on
    # dense coefficient lists with ExactScalar coefficients
    poly = [ExactScalar.one()]
    for k in range(m):
        z = root_of_unity(m, k)
        new = [ExactScalar.zero()] * (len(poly) + 1)
        for i, c in enumerate(poly):
            new[i + 1] = new[i + 1] + c
            new[i] = new[i] - z * c
        poly = new
    assert poly[0] == ExactScalar.from_rational(-1)
    assert poly[m] == ExactScalar.one()
    for i in range(1, m):
        assert poly[i].is_zero()


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


def test_rank_of_rational_examples():
    m = ExactMatrix.from_rational_rows([[1, 2], [2, 4]])
    assert rank(m) == 1
    m2 = ExactMatrix.from_rational_rows([[1, 0, 1], [0, 1, 1], [1, 1, 2]])
    assert rank(m2) == 2
    assert rank(ExactMatrix.from_rational_rows([], ncols=5)) == 0


def test_rank_with_cyclotomic_entries():
    z = root_of_unity(3)
    one = ExactScalar.one()
    # second row is zeta times the first, so the rank is 1
    m = ExactMatrix([[one, z], [z, z * z]])
    assert rank(m) == 1
    m2 = ExactMatrix([[one, z], [z, one]])
    assert rank(m2) == 2


def test_nullspace_of_incidence_oracle():
    m = ExactMatrix.from_rational_rows(INCIDENCE_ROWS)
    basis = nullspace(m)
    assert len(basis) == 2
    int_basis = [[v.as_rational() for v in vec] for vec in basis]
    assert all(x.denominator == 1 for vec in int_basis for x in vec)
    got = [[int(x) for x in vec] for vec in int_basis]
    assert same_span(got, INCIDENCE_KERNEL, 6)
    # every returned vector is genuinely in the kernel
    for vec in basis:
        for row in INCIDENCE_ROWS:
            acc = ExactScalar.zero()
            for coeff, v in zip(row, vec):
                acc = acc + ExactScalar.from_rational(coeff) * v
            assert acc.is_zero()


def test_nullspace_full_rank_is_empty():
    m = ExactMatrix.from_rational_rows([[1, 0], [0, 1], [1, 1]])
    assert nullspace(m) == []


def test_matrix_product_and_transpose():
    a = ExactMatrix.from_rational_rows([[1, 2], [3, 4]])
    b = ExactMatrix.from_rational_rows([[0, 1], [1, 0]])
    assert (a * b) == ExactMatrix.from_rational_rows([[2, 1], [4, 3]])
    assert a.transpose() == ExactMatrix.from_rational_rows([[1, 3], [2, 4]])


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=4, max_size=4),
        min_size=1,
        max_size=5,
    ),
    st.randoms(use_true_random=False),
)
def test_rank_invariant_under_shuffles(rows, rng):
    m = ExactMatrix.from_rational_rows(rows, ncols=4)
    base = rank(m)
    shuffled_rows = list(rows)
    rng.shuffle(shuffled_rows)
    cols = list(range(4))
    rng.shuffle(cols)
    permuted = [[row[c] for c in cols] for row in shuffled_rows]
    assert rank(ExactMatrix.from_rational_rows(permuted, ncols=4)) == base


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-5, max_value=5), min_size=5, max_size=5),
        min_size=1,
        max_size=4,
    )
)
def test_rank_plus_nullity_is_column_count(rows):
    m = ExactMatrix.from_rational_rows(rows, ncols=5)
    assert rank(m) + len(nullspace(m)) == 5


def test_int_echelon_matches_matrix_rank():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1], [1, 3, 4]]
    ech = IntEchelon(3)
    assert ech.add_rows(rows) == 2
    assert ech.rank == rank(ExactMatrix.from_rational_rows(rows))
    clone = ech.clone()
    assert clone.add_row([5, 0, 0]) is True
    # the clone grew but the original is untouched
    assert clone.rank == 3 and ech.rank == 2


@st.composite
def _rows_with_dependencies(draw):
    """Integer rows drawn freely, then repeated rows and integer
    combinations of them mixed in, so the stack is usually rank-deficient.
    Returns (all rows shuffled, the freely drawn rows)."""
    ncols = draw(st.integers(min_value=1, max_value=7))
    row = st.lists(
        st.integers(min_value=-9, max_value=9), min_size=ncols, max_size=ncols
    )
    free = draw(st.lists(row, min_size=1, max_size=5))
    rows = [list(r) for r in free]
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        if draw(st.booleans()):
            rows.append(list(draw(st.sampled_from(free))))
        else:
            coeffs = draw(
                st.lists(
                    st.integers(min_value=-4, max_value=4),
                    min_size=len(free),
                    max_size=len(free),
                )
            )
            rows.append(
                [sum(c * r[j] for c, r in zip(coeffs, free)) for j in range(ncols)]
            )
    return draw(st.permutations(rows)), free, ncols


@settings(max_examples=80, deadline=None)
@given(_rows_with_dependencies())
def test_integer_rank_kernels_agree_with_rational_rref(case):
    """IntEchelon, _int_rank and the rational reduced echelon form are three
    separate eliminations; they must give one rank, and rows that are
    repeats or integer combinations of the free rows must not raise it."""
    from charvar.exactalg import _int_rank, rational_rref

    rows, free, ncols = case
    ech = IntEchelon(ncols)
    ech.add_rows(rows)
    pivots, _ = rational_rref([[Fraction(v) for v in r] for r in rows], ncols)
    assert ech.rank == _int_rank([list(r) for r in rows], ncols) == len(pivots)
    assert ech.rank == _int_rank([list(r) for r in free], ncols)


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------


def lp_var(i, n):
    return LaurentPoly.variable(i, n)


def test_laurent_basic_identity():
    n = 2
    t1, t2 = lp_var(0, n), lp_var(1, n)
    f = (t1 - 1) * (t2 - 1)
    expected = LaurentPoly(
        n,
        {
            (1, 1): Fraction(1),
            (1, 0): Fraction(-1),
            (0, 1): Fraction(-1),
            (0, 0): Fraction(1),
        },
    )
    assert f == expected
    assert f.at_one() == 0


def test_laurent_negative_exponents():
    n = 1
    t = lp_var(0, n)
    inv = t**-1
    assert (t * inv) == LaurentPoly.one(n)
    point = [root_of_unity(5, 2)]
    assert inv.evaluate(point) == root_of_unity(5, 3)


def test_laurent_to_str():
    n = 3
    t1, t3 = lp_var(0, n), lp_var(2, n)
    f = 2 * t1 * t3**-1 - 1
    assert f.to_str() == "2*t1*t3^-1 - 1"
    assert LaurentPoly.zero(n).to_str() == "0"


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
            st.integers(-3, 3),
        ),
        max_size=4,
    ),
    st.lists(
        st.tuples(
            st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
            st.integers(-3, 3),
        ),
        max_size=4,
    ),
    st.integers(0, 5),
    st.integers(0, 5),
)
def test_laurent_evaluation_is_ring_homomorphism(fterms, gterms, k1, k2):
    n = 2
    f = LaurentPoly(n, {e: Fraction(c) for e, c in fterms})
    g = LaurentPoly(n, {e: Fraction(c) for e, c in gterms})
    point = [root_of_unity(6, k1), root_of_unity(4, k2)]
    assert (f + g).evaluate(point) == f.evaluate(point) + g.evaluate(point)
    assert (f * g).evaluate(point) == f.evaluate(point) * g.evaluate(point)


def test_laurent_matrix_product_evaluation_commutes():
    n = 2
    t1, t2 = lp_var(0, n), lp_var(1, n)
    a = LaurentMatrix(n, [[t1, 1 - t1], [t2, t1 * t2]])
    b = LaurentMatrix(n, [[t2, LaurentPoly.zero(n)], [1 - t2, t1**-1]])
    point = [root_of_unity(3), root_of_unity(5, 2)]
    left = (a * b).evaluate(point)
    right = a.evaluate(point) * b.evaluate(point)
    assert left == right


def test_laurent_matrix_determinant():
    n = 1
    t = lp_var(0, n)
    m = LaurentMatrix(n, [[t, 1 + 0 * t], [LaurentPoly.one(n), t]])
    assert m.determinant() == t * t - 1


def test_exterior_square_of_identity():
    m = LaurentMatrix.identity(4, 2)
    sq = m.exterior_square()
    assert sq == LaurentMatrix.identity(6, 2)


def test_exterior_square_is_multiplicative():
    n = 2
    t1, t2 = lp_var(0, n), lp_var(1, n)
    a = LaurentMatrix(n, [[t1, 1 + 0 * t1, 0 * t1], [0 * t1, t2, 1 + 0 * t1], [1 + 0 * t1, 0 * t1, t1 * t2]])
    b = LaurentMatrix(n, [[1 + 0 * t1, t2, 0 * t1], [t1, 0 * t1, 1 + 0 * t1], [0 * t1, 1 + 0 * t1, t2]])
    assert (a * b).exterior_square() == a.exterior_square() * b.exterior_square()


# --- integer lattice normal forms -------------------------------------------


def test_hermite_normal_form_small():
    from charvar.exactalg import hermite_normal_form

    assert hermite_normal_form([[2, 4], [6, 8]]) == [[2, 0], [0, 4]]
    assert hermite_normal_form([[0, 0], [0, 0]]) == []
    assert hermite_normal_form([[3]]) == [[3]]
    assert hermite_normal_form([[-1, 2]]) == [[1, -2]]


def test_hermite_normal_form_is_span_canonical():
    from charvar.exactalg import hermite_normal_form

    a = [[1, 0, -1], [0, 1, -1]]
    b = [[1, 1, -2], [1, 0, -1], [-1, 1, 0]]
    assert hermite_normal_form(a) == hermite_normal_form(b)
    # an index-two sublattice normalizes differently
    c = [[1, 1, -2], [1, -1, 0]]
    assert hermite_normal_form(c) == [[1, 1, -2], [0, 2, -2]]


def test_integer_kernel_sum_vector():
    from charvar.exactalg import integer_kernel

    assert integer_kernel([[1, 1, 1]], 3) == [[1, 0, -1], [0, 1, -1]]


def test_integer_kernel_is_saturated():
    from charvar.exactalg import integer_kernel

    # the rational kernel of (2, 2) is spanned by (1, -1); a non-saturated
    # routine would return (2, -2) here
    assert integer_kernel([[2, 2]], 2) == [[1, -1]]


def test_integer_kernel_full_rank_is_empty():
    from charvar.exactalg import integer_kernel

    assert integer_kernel([[1, 2], [3, 4]], 2) == []


def test_integer_kernel_of_empty_matrix_is_identity():
    from charvar.exactalg import integer_kernel

    assert integer_kernel([], 2) == [[1, 0], [0, 1]]


@given(
    st.lists(
        st.lists(st.integers(min_value=-5, max_value=5), min_size=4, max_size=4),
        min_size=1,
        max_size=3,
    )
)
def test_integer_kernel_orthogonal_and_complementary(rows):
    from charvar.exactalg import integer_kernel

    kernel = integer_kernel(rows, 4)
    for u in kernel:
        for row in rows:
            assert sum(a * b for a, b in zip(row, u)) == 0
    rank = ExactMatrix.from_rational_rows(rows, ncols=4).rank()
    assert rank + len(kernel) == 4


def test_rational_rref_and_primitive_rows():
    from fractions import Fraction

    from charvar.exactalg import primitive_rows, rational_rref

    pivots, rows = rational_rref(
        [[Fraction(2), Fraction(4), Fraction(6)], [Fraction(1), Fraction(2), Fraction(4)]],
        3,
    )
    assert pivots == [0, 2]
    assert rows == [
        [Fraction(1), Fraction(2), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1)],
    ]
    prim = primitive_rows([[Fraction(-1, 2), Fraction(0), Fraction(3, 4)]])
    assert prim == [[2, 0, -3]]
