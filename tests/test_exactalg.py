"""Tests for exact cyclotomic scalars, exact ranks, integer lattice normal
forms, Laurent polynomials, and the reduction of scalars and integer rows
modulo a prime."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charvar import exactalg
from charvar.exactalg import (
    MODULAR_PRIME_FLOOR,
    MODULUS_BITS,
    ExactMatrix,
    ExactScalar,
    IntEchelon,
    _adjugate,
    _euler_phi,
    _fold,
    _is_prime,
    _mul,
    clear_denominators,
    cyclotomic_polynomial,
    hermite_normal_form,
    integer_kernel,
    modp_rank,
    modp_ranks,
    modular_prime,
    nullspace,
    prime_field,
    rational_rref,
    root_of_unity,
)
import exactalg_reference as reference
from laurent import LaurentPoly

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
    expected = ExactScalar.from_coeffs(3, [Fraction(-1), Fraction(-1)])
    assert s == expected


def test_cube_root_squares_to_reduced_form():
    z = root_of_unity(3)
    assert z * z == ExactScalar.from_coeffs(3, [Fraction(-1), Fraction(-1)])


def test_cross_order_equality():
    # the same value written in two compatible cyclotomic orders compares equal
    z6 = root_of_unity(6)
    z3 = root_of_unity(3)
    assert z6 * z6 * z6 == ExactScalar.from_rational(-1)
    assert z6 * z6 == z3 and z3 == z6 * z6 and (z6 * z6).order == 6
    assert root_of_unity(12, 4) == z3
    # equal ints over different denominators are different values
    half_z6 = ExactScalar.from_coeffs(6, [0, Fraction(1, 2)])
    assert half_z6 != z6 and half_z6 * 2 == z6


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
    # bool is an int subclass, but True is not an order
    with pytest.raises(ValueError, match="positive integer"):
        ExactScalar.from_json({"order": True, "coeffs": ["1"]})
    # a huge order with a short list is refused without factoring the order
    with pytest.raises(ValueError, match="phi"):
        ExactScalar.from_json({"order": 10**30 + 57, "coeffs": ["0", "1"]})
    # coefficients are integers or rational strings: no floats, no booleans,
    # and a string is not read character by character as a list
    with pytest.raises(ValueError, match="rational"):
        ExactScalar.from_json({"order": 3, "coeffs": [0.1, True]})
    with pytest.raises(ValueError, match="list"):
        ExactScalar.from_json({"order": 3, "coeffs": "12"})
    with pytest.raises(ValueError, match="rational"):
        ExactScalar.from_json(0.5)


def test_euler_phi_matches_the_cyclotomic_degree():
    for m in range(1, 61):
        assert _euler_phi(m) == len(cyclotomic_polynomial(m)) - 1
    start = time.perf_counter()
    assert _euler_phi(5040) == 1152
    assert _euler_phi(20011) == 20010
    assert time.perf_counter() - start < 0.5


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


# -- the Z[zeta_m] kernel against the Fraction long-division reference --------


def _dense(rng, order):
    """A seeded element of Q(zeta_order), every power-basis coefficient
    drawn from -2..2 over 1..2 and the top one nonzero."""
    coeffs = [
        Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(_euler_phi(order))
    ]
    coeffs[-1] = coeffs[-1] or Fraction(1)
    return ExactScalar.from_coeffs(order, coeffs)


def _fractions(v, order):
    """v on the power basis of Q(zeta_order), as the Fractions the
    reference computes: its promoted ints over its denominator."""
    return [Fraction(c, v.den) for c in v._promoted(order)]


def test_cyclotomic_polynomials_match_the_fraction_reference():
    for m in range(1, 211):
        assert cyclotomic_polynomial(m) == reference.cyclotomic_polynomial(m)
    # Phi_105 is the first with a coefficient other than 0 and +-1
    assert min(cyclotomic_polynomial(105)) == -2


def test_fold_matches_long_division():
    rng = random.Random(2)
    for m in range(1, 121):
        # ints past 2m (exponents folded mod m first), Fractions short of m
        # (only the top folded through Phi_m) and of phi(m) (padded)
        for size, den in ((2 * m + 3, 1), (m, 3), (_euler_phi(m) // 2 + 1, 3)):
            raw = [Fraction(rng.randint(-9, 9), rng.randint(1, den)) for _ in range(size)]
            if den == 1:
                raw = [int(c) for c in raw]
            assert _fold(m, list(raw)) == reference.reduce(m, raw)


def test_products_promotion_and_conjugates_match_the_reference_at_every_order():
    rng = random.Random(3)
    for m in range(1, 121):
        # b of any order d with lcm(m, d) <= 120
        d = rng.choice([d for d in range(1, 121) if math.lcm(m, d) <= 120])
        a, b = _dense(rng, m), _dense(rng, d)
        # order 2 is stored as order 1 (zeta_2 = -1), so read the orders back
        lcm = math.lcm(a.order, b.order)
        promoted = [reference.promote(v.order, v.coeffs, lcm) for v in (a, b)]
        assert [_fractions(v, lcm) for v in (a, b)] == promoted
        want = reference.reduce(lcm, reference.mul_poly(*promoted))
        assert (a * b).order in (1, lcm) and _fractions(a * b, lcm) == want
        assert _fractions(a + b, lcm) == [x + y for x, y in zip(*promoted)]
        assert _fractions(a.conjugate(), m) == reference.galois(m, a.coeffs, -1)
        assert a.conjugate().conjugate() == a


def test_inverses_match_the_reference_at_every_order():
    rng = random.Random(5)
    for m in range(1, 121):
        a = _dense(rng, m)
        inv = a.inverse()
        assert (a * inv).is_one()
        # the extended Euclidean algorithm is slow beyond small degree
        if _euler_phi(m) <= 24 or m in (105, 120):
            assert _fractions(inv, m) == reference.inverse(m, a.coeffs)


def _is_canonical(v):
    """(order, ints, den) in the one form `ExactScalar` keeps: phi(order)
    ints, den > 0 and coprime to them, order 1 exactly for rationals."""
    return (
        len(v.ints) == _euler_phi(v.order)
        and all(isinstance(c, int) for c in v.ints + (v.den,))
        and v.den > 0
        and math.gcd(v.den, *v.ints) == 1
        and v.order != 2
        and (v.order == 1) == (not any(v.ints[1:]))
    )


@st.composite
def _scalars(draw):
    """Two scalars of orders d1, d2 <= 120 with lcm(d1, d2) <= 120 (order 2
    among them), as Fraction coefficients: ints in -9..9, often 0, over a
    denominator in 1..12."""
    d1 = draw(st.one_of(st.just(2), st.integers(min_value=1, max_value=120)))
    d2 = draw(st.sampled_from([d for d in range(1, 121) if math.lcm(d1, d) <= 120]))
    drawn = []
    for d in (d1, d2):
        entry = st.sampled_from([0, 0, 0] + list(range(-9, 10)))
        ints = draw(st.lists(entry, min_size=_euler_phi(d), max_size=_euler_phi(d)))
        den = draw(st.integers(min_value=1, max_value=12))
        drawn.append((d, [Fraction(c, den) for c in ints]))
    return drawn


@settings(max_examples=60, deadline=None)
@given(_scalars(), st.booleans())
def test_scalars_stay_in_their_canonical_form(drawn, p_in_den):
    """Every result of +, -, *, inverse and conjugate is canonical and
    agrees with the Fraction long-division reference, read as
    Fraction(c, v.den); from_coeffs gives back its coefficients whenever
    it keeps the order; a value promoted to a multiple of its order
    compares equal to itself; and the reduction mod p declines exactly
    when p divides den."""
    (d1, c1), (d2, c2) = drawn
    a, b = ExactScalar.from_coeffs(d1, c1), ExactScalar.from_coeffs(d2, c2)
    for v, (d, c) in ((a, drawn[0]), (b, drawn[1])):
        assert _is_canonical(v)
        if v.order == d:
            assert v.coeffs == tuple(c)
        assert v.coeffs == tuple(Fraction(x, v.den) for x in v.ints)
    m = math.lcm(a.order, b.order)
    promoted = [reference.promote(v.order, v.coeffs, m) for v in (a, b)]
    results = {
        "+": (a + b, [x + y for x, y in zip(*promoted)]),
        "-": (a - b, [x - y for x, y in zip(*promoted)]),
        "*": (a * b, reference.reduce(m, reference.mul_poly(*promoted))),
        "conjugate": (a.conjugate(), reference.galois(m, promoted[0], -1)),
    }
    if not a.is_zero():
        want = None
        if _euler_phi(a.order) <= 24:
            want = reference.promote(a.order, reference.inverse(a.order, a.coeffs), m)
        results["inverse"] = (a.inverse(), want)
    for name, (v, want) in results.items():
        assert _is_canonical(v), name
        if want is not None:
            assert _fractions(v, m) == want, name
    # the same value written at a multiple of its order
    wide = ExactScalar(m, a._promoted(m), a.den)
    assert wide == a and a == wide and not wide != a
    assert (wide.order, wide.den) == ((1, a.den) if a.order == 1 else (m, a.den))
    field = prime_field(m, 10)
    for v in (a, b, a * b):
        if p_in_den:
            v = v / field.p
        assert (field.reduce(v) is None) == (v.den % field.p == 0)


def test_adjugate_times_the_element_is_its_integer_norm():
    rng = random.Random(6)
    for m in (3, 4, 5, 12, 15, 105):
        a = [rng.randint(-3, 3) for _ in range(_euler_phi(m))]
        a[-1] = a[-1] or 1
        adj = _adjugate(m, a)
        norm, *rest = _fold(m, _mul(a, adj))
        assert norm and not any(rest)
        assert all(isinstance(c, int) for c in adj)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


def test_rank_of_rational_examples():
    m = ExactMatrix([[1, 2], [2, 4]])
    assert m.rank() == 1
    m2 = ExactMatrix([[1, 0, 1], [0, 1, 1], [1, 1, 2]])
    assert m2.rank() == 2
    assert ExactMatrix([], ncols=5).rank() == 0


def test_rank_with_cyclotomic_entries():
    z = root_of_unity(3)
    one = ExactScalar.one()
    # second row is zeta times the first, so the rank is 1
    m = ExactMatrix([[one, z], [z, z * z]])
    assert m.rank() == 1
    m2 = ExactMatrix([[one, z], [z, one]])
    assert m2.rank() == 2


def test_nullspace_of_incidence_oracle():
    # rows scaled by rationals keep their kernel
    m = ExactMatrix([[Fraction(v, i + 1) for v in row] for i, row in enumerate(INCIDENCE_ROWS)])
    basis = nullspace(m)
    assert len(basis) == 2
    assert all(type(x) is int for vec in basis for x in vec)
    assert same_span(basis, INCIDENCE_KERNEL, 6)
    # every returned vector is genuinely in the kernel
    for vec in basis:
        for row in INCIDENCE_ROWS:
            assert sum(coeff * v for coeff, v in zip(row, vec)) == 0


def test_nullspace_full_rank_is_empty():
    m = ExactMatrix([[1, 0], [0, 1], [1, 1]])
    assert nullspace(m) == []


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
    m = ExactMatrix(rows, ncols=4)
    base = m.rank()
    shuffled_rows = list(rows)
    rng.shuffle(shuffled_rows)
    cols = list(range(4))
    rng.shuffle(cols)
    permuted = [[row[c] for c in cols] for row in shuffled_rows]
    assert ExactMatrix(permuted, ncols=4).rank() == base


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-5, max_value=5), min_size=5, max_size=5),
        min_size=1,
        max_size=4,
    )
)
def test_rank_plus_nullity_is_column_count(rows):
    m = ExactMatrix(rows, ncols=5)
    assert m.rank() + len(nullspace(m)) == 5


def test_int_echelon_matches_matrix_rank():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1], [1, 3, 4]]
    ech = IntEchelon(3)
    assert ech.add_rows(rows) == 2
    assert ech.rank == ExactMatrix(rows).rank()
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
    """The integer echelon (row by row, and through add_rows with its stop
    at full rank), ExactMatrix.rank on the rows scaled by rationals, and the
    rational reduced echelon form must give one rank, and rows that are
    repeats or integer combinations of the free rows must not raise it."""
    rows, free, ncols = case
    ech = IntEchelon(ncols)
    for row in rows:
        ech.add_row(row)
    pivots, _ = rational_rref([[Fraction(v) for v in r] for r in rows], ncols)
    scaled = [[Fraction(v, i + 2) for v in r] for i, r in enumerate(rows)]
    assert ech.rank == IntEchelon(ncols).add_rows(rows) == len(pivots)
    assert ech.rank == ExactMatrix(scaled).rank()
    assert ech.rank == IntEchelon(ncols).add_rows(free)


def _dense_fraction_rank(rows, ncols):
    """Reference rank over Q: dense Fraction elimination, column by column."""
    work = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for i in range(rank + 1, len(work)):
            factor = work[i][col] / work[rank][col]
            work[i] = [a - factor * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


@st.composite
def _echelon_rows(draw):
    """Integer rows for the sparse echelon.  They open with two rows that
    start in one column, where the first lead (of either sign, in a row of
    content 1) does not divide the second, so reducing the second row must
    scale it; then free rows with zero, repeated, negated and combined rows
    mixed in, shuffled."""
    ncols = draw(st.integers(min_value=2, max_value=7))
    entry = st.integers(min_value=-9, max_value=9)
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    col = draw(st.integers(min_value=0, max_value=ncols - 2))
    lead = draw(st.sampled_from([v for v in range(-9, 10) if abs(v) > 1]))
    below = draw(entry.filter(lambda v: v % lead))
    tail = st.lists(entry, min_size=ncols - col - 1, max_size=ncols - col - 1)
    first_tail, second_tail = draw(tail), draw(tail)
    first_tail[0] = 1  # content 1, so the stored lead stays |lead| > 1
    opening = [
        [0] * col + [lead] + first_tail,
        [0] * col + [below] + second_tail,
    ]
    free = draw(st.lists(row, min_size=0, max_size=4))
    rows = [list(r) for r in free]
    kinds = ["zero", "repeat", "negated", "combination"]
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=6)):
        base = draw(st.sampled_from(rows + opening))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "repeat":
            rows.append(list(base))
        elif kind == "negated":
            rows.append([-v for v in base])
        else:
            span = opening + free
            coeffs = draw(st.lists(entry, min_size=len(span), max_size=len(span)))
            rows.append(
                [sum(c * r[j] for c, r in zip(coeffs, span)) for j in range(ncols)]
            )
    return opening + draw(st.permutations(rows)), ncols


@settings(max_examples=150, deadline=None)
@given(_echelon_rows(), st.data())
def test_sparse_integer_echelon_matches_a_dense_fraction_elimination(case, data):
    """Rows added dense and the same rows added as {column: value} maps
    (nonzero entries, keys in descending order) give the rank of a dense
    Fraction elimination, with the same independent rows; rows added to a
    clone leave the original's rank unchanged."""
    rows, ncols = case
    expected = _dense_fraction_rank(rows, ncols)
    dense, sparse = IntEchelon(ncols), IntEchelon(ncols)
    split = data.draw(st.integers(min_value=0, max_value=len(rows)))
    for row in rows[:split]:
        mapping = {c: row[c] for c in reversed(range(ncols)) if row[c]}
        assert dense.add_row(row) is sparse.add_row(mapping)
    assert dense.rank == sparse.rank == _dense_fraction_rank(rows[:split], ncols)
    rank_at_split = sparse.rank
    clone = sparse.clone()
    for row in rows[split:]:
        mapping = {c: row[c] for c in reversed(range(ncols)) if row[c]}
        assert dense.add_row(row) is clone.add_row(mapping)
    assert dense.rank == clone.rank == expected
    assert sparse.rank == rank_at_split
    assert IntEchelon(ncols).add_rows(rows) == expected


def _dense_cyclotomic_rank(rows, ncols):
    """Reference rank over Q(zeta): dense elimination on ExactScalar
    entries, column by column, taking the pivot with the most nonzero
    power-basis coefficients and inverting it by the extended Euclidean
    algorithm."""
    work = [list(row) for row in rows]
    rank = 0
    for col in range(ncols):
        nonzero = [i for i in range(rank, len(work)) if not work[i][col].is_zero()]
        if not nonzero:
            continue
        piv = max(nonzero, key=lambda i: sum(1 for c in work[i][col].coeffs if c))
        work[rank], work[piv] = work[piv], work[rank]
        inv = work[rank][col].inverse()
        for i in range(rank + 1, len(work)):
            if not work[i][col].is_zero():
                factor = work[i][col] * inv
                work[i] = [a - factor * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


@st.composite
def _cyclotomic_rows(draw):
    """Rows over Q(zeta_M) whose entries have orders 1, 3, 4 and 5, so M is
    a proper lcm, and coefficients with denominators.  Zero rows, rows
    zeta^e r and (1 + zeta) r for zeta of order 3, 4 or 5, and sums of two
    rows are mixed in and shuffled.  When `full` is drawn, the rows of the
    identity matrix open the list: their largest entry, 1, is the least
    there is, so `ExactMatrix.rank` takes them first, reaches full rank
    and stops before the nonzero rows that follow.  Returns (rows, ncols,
    full)."""
    ncols = draw(st.integers(min_value=1, max_value=3))

    def entry():
        if draw(st.booleans()):
            return ExactScalar.zero()
        return _scalar(draw, draw(st.sampled_from([1, 3, 4, 5])))

    def row():
        return [entry() for _ in range(ncols)]

    rows = [row() for _ in range(draw(st.integers(min_value=1, max_value=3)))]
    kinds = ["zero", "zeta power", "one plus zeta", "sum"]
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=4)):
        base = draw(st.sampled_from(rows))
        zeta = root_of_unity(draw(st.sampled_from([3, 4, 5])), draw(st.integers(1, 4)))
        if kind == "zero":
            rows.append([ExactScalar.zero()] * ncols)
        elif kind == "zeta power":
            rows.append([zeta * v for v in base])
        elif kind == "one plus zeta":
            rows.append([(zeta + 1) * v for v in base])
        else:
            other = draw(st.sampled_from(rows))
            rows.append([a + b for a, b in zip(base, other)])
    rows = draw(st.permutations(rows))
    full = draw(st.booleans())
    if full:
        one, zero = ExactScalar.one(), ExactScalar.zero()
        rows = [
            [one if i == j else zero for j in range(ncols)] for i in range(ncols)
        ] + rows
    return rows, ncols, full


@settings(max_examples=60, deadline=None)
@given(_cyclotomic_rows())
def test_cyclotomic_rank_matches_a_dense_field_elimination(case):
    """ExactMatrix.rank, which ranks the rows zeta^i r on the power basis in
    the integer echelon, gives the rank of dense elimination over Q(zeta),
    and full rank where the identity rows open the list."""
    rows, ncols, full = case
    rank = ExactMatrix(rows, ncols).rank()
    assert rank == _dense_cyclotomic_rank(rows, ncols)
    if full:
        assert rank == ncols


# ---------------------------------------------------------------------------
# reduction modulo a prime
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("floor", [10, 60, MODULAR_PRIME_FLOOR])
def test_modular_prime_and_its_root_of_unity(floor):
    for order in range(1, 13):
        field = prime_field(order, floor)
        p = field.p
        assert p == modular_prime(order, floor) and p > floor and (p - 1) % order == 0
        # p is the least prime above floor that is 1 modulo the order
        primes = [
            q
            for q in range(floor + 1, p + 1)
            if (q - 1) % order == 0 and all(q % d for d in range(2, math.isqrt(q) + 1))
        ]
        assert primes == [p]
        powers = [pow(field.omega, e, p) for e in range(1, order + 1)]
        assert powers.index(1) == order - 1
        assert field.reduce(root_of_unity(order)) == field.omega
    small = [modular_prime(m, 10) for m in (1, 2, 3, 4, 5, 6, 12)]
    assert small == [11, 11, 13, 13, 11, 13, 13]


def _trial_division_is_prime(n):
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_miller_rabin_matches_trial_division():
    assert [n for n in range(10**5) if _is_prime(n)] == [
        n for n in range(10**5) if _trial_division_is_prime(n)
    ]
    # strong pseudoprimes to the bases 2; 2, 3; 2..7; 2..31, and Carmichael numbers
    for n in (2047, 1373653, 3215031751, 3825123056546413051, 561, 41041):
        assert not _is_prime(n)
    assert _is_prime(2**61 - 1) and not _is_prime(2**61 + 1)
    # the least strong pseudoprime to all twelve bases is refused, not guessed
    with pytest.raises(ValueError):
        _is_prime(318665857834031151167461)


def test_modular_primes_match_a_trial_division_search():
    for m in range(1, 121):
        q = MODULAR_PRIME_FLOOR + 1
        q += (1 - q) % m
        while not _trial_division_is_prime(q):
            q += m
        assert modular_prime(m) == q


def _scalar(draw, order):
    coeffs = draw(
        st.lists(
            st.fractions(min_value=-6, max_value=6, max_denominator=6),
            min_size=_euler_phi(order),
            max_size=_euler_phi(order),
        )
    )
    return ExactScalar.from_coeffs(order, coeffs)


@settings(max_examples=80, deadline=None)
@given(
    st.data(),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=12),
    st.sampled_from([10, 60, MODULAR_PRIME_FLOOR]),
)
def test_reduction_mod_p_is_a_ring_map(data, d1, d2, floor):
    """Scalars of two orders, reduced in the field of their lcm order (so
    mixed orders are promoted first): sums, products and inverses of units
    commute with the reduction."""
    a, b = _scalar(data.draw, d1), _scalar(data.draw, d2)
    field = prime_field(math.lcm(d1, d2), floor)
    p = field.p
    ra, rb = field.reduce(a), field.reduce(b)
    # denominators are at most 6 and every prime used is above 10
    assert ra is not None and rb is not None
    assert 0 <= ra < p and 0 <= rb < p
    assert field.reduce(a + b) == (ra + rb) % p
    assert field.reduce(a - b) == (ra - rb) % p
    assert field.reduce(a * b) == ra * rb % p
    assert field.reduce(-a) == -ra % p
    zeta = root_of_unity(d2, data.draw(st.integers(min_value=0, max_value=d2 - 1)))
    assert field.reduce(zeta.inverse()) == pow(field.reduce(zeta), -1, p)
    if not a.is_zero() and ra:
        inv = field.reduce(a.inverse())
        # a unit at the prime above p need not have p-free power-basis
        # denominators (p splits completely); where it does, they agree
        if inv is not None:
            assert inv == pow(ra, -1, p)


@settings(max_examples=80, deadline=None)
@given(_rows_with_dependencies(), st.sampled_from([2, 3, 5, 7, 11, 13]))
def test_modular_rank_bounds_the_rational_rank(case, small):
    """The F_p rank never exceeds the rational rank, and equals it for the
    default prime: the rank is that of at most five free rows with entries
    of size at most 9, whose minors are below (9 * sqrt(5))^5 < p."""
    rows, _free, ncols = case
    exact = IntEchelon(ncols).add_rows(rows)
    pivots, _ = rational_rref([[Fraction(v) for v in r] for r in rows], ncols)
    assert exact == len(pivots)
    assert modp_rank(rows, ncols, small) <= exact
    assert modp_rank(rows, ncols, modular_prime(1)) == exact


def test_modular_rank_drops_at_a_bad_prime():
    rows = [[1, 2], [3, 17]]  # determinant 11
    assert IntEchelon(2).add_rows(rows) == 2
    assert modp_rank(rows, 2, 11) == 1
    assert modp_rank(rows, 2, 13) == 2
    assert modp_rank([], 3, 11) == 0


def _dense_modp_rank(rows, ncols, p):
    """Reference rank over F_p: dense elimination, column by column."""
    work = [[v % p for v in row] for row in rows]
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = pow(work[rank][col], -1, p)
        for i in range(rank + 1, len(work)):
            factor = work[i][col] * inv % p
            work[i] = [(a - factor * b) % p for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


@st.composite
def _rows_mod_p(draw):
    """A prime p and integer rows, more of them than columns or fewer, with
    zero rows, repeated rows, integer combinations, rows congruent to
    another mod p and multiples of p mixed in."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, modular_prime(1)]))
    tall = draw(st.booleans())
    low, high = (1, 5) if tall else (2, 9)
    ncols = draw(st.integers(min_value=low, max_value=high))
    entry = st.integers(min_value=-9, max_value=9)
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    free = draw(st.lists(row, min_size=1, max_size=4))

    def combination():
        coeffs = draw(st.lists(entry, min_size=len(free), max_size=len(free)))
        return [sum(c * r[j] for c, r in zip(coeffs, free)) for j in range(ncols)]

    rows = [list(r) for r in free]
    kinds = ["zero", "repeat", "combination", "congruent", "multiple of p"]
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=6)):
        base = draw(st.sampled_from(rows))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "repeat":
            rows.append(list(base))
        elif kind == "combination":
            rows.append(combination())
        elif kind == "congruent":
            rows.append([v + p * w for v, w in zip(base, draw(row))])
        else:
            rows.append([p * v for v in base])
    while tall and len(rows) <= ncols:
        rows.append(combination())
    rows = draw(st.permutations(rows))
    return (rows if tall else rows[: ncols - 1]), ncols, p


@settings(max_examples=150, deadline=None)
@given(_rows_mod_p())
def test_sparse_modular_rank_matches_a_dense_elimination(case):
    """The sparse elimination of `modp_rank` gives the rank of the dense
    column-by-column elimination over F_p, on tall and on wide row sets,
    and never exceeds the rational rank."""
    rows, ncols, p = case
    rank = modp_rank(rows, ncols, p)
    assert rank == _dense_modp_rank(rows, ncols, p)
    assert rank <= IntEchelon(ncols).add_rows(rows)


_BATCH_PRIMES = (3, 5, 7, 11, 13, modular_prime(1), modular_prime(1, modular_prime(1)))


@st.composite
def _rows_mod_batch(draw):
    """Two to four distinct primes and seeded integer rows, with zero rows,
    integer combinations, rows that vanish modulo exactly one of the
    primes, one-entry rows whose lead exactly one of the primes divides,
    and unit rows that can make the rank full before the rows run out."""
    primes = draw(st.lists(st.sampled_from(_BATCH_PRIMES), min_size=2, max_size=4, unique=True))
    rng = draw(st.randoms(use_true_random=False))
    ncols = rng.randint(1, 6)
    rows = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(rng.randint(1, 5))]
    for _ in range(rng.randint(0, 8)):
        kind = rng.choice(["zero", "combination", "vanishing", "lead", "unit"])
        p, col = rng.choice(primes), rng.randrange(ncols)
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "combination":
            coeffs = [rng.randint(-3, 3) for _ in rows]
            rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(ncols)])
        elif kind == "vanishing":
            rows.append([p * v for v in rng.choice(rows)])
        else:
            rows.append([(p if kind == "lead" else 1) * (j == col) for j in range(ncols)])
    rng.shuffle(rows)
    return rows, ncols, primes


def test_batched_modular_ranks_match_the_rank_at_each_prime(monkeypatch):
    """`modp_ranks` gives, in one elimination modulo the product of a batch
    of primes, the rank of `modp_rank` and of the dense elimination at each
    prime.  Among the batches, a row vanished modulo one prime only, a lead
    that one prime divides split the batch, the ranks differed between
    primes, and the rank was full with rows left over."""
    seen = set()
    real = exactalg._modular_ranks
    depth = []

    def spy(work, ncols, primes, n, found):
        if depth:
            seen.add("a batch split")
        depth.append(len(primes))
        try:
            return real(work, ncols, primes, n, found)
        finally:
            depth.pop()

    monkeypatch.setattr(exactalg, "_modular_ranks", spy)

    @settings(max_examples=150, deadline=None)
    @given(_rows_mod_batch())
    def check(case):
        rows, ncols, primes = case
        ranks = modp_ranks(rows, ncols, primes)
        assert ranks == [modp_rank(rows, ncols, p) for p in primes]
        assert ranks == [_dense_modp_rank(rows, ncols, p) for p in primes]
        n = math.prod(primes)
        if any(
            any(v % n for v in row) and not any(v % p for v in row)
            for row in rows
            for p in primes
        ):
            seen.add("a row vanishing modulo one prime only")
        if len(set(ranks)) > 1:
            seen.add("ranks that differ between primes")
        if min(ranks) == ncols < sum(any(v % n for v in row) for row in rows):
            seen.add("full rank with rows left over")

    check()
    assert seen == {
        "a row vanishing modulo one prime only",
        "a batch split",
        "ranks that differ between primes",
        "full rank with rows left over",
    }
    # the one-entry row 11 e_1 is the first pivot; its lead vanishes mod 11
    seen.clear()
    assert modp_ranks([[11, 0], [1, 1]], 2, (11, 13)) == [1, 2]
    assert seen == {"a batch split"}
    # clearing column 0 of 5 e_0 + e_5 by e_0 + 3 e_2 subtracts 15 e_2,
    # which is 0 mod 15 in a column where the row held nothing
    assert modp_ranks([[1, 0, 3, 0, 0, 0], [5, 0, 0, 0, 0, 1]], 6, (3, 5)) == [2, 2]
    # 40 primes above 2^30 pass MODULUS_BITS, so they are eliminated in
    # runs; a row that the 26th prime divides lowers the rank there only
    primes = [modular_prime(1)]
    while len(primes) < 40:
        primes.append(modular_prime(1, primes[-1]))
    assert math.prod(primes).bit_length() > MODULUS_BITS
    rng = random.Random(40)
    rows = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(3)]
    rows.append([primes[25] * rng.randint(-9, 9) for _ in range(5)])
    ranks = modp_ranks(rows, 5, primes)
    assert ranks == [4] * 25 + [3] + [4] * 14
    assert ranks == [modp_rank(rows, 5, p) for p in primes]


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------


def lp_var(i, n):
    return LaurentPoly.variable(i, n)


def test_laurent_basic_identity():
    n = 2
    t1, t2 = lp_var(0, n), lp_var(1, n)
    f = (t1 - 1) * (t2 - 1)
    expected = LaurentPoly(n, {(1, 1): 1, (1, 0): -1, (0, 1): -1, (0, 0): 1})
    assert f == expected
    assert f.at_one() == 0


def test_laurent_negative_exponents():
    n = 1
    t = lp_var(0, n)
    inv = t**-1
    assert (t * inv) == LaurentPoly.one(n)
    point = [root_of_unity(5, 2)]
    assert inv.evaluate(point) == root_of_unity(5, 3)


def test_laurent_negative_powers_need_a_unit_monomial():
    n = 2
    t = lp_var(0, n)
    assert (-t) ** -1 == -(t**-1)
    assert (-t) ** -2 == t**-2
    assert (t**3) ** -1 == t**-3
    for base in (2 * t, t + 1, LaurentPoly.zero(n), LaurentPoly.constant(3, n)):
        with pytest.raises(ValueError):
            base**-1


@pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(1), 1.0, True])
def test_laurent_coefficients_are_ints_only(bad):
    n = 2
    t = lp_var(0, n)
    builders = [
        lambda: LaurentPoly(n, {(1, 0): bad}),
        lambda: LaurentPoly(n, {(bad, 0): 1}),
        lambda: LaurentPoly.constant(bad, n),
        lambda: LaurentPoly.variable(0, n, bad),
        lambda: LaurentPoly.monomial((1, 0), bad),
        lambda: t + bad,
        lambda: bad + t,
        lambda: t - bad,
        lambda: bad - t,
        lambda: t * bad,
        lambda: bad * t,
        lambda: t == bad,
    ]
    for build in builders:
        with pytest.raises(TypeError):
            build()
    # the same operations with an int build int coefficients
    one = LaurentPoly.constant(1, n)
    assert (t + 1) - t == one and 1 * t == t and one == 1
    assert LaurentPoly.monomial((1, 0), 3).terms == {(1, 0): 3}
    assert type(((t - 1) ** 3).at_one()) is int


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
    f = LaurentPoly(n, dict(fterms))
    g = LaurentPoly(n, dict(gterms))
    point = [root_of_unity(6, k1), root_of_unity(4, k2)]
    assert (f + g).evaluate(point) == f.evaluate(point) + g.evaluate(point)
    assert (f * g).evaluate(point) == f.evaluate(point) * g.evaluate(point)


# --- integer lattice normal forms -------------------------------------------


def test_hermite_normal_form_small():
    assert hermite_normal_form([[2, 4], [6, 8]]) == [[2, 0], [0, 4]]
    assert hermite_normal_form([[0, 0], [0, 0]]) == []
    assert hermite_normal_form([[3]]) == [[3]]
    assert hermite_normal_form([[-1, 2]]) == [[1, -2]]
    # clearing the 1 above the second pivot puts -1 above the third; that
    # entry must still end in [0, 2)
    assert hermite_normal_form([[1, 1, 0], [0, 1, 1], [0, 0, 2]]) == [
        [1, 0, 1],
        [0, 1, 1],
        [0, 0, 2],
    ]


def test_hermite_normal_form_is_span_canonical():
    a = [[1, 0, -1], [0, 1, -1]]
    b = [[1, 1, -2], [1, 0, -1], [-1, 1, 0]]
    assert hermite_normal_form(a) == hermite_normal_form(b)
    # an index-two sublattice normalizes differently
    c = [[1, 1, -2], [1, -1, 0]]
    assert hermite_normal_form(c) == [[1, 1, -2], [0, 2, -2]]


def test_integer_kernel_sum_vector():
    assert integer_kernel([[1, 1, 1]], 3) == [[1, 0, -1], [0, 1, -1]]


def test_integer_kernel_is_saturated():
    # the rational kernel of (2, 2) is spanned by (1, -1); a non-saturated
    # routine would return (2, -2) here
    assert integer_kernel([[2, 2]], 2) == [[1, -1]]


def test_integer_kernel_full_rank_is_empty():
    assert integer_kernel([[1, 2], [3, 4]], 2) == []


def test_integer_kernel_of_empty_matrix_is_identity():
    assert integer_kernel([], 2) == [[1, 0], [0, 1]]


@given(
    st.lists(
        st.lists(st.integers(min_value=-5, max_value=5), min_size=4, max_size=4),
        min_size=1,
        max_size=3,
    )
)
def test_integer_kernel_orthogonal_and_complementary(rows):
    kernel = integer_kernel(rows, 4)
    for u in kernel:
        for row in rows:
            assert sum(a * b for a, b in zip(row, u)) == 0
    rank = ExactMatrix(rows, ncols=4).rank()
    assert rank + len(kernel) == 4


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda ncols: st.lists(
            st.lists(st.integers(min_value=-6, max_value=6), min_size=ncols, max_size=ncols),
            min_size=1,
            max_size=5,
        )
    ),
    st.randoms(use_true_random=False),
)
def test_unimodular_reduction_is_canonical_and_saturating(rows, rng):
    """The Hermite normal form depends only on the lattice the rows span, so
    row shuffles, negations and adding integer multiples of one row to
    another leave it fixed; and the integer kernel K is saturated: the
    kernel of the kernel of K is K itself."""
    ncols = len(rows[0])
    moved = [list(r) for r in rows]
    rng.shuffle(moved)
    for _ in range(6):
        i, j = rng.randrange(len(moved)), rng.randrange(len(moved))
        if i != j:
            q = rng.randint(-3, 3)
            moved[i] = [a + q * b for a, b in zip(moved[i], moved[j])]
        if rng.random() < 0.3:
            moved[i] = [-a for a in moved[i]]
    assert hermite_normal_form(moved) == hermite_normal_form(rows)
    kernel = integer_kernel(rows, ncols)
    assert integer_kernel(integer_kernel(kernel, ncols), ncols) == kernel


def test_clear_denominators_scales_by_one_positive_factor():
    assert clear_denominators([Fraction(1, 2), Fraction(-3, 4), 0]) == [2, -3, 0]
    assert clear_denominators([6, -9, "3/2"]) == [4, -6, 1]
    assert clear_denominators([0, 0]) == [0, 0]
    assert clear_denominators([]) == []


def test_rational_rref_and_primitive_rows():
    pivots, rows = rational_rref(
        [[Fraction(2), Fraction(4), Fraction(6)], [Fraction(1), Fraction(2), Fraction(4)]],
        3,
    )
    assert pivots == [0, 2]
    assert rows == [
        [Fraction(1), Fraction(2), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1)],
    ]
