"""Tests for the Alexander-invariant pipeline: the braid action on free
words, Gassner matrices, twist chain maps, resolution differentials, the
presentation matrix, depth membership, and Fitting ideals."""

import cmath
import itertools
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charvar import alexander, exactalg
from charvar.alexander import (
    CERTIFICATE_PRIME_CAP,
    POINT_ORDER_CAP,
    MonodromyGen,
    MonodromyInput,
    artin_apply,
    free_reduce,
    full_twist,
    generic_monodromy,
    grid_monodromy,
    invert_braid,
    invert_word,
    lift_point,
    load_monodromy,
    membership,
    monodromy_braid,
    normalize_braid,
    pencil_monodromy,
    phi_one_matrix,
    phi_one_rank,
    point_order,
    presentation_matrix,
    presentation_rank,
    relator_jacobian,
    relator_rank,
    relator_route_limit,
    twist_generator_image,
    _certified_rank,
    _coordinate_bounds,
    _Majorant,
    _presentation_rows,
    _pushed_vectors,
    _relator_rows,
    _Residues,
    _Ring,
)
from alexander_reference import (
    _ring,
    fitting_generators,
    fox_gradient,
    gassner,
    monodromy_chain_map,
    certified_rank as reference_certified_rank,
    membership as reference_membership,
    resolution_differential,
    twist_chain_map,
    wedge_square,
)
from charvar.arrangement import (
    Lattice2,
    ValidationError,
    _scalar,
    b2,
    gen_family,
    lattice_from_central3,
)
from charvar.components import (
    CapExceeded,
    Component,
    cone_lattice,
    enumerate_first_resonance,
    product_components,
)
from charvar.exactalg import (
    MODULAR_PRIME_FLOOR,
    ExactMatrix,
    ExactScalar,
    ResidueRing,
    _euler_phi as euler_phi,
    modp_rank,
    modular_prime,
    prime_field,
    root_of_unity,
)
from laurent import LaurentPoly


def mat_mul(left, right):
    out = []
    for row in left:
        new_row = []
        for col in zip(*right):
            acc = None
            for a, b in zip(row, col):
                term = a * b
                acc = term if acc is None else acc + term
            new_row.append(acc)
        out.append(new_row)
    return out


def assert_zero_matrix(rows):
    for row in rows:
        for entry in row:
            assert entry.is_zero()


def pair_index(n):
    return {p: i for i, p in enumerate(itertools.combinations(range(n), 2))}


# ---------------------------------------------------------------------------
# free words and braid words
# ---------------------------------------------------------------------------


def test_free_reduce_cancels_adjacent_inverses():
    assert free_reduce([1, -1]) == ()
    assert free_reduce([2, 1, -1, -2, 3]) == (3,)
    assert free_reduce([1, 2, 3]) == (1, 2, 3)
    assert free_reduce([-3, 3, -3]) == (-3,)


def test_invert_word_reverses_and_negates():
    assert invert_word((1, 2, -3)) == (3, -2, -1)
    word = (2, -1, 4, 4)
    assert free_reduce(word + invert_word(word)) == ()


def test_normalize_braid_expands_exponents():
    assert normalize_braid([(1, 2, 2)]) == ((1, 2, 1), (1, 2, 1))
    assert normalize_braid([(1, 3, -2)]) == ((1, 3, -1), (1, 3, -1))
    assert normalize_braid([(1, 2, 1), (2, 4, -1)]) == ((1, 2, 1), (2, 4, -1))


def test_normalize_braid_rejects_bad_factors():
    with pytest.raises(ValidationError):
        normalize_braid([(2, 1, 1)])
    with pytest.raises(ValidationError):
        normalize_braid([(1, 1, 1)])
    with pytest.raises(ValidationError):
        normalize_braid([(1, 2, 0)])
    with pytest.raises(ValidationError):
        normalize_braid([(0, 2, 1)])


def test_invert_braid_reverses_and_flips_signs():
    braid = ((1, 2, 1), (2, 3, -1))
    assert invert_braid(braid) == ((2, 3, 1), (1, 2, -1))


# ---------------------------------------------------------------------------
# the two-strand twist action
# ---------------------------------------------------------------------------


def test_twist_image_conjugates_both_ends_by_their_product():
    # the twist on strands (i, j) sends each end generator to its
    # conjugate by g_i g_j
    assert free_reduce(twist_generator_image(1, 3, 1, 1)) == (1, 3, 1, -3, -1)
    assert free_reduce(twist_generator_image(1, 3, 1, 3)) == (1, 3, -1)


def test_twist_image_conjugates_middle_by_commutator():
    want = free_reduce((1, 3, -1, -3) + (2,) + (3, 1, -3, -1))
    assert free_reduce(twist_generator_image(1, 3, 1, 2)) == want


def test_twist_image_fixes_outside_strands():
    assert free_reduce(twist_generator_image(1, 3, 1, 4)) == (4,)
    assert free_reduce(twist_generator_image(2, 4, 1, 1)) == (1,)
    assert free_reduce(twist_generator_image(2, 4, 1, 5)) == (5,)


def test_twist_inverse_exponent_undoes_the_twist():
    for k in (1, 2, 3, 4):
        once = artin_apply(((1, 3, 1),), (k,))
        back = artin_apply(((1, 3, -1),), once)
        assert back == (k,)


# ---------------------------------------------------------------------------
# the braid-word action: leftmost factor acts first
# ---------------------------------------------------------------------------

def braids(max_size=4):
    pair = st.sampled_from(list(itertools.combinations(range(1, 5), 2)))
    factor = st.tuples(pair, st.sampled_from([-2, -1, 1, 2])).map(
        lambda t: (t[0][0], t[0][1], t[1])
    )
    return st.lists(factor, max_size=max_size).map(tuple)


words = st.lists(
    st.integers(min_value=-4, max_value=4).filter(lambda v: v != 0), max_size=6
).map(tuple)


@settings(max_examples=60, deadline=None)
@given(braids(3), braids(3), words)
def test_concatenated_braids_apply_left_factor_first(b1, b2, w):
    assert artin_apply(b1 + b2, w) == artin_apply(b2, artin_apply(b1, w))


@settings(max_examples=60, deadline=None)
@given(braids(4), words)
def test_braid_then_inverse_is_identity(braid, w):
    assert artin_apply(tuple(braid) + invert_braid(braid), w) == free_reduce(w)


@settings(max_examples=60, deadline=None)
@given(braids(4), words)
def test_braid_action_fixes_abelianization(braid, w):
    def exponents(word):
        out = [0] * 4
        for c in word:
            out[abs(c) - 1] += 1 if c > 0 else -1
        return out

    assert exponents(artin_apply(braid, w)) == exponents(free_reduce(w))


# ---------------------------------------------------------------------------
# full twists on strand subsets
# ---------------------------------------------------------------------------


def test_full_twist_word_is_the_ascending_pair_product():
    assert full_twist((1, 2)) == ((1, 2, 1),)
    assert full_twist((1, 2, 3)) == ((1, 2, 1), (1, 3, 1), (2, 3, 1))
    assert full_twist((1, 3, 4)) == ((1, 3, 1), (1, 4, 1), (3, 4, 1))


def test_full_twist_conjugates_members_by_ascending_product():
    X = (1, 2, 3)
    z = (1, 2, 3)
    for k in X:
        want = free_reduce(z + (k,) + invert_word(z))
        assert artin_apply(full_twist(X), (k,)) == want
    assert artin_apply(full_twist(X), (4,)) == (4,)


def test_full_twist_conjugates_interleaved_strand_trivially_in_homology():
    image = artin_apply(full_twist((1, 3)), (2,))
    want = free_reduce((1, 3, -1, -3) + (2,) + (3, 1, -3, -1))
    assert image == want


def test_full_twist_rejects_bad_strand_sets():
    with pytest.raises(ValidationError):
        full_twist((1,))
    with pytest.raises(ValidationError):
        full_twist((2, 1))
    with pytest.raises(ValidationError):
        full_twist((0, 1))


# ---------------------------------------------------------------------------
# Gassner matrices
# ---------------------------------------------------------------------------


def test_gassner_of_empty_braid_is_identity():
    got = gassner((), 3)
    for i in range(3):
        for j in range(3):
            assert got[i][j] == (1 if i == j else 0)


def test_gassner_is_multiplicative_in_word_order():
    b1 = ((1, 2, 1),)
    b2 = ((2, 3, -1), (1, 3, 1))
    lhs = gassner(b1 + b2, 3)
    rhs = mat_mul(gassner(b1, 3), gassner(b2, 3))
    for i in range(3):
        for j in range(3):
            assert lhs[i][j] == rhs[i][j]


def test_gassner_of_pure_braid_is_identity_at_the_identity_character():
    ones = [Fraction(1)] * 3
    for braid in (full_twist((1, 3)), ((1, 2, 1), (2, 3, 1), (1, 2, -1))):
        got = gassner(braid, 3, ones)
        for i in range(3):
            for j in range(3):
                want = ExactScalar.one() if i == j else ExactScalar.zero()
                assert got[i][j] == want


def test_gassner_rows_satisfy_the_fundamental_gradient_identity():
    # each row dotted with the column (t_j - 1) recovers t_row - 1
    n = 4
    t = [LaurentPoly.variable(i, n) for i in range(n)]
    rng = random.Random(5)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for _ in range(5):
        braid = tuple(
            (*rng.choice(pairs), rng.choice((-1, 1))) for _ in range(rng.randint(1, 4))
        )
        matrix = gassner(braid, n)
        for i in range(n):
            acc = LaurentPoly.zero(n)
            for j in range(n):
                acc = acc + matrix[i][j] * (t[j] - 1)
            assert acc == t[i] - 1


def test_factor_rows_are_fox_gradients_of_memoized_image_words(monkeypatch):
    """Each twist factor's rows equal the Fox gradients of its image words,
    entry by entry and, on majorants, bound by bound and den by den; the
    image words are built once per factor, so a ring built after the first
    does no free-group work."""
    n = 5
    rational = [Fraction(2, 3), Fraction(-5), Fraction(7, 2), Fraction(3)]
    point = [ExactScalar.from_rational(c) for c in rational] + [root_of_unity(12, 5)]
    factors = [
        (i, j, e) for i, j in itertools.combinations(range(1, n + 1), 2) for e in (1, -1)
    ]

    def entries(rows):
        return [
            [(c, (x.bound, x.den) if isinstance(x, _Majorant) else x) for c, x in row]
            for row in rows
        ]

    for factor in factors:
        _ring(n).factor_rows(factor)
    calls = []
    for name in ("twist_generator_image", "free_reduce"):
        real = getattr(alexander, name)
        monkeypatch.setattr(
            alexander, name, lambda *a, real=real, name=name: calls.append(name) or real(*a)
        )
    rings = [_ring(n), _ring(n, point), _Ring.majorant(point)]
    got = [[entries(ring.factor_rows(f)) for f in factors] for ring in rings]
    assert calls == []
    monkeypatch.undo()
    for ring, rows in zip(rings, got):
        want = []
        for i, j, e in factors:
            grads = [
                fox_gradient(twist_generator_image(i, j, e, k), ring)[i - 1 : j]
                for k in range(i, j + 1)
            ]
            want.append(
                entries([[(c, x) for c, x in enumerate(g) if not x.is_zero()] for g in grads])
            )
        assert rows == want


def test_wedge_square_is_multiplicative():
    n = 3
    a = gassner(((1, 2, 1),), n)
    bm = gassner(((1, 3, -1),), n)
    lhs = wedge_square(mat_mul(a, bm))
    rhs = mat_mul(wedge_square(a), wedge_square(bm))
    for i in range(3):
        for j in range(3):
            assert lhs[i][j] == rhs[i][j]
    # the exterior square of the identity on four strands is the identity
    # on the six wedge pairs
    one, zero = LaurentPoly.one(4), LaurentPoly.zero(4)
    identity6 = [[one if i == j else zero for j in range(6)] for i in range(6)]
    assert wedge_square(gassner((), 4)) == identity6


# ---------------------------------------------------------------------------
# twist chain maps
# ---------------------------------------------------------------------------


def test_chain_map_of_adjacent_twist_on_two_strands():
    rows = twist_chain_map((1, 2), 2)
    t1 = LaurentPoly.variable(0, 2)
    assert rows[0] == [t1]
    assert rows[1] == [LaurentPoly.constant(-1, 2)]


def test_chain_map_middle_row_is_scaled_basis_pair():
    rows = twist_chain_map((1, 3), 3)
    n3 = LaurentPoly.zero(3)
    t = [LaurentPoly.variable(i, 3) for i in range(3)]
    # columns: (1,2), (1,3), (2,3)
    assert rows[0] == [n3, t[0], n3]
    assert rows[1] == [n3, t[1] - 1, n3]
    assert rows[2] == [n3, LaurentPoly.constant(-1, 3), n3]


def test_chain_map_rows_on_four_strands():
    rows = twist_chain_map((1, 2, 4), 4)
    t = [LaurentPoly.variable(i, 4) for i in range(4)]
    zero = LaurentPoly.zero(4)
    idx = pair_index(4)
    member_row = rows[1]  # strand 2: e2 wedged with e1 + t1 e2 + t1 t2 e4
    want = {idx[(0, 1)]: LaurentPoly.constant(-1, 4), idx[(1, 3)]: t[0] * t[1]}
    for c in range(6):
        assert member_row[c] == want.get(c, zero)
    middle_row = rows[2]  # strand 3: (t3 - 1) (e14 + t1 e24)
    want = {idx[(0, 3)]: t[2] - 1, idx[(1, 3)]: t[0] * (t[2] - 1)}
    for c in range(6):
        assert middle_row[c] == want.get(c, zero)


def test_chain_map_vanishes_outside_the_twist_span():
    rows = twist_chain_map((2, 3), 4)
    assert all(entry.is_zero() for entry in rows[0])
    assert all(entry.is_zero() for entry in rows[3])


def test_chain_map_validates_strands():
    with pytest.raises(ValidationError):
        twist_chain_map((1, 5), 4)
    with pytest.raises(ValidationError):
        twist_chain_map((3,), 4)


# ---------------------------------------------------------------------------
# the anchor identity tying the action, the Gassner matrix, and the chain map
# ---------------------------------------------------------------------------


def check_anchor(gen: MonodromyGen, n: int, point=None):
    phi = monodromy_chain_map(gen, n, point)
    theta = gassner(monodromy_braid(gen), n, point)
    d2 = resolution_differential(2, n, point)
    lhs = mat_mul(phi, d2)
    one = ExactScalar.one() if point is not None else 1
    for i in range(n):
        for j in range(n):
            want = theta[i][j] - one if i == j else theta[i][j]
            assert lhs[i][j] == want, (gen, i, j)


def test_twist_chain_map_realizes_gassner_minus_identity():
    for n in range(2, 6):
        for size in (2, 3, 4):
            if size > n:
                continue
            for X in itertools.combinations(range(1, n + 1), size):
                check_anchor(MonodromyGen(X), n)


def test_conjugated_chain_map_realizes_gassner_minus_identity():
    rng = random.Random(20260815)
    n = 6
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for _ in range(10):
        size = rng.choice((2, 3, 4))
        X = tuple(sorted(rng.sample(range(1, n + 1), size)))
        delta = tuple(
            (*rng.choice(pairs), rng.choice((-1, 1)))
            for _ in range(rng.randint(1, 4))
        )
        check_anchor(MonodromyGen(X, delta), n)


def test_anchor_identity_holds_at_evaluated_points():
    point = [Fraction(2), Fraction(1, 3), Fraction(-5), Fraction(7)]
    check_anchor(MonodromyGen((1, 2, 4), ((1, 3, -1), (2, 4, 1))), 4, point)


@st.composite
def conjugated_generators(draw):
    """A strand count n <= 6 and a full twist on 2..4 of its strands,
    conjugated by a braid word of 1..4 unit twist factors."""
    n = draw(st.integers(min_value=2, max_value=6))
    size = draw(st.integers(min_value=2, max_value=min(4, n)))
    X = tuple(sorted(draw(st.permutations(range(1, n + 1)))[:size]))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    factor = st.tuples(st.sampled_from(pairs), st.sampled_from((-1, 1)))
    delta = draw(st.lists(factor, min_size=1, max_size=4))
    return n, MonodromyGen(X, tuple((i, j, e) for (i, j), e in delta))


@settings(max_examples=30, deadline=None)
@given(
    conjugated_generators(),
    st.sampled_from(["symbolic", "rational", "zeta12", "mod p", "mod p1*p2"]),
    st.randoms(use_true_random=False),
)
def test_row_builders_match_the_reference_construction(drawn, kind, rng):
    """The row-only builders equal, entry by entry, the rows X[:-1] of the
    reference products: the monodromy chain map (Gassner of the inverse
    conjugator, twist chain map, wedge square) stacked over the degree-three
    differential, and Gassner of the monodromy braid minus the identity.
    Symbolically, at a rational point, at a point of order 12, and at that
    point's images in F_p and in Z/(p1*p2), reduced from the exact rows."""
    n, gen = drawn
    m = MonodromyInput(n, (gen,))
    point = None
    if kind == "rational":
        point = [Fraction(rng.choice([-3, -2, 2, 3, 5]), rng.randint(1, 4)) for _ in range(n)]
    elif kind != "symbolic":
        point = [root_of_unity(12, rng.randrange(12)) for _ in range(n)]
    ring, image, built = _ring(n, point), lambda e: e, lambda e: e
    if kind.startswith("mod"):
        field = prime_field(12)
        fields = [field, prime_field(12, field.p)] if kind == "mod p1*p2" else [field]
        crt = ResidueRing(fields)
        image = lambda e: crt.combine([f.reduce(e) for f in fields])  # noqa: E731
        images = [image(c) for c in point]
        ring = _Ring(images, [pow(v, -1, crt.p) for v in images], 1, 0, crt.p)
        # residue rows hold integer representatives: compare them mod N
        built = lambda e: e % ring.modulus  # noqa: E731
    chain = monodromy_chain_map(gen, n, point)
    want = [chain[s - 1] for s in gen.X[:-1]]
    if n >= 3:
        want += resolution_differential(3, n, point)
    got = _presentation_rows(m, ring)
    assert [[built(e) for e in row] for row in got] == [[image(e) for e in row] for row in want]
    theta = gassner(monodromy_braid(gen), n, point)
    one = LaurentPoly.one(n) if point is None else ExactScalar.one()
    want = [
        [image(e - one if c == s - 1 else e) for c, e in enumerate(theta[s - 1])]
        for s in gen.X[:-1]
    ]
    assert [[built(e) for e in row] for row in _relator_rows(m, ring)] == want


@settings(max_examples=20, deadline=None)
@given(conjugated_generators(), st.randoms(use_true_random=False))
def test_pushed_vectors_stay_below_the_modulus_of_a_residue_ring(drawn, rng):
    """At a point of order 12, in F_p and in Z/(p1*p2), every entry of the
    pushed vectors of a conjugated generator lies in [0, N): the push
    reduces each factor's output, so the ints do not grow with the
    conjugator, which no verdict would show."""
    n, gen = drawn
    point = [root_of_unity(12, rng.randrange(12)) for _ in range(n)]
    field = prime_field(12)
    for fields in ([field], [field, prime_field(12, field.p)]):
        residues = ResidueRing(fields)
        images = [residues.combine([f.reduce(c) for f in fields]) for c in point]
        inverses = [pow(v, -1, residues.p) for v in images]
        ring = _Ring(images, inverses, 1, 0, residues.p)
        assert ring.modulus == residues.p
        xs, y = _pushed_vectors(gen, ring)
        assert all(0 <= e < ring.modulus for v in xs + [y] for e in v)


def test_wedge_of_gassner_commutes_past_the_degree_two_differential():
    n = 4
    d2 = resolution_differential(2, n)
    for delta in (((1, 3, 1),), ((2, 4, -1), (1, 2, 1))):
        theta = gassner(delta, n)
        lhs = mat_mul(wedge_square(theta), d2)
        rhs = mat_mul(d2, theta)
        for i in range(6):
            for j in range(n):
                assert lhs[i][j] == rhs[i][j]


# ---------------------------------------------------------------------------
# resolution differentials
# ---------------------------------------------------------------------------


def test_degree_one_differential_is_the_positive_column():
    rows = resolution_differential(1, 3)
    t = [LaurentPoly.variable(i, 3) for i in range(3)]
    assert rows == [[t[0] - 1], [t[1] - 1], [t[2] - 1]]


def test_degree_two_differential_row():
    rows = resolution_differential(2, 2)
    t = [LaurentPoly.variable(i, 2) for i in range(2)]
    assert rows == [[t[1] - 1, -(t[0] - 1)]]


def test_differentials_compose_to_zero():
    for n in (3, 4):
        d1 = resolution_differential(1, n)
        d2 = resolution_differential(2, n)
        d3 = resolution_differential(3, n)
        assert_zero_matrix(mat_mul(d2, d1))
        assert_zero_matrix(mat_mul(d3, d2))


def test_differential_rank_at_a_degenerate_point():
    rank = ExactMatrix(resolution_differential(2, 3, (2, 1, 1)), 3).rank()
    assert rank == 2


def test_differential_ranks_at_generic_points():
    for n in (4, 5):
        point = [2, 3, 5, 7, 11][:n]
        for k in range(1, n + 1):
            ncols = math.comb(n, k - 1) if k > 1 else 1
            rank = ExactMatrix(resolution_differential(k, n, point), ncols).rank()
            assert rank == math.comb(n - 1, k - 1)


def test_differential_degree_bounds():
    with pytest.raises(ValidationError):
        resolution_differential(0, 3)
    with pytest.raises(ValidationError):
        resolution_differential(4, 3)


# ---------------------------------------------------------------------------
# monodromy data and fixtures
# ---------------------------------------------------------------------------


def test_monodromy_gen_validates_strands_and_conjugator():
    with pytest.raises(ValidationError):
        MonodromyGen((3,))
    with pytest.raises(ValidationError):
        MonodromyGen((2, 1))
    with pytest.raises(ValidationError):
        MonodromyGen((1, 2), ((2, 1, 1),))


def test_monodromy_input_rejects_repeated_strand_pairs():
    with pytest.raises(ValidationError, match="two vertex sets"):
        MonodromyInput(3, (MonodromyGen((1, 2, 3)), MonodromyGen((1, 2))))


def test_monodromy_input_rejects_out_of_range_strands():
    with pytest.raises(ValidationError):
        MonodromyInput(3, (MonodromyGen((1, 4)),))
    with pytest.raises(ValidationError):
        MonodromyInput(3, (MonodromyGen((1, 2), ((3, 4, 1),)),))


def test_monodromy_lift_validation():
    gens = (MonodromyGen((1, 2)),)
    with pytest.raises(ValidationError, match="central_n"):
        MonodromyInput(2, gens, {"central_n": 4, "strand_to_central": [1, 2], "infinity": 3})
    with pytest.raises(ValidationError, match="enumerate"):
        MonodromyInput(2, gens, {"central_n": 3, "strand_to_central": [1, 1], "infinity": 3})
    with pytest.raises(ValidationError, match="malformed"):
        MonodromyInput(2, gens, {"central_n": 3, "infinity": 3})


def test_monodromy_json_roundtrip():
    m = MonodromyInput(
        4,
        (MonodromyGen((1, 2, 4), ((1, 3, -1),)), MonodromyGen((1, 3))),
        {"central_n": 5, "strand_to_central": [1, 2, 3, 4], "infinity": 5},
    )
    again = MonodromyInput.from_json(m.to_json())
    assert again == m


def test_monodromy_from_json_rejects_bad_conjugator_tags():
    data = {
        "n": 3,
        "generators": [{"X": [1, 2], "delta": [["B", 1, 2, 1]]}],
    }
    with pytest.raises(ValidationError):
        MonodromyInput.from_json(data)


def test_packaged_diamond_monodromy_matches_its_lattice():
    m = load_monodromy("diamond_monodromy")
    assert m.n == 6
    assert m.b2 == 9
    lat = m.lattice()
    got_classes = {frozenset(c) for c in lat.rank2_classes()}
    assert {frozenset(f) for f in [(2, 3, 4), (0, 1, 4), (0, 2, 5), (1, 3, 5)]} <= got_classes
    assert frozenset((0, 3)) in got_classes
    assert {frozenset(p) for p in lat.parallel_pairs} == {
        frozenset((1, 2)),
        frozenset((4, 5)),
    }


def test_packaged_affine_braid_monodromy_matches_its_lattice():
    m = load_monodromy("braid4_affine_monodromy")
    assert m.n == 5
    assert m.b2 == 6
    lat = m.lattice()
    got_classes = {frozenset(c) for c in lat.rank2_classes()}
    assert {frozenset(f) for f in [(1, 2, 3), (0, 2, 4), (0, 3), (1, 4)]} <= got_classes
    assert {frozenset(p) for p in lat.parallel_pairs} == {
        frozenset((0, 1)),
        frozenset((3, 4)),
    }


def test_derive_tool_reproduces_packaged_fixtures():
    """`tools/derive_monodromy.py --check` re-derives both packaged fixtures
    from their wiring diagrams, validates them against the census, and
    compares them byte for byte with the packaged JSON without writing."""
    import charvar

    tool = Path(__file__).resolve().parent.parent / "tools" / "derive_monodromy.py"
    src = str(Path(charvar.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(tool), "--check"],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.count("  matches ") == 2


def test_unknown_fixture_name_raises():
    with pytest.raises(ValidationError):
        load_monodromy("no_such_arrangement")


def test_pencil_and_generic_builders_validate():
    with pytest.raises(ValidationError):
        pencil_monodromy(1)
    with pytest.raises(ValidationError):
        generic_monodromy(1)
    assert pencil_monodromy(4).b2 == 3
    assert generic_monodromy(4).b2 == 6


def test_lift_point_restricts_central_coordinates():
    lift = {"central_n": 4, "strand_to_central": [3, 1, 2], "infinity": 4}
    point = [Fraction(2), Fraction(3), Fraction(5), Fraction(1, 30)]
    got = lift_point(lift, point)
    assert got == [ExactScalar.from_rational(Fraction(v)) for v in (5, 2, 3)]


def test_lift_point_validations():
    lift = {"central_n": 3, "strand_to_central": [1, 2], "infinity": 3}
    with pytest.raises(ValidationError, match="arity"):
        lift_point(lift, [1, 1])
    with pytest.raises(ValidationError, match="nonzero"):
        lift_point(lift, [0, 1, 1])
    with pytest.raises(ValidationError, match="product 1"):
        lift_point(lift, [2, 3, 5])


def test_membership_without_lift_metadata_raises():
    with pytest.raises(ValidationError, match="lift"):
        lift_point(generic_monodromy(3).lift, [1, 1, 1, 1])


# ---------------------------------------------------------------------------
# the presentation matrix and depth membership
# ---------------------------------------------------------------------------


def test_presentation_matrix_shape():
    m = load_monodromy("diamond_monodromy")
    rows = presentation_matrix(m, point=[1] * 6)
    assert len(rows) == m.b2 + math.comb(6, 3)
    assert all(len(row) == math.comb(6, 2) for row in rows)


def test_symbolic_presentation_is_capped_by_strand_count():
    # The presentation has no symbolic form at any strand count: without a
    # point it is refused, with one it is built past the former cap of 8.
    m = generic_monodromy(9)
    with pytest.raises(TypeError):
        presentation_matrix(m)
    rows = presentation_matrix(m, point=[2] * m.n)
    assert len(rows) == m.b2 + math.comb(m.n, 3)
    assert all(len(row) == math.comb(m.n, 2) for row in rows)


def test_presentation_rank_at_identity_equals_second_betti_number():
    fixtures = [
        pencil_monodromy(4),
        pencil_monodromy(5),
        generic_monodromy(4),
        load_monodromy("diamond_monodromy"),
        load_monodromy("braid4_affine_monodromy"),
        grid_monodromy(2, 2),
    ]
    for m in fixtures:
        ones = [Fraction(1)] * m.n
        assert presentation_rank(m, ones) == m.b2
        assert membership(m, ones, 1).rank == m.b2


def test_identity_character_membership_depth_window():
    m = load_monodromy("diamond_monodromy")
    ncols = math.comb(6, 2)
    for k in range(1, ncols - m.b2 + 1):
        assert membership(m, [1] * 6, k).delta
    assert not membership(m, [1] * 6, ncols - m.b2 + 1).delta


def test_pencil_membership_depends_on_coordinate_product():
    m = pencil_monodromy(4)
    on = [2, 3, 5, Fraction(1, 30)]
    off = [2, 3, 5, 7]
    assert presentation_rank(m, on) == math.comb(4, 2) - 2
    assert presentation_rank(m, off) == math.comb(4, 2)
    assert membership(m, on, 1).delta
    assert membership(m, on, 2).delta
    assert not membership(m, on, 3).delta
    assert not membership(m, off, 1).delta


def test_five_line_pencil_depth_profile():
    m = pencil_monodromy(5)
    on = [2, 3, 5, 7, Fraction(1, 210)]
    off = [2, 3, 5, 7, 11]
    assert presentation_rank(m, on) == math.comb(5, 2) - 3
    assert presentation_rank(m, off) == math.comb(5, 2)
    assert membership(m, on, 3).delta
    assert not membership(m, on, 4).delta
    assert not membership(m, off, 1).delta


def test_generic_lines_have_empty_depth_one_locus():
    m = generic_monodromy(3)
    assert presentation_rank(m, [2, 3, 5]) == 3
    assert not membership(m, [2, 3, 5], 1).delta


def test_membership_validates_inputs():
    m = pencil_monodromy(3)
    with pytest.raises(ValidationError):
        membership(m, [1, 1, 1], 0)
    with pytest.raises(ValidationError):
        membership(m, [0, 1, 1], 1)
    with pytest.raises(ValidationError):
        membership(m, [1, 1], 1)


def test_diamond_order_two_point_sits_at_depth_two():
    m = load_monodromy("diamond_monodromy")
    point = [Fraction(-1), 1, 1, -1, -1, 1, -1]
    assert membership(m, lift_point(m.lift, point), 1).delta
    assert membership(m, lift_point(m.lift, point), 2).delta


def test_diamond_component_samples_sit_at_depth_one_only():
    m = load_monodromy("diamond_monodromy")
    census = enumerate_first_resonance(lattice_from_central3(gen_family("diamond")))
    comp = census.nonlocals[0]
    point = [
        Fraction(2) ** comp.basis[0][i] * Fraction(3) ** comp.basis[1][i]
        for i in range(7)
    ]
    assert membership(m, lift_point(m.lift, point), 1).delta
    assert not membership(m, lift_point(m.lift, point), 2).delta


# ---------------------------------------------------------------------------
# the relator-Jacobian route
# ---------------------------------------------------------------------------


def test_relator_jacobian_shape_and_identity_rank():
    m = load_monodromy("braid4_affine_monodromy")
    rows = relator_jacobian(m, point=[1] * 5)
    assert len(rows) == m.b2
    assert all(len(row) == 5 for row in rows)
    assert relator_rank(m, [Fraction(1)] * 5) == 0


def test_relator_route_limit_value():
    assert relator_route_limit(pencil_monodromy(4)) == 3
    assert relator_route_limit(load_monodromy("braid4_affine_monodromy")) == 4
    # min(n - 1, C(n,2) - b2) = min(5, 8): at k = n = 6 the relator
    # criterion fails at the point 1, where the presentation's holds
    assert relator_route_limit(load_monodromy("diamond_monodromy")) == 5


def test_the_identity_is_consistent_at_every_depth_of_the_relator_window():
    """At the point 1 the relator Jacobian vanishes and the presentation
    has rank b2, so both criteria hold at every depth up to
    `relator_route_limit`, on every packaged fixture and on pencil, generic
    and grid inputs; beyond it `partial2` is not decided."""
    inputs = [load_monodromy("diamond_monodromy"), load_monodromy("braid4_affine_monodromy")]
    inputs += [pencil_monodromy(n) for n in range(2, 7)]
    inputs += [generic_monodromy(n) for n in range(2, 6)]
    inputs += [grid_monodromy(a, b) for a, b in ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3))]
    for m in inputs:
        limit = relator_route_limit(m)
        for k in range(1, limit + 2):
            got = membership(m, [1] * m.n, k)
            assert got.rank == m.b2
            if k <= limit:
                assert got.delta and got.partial2, (m, k)
            else:
                assert got.partial2 is None


def test_both_membership_routes_agree_within_the_valid_depth_window():
    cases = [
        (pencil_monodromy(4), [[2, 3, 5, Fraction(1, 30)], [2, 3, 5, 7]]),
        (
            load_monodromy("braid4_affine_monodromy"),
            [[2, 3, 5, 7, 11], [Fraction(1, 2), 3, 1, 5, 7]],
        ),
    ]
    m = load_monodromy("braid4_affine_monodromy")
    census = enumerate_first_resonance(gen_family("braid", ell=4))
    comp = census.nonlocals[0]
    sample = [
        Fraction(2) ** comp.basis[0][i] * Fraction(3) ** comp.basis[1][i]
        for i in range(6)
    ]
    cases[1][1].append(lift_point(m.lift, sample))
    for m, points in cases:
        for point in points:
            for k in range(1, relator_route_limit(m) + 1):
                got = membership(m, point, k)
                assert got.delta == got.partial2


# ---------------------------------------------------------------------------
# the certified modular route
# ---------------------------------------------------------------------------

GATE_INPUTS = {
    "diamond": lambda: load_monodromy("diamond_monodromy"),
    "braid4_affine": lambda: load_monodromy("braid4_affine_monodromy"),
    "pencil6": lambda: pencil_monodromy(6),
    "grid33": lambda: grid_monodromy(3, 3),
}


@cache
def _gate_input(name):
    """The monodromy input and the component bases of its coned lattice."""
    m = GATE_INPUTS[name]()
    comps = enumerate_first_resonance(cone_lattice(m.lattice())).components
    return m, [comp.basis for comp in comps]


def _gate_point(name, on, order, seed, scaled=False, factor=1):
    """A seeded point of the input's torus (strand coordinates of a cone
    point), on a component subtorus when `on`, else drawn freely.  Order
    None gives rational coordinates.  Order d gives a unit point: powers
    of a primitive d-th root of unity (+-1 at d = 2), and for odd d >= 5
    one parameter may carry the cyclotomic unit 1 + zeta_d, whose
    conjugates are not all on the unit circle.  `scaled` multiplies each
    parameter of order d by a rational a/b, which makes a non-unit point
    of order d, (a/b) * zeta_d^e on a component.  `factor` multiplies the
    first parameter, which keeps the point on its component."""
    m, bases = _gate_input(name)
    rng = random.Random(seed)
    if on:
        rows = rng.choice(bases)
    else:
        rows = [[int(i == j) for i in range(m.n + 1)] for j in range(m.n)]

    def rational():
        return ExactScalar.from_rational(Fraction(rng.randint(1, 9), rng.randint(1, 9)))

    if order is None:
        params = [rational() for _ in rows]
    else:
        params = [root_of_unity(order, rng.randrange(order)) for _ in rows]
        if order % 2 and order >= 5 and rng.random() < 0.5:
            params[0] = params[0] * (1 + root_of_unity(order))
        if scaled:
            params = [u * rational() for u in params]
    params[0] = params[0] * Fraction(factor)
    return [
        math.prod((u ** row[i] for u, row in zip(params, rows)), start=ExactScalar.one())
        for i in range(m.n)
    ]


def _skipping_factor(point, floor, count):
    """The product of the first |count| primes = 1 (mod the point's order)
    above the floor, inverted when count < 0: a factor that makes those
    primes divide a coordinate's numerator or denominator."""
    order, primes = point_order(point), []
    for _ in range(abs(count)):
        primes.append(modular_prime(order, primes[-1] if primes else floor))
    return Fraction(math.prod(primes)) ** (1 if count > 0 else -1)


def _is_unit_point(point):
    return all(
        c.denominator == 1 for x in point for c in x.coeffs + x.inverse().coeffs
    )


def _point_kind(point):
    if _is_unit_point(point):
        return "unit"
    return "rational" if point_order(point) == 1 else "non-unit cyclotomic"


def _exact_ranks(m, point, k):
    """The exact presentation rows and rank, and the relator rows and rank
    (None beyond the relator window)."""
    rows = presentation_matrix(m, point)
    out = [(rows, ExactMatrix(rows, math.comb(m.n, 2)).rank())]
    if k <= relator_route_limit(m):
        rows = relator_jacobian(m, point)
        out.append((rows, ExactMatrix(rows, m.n).rank()))
    return out


def _exact_membership(m, point, k):
    ranks = [rank for _, rank in _exact_ranks(m, point, k)] + [None]
    partial2 = None if ranks[1] is None else ranks[1] <= m.n - k - 1
    return ranks[0], ranks[0] <= math.comb(m.n, 2) - k, partial2


def _row_norms(rows):
    """The squared norms of majorant rows, each row r cleared by L_r, the
    lcm of its entries' denominators: an entry (bound B, denominator d)
    becomes B * L_r / d."""
    norms = []
    for row in rows:
        scale = math.lcm(*(e.den for e in row))
        norms.append(sum((e.bound * scale // e.den) ** 2 for e in row))
    return norms


def _check_certificate(route, point, floor, rows, rank, ncols, threshold, norms, seen):
    """A criterion's certificate against the exact matrix (rows, rank) and
    the cleared majorant row norms^2.  Let p_1, p_2, ... be the successive
    primes that apply, from the floor: the primes p = 1 (mod the point's
    order M) above it at which every coordinate maps to a unit (p divides
    no denominator, and no coordinate maps to 0).  Let s_i be the largest
    rank mod p_1..p_i, deficient mean neither full nor above threshold,
    and bound(s) = (product of the s + 1 largest norms)^phi(M).

    The route names p_1..p_j; it goes on exactly while s_i is deficient and
    (p_1 * ... * p_i)^2 <= bound(s_i), and its s_j is the exact rank or
    above threshold."""
    order = point_order(point)
    full = min(len(rows), ncols)
    phi = euler_phi(order)
    ordered = sorted(norms, reverse=True)
    primes = [int(p) for p in route.removeprefix("mod ").split("*")]
    fields, candidate = [], None
    while len(fields) < len(primes):
        candidate = prime_field(order, candidate.p if candidate else floor)
        images = [candidate.reduce(c) for c in point]
        if all(v is not None and math.gcd(v, candidate.p) == 1 for v in images):
            fields.append(candidate)
        else:
            seen["a prime skipped"] = True
    assert primes == [f.p for f in fields]
    s = 0
    for i, f in enumerate(fields):
        s = max(s, modp_rank([[f.reduce(e) for e in row] for row in rows], ncols, f.p))
        if i == 0 and s < rank:
            seen["rank rose past the first prime"] = True
        bound = math.prod(ordered[: s + 1]) ** phi
        undecided = s < full and s <= threshold and math.prod(primes[: i + 1]) ** 2 <= bound
        assert undecided == (i < len(primes) - 1)
    assert s == rank or s > threshold
    if len(primes) > 1:
        seen[f"several primes at a {_point_kind(point)} point"] = True


def test_certified_route_agrees_with_the_exact_route():
    """Random rational points, unit points of order 1..12 and non-unit
    points (a/b) * zeta_d^e of order d <= 12, on and off the components,
    at depths 1..3, with the default prime and with small primes (above
    10, 30 or 60) at which ranks drop: every certified rank and verdict
    equals the exact one, every certificate is checked by
    `_check_certificate` against row norms cleared here, a rational point,
    a unit point and a non-unit cyclotomic point each needed several
    primes, and at least one point had a rank mod p_1 below the true
    rank.  `skip` = +-1 or +-2 multiplies the first parameter by
    (p_1 ... p_|skip|)^(+-1), the first primes = 1 (mod M) above the floor,
    so that they divide a coordinate's numerator or denominator and do not
    apply; some certificate skipped a prime."""
    seen = {}

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(sorted(GATE_INPUTS)),
        st.booleans(),
        st.sampled_from([None, None, None] + list(range(1, 13))),
        st.booleans(),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=1, max_value=3),
        st.sampled_from([10, 30, 60, MODULAR_PRIME_FLOOR]),
        st.sampled_from([0, 0, 0, 0, 1, -1, 2, -2]),
    )
    # the point (3/2, 5/2, 1, 8/7, 2, 8) is off the pencil's component, but
    # its coordinate product 480/7 is 1 modulo 11, so its ranks drop mod 11
    @example("pencil6", False, None, False, 1, 1, 10, 0)
    # at this order-5 point on a component the ranks mod 11 are 9 (delta,
    # true rank 14) and 0 (relator, true rank 4); later primes raise both
    @example("diamond", True, 5, False, 0, 1, 10, 0)
    @example("diamond", True, None, False, 0, 1, MODULAR_PRIME_FLOOR, 0)
    @example("diamond", True, 12, True, 0, 1, MODULAR_PRIME_FLOOR, 0)
    # primes that do not apply, off and on the locus, at both kinds of floor
    @example("diamond", True, 5, False, 0, 1, 10, 1)
    @example("diamond", True, None, False, 0, 1, 10, -2)
    @example("pencil6", False, 3, False, 1, 1, MODULAR_PRIME_FLOOR, -1)
    @example("diamond", True, None, False, 0, 1, MODULAR_PRIME_FLOOR, 2)
    def check(name, on, order, scaled, seed, k, floor, skip):
        m, _ = _gate_input(name)
        point = _gate_point(name, on, order, seed, scaled)
        if skip:
            factor = _skipping_factor(point, floor, skip)
            point = _gate_point(name, on, order, seed, scaled, factor)
        exact = _exact_ranks(m, point, k)
        rank, delta, partial2 = _exact_membership(m, point, k)
        got = membership(m, point, k, prime_floor=floor)
        assert (got.rank, got.delta, got.partial2) == (rank, delta, partial2)
        majorant = _Ring.majorant(point)
        routes = [
            (got.certificate["delta"], _presentation_rows, math.comb(m.n, 2), math.comb(m.n, 2)),
            (got.certificate["partial2"], _relator_rows, m.n, m.n - k - 1),
        ]
        if partial2 is None:
            assert got.certificate["partial2"] is None
        for (route, build, ncols, threshold), (rows, exact_rank) in zip(routes, exact):
            norms = _row_norms(build(m, majorant))
            _check_certificate(route, point, floor, rows, exact_rank, ncols, threshold, norms, seen)

    check()
    assert seen == {
        "several primes at a rational point": True,
        "several primes at a unit point": True,
        "several primes at a non-unit cyclotomic point": True,
        "rank rose past the first prime": True,
        "a prime skipped": True,
    }


def test_certified_rank_takes_the_maximum_and_stops_at_the_norm_bound():
    """The prime loop on scripted ranks of a 3x3 matrix at a point of order
    5 (phi = 4, primes 11, 31, 41, 61 above 10), 1, 2, 1, 3 mod those
    primes, whose majorant rows have norm^2 3: the rank is the maximum over
    the primes taken, and primes are taken until their product squared
    passes the product of the rank + 1 largest norms^2, to the power phi.
    After 11 the rank is 1 and 11^2 <= 9^4; after 31 it is 2 and
    (11*31)^2 <= 27^4; after 41 the product passes 27^4.  A threshold of 1
    stops the loop as soon as a rank above it appears."""
    residues = _Residues(2, [root_of_unity(5)] * 2, 10)
    script = {11: 1, 31: 2, 41: 1, 61: 3}

    def build(_m, ring):
        assert ring is residues.majorant
        return [[_Majorant(1, 1)] * 3 for _ in range(3)]

    def ranks(start, stop):
        return [script[residues.field(i).p] for i in range(start, stop)]

    assert _certified_rank(None, residues, build, ranks, 3, 3) == (2, "mod 11*31*41")
    assert _certified_rank(None, residues, build, ranks, 3, 1) == (2, "mod 11*31")


def test_certified_rank_walks_each_batch_in_prime_order():
    """Scripted ranks of a 4 x 4 matrix, drawn for each prime, at a point
    of order 5 above the floor 10 (primes 11, 31, 41, 61, ...), with
    majorant bounds that make ranges of several primes: the certified rank
    and certificate equal those of the reference loop, which builds
    diagonal matrices of those ranks for each batch and ranks each prime
    of a batch by its own elimination, and some range walked primes of
    different ranks."""
    primes = [modular_prime(5, 10)]
    while len(primes) < 400:
        primes.append(modular_prime(5, primes[-1]))
    seen = set()

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=4), min_size=400, max_size=400),
        st.integers(min_value=1, max_value=10**4),
        st.integers(min_value=0, max_value=4),
    )
    def check(script, bound, threshold):
        def build(_m, ring):
            if ring.modulus is None:
                return [[_Majorant(bound, 1)] * 4 for _ in range(4)]
            n = ring.modulus
            batch = [i for i, p in enumerate(primes) if n % p == 0]
            # diagonal entry j is 1 mod p_i when j < script[i], else 0
            units = {i: n // primes[i] * pow(n // primes[i], -1, primes[i]) for i in batch}
            diagonal = [sum(units[i] for i in batch if j < script[i]) % n for j in range(4)]
            return [[diagonal[j] * (j == c) for c in range(4)] for j in range(4)]

        def ranks(start, stop):
            if len(set(script[start:stop])) > 1:
                seen.add("a batch of primes of different ranks")
            return script[start:stop]

        point = [root_of_unity(5)] * 2
        got = _certified_rank(None, _Residues(2, point, 10), build, ranks, 4, threshold)
        want = reference_certified_rank(None, _Residues(2, point, 10), build, 4, threshold)
        assert got == want

    check()
    assert seen == {"a batch of primes of different ranks"}


def _sequential_rank(m, residues, build, ncols, threshold):
    """The prime loop with one build per prime: after p_1, take the next
    prime while the rank is neither full nor above threshold and the
    primes' product squared is at most H^phi(M)."""
    ring = residues.ring(0, 1)
    rows = build(m, ring)
    full = min(len(rows), ncols)
    primes = [ring.modulus]
    rank = modp_rank(rows, ncols, primes[0])
    if rank < full and rank <= threshold:
        norms = sorted(_row_norms(build(m, residues.majorant)), reverse=True)
        phi = euler_phi(residues.order)
        while (
            rank < full
            and rank <= threshold
            and math.prod(primes) ** 2 <= math.prod(norms[: rank + 1]) ** phi
        ):
            ring = residues.ring(len(primes), len(primes) + 1)
            rank = max(rank, modp_rank(build(m, ring), ncols, ring.modulus))
            primes.append(ring.modulus)
    return rank, "mod " + "*".join(map(str, primes))


def test_batched_primes_give_the_certificates_of_one_build_per_prime():
    """At unit points of order 1..12 on the gate inputs, with the default
    floor and with a floor of 10 (where ranks mod small primes drop), each
    criterion's certified rank and primes, walked over ranks that
    `_certified_rank` asks for in ranges of primes, and so `membership`'s
    rank, verdicts and certificates, equal those of the loop that builds
    once per prime.  Among the queries, the primes after p_1 were asked for
    together, a rank rose within a range so that another range followed,
    and a range was cut short at the prime where the loop stops."""
    seen = set()

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(sorted(GATE_INPUTS)),
        st.booleans(),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=1, max_value=2),
        st.sampled_from([10, MODULAR_PRIME_FLOOR]),
    )
    @example("diamond", True, 3, 0, 1, MODULAR_PRIME_FLOOR)
    # mod 11 the ranks are 9 (delta, true rank 14) and 0 (relator, true 4)
    @example("diamond", True, 5, 0, 2, 10)
    # off the locus the rank mod 31 is full and ends a batch built at the
    # rank mod 11
    @example("braid4_affine", False, 5, 27, 1, 10)
    def check(name, on, order, seed, k, floor):
        m, _ = _gate_input(name)
        point = _gate_point(name, on, order, seed)
        ncols = math.comb(m.n, 2)
        criteria = [(_presentation_rows, ncols, ncols)]
        if k <= relator_route_limit(m):
            criteria.append((_relator_rows, m.n, m.n - k - 1))
        routes = []
        for build, width, threshold in criteria:
            want = _sequential_rank(m, _Residues(m.n, point, floor), build, width, threshold)
            residues, batches = _Residues(m.n, point, floor), []

            def ranks(start, stop):
                batches.append((start, stop))
                return [
                    modp_rank(build(m, residues.ring(i, i + 1)), width, residues.field(i).p)
                    for i in range(start, stop)
                ]

            full = min(len(build(m, residues.ring(0, 1))), width)
            got = _certified_rank(m, residues, build, ranks, full, threshold)
            assert got == want
            if any(stop - start > 1 for start, stop in batches):
                seen.add("several primes in one build")
            if any(start > 1 for start, _ in batches):
                seen.add("another batch after a rank rose")
            if batches and batches[-1][1] > got[1].count("*") + 1:
                seen.add("a batch cut short")
            routes.append(want)
        got = membership(m, point, k, prime_floor=floor)
        rank = routes[0][0]
        partial2 = routes[1][0] <= m.n - k - 1 if len(routes) > 1 else None
        assert (got.rank, got.delta, got.partial2) == (rank, rank <= ncols - k, partial2)
        routes.append((None, None))
        assert got.certificate == {"delta": routes[0][1], "partial2": routes[1][1]}

    check()
    assert seen == {
        "several primes in one build",
        "another batch after a rank rose",
        "a batch cut short",
    }


def test_membership_matches_the_loop_with_one_elimination_per_prime(monkeypatch):
    """On seeded points of the four benchmark member inputs, on a component
    and off the components, rational, of unit orders 4 and 12 and of the
    non-unit order 12 ((a/b) * zeta_12^e), at depths 1 and 2, with the
    default prime floor and a floor of 10: `membership`, which ranks only
    the relator rows, each batch of primes in one elimination, gives the
    rank, verdicts and certificate strings of the reference loop that ranks
    each criterion's rows at each prime by itself.  At the floor of 10 some
    batch split at a lead that one of its primes divides (the relator batch
    of the last query, off pencil(6)'s component at a non-unit point of
    order 12), and some certificate needed several primes."""
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
    kinds = [(None, False), (4, False), (12, False), (12, True)]
    queries = [
        (name, on, order, scaled, floor, seed, 1 + seed % 2)
        for seed, (name, on, (order, scaled), floor) in enumerate(
            itertools.product(
                sorted(GATE_INPUTS), (True, False), kinds, (MODULAR_PRIME_FLOOR, 10)
            )
        )
    ]
    queries.append(("pencil6", False, 12, True, 10, 0, 1))
    for name, on, order, scaled, floor, seed, k in queries:
        m, _ = _gate_input(name)
        point = _gate_point(name, on, order, seed, scaled)
        got = membership(m, point, k, prime_floor=floor)
        want = reference_membership(m, point, k, prime_floor=floor)
        assert got == want, (name, on, order, scaled, floor, seed)
        if "*" in got.certificate["delta"]:
            seen.add("several primes")
    assert seen == {"a batch split", "several primes"}


def test_presentation_ranks_mod_p_follow_from_the_relator_ranks():
    """At each prime p that applies, with t' the point's image in F_p, the
    presentation rows have rank C(n-1,2) plus the relator rows' rank when
    t' != 1 (the Koszul complex on the t'_j - 1 is exact) and b2 when
    t' = 1 (d_3 vanishes), on seeded points of the gate inputs at the
    default prime floor and at 10, and at the point whose coordinates are
    all 1 + p_1, p_1 the first prime that applies to it: a point other than
    1 whose image at p_1 is 1.  On each point `membership`, which reads
    both criteria from the relator ranks, equals the reference, which ranks
    the presentation rows themselves."""
    seen = set()

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(sorted(GATE_INPUTS)),
        st.booleans(),
        st.sampled_from([None, None] + list(range(1, 13))),
        st.booleans(),
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from([10, MODULAR_PRIME_FLOOR]),
        st.booleans(),
        st.integers(min_value=1, max_value=2),
    )
    @example("diamond", True, None, False, 0, 10, True, 1)
    @example("grid33", False, None, False, 0, MODULAR_PRIME_FLOOR, True, 2)
    @example("pencil6", True, 12, True, 0, 10, False, 1)
    def check(name, on, order, scaled, seed, floor, shifted, k):
        m, _ = _gate_input(name)
        if shifted:
            point = [1 + modular_prime(1, floor)] * m.n
        else:
            point = _gate_point(name, on, order, seed, scaled)
        residues = _Residues(m.n, point, floor)
        for i in range(4):
            ring, p = residues.ring(i, i + 1), residues.field(i).p
            relator = modp_rank(_relator_rows(m, ring), m.n, p)
            presentation = modp_rank(_presentation_rows(m, ring), math.comb(m.n, 2), p)
            if all(v == 1 for v in residues.images[i]):
                assert (presentation, relator) == (m.b2, 0)
                seen.add("t' = 1 at a point other than 1")
            else:
                assert presentation == math.comb(m.n - 1, 2) + relator
                seen.add("t' != 1")
        got = membership(m, point, k, prime_floor=floor)
        assert got == reference_membership(m, point, k, prime_floor=floor)

    check()
    assert seen == {"t' = 1 at a point other than 1", "t' != 1"}


def test_membership_ranks_each_prime_once_and_builds_presentations_on_majorants(
    monkeypatch,
):
    """`membership` builds the presentation rows only on the majorant ring,
    and eliminates each prime's relator rows once per query for both
    criteria: the `modp_ranks` calls rank relator rows (n columns) at
    distinct primes, in order, that begin with those of the longer
    certificate.  Off the locus (decided at p_1) no majorant is built."""
    built, ranked = [], []
    presentation_rows, ranks = alexander._presentation_rows, alexander.modp_ranks

    def build(m, ring):
        built.append(ring)
        return presentation_rows(m, ring)

    def rank(rows, ncols, primes):
        ranked.append((ncols, list(primes)))
        return ranks(rows, ncols, primes)

    monkeypatch.setattr(alexander, "_presentation_rows", build)
    monkeypatch.setattr(alexander, "modp_ranks", rank)
    queries = [
        ("diamond", True, None, False, MODULAR_PRIME_FLOOR),
        ("diamond", True, 5, False, 10),
        ("pencil6", True, 12, True, MODULAR_PRIME_FLOOR),
        ("grid33", True, 4, False, 10),
        ("braid4_affine", False, None, False, MODULAR_PRIME_FLOOR),
    ]
    for name, on, order, scaled, floor in queries:
        m, _ = _gate_input(name)
        point = _gate_point(name, on, order, 0, scaled)
        want = reference_membership(m, point, 1, prime_floor=floor)
        built.clear()
        ranked.clear()
        got = membership(m, point, 1, prime_floor=floor)
        assert got == want
        primes = [p for _, batch in ranked for p in batch]
        longest = max(
            (route.removeprefix("mod ").split("*") for route in got.certificate.values()),
            key=len,
        )
        assert primes == sorted(set(primes))
        assert primes[: len(longest)] == [int(p) for p in longest]
        assert all(ncols == m.n for ncols, _ in ranked)
        assert all(ring is built[0] and ring.modulus is None for ring in built)
        assert all(isinstance(ring.t(0), _Majorant) for ring in built)
        assert len(built) == (1 if len(longest) > 1 else 0), name


def test_majorants_bound_every_embedding():
    """At rational points, unit points of order 1..12 and non-unit points
    (a/b) * zeta_d^e, the majorant build gives every entry e of the
    presentation and the relator Jacobian a denominator d with d * e in
    Z[zeta_M] and a bound B with |sigma(e)| <= B / d at every embedding
    zeta_M -> exp(2 pi i j / M), gcd(j, M) = 1 (checked in floating point
    with a relative margin of 1e-9).  Coordinates get the exact pairs
    ((bound, den) of c, of 1/c) below."""

    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from(sorted(GATE_INPUTS)),
        st.booleans(),
        st.sampled_from([None] + list(range(1, 13))),
        st.booleans(),
        st.integers(min_value=0, max_value=10**6),
    )
    @example("diamond", True, None, False, 0)
    @example("diamond", True, 12, True, 0)
    def check(name, on, order, scaled, seed):
        m, _ = _gate_input(name)
        point = _gate_point(name, on, order, seed, scaled)
        majorant = _Ring.majorant(point)
        order = point_order(point)
        embeddings = [j for j in range(1, order + 1) if math.gcd(j, order) == 1]
        for build, exact in (
            (_presentation_rows, presentation_matrix),
            (_relator_rows, relator_jacobian),
        ):
            for row, bounds in zip(exact(m, point), build(m, majorant)):
                for e, b in zip(row, bounds):
                    assert all((c * b.den).denominator == 1 for c in e.coeffs), (e, b.den)
                    for a in embeddings:
                        z = cmath.exp(2j * cmath.pi * a / e.order)
                        value = abs(sum(float(c) * z**i for i, c in enumerate(e.coeffs)))
                        assert value <= b.bound / b.den * (1 + 1e-9), (e, b.bound, b.den, a)

    check()
    assert _coordinate_bounds(root_of_unity(11, 10)) == ((1, 1), (1, 1))
    assert _coordinate_bounds(ExactScalar.from_rational(-1)) == ((1, 1), (1, 1))
    # 1/(1 + z5) = -z5 - z5^3
    assert _coordinate_bounds(1 + root_of_unity(5)) == ((2, 1), (2, 1))
    assert _coordinate_bounds(ExactScalar.from_rational(2)) == ((2, 1), (1, 2))
    assert _coordinate_bounds(ExactScalar.from_rational(Fraction(1, 2))) == ((1, 2), (2, 1))
    # 2 + z3 has norm 3, and 1/(2 + z3) = (1 - z3)/3
    assert _coordinate_bounds(2 + root_of_unity(3)) == ((3, 1), (2, 3))
    # (3 + 4i)/5 has absolute value 1 at both embeddings but is no
    # algebraic integer: c and 1/c = conj(c) keep the denominator 5
    c = ExactScalar.from_coeffs(4, [Fraction(3, 5), Fraction(4, 5)])
    assert _coordinate_bounds(c) == ((5, 5), (5, 5))


def test_relator_certificate_needs_no_more_primes_than_the_presentation():
    """The relator rows are the chain-map rows times the degree-two
    differential, so their majorants stay as tight as the presentation's:
    at a non-unit point (a/b) * zeta_12^e on pencil(6)'s component,
    pushing unit rows through the whole conjugated twist gave `partial2`
    57 primes against 20 for `delta`."""
    m, _ = _gate_input("pencil6")
    point = _gate_point("pencil6", True, 12, 0, scaled=True)
    got = membership(m, point, 1)
    primes = {name: route.count("*") + 1 for name, route in got.certificate.items()}
    assert primes["delta"] == 20
    assert primes["partial2"] <= primes["delta"]
    assert (got.rank, got.delta, got.partial2) == _exact_membership(m, point, 1)


def test_both_criteria_share_one_push_per_generator_and_ring(monkeypatch):
    """`membership` pushes each generator's vectors through its inverse
    conjugator and its conjugator once per evaluation ring, and both
    criteria are built from them: at a point off the locus (decided at
    p_1) and at one on a component (several primes and the majorant
    ring)."""
    pushes = {}
    push = alexander._push

    def spy(braid, vectors, ring):
        pushes.setdefault(ring, []).append(braid)
        return push(braid, vectors, ring)

    monkeypatch.setattr(alexander, "_push", spy)
    m, _ = _gate_input("diamond")
    want = sorted(
        braid
        for gen in m.generators
        if gen.delta
        for braid in (invert_braid(gen.delta), gen.delta)
    )
    modular = f"mod {modular_prime(1)}"
    got = membership(m, [2, 3, 5, 7, 11, 13], 1)
    assert got.certificate == {"delta": modular, "partial2": modular}
    assert [sorted(braids) for braids in pushes.values()] == [want]
    pushes.clear()
    got = membership(m, _gate_point("diamond", True, None, False, 0), 1)
    assert all("*" in route for route in got.certificate.values())
    assert len(pushes) > 2
    assert all(sorted(braids) == want for braids in pushes.values())


def test_certified_route_skips_primes_that_do_not_apply():
    """At the least primes above 10 (11, 13, 17, ... for rational points),
    a prime that divides a coordinate's denominator or maps a coordinate
    to 0 is skipped for the next prime that applies: off the locus a
    coordinate 1/11 or 11/2 is decided mod 13; on the pencil's component
    (coordinate product 1), where the rank mod 11 is deficient and more
    primes are needed, a coordinate with 13 in its denominator drops 13
    from the primes, while one with 7 there keeps 11, 13, ...  At order 3
    the primes = 1 (mod 3) above 10 are 13, 19, 31, ..., and a coordinate
    13 * zeta_3 moves them to 19, 31, ..."""
    m = pencil_monodromy(4)
    criteria = [(_presentation_rows, 6, 6), (_relator_rows, 4, 2)]
    z = root_of_unity(3)
    cases = [
        ([2, 3, 5, Fraction(1, 11)], "mod 13", "mod 13"),
        ([Fraction(11, 2), 3, 5, 7], "mod 13", "mod 13"),
        (
            [Fraction(2, 13), Fraction(13, 2), 1, 1],
            "mod 11*17*19*23*29*31*37*41",
            "mod 11*17*19*23*29",
        ),
        (
            [Fraction(2, 7), Fraction(7, 2), 1, 1],
            "mod 11*13*17*19*23*29*31",
            "mod 11*13*17*19*23",
        ),
        ([z * 13, z.inverse(), 1, 1], "mod 19", "mod 19"),
        (
            [z * 13, z.inverse() / 13, 1, 1],
            "mod 19*31*37*43*61*67*73*79*97*103*109*127",
            "mod 19*31*37*43*61*67*73*79*97",
        ),
    ]
    for point, delta, partial2 in cases:
        got = membership(m, point, 1, prime_floor=10)
        assert got.certificate == {"delta": delta, "partial2": partial2}
        assert (got.rank, got.delta, got.partial2) == _exact_membership(m, point, 1)
        point = [_scalar(c) for c in point]
        majorant = _Ring.majorant(point)
        seen = {}
        for (build, ncols, threshold), (rows, rank), route in zip(
            criteria, _exact_ranks(m, point, 1), (delta, partial2)
        ):
            norms = _row_norms(build(m, majorant))
            _check_certificate(route, point, 10, rows, rank, ncols, threshold, norms, seen)
        assert ("a prime skipped" in seen) == (not delta.startswith("mod 11*13"))
    got = membership(m, [2, 3, 5, 7], 1)
    modular = f"mod {modular_prime(1)}"
    assert got.certificate == {"delta": modular, "partial2": modular}
    assert (got.rank, got.delta, got.partial2) == (6, False, False)


def test_points_above_the_order_cap_are_refused():
    m = load_monodromy("diamond_monodromy")
    assert point_order([root_of_unity(4), root_of_unity(6), Fraction(1, 2)]) == 12
    big = root_of_unity(POINT_ORDER_CAP + 1)
    with pytest.raises(CapExceeded, match="order"):
        membership(m, [big] + [1] * 5, 1)
    with pytest.raises(CapExceeded, match="order"):
        membership(m, [1] * 5 + [big], 2)
    with pytest.raises(CapExceeded, match="order"):
        lift_point(m.lift, [big, big.inverse()] + [1] * 5)
    with pytest.raises(CapExceeded, match="order"):
        presentation_rank(
            m, [root_of_unity(8), root_of_unity(POINT_ORDER_CAP - 1)] + [1] * 4
        )


def _long_conjugated_double_point():
    """One double point (3, 7) on 12 strands conjugated by
    (1,12)^25 (2,11)^25, at the order-120 point (2/3) * zeta_120^(7+i): its
    certificate needs 1654 primes."""
    m = MonodromyInput(12, (MonodromyGen((3, 7), ((1, 12, 25), (2, 11, 25))),))
    point = [Fraction(2, 3) * root_of_unity(120, 7 + i) for i in range(12)]
    return m, point


def test_a_certificate_predicted_past_the_prime_cap_is_refused_first(monkeypatch):
    """The query of `_long_conjugated_double_point` is refused before any
    prime after the first is built, in well under a second."""
    rings = []
    ring = _Residues.ring

    def spy(self, start, stop):
        rings.append((start, stop))
        return ring(self, start, stop)

    monkeypatch.setattr(_Residues, "ring", spy)
    m, point = _long_conjugated_double_point()
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match=f"limited to {CERTIFICATE_PRIME_CAP} primes"):
        membership(m, point, 1)
    assert time.perf_counter() - start < 1.0
    assert rings == [(0, 1)]


def test_the_prime_cap_is_checked_each_time_the_bound_is_set(monkeypatch):
    """At an order-5 point on a component of diamond, above the floor 10,
    the presentation rank mod 11 is 9 and later primes raise it to 14, so
    the bound, and the primes it predicts, rise during the walk (at a depth
    beyond the relator window, so that only this criterion runs).  Each prediction is
    ceil(bits of the bound / (2 (bits of p_1 - 1))), at least the primes the
    rule takes at that bound.  A cap below the first prediction refuses
    before any prime after p_1 is built, a cap below the last one refuses
    after some were walked, and a cap at the last one changes nothing."""
    m, _ = _gate_input("diamond")
    point, k = _gate_point("diamond", True, 5, 0), relator_route_limit(m) + 1
    bounds, rings = [], []
    checked, ring = alexander._checked_bound, _Residues.ring

    def spy_bound(norms, phi, p):
        bounds.append((math.prod(norms) ** phi, p))
        return checked(norms, phi, p)

    def spy_ring(self, start, stop):
        rings.append(start)
        return ring(self, start, stop)

    monkeypatch.setattr(alexander, "_checked_bound", spy_bound)
    monkeypatch.setattr(_Residues, "ring", spy_ring)
    want = membership(m, point, k, prime_floor=10)
    predicted = [-(-b.bit_length() // (2 * (p.bit_length() - 1))) for b, p in bounds]
    assert predicted == sorted(predicted)
    assert predicted[0] < predicted[-1] < CERTIFICATE_PRIME_CAP
    assert want.certificate["delta"].count("*") + 1 <= predicted[-1]
    for cap, walked in ((predicted[0] - 1, False), (predicted[-1] - 1, True)):
        monkeypatch.setattr(alexander, "CERTIFICATE_PRIME_CAP", cap)
        rings.clear()
        with pytest.raises(CapExceeded, match=f"limited to {cap} primes"):
            membership(m, point, k, prime_floor=10)
        assert (max(rings) > 0) == walked
    monkeypatch.setattr(alexander, "CERTIFICATE_PRIME_CAP", predicted[-1])
    assert membership(m, point, k, prime_floor=10) == want


# ---------------------------------------------------------------------------
# the stacked chain map at the identity character
# ---------------------------------------------------------------------------


def test_identity_character_chain_map_rank_is_second_betti_number():
    cases = [
        gen_family("braid", ell=4),
        gen_family("pencil", n=4),
        lattice_from_central3(gen_family("diamond")),
        *gen_family("falk_pair"),
    ]
    for lat in cases:
        assert phi_one_rank(lat) == b2(lat)


def test_identity_character_chain_map_rows_sum_to_zero_columnwise():
    lat = gen_family("braid", ell=4)
    rows = phi_one_matrix(lat)
    npairs = math.comb(lat.n, 2)
    assert all(len(row) == npairs for row in rows)


# ---------------------------------------------------------------------------
# Fitting ideals
# ---------------------------------------------------------------------------


def test_free_group_fitting_generators_are_the_degree_shifts():
    rows = resolution_differential(3, 3)
    got = fitting_generators(rows, 3)
    t = [LaurentPoly.variable(i, 3) for i in range(3)]
    assert len(got) == 3
    for want in (t[0] - 1, t[1] - 1, t[2] - 1):
        assert any(g == want or g == -want for g in got)


def test_free_group_lower_fitting_ideals_vanish():
    rows = resolution_differential(3, 3)
    assert fitting_generators(rows, 2) == []
    assert fitting_generators(rows, 1) == []


def test_fitting_edge_conventions():
    one = LaurentPoly.one(2)
    zero = LaurentPoly.zero(2)
    identity = [[one, zero], [zero, one]]
    assert fitting_generators(identity, 1) == [one]
    assert fitting_generators(identity, 3) == [one]
    assert fitting_generators(identity, 0) == []
    t1 = LaurentPoly.variable(0, 2)
    assert fitting_generators([[t1 - 1], [t1 - 1]], 1) == [t1 - 1]
    with pytest.raises(ValidationError):
        fitting_generators([], 1)


def test_fitting_on_evaluated_entries():
    a = ExactScalar.from_rational(Fraction(2))
    b = ExactScalar.from_rational(Fraction(3))
    zero = ExactScalar.zero()
    got = fitting_generators([[a, zero], [zero, b]], 1)
    assert got == [ExactScalar.from_rational(Fraction(6))]


def test_fitting_ideal_vanishes_exactly_where_membership_holds():
    """The paper's definition against the library's route: every generator
    of the k-th Fitting ideal of the symbolic presentation vanishes at a
    point exactly when `membership` puts it in V_k.  The points are the
    identity, seeded rational points with coordinate product 1 and seeded
    generic rational points.  Three generic lines have an abelian group, so
    their V_k is empty; the other inputs have points on both sides."""
    inputs = {
        "pencil(3)": pencil_monodromy(3),
        "generic(3)": generic_monodromy(3),
        "grid(1,2)": grid_monodromy(1, 2),
        "pencil(4)": pencil_monodromy(4),
        "grid(2,2)": grid_monodromy(2, 2),
    }
    rng = random.Random(20261019)

    def coordinate():
        return Fraction(rng.choice([-3, -2, -1, 2, 3, 5]), rng.randint(1, 4))

    verdicts = {}
    for label, m in inputs.items():
        rows = _presentation_rows(m, _ring(m.n))
        for k in (1, 2):
            gens = fitting_generators(rows, k)
            points = [[Fraction(1)] * m.n]
            for _ in range(6):
                head = [coordinate() for _ in range(m.n - 1)]
                points.append(head + [1 / math.prod(head)])
            points += [[coordinate() for _ in range(m.n)] for _ in range(6)]
            for point in points:
                at = [ExactScalar.from_rational(c) for c in point]
                vanishes = all(g.evaluate(at).is_zero() for g in gens)
                assert vanishes == membership(m, point, k).delta, (label, k, point)
                verdicts.setdefault(label, set()).add(vanishes)
    assert verdicts.pop("generic(3)") == {False}
    assert all(seen == {True, False} for seen in verdicts.values()), verdicts


# ---------------------------------------------------------------------------
# Laurent coefficients through the public entry points
# ---------------------------------------------------------------------------


def test_symbolic_entries_evaluate_consistently():
    point = [Fraction(2), Fraction(3), Fraction(5)]
    symbolic = gassner(full_twist((1, 3)), 3)
    evaluated = gassner(full_twist((1, 3)), 3, point)
    coords = [ExactScalar.from_rational(v) for v in point]
    for i in range(3):
        for j in range(3):
            assert symbolic[i][j].evaluate(coords) == evaluated[i][j]


# ---------------------------------------------------------------------------
# products of free groups: the membership locus is the union of the factors
# ---------------------------------------------------------------------------


def test_grid_monodromy_presents_two_parallel_families():
    m = grid_monodromy(2, 3)
    assert m.n == 5
    assert m.b2 == 6
    lat = m.lattice()
    assert list(lat.flats) == []
    assert {frozenset(p) for p in lat.parallel_pairs} == {
        frozenset((0, 1)),
        frozenset((2, 3)),
        frozenset((2, 4)),
        frozenset((3, 4)),
    }
    with pytest.raises(ValidationError):
        grid_monodromy(0, 3)


def test_product_membership_is_the_union_of_factor_loci():
    m = grid_monodromy(2, 2)
    # one factor generic, the other at the identity: depth exactly one
    for point in ([2, 3, 1, 1], [1, 1, 2, 3], [2, 1, 1, 1]):
        assert membership(m, point, 1).delta
        assert not membership(m, point, 2).delta
    # neither factor at the identity: outside the depth-one locus
    for point in ([2, 3, 5, 7], [2, 3, 5, 1]):
        assert not membership(m, point, 1).delta
    assert presentation_rank(m, [Fraction(1)] * 4) == m.b2


def test_deeper_product_membership_tracks_the_larger_free_factor():
    m = grid_monodromy(3, 2)
    first = [2, 3, 5, 1, 1]
    second = [1, 1, 1, 2, 3]
    assert membership(m, first, 2).delta
    assert not membership(m, first, 3).delta
    assert membership(m, second, 1).delta
    assert not membership(m, second, 2).delta
    assert not membership(m, [2, 3, 5, 7, 11], 1).delta


def test_embedded_factor_components_match_product_membership():
    def full_torus(n):
        basis = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        return Component(
            kind="local",
            support=tuple(range(n)),
            blocks=(),
            basis=basis,
            verified=True,
        )

    m = grid_monodromy(2, 2)
    comps = product_components([full_torus(2)], 2, [full_torus(2)], 2)
    points = [
        [2, 3, 1, 1],
        [1, 1, 2, 3],
        [2, 3, 5, 7],
        [2, 3, 5, 1],
        [1, 1, 1, 1],
    ]
    for point in points:
        in_union = any(c.contains_point(point) for c in comps)
        assert in_union == membership(m, point, 1).delta
