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
    _compiled_rows,
    _Majorant,
    _coordinate_bounds,
    _presentation_rows,
    _pushed_vectors,
    _relator_majorants,
    _relator_rows,
    _relator_values,
    _Residues,
    _Ring,
)
from alexander_reference import (
    _ring,
    circuit_norms,
    fitting_generators,
    fox_gradient,
    gassner,
    majorant_ring,
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
from laurent import LaurentPoly, symbolic_ring


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
    rings = [_ring(n), _ring(n, point), majorant_ring(point)]
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


def _is_root_of_unity_point(point):
    """Every coordinate c is a root of unity: c^(2M) = 1, M the point's
    order, as the roots of unity of Q(zeta_M) are the +-zeta_M^e."""
    order = point_order(point)
    return all(_scalar(c) ** (2 * order) == 1 for c in point)


def _point_kind(point):
    if _is_unit_point(point):
        return "unit"
    return "rational" if point_order(point) == 1 else "non-unit cyclotomic"


def _exact_ranks(m, point):
    """The exact presentation rank, and the relator rows and their rank."""
    rows = relator_jacobian(m, point)
    return presentation_rank(m, point), rows, ExactMatrix(rows, m.n).rank()


def _exact_membership(m, point, k):
    rank, _, relator = _exact_ranks(m, point)
    partial2 = relator <= m.n - k - 1 if k <= relator_route_limit(m) else None
    return rank, rank <= math.comb(m.n, 2) - k, partial2


@cache
def _symbolic_relator_rows(generators, n):
    """The relator rows as `LaurentPoly` entries, built by the row builders
    on `laurent.symbolic_ring`."""
    return _relator_rows(MonodromyInput(n, generators), symbolic_ring(n))


def _polynomial_norms(m, point):
    """The squared norms of the relator rows' majorants, computed here from
    their Laurent polynomials: a monomial t^mu gets the denominator d_mu
    and the bound B_mu, the products of the (bound, den) majorants of t_i
    (mu_i > 0) or 1/t_i (mu_i < 0) to the power |mu_i|
    (`_coordinate_bounds`); row r is cleared by L_r, the lcm of its
    monomials' d_mu, and an entry sum c_mu t^mu is bounded by
    sum |c_mu| * B_mu * L_r / d_mu."""
    bounds = [_coordinate_bounds(_scalar(c)) for c in point]
    norms = []
    for row in _symbolic_relator_rows(m.generators, m.n):
        entries = []
        for entry in row:
            terms = []
            for exp, c in entry.terms.items():
                pairs = [bounds[i][e < 0] for i, e in enumerate(exp) for _ in range(abs(e))]
                terms.append((abs(c), math.prod(b for b, _ in pairs), math.prod(d for _, d in pairs)))
            entries.append(terms)
        scale = math.lcm(*(d for terms in entries for _, _, d in terms))
        norms.append(sum(sum(c * b * scale // d for c, b, d in terms) ** 2 for terms in entries))
    return norms


def _expected_norms(m, point):
    """The relator rows' norms as `membership` should take them: those of
    the polynomials' majorants (`_polynomial_norms`) for the compiled
    generators, and those of the circuit majorant for a generator past
    COMPILE_BUDGET."""
    norms = []
    for gen in m.generators:
        part = MonodromyInput(m.n, (gen,))
        if _compiled_rows(gen, m.n) is None:
            norms += circuit_norms(part, _relator_rows, point)
        else:
            norms += _polynomial_norms(part, point)
    return norms


def _library_norms(m, point):
    return [sum(b * b for b in bounds) for _, bounds in _relator_majorants(m, point)]


def _reference_certificate(m, point, k, floor):
    """The certificate that `membership` gives, from the reference loop
    `certified_rank` on the relator rows, under the norms of their
    majorants (`_expected_norms`): it walks while the rank
    is below min(b2, n - 1), the relator rows' largest possible rank, so
    under the threshold min(b2, n - 1) - 1.  Both criteria name its primes
    (`partial2` only within the relator window)."""
    full = min(m.b2, m.n - 1)
    residues = _Residues(m.n, point, floor)
    norms = _expected_norms(m, residues.coords)
    _, route = reference_certified_rank(m, residues, _relator_rows, m.n, full - 1, norms)
    return {"delta": route, "partial2": route if k <= relator_route_limit(m) else None}


def _assert_matches_the_references(got, m, point, k, floor):
    """`membership`'s rank and verdicts equal those of the reference, which
    ranks the presentation rows themselves at each prime, and its
    certificate that of the reference loop on the relator rows."""
    want = reference_membership(m, point, k, prime_floor=floor)
    assert (got.rank, got.delta, got.partial2) == (want.rank, want.delta, want.partial2)
    assert got.certificate == _reference_certificate(m, point, k, floor)


def _check_certificate(m, route, point, floor, rows, rank, seen):
    """The relator certificate against the exact relator rows and rank and
    the cleared row norms^2 of the relator rows' majorants
    (`_expected_norms`).  Let p_1, p_2, ... be the successive
    primes that apply, from the floor: the primes p = 1 (mod the point's
    order M) above it at which every coordinate maps to a unit (p divides
    no denominator, and no coordinate maps to 0).  Let s_i be the largest
    rank mod p_1..p_i, deficient meaning below min(b2, n - 1), and
    bound(s) = (product of the s + 1 largest norms)^phi(M).

    The route names p_1..p_j; it goes on exactly while s_i is deficient and
    (p_1 * ... * p_i)^2 <= bound(s_i), and its s_j is the exact rank."""
    order = point_order(point)
    full = min(m.b2, m.n - 1)
    phi = euler_phi(order)
    ordered = sorted(_expected_norms(m, point), reverse=True)
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
        s = max(s, modp_rank([[f.reduce(e) for e in row] for row in rows], m.n, f.p))
        if i == 0 and s < rank:
            seen["rank rose past the first prime"] = True
        bound = math.prod(ordered[: s + 1]) ** phi
        undecided = s < full and math.prod(primes[: i + 1]) ** 2 <= bound
        assert undecided == (i < len(primes) - 1)
    assert s == rank
    if len(primes) > 1:
        seen[f"several primes at a {_point_kind(point)} point"] = True


def test_certified_route_agrees_with_the_exact_route():
    """Random rational points, unit points of order 1..12 and non-unit
    points (a/b) * zeta_d^e of order d <= 12, on and off the components,
    at depths 1..3, with the default prime and with small primes (above
    10, 30 or 60) at which ranks drop: every certified rank and verdict
    equals the exact one, the certificate, which both criteria name, is
    checked by `_check_certificate` against relator row norms cleared here,
    a rational point, a unit point and a non-unit cyclotomic point each
    needed several primes, and at least one point had a relator rank mod
    p_1 below the true rank.  `skip` = +-1 or +-2 multiplies the first
    parameter by (p_1 ... p_|skip|)^(+-1), the first primes = 1 (mod M)
    above the floor, so that they divide a coordinate's numerator or
    denominator and do not apply; some certificate skipped a prime.

    At a point other than 1 the exact ranks obey the Koszul identity
    rank = C(n-1,2) + relator rank over Q(zeta_M), so `partial2 == delta`
    at every depth up to `relator_route_limit`, and `delta` is false at
    every depth k >= n."""
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
    # at this order-5 point on a component the relator rank mod 11 is 0
    # (true rank 4); later primes raise it
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
        rank, rows, relator = _exact_ranks(m, point)
        got = membership(m, point, k, prime_floor=floor)
        assert (got.rank, got.delta, got.partial2) == _exact_membership(m, point, k)
        route = got.certificate["delta"]
        within = k <= relator_route_limit(m)
        assert got.certificate["partial2"] == (route if within else None)
        _check_certificate(m, route, point, floor, rows, relator, seen)
        if any(c != 1 for c in point):
            assert rank == math.comb(m.n - 1, 2) + relator
            for depth in range(1, relator_route_limit(m) + 1):
                verdict = membership(m, point, depth, prime_floor=floor)
                assert verdict.partial2 == verdict.delta
            for depth in (m.n, m.n + 1, math.comb(m.n, 2)):
                assert not membership(m, point, depth, prime_floor=floor).delta

    check()
    assert seen == {
        "several primes at a rational point": True,
        "several primes at a unit point": True,
        "several primes at a non-unit cyclotomic point": True,
        "rank rose past the first prime": True,
        "a prime skipped": True,
    }


def test_certified_rank_takes_the_maximum_and_stops_at_the_norm_bound(monkeypatch):
    """The prime loop on scripted ranks of a 3x3 matrix at points of order
    5 (phi = 4, primes 11, 31, 41, 61 above 10), 1, 2, 1, 3 mod those
    primes, whose majorant rows have norm^2 3: the rank is the maximum over
    the primes taken, and primes are taken until their product squared
    passes the product of the rank + 1 largest norms^2, to the power phi.
    After 11 the rank is 1 and 11^2 <= 9^4; after 31 it is 2 and
    (11*31)^2 <= 27^4; after 41 the product passes 27^4.  A largest
    possible rank of 2 stops the loop as soon as a rank 2 appears.  The
    majorants are asked for once per query, at the point's coordinates, at
    the root-of-unity point (zeta_5, zeta_5) as at (2 zeta_5, 2 zeta_5),
    where the same primes apply."""
    m = MonodromyInput(2, (MonodromyGen((1, 2)),))
    script = {11: 1, 31: 2, 41: 1, 61: 3}
    asked = []

    def majorants(_m, coords):
        asked.append(coords)
        return [(1, [1, 1, 1])] * 3

    def ranks(start, stop):
        return [script[residues.field(i).p] for i in range(start, stop)]

    monkeypatch.setattr(alexander, "_relator_majorants", majorants)
    for scale in (1, 2):
        for full, want in ((3, (2, "mod 11*31*41")), (2, (2, "mod 11*31"))):
            residues = _Residues(2, [root_of_unity(5) * scale] * 2, 10)
            asked.clear()
            assert _certified_rank(m, residues, ranks, full) == want
            assert asked == [residues.coords]


def test_certified_rank_walks_each_batch_in_prime_order(monkeypatch):
    """Scripted ranks of a 4 x 4 matrix, drawn for each prime, at points
    of order 5 above the floor 10 (primes 11, 31, 41, 61, ...), with
    majorant bounds that make ranges of several primes: the certified rank
    and certificate, for a largest possible rank `full`, equal those of the
    reference loop under the threshold full - 1, which builds diagonal
    matrices of those ranks for each batch and ranks each prime of a batch
    by its own elimination, and some range walked primes of different
    ranks.  The majorants are asked for once, when the rank mod 11 is below
    `full`, at (zeta_5, zeta_5) as at (2 zeta_5, 2 zeta_5)."""
    primes = [modular_prime(5, 10)]
    while len(primes) < 400:
        primes.append(modular_prime(5, primes[-1]))
    seen = set()
    script, bound, asked = [], [], []

    def build(_m, ring):
        n = ring.modulus
        batch = [i for i, p in enumerate(primes) if n % p == 0]
        # diagonal entry j is 1 mod p_i when j < script[i], else 0
        units = {i: n // primes[i] * pow(n // primes[i], -1, primes[i]) for i in batch}
        diagonal = [sum(units[i] for i in batch if j < script[i]) % n for j in range(4)]
        return [[diagonal[j] * (j == c) for c in range(4)] for j in range(4)]

    def majorants(_m, coords):
        asked.append(coords)
        return [(1, [bound[0]] * 4)] * 4

    m = MonodromyInput(2, (MonodromyGen((1, 2)),))
    monkeypatch.setattr(alexander, "_relator_majorants", majorants)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=4), min_size=400, max_size=400),
        st.integers(min_value=1, max_value=10**4),
        st.integers(min_value=1, max_value=4),
        st.sampled_from([1, 2]),
    )
    def check(drawn, drawn_bound, full, scale):
        # a rank mod p never exceeds the largest possible rank
        script[:], bound[:] = [min(r, full) for r in drawn], [drawn_bound]

        def ranks(start, stop):
            if len(set(script[start:stop])) > 1:
                seen.add("a batch of primes of different ranks")
            return script[start:stop]

        point = [root_of_unity(5) * scale] * 2
        asked.clear()
        got = _certified_rank(m, _Residues(2, point, 10), ranks, full)
        assert len(asked) == (script[0] < full)
        # the cleared norms of the scripted majorant rows
        norms = [4 * drawn_bound**2] * 4
        want = reference_certified_rank(None, _Residues(2, point, 10), build, 4, full - 1, norms)
        assert got == want

    check()
    assert seen == {"a batch of primes of different ranks"}


def _sequential_rank(m, residues, full):
    """The prime loop on the relator rows with one build per prime: after
    p_1, take the next prime while the rank is below `full` and the primes'
    product squared is at most H^phi(M)."""
    ring = residues.ring(0, 1)
    primes = [ring.modulus]
    rank = modp_rank(_relator_rows(m, ring), m.n, primes[0])
    if rank < full:
        norms = sorted(_expected_norms(m, residues.coords), reverse=True)
        phi = euler_phi(residues.order)
        while rank < full and math.prod(primes) ** 2 <= math.prod(norms[: rank + 1]) ** phi:
            ring = residues.ring(len(primes), len(primes) + 1)
            rank = max(rank, modp_rank(_relator_rows(m, ring), m.n, ring.modulus))
            primes.append(ring.modulus)
    return rank, "mod " + "*".join(map(str, primes))


def test_batched_primes_give_the_certificates_of_one_build_per_prime():
    """At unit points of order 1..12 on the gate inputs, with the default
    floor and with a floor of 10 (where ranks mod small primes drop), the
    certified relator rank and primes, walked over ranks that
    `_certified_rank` asks for in ranges of primes, equal those of the loop
    that builds once per prime, and so does `membership`'s certificate; its
    rank and verdicts equal the reference's, which ranks the presentation
    rows themselves.  Among the queries, the primes after p_1 were asked
    for together, a rank rose within a range so that another range
    followed, and a range was cut short at the prime where the loop
    stops."""
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
    # mod 11 the relator rank is 0 (true rank 4)
    @example("diamond", True, 5, 0, 2, 10)
    # off the locus the rank mod 31 is full and ends a batch built at the
    # rank mod 11
    @example("braid4_affine", False, 5, 27, 1, 10)
    def check(name, on, order, seed, k, floor):
        m, _ = _gate_input(name)
        point = _gate_point(name, on, order, seed)
        full = min(m.b2, m.n - 1)
        want = _sequential_rank(m, _Residues(m.n, point, floor), full)
        residues, batches = _Residues(m.n, point, floor), []

        def ranks(start, stop):
            batches.append((start, stop))
            return [
                modp_rank(_relator_rows(m, residues.ring(i, i + 1)), m.n, residues.field(i).p)
                for i in range(start, stop)
            ]

        got = _certified_rank(m, residues, ranks, full)
        assert got == want
        if any(stop - start > 1 for start, stop in batches):
            seen.add("several primes in one build")
        if any(start > 1 for start, _ in batches):
            seen.add("another batch after a rank rose")
        if batches and batches[-1][1] > got[1].count("*") + 1:
            seen.add("a batch cut short")
        got = membership(m, point, k, prime_floor=floor)
        _assert_matches_the_references(got, m, point, k, floor)
        assert got.certificate["delta"] == want[1]

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
    rank and verdicts of the reference loop that ranks each criterion's
    rows at each prime by itself.  At the floor of 10 some
    batch split at a lead that one of its primes divides (the relator batch
    of the last query, off pencil(6)'s component at a non-unit point of
    order 12), and some certificate needed several primes.  Its certificate
    is that of the reference loop on the relator rows."""
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
        _assert_matches_the_references(got, m, point, k, floor)
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
    both criteria from the certified relator rank, agrees with the
    reference, which ranks the presentation rows themselves."""
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
        _assert_matches_the_references(got, m, point, k, floor)

    check()
    assert seen == {"t' = 1 at a point other than 1", "t' != 1"}


# a double point conjugated by 20 unit twists, and a triple point
_LONG_CONJUGATED = MonodromyInput(
    6, (MonodromyGen((2, 4), ((1, 2, 10), (4, 6, 10))), MonodromyGen((1, 3, 5)))
)


def test_compiled_rows_evaluate_to_the_built_rows():
    """The relator rows evaluated from the compiled polynomials
    (`_relator_values`) against the rows the builders push through the
    Gassner factors (`_relator_rows`), on the gate inputs and on a double
    point conjugated by 20 unit twists, at rational points and at unit and
    non-unit points of orders 1..12: on a one-prime ring and on a run of
    three primes combined by CRT they agree modulo the ring's modulus (and
    lie in [0, modulus)), and on the exact ring they equal
    `relator_jacobian`."""
    seen = set()

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(sorted(GATE_INPUTS) + ["long"]),
        st.booleans(),
        st.sampled_from([None] + list(range(1, 13))),
        st.booleans(),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=3),
    )
    @example("long", False, 12, True, 0, 0)
    @example("long", False, None, False, 0, 1)
    def check(name, on, order, scaled, seed, start):
        if name == "long":
            m = _LONG_CONJUGATED
            rng = random.Random(seed)
            point = [
                ExactScalar.from_rational(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
                if order is None
                else root_of_unity(order, rng.randrange(order))
                * (Fraction(rng.randint(1, 9), rng.randint(1, 9)) if scaled else 1)
                for _ in range(m.n)
            ]
        else:
            m, _ = _gate_input(name)
            point = _gate_point(name, on, order, seed, scaled)
        residues = _Residues(m.n, point, MODULAR_PRIME_FLOOR)
        for ring in (residues.ring(start, start + 1), residues.ring(start, start + 3)):
            n = ring.modulus
            got = _relator_values(m, ring)
            assert all(0 <= v < n for row in got for v in row)
            assert got == [[v % n for v in row] for row in _relator_rows(m, ring)]
        assert _relator_values(m, alexander._ring(m.n, point)) == relator_jacobian(m, point)
        seen.add((name == "long", order is None))

    check()
    assert seen == {(True, True), (True, False), (False, True), (False, False)}
    long = _LONG_CONJUGATED.generators[0]
    assert len(long.delta) >= 20 and _compiled_rows(long, 6) is not None


def test_generators_past_the_compile_budget_are_pushed_and_bounded_by_the_circuit():
    """A triple point on 6 strands conjugated by (2,6)^4 (1,4)^-4 passes
    COMPILE_BUDGET, so it is not compiled: in every ring its relator rows
    are the builders' (`_relator_values` against `_relator_rows`, mod the
    ring's modulus, and exactly at the point), and its row norms are the
    circuit majorant's.  Beside a compiled generator, `membership` at
    points on and off its component agrees with the references."""
    wide = MonodromyGen((1, 2, 3), ((2, 6, 4), (1, 4, -4)))
    m = MonodromyInput(6, (wide, MonodromyGen((4, 5))))
    assert _compiled_rows(wide, 6) is None
    assert _compiled_rows(m.generators[1], 6) is not None
    a, b = Fraction(2, 3) * root_of_unity(12, 1), Fraction(5, 7)
    routes = []
    for point in (
        [a, b, (a * b).inverse(), 1, 1, 1],
        [a, b, Fraction(3), 2, 1, 1],
        [2, 3, Fraction(1, 6), 1, 1, 1],
    ):
        point = [_scalar(c) for c in point]
        residues = _Residues(6, point, MODULAR_PRIME_FLOOR)
        ring = residues.ring(0, 3)
        built = _relator_rows(m, ring)
        assert _relator_values(m, ring) == [[v % ring.modulus for v in row] for row in built]
        assert _relator_values(m, alexander._ring(6, point)) == relator_jacobian(m, point)
        norms = _library_norms(m, point)
        assert norms == _expected_norms(m, point)
        assert norms[:2] == circuit_norms(m, _relator_rows, point)[:2]
        assert norms[2:] == _polynomial_norms(m, point)[2:]
        got = membership(m, point, 1)
        _assert_matches_the_references(got, m, point, 1, MODULAR_PRIME_FLOOR)
        routes.append(got.certificate["delta"].count("*") + 1)
    assert min(routes) == 1 and max(routes) > 1


def test_membership_ranks_each_prime_once_and_builds_no_presentation_rows(monkeypatch):
    """`membership` never builds presentation rows, on any ring, nor relator
    rows by `_relator_rows`: it evaluates each generator's compiled relator
    polynomials once per residue ring, and eliminates each prime's rows
    once per query: the `modp_ranks` calls rank relator rows (n columns) at
    distinct primes, in order, that begin with those of the certificate,
    one call per evaluation.  p_1 compiles nothing: a generator not yet
    compiled is pushed through the Gassner factors there, and on no other
    residue ring.  The compile and the majorants of the compiled rows are
    asked for exactly when primes after p_1 are taken, at roots of unity
    (the grid's order-4 point) as elsewhere, and not off the locus (decided
    at p_1)."""
    queries = [
        ("diamond", False, None, False, MODULAR_PRIME_FLOOR),
        ("diamond", True, None, False, MODULAR_PRIME_FLOOR),
        ("diamond", True, 5, False, 10),
        ("pencil6", True, 12, True, MODULAR_PRIME_FLOOR),
        ("grid33", True, 4, False, 10),
        ("braid4_affine", False, None, False, MODULAR_PRIME_FLOOR),
    ]
    wants = []
    for name, on, order, scaled, floor in queries:
        m, _ = _gate_input(name)
        point = _gate_point(name, on, order, 0, scaled)
        want = reference_membership(m, point, 1, prime_floor=floor)
        certificate = _reference_certificate(m, point, 1, floor)
        wants.append((m, point, floor, (want.rank, want.delta, want.partial2), certificate))
    evaluated, ranked, asked, compiling, pushed, seen = [], [], [], [], [], set()
    values, ranks, majorants, compiled = (
        alexander._relator_values,
        alexander.modp_ranks,
        alexander._relator_majorants,
        alexander._compiled_rows,
    )
    push = alexander._push

    def refuse(m, ring):
        raise AssertionError("membership built rows by the builders")

    def evaluate(m, ring, compile=True):
        evaluated.append(ring)
        return values(m, ring, compile)

    def rank(rows, ncols, primes):
        ranked.append((ncols, list(primes)))
        return ranks(rows, ncols, primes)

    def bound(m, coords):
        asked.append(coords)
        return majorants(m, coords)

    def spy_compiled(gen, n, compile=True):
        if compile:
            compiling.append(gen)
        return compiled(gen, n, compile)

    def spy_push(braid, vectors, ring):
        if not isinstance(ring.one, alexander._Laurent):
            pushed.append(ring.modulus)
        return push(braid, vectors, ring)

    monkeypatch.setattr(alexander, "_COMPILED", {})
    monkeypatch.setattr(alexander, "_presentation_rows", refuse)
    monkeypatch.setattr(alexander, "_relator_rows", refuse)
    monkeypatch.setattr(alexander, "_relator_values", evaluate)
    monkeypatch.setattr(alexander, "modp_ranks", rank)
    monkeypatch.setattr(alexander, "_relator_majorants", bound)
    monkeypatch.setattr(alexander, "_compiled_rows", spy_compiled)
    monkeypatch.setattr(alexander, "_push", spy_push)
    for (name, *_), (m, point, floor, verdicts, certificate) in zip(queries, wants):
        for spied in (evaluated, ranked, asked, compiling, pushed):
            spied.clear()
        pending = [gen for gen in m.generators if (gen, m.n) not in alexander._COMPILED]
        got = membership(m, point, 1, prime_floor=floor)
        assert (got.rank, got.delta, got.partial2) == verdicts
        assert got.certificate == certificate
        primes = [p for _, batch in ranked for p in batch]
        route = [int(p) for p in certificate["delta"].removeprefix("mod ").split("*")]
        assert primes == sorted(set(primes))
        assert primes[: len(route)] == route
        assert all(ncols == m.n for ncols, _ in ranked)
        assert len(evaluated) == len(ranked)
        assert all(ring.modulus == math.prod(batch) for ring, (_, batch) in zip(evaluated, ranked))
        assert set(pushed) == ({route[0]} if any(gen.delta for gen in pending) else set())
        assert len(asked) == (len(route) > 1), name
        assert bool(compiling) == (len(route) > 1), name
        seen.add((len(route) > 1, _is_root_of_unity_point(point), not pending))
    assert seen == {
        (False, False, False),
        (True, False, False),
        (True, False, True),
        (True, True, False),
    }


_SMALL_INPUTS = {
    "diamond": lambda: load_monodromy("diamond_monodromy"),
    "braid4_affine": lambda: load_monodromy("braid4_affine_monodromy"),
    **{f"pencil{n}": (lambda n=n: pencil_monodromy(n)) for n in range(2, 7)},
    **{
        f"grid{a}{b}": (lambda a=a, b=b: grid_monodromy(a, b))
        for a in range(1, 4)
        for b in range(1, 4)
        if a + b >= 2
    },
    **{f"generic{n}": (lambda n=n: generic_monodromy(n)) for n in range(2, 6)},
}


def test_polynomial_norms_are_at_most_the_circuit_norms():
    """On diamond, braid4_affine, pencil(n), grid(n1, n2) and generic(n),
    at points whose coordinates are roots of unity of one order d <= 12
    (signed powers of zeta_d), at +-1 points, at lifted central points of
    roots of unity (coordinate product 1), at rational points and at
    non-unit points (a/b) * zeta_d^e: the library's row norms from the
    compiled relator polynomials equal those computed here from the
    `LaurentPoly` rows (`_polynomial_norms`), and row by row they are at
    most the cleared norms of the circuit majorant, which pushes bounds
    through the builders (`circuit_norms`).  At roots of unity every t_i
    and 1/t_i gets the majorant (1, 1), so the norms are those at the
    point 1; some rows there are strictly below the circuit's."""
    seen = set()

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(sorted(_SMALL_INPUTS)),
        st.sampled_from(["roots", "signs", "central", "rational", "scaled"]),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=10**6),
    )
    @example("diamond", "central", 12, 0)
    @example("diamond", "scaled", 12, 0)
    @example("braid4_affine", "central", 5, 0)
    def check(name, kind, order, seed):
        m = _SMALL_INPUTS[name]()
        rng = random.Random(seed)
        if kind == "central" and m.lift is None:
            kind = "roots"

        def rational():
            return Fraction(rng.randint(1, 9), rng.randint(1, 9))

        if kind == "signs":
            point = [ExactScalar.from_rational(rng.choice([1, -1])) for _ in range(m.n)]
        elif kind == "rational":
            point = [ExactScalar.from_rational(rational()) for _ in range(m.n)]
        else:
            size = m.n + 1 if kind == "central" else m.n
            point = [
                root_of_unity(order, rng.randrange(order)) * rng.choice([1, -1])
                for _ in range(size)
            ]
            if kind == "scaled":
                point = [c * rational() for c in point]
            if kind == "central":
                point[-1] = math.prod(point[:-1], start=ExactScalar.one()).inverse()
                point = lift_point(m.lift, point)
        norms = _library_norms(m, point)
        assert norms == _polynomial_norms(m, point)
        circuit = circuit_norms(m, _relator_rows, point)
        assert all(a <= b for a, b in zip(norms, circuit, strict=True))
        if _is_root_of_unity_point(point):
            assert norms == _library_norms(m, [ExactScalar.one()] * m.n)
            if norms != circuit:
                seen.add("below the circuit at roots of unity")
        seen.add(kind)

    check()
    assert seen == {
        "roots", "signs", "central", "rational", "scaled", "below the circuit at roots of unity"
    }


def _component_point(name, param):
    """The point of the input's first component subtorus whose first
    parameter is `param` and every other parameter 1."""
    m, bases = _gate_input(name)
    rows = bases[0]
    return [param ** rows[0][i] for i in range(m.n)]


def test_points_that_are_not_roots_of_unity_get_their_own_bounds():
    """A coordinate with c * conj(c) = 1 but den != 1, (3 + 4 zeta_4)/5,
    and cyclotomic units such as 1 + zeta_5 and 1 + zeta_12 are no roots
    of unity: at such points on a component of diamond or pencil(6) the
    norms of the relator polynomials' majorants differ from those at the
    point 1, where every coordinate majorant is (1, 1), and the
    certificate is that of the reference loop."""
    routes = []
    params = [
        ExactScalar.from_coeffs(4, [Fraction(3, 5), Fraction(4, 5)]),
        1 + root_of_unity(5),
        1 + root_of_unity(12),
    ]
    for name in ("diamond", "pencil6"):
        m, _ = _gate_input(name)
        at_one = _library_norms(m, [ExactScalar.one()] * m.n)
        for param in params:
            point = _component_point(name, param)
            assert not _is_root_of_unity_point(point)
            assert _library_norms(m, point) != at_one
            got = membership(m, point, 1)
            routes.append(got.certificate["delta"])
            _assert_matches_the_references(got, m, point, 1, MODULAR_PRIME_FLOOR)
    # on pencil(6) the first prime alone passes the bound at these points
    assert [route.count("*") + 1 for route in routes] == [3, 3, 3, 1, 1, 1]


def test_each_generator_is_compiled_once_per_strand_count(monkeypatch):
    """`membership` on and off the components of every gate input, at
    rational points and at unit and non-unit points of orders 1..12, at
    depths 1 and 2: afterwards the compiled rows hold one entry per
    distinct (generator, n) pair, each compiled once, however many queries
    asked for it.  The pushes on the symbolic ring are those compiles: each
    conjugated generator's inverse conjugator and conjugator once; every
    other push is on the ring mod the query's p_1.  Some queries' verdicts
    and certificates are checked against the references."""
    monkeypatch.setattr(alexander, "_COMPILED", {})
    pushes, residue = [], set()
    push = alexander._push

    def spy(braid, vectors, ring):
        if isinstance(ring.one, alexander._Laurent):
            pushes.append(braid)
        else:
            residue.add(ring.modulus)
        return push(braid, vectors, ring)

    monkeypatch.setattr(alexander, "_push", spy)
    pairs, queries, checks = set(), 0, []
    for name in sorted(GATE_INPUTS):
        m, _ = _gate_input(name)
        pairs.update((gen, m.n) for gen in m.generators)
        for on, order, scaled, seed in itertools.product(
            (True, False), [None, 1, 4, 5, 12], (False, True), range(2)
        ):
            point = _gate_point(name, on, order, seed, scaled and order is not None)
            for k in (1, 2):
                residue.clear()
                got = membership(m, point, k)
                queries += 1
                first = got.certificate["delta"].removeprefix("mod ").split("*")[0]
                assert residue <= {int(first)}
            if seed == 0 and order in (None, 12):
                checks.append((got, m, point))
    assert queries > 10 * len(pairs)
    assert set(alexander._COMPILED) == pairs
    want = [braid for gen, _ in pairs if gen.delta for braid in (gen.inverse_delta, gen.delta)]
    assert sorted(pushes) == sorted(want)
    monkeypatch.undo()
    for got, m, point in checks:
        _assert_matches_the_references(got, m, point, 2, MODULAR_PRIME_FLOOR)


def test_majorants_bound_every_embedding():
    """At rational points, unit points of order 1..12 and non-unit points
    (a/b) * zeta_d^e: the circuit majorant (`majorant_ring`) gives every
    entry e of the presentation and the relator Jacobian a denominator d
    with d * e in Z[zeta_M] and a bound B with |sigma(e)| <= B / d at every
    embedding zeta_M -> exp(2 pi i j / M), gcd(j, M) = 1; and the majorant
    of the compiled relator polynomials (`_relator_majorants`) gives every
    relator row a scale L with L * e in Z[zeta_M] and each entry a bound B
    with |sigma(e)| <= B / L (checked in floating point with a relative
    margin of 1e-9).  Coordinates get the exact pairs ((bound, den) of c,
    of 1/c) below."""

    def bounded(e, bound, den, embeddings):
        assert all((c * den).denominator == 1 for c in e.coeffs), (e, den)
        for a in embeddings:
            z = cmath.exp(2j * cmath.pi * a / e.order)
            value = abs(sum(float(c) * z**i for i, c in enumerate(e.coeffs)))
            assert value <= bound / den * (1 + 1e-9), (e, bound, den, a)

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
        majorant = majorant_ring(point)
        order = point_order(point)
        embeddings = [j for j in range(1, order + 1) if math.gcd(j, order) == 1]
        for build, exact in (
            (_presentation_rows, presentation_matrix),
            (_relator_rows, relator_jacobian),
        ):
            for row, bounds in zip(exact(m, point), build(m, majorant), strict=True):
                for e, b in zip(row, bounds, strict=True):
                    bounded(e, b.bound, b.den, embeddings)
        rows = relator_jacobian(m, point)
        for row, (scale, bounds) in zip(rows, _relator_majorants(m, point), strict=True):
            for e, bound in zip(row, bounds, strict=True):
                bounded(e, bound, scale, embeddings)

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
    differential, and their bounds come from their compiled polynomials,
    so they stay tighter than the presentation's circuit majorant: at a
    non-unit point (a/b) * zeta_12^e on pencil(6)'s component, the
    certificate, which both criteria name, needs 6 primes (7 from the
    relator rows' circuit majorant), where the reference loop on the
    presentation rows needs 20."""
    m, _ = _gate_input("pencil6")
    point = _gate_point("pencil6", True, 12, 0, scaled=True)
    got = membership(m, point, 1)
    route = got.certificate["delta"]
    assert got.certificate == {"delta": route, "partial2": route}
    ncols = math.comb(m.n, 2)
    residues = _Residues(m.n, point, MODULAR_PRIME_FLOOR)
    _, presentation = reference_certified_rank(m, residues, _presentation_rows, ncols, ncols)
    full = min(m.b2, m.n - 1)
    _, circuit = reference_certified_rank(m, residues, _relator_rows, m.n, full - 1)
    counts = [r.count("*") + 1 for r in (route, circuit, presentation)]
    assert counts == [6, 7, 20]
    assert circuit.startswith(route)
    assert (got.rank, got.delta, got.partial2) == _exact_membership(m, point, 1)


def test_membership_compiles_only_past_the_first_prime(monkeypatch):
    """Both criteria are read from one relator rank.  With no rows compiled,
    a `membership` on diamond off its components, decided at p_1, pushes
    each conjugated generator's vectors through its inverse conjugator and
    its conjugator once, on the ring mod p_1, and compiles nothing.  A
    query on a component (several primes) pushes them once more mod its
    p_1 and once on the symbolic ring, the compile; afterwards no query,
    on a component or off, pushes anything."""
    pushes = []
    push = alexander._push

    def spy(braid, vectors, ring):
        pushes.append((ring.modulus, braid))
        return push(braid, vectors, ring)

    monkeypatch.setattr(alexander, "_COMPILED", {})
    monkeypatch.setattr(alexander, "_push", spy)
    m, _ = _gate_input("diamond")
    want = sorted(
        braid
        for gen in m.generators
        if gen.delta
        for braid in (invert_braid(gen.delta), gen.delta)
    )
    p1 = modular_prime(1)
    off = [2, 3, 5, 7, 11, 13]
    got = membership(m, off, 1)
    assert got.certificate == {"delta": f"mod {p1}", "partial2": f"mod {p1}"}
    assert sorted(pushes) == [(p1, braid) for braid in want]
    assert alexander._COMPILED == {}
    pushes.clear()
    got = membership(m, _gate_point("diamond", True, None, False, 0), 1)
    assert all("*" in route for route in got.certificate.values())
    first = int(got.certificate["delta"].removeprefix("mod ").split("*")[0])
    assert sorted(braid for modulus, braid in pushes if modulus is None) == want
    assert sorted(braid for modulus, braid in pushes if modulus is not None) == want
    assert {modulus for modulus, _ in pushes} == {None, first}
    pushes.clear()
    got = membership(m, _gate_point("diamond", True, None, False, 1), 1)
    assert all("*" in route for route in got.certificate.values())
    membership(m, off, 1)
    assert pushes == []


def test_certified_route_skips_primes_that_do_not_apply():
    """At the least primes above 10 (11, 13, 17, ... for rational points),
    a prime that divides a coordinate's denominator or maps a coordinate
    to 0 is skipped for the next prime that applies: off the locus a
    coordinate 1/11 or 11/2 is decided mod 13; on the pencil's component
    (coordinate product 1), where the relator rank mod 11 is deficient and
    more primes are needed, a coordinate with 13 in its denominator drops
    13 from the primes, while one with 7 there keeps 11, 13, ...  At order
    3 the primes = 1 (mod 3) above 10 are 13, 19, 31, ..., and a coordinate
    13 * zeta_3 moves them to 19, 31, ...  Both criteria name the one
    certificate."""
    m = pencil_monodromy(4)
    z = root_of_unity(3)
    cases = [
        ([2, 3, 5, Fraction(1, 11)], "mod 13"),
        ([Fraction(11, 2), 3, 5, 7], "mod 13"),
        ([Fraction(2, 13), Fraction(13, 2), 1, 1], "mod 11*17*19*23*29"),
        ([Fraction(2, 7), Fraction(7, 2), 1, 1], "mod 11*13*17*19*23"),
        ([z * 13, z.inverse(), 1, 1], "mod 19"),
        ([z * 13, z.inverse() / 13, 1, 1], "mod 19*31*37*43*61*67*73*79*97"),
    ]
    for point, route in cases:
        got = membership(m, point, 1, prime_floor=10)
        assert got.certificate == {"delta": route, "partial2": route}
        assert (got.rank, got.delta, got.partial2) == _exact_membership(m, point, 1)
        point = [_scalar(c) for c in point]
        _, rows, relator = _exact_ranks(m, point)
        seen = {}
        _check_certificate(m, route, point, 10, rows, relator, seen)
        assert ("a prime skipped" in seen) == (not route.startswith("mod 11*13"))
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


def _long_conjugated_triple_point():
    """One triple point (1, 2, 3) on 6 strands conjugated by
    (1,6)^25 (2,5)^25, at the order-120 point (a, b, 1/(ab), 1, 1, 1) of its
    local component, a = (2/3) * zeta_120^7 and b = (2/3) * zeta_120^8:
    its certificate is predicted to need 1617 primes."""
    m = MonodromyInput(6, (MonodromyGen((1, 2, 3), ((1, 6, 25), (2, 5, 25))),))
    a, b = (Fraction(2, 3) * root_of_unity(120, e) for e in (7, 8))
    return m, [a, b, (a * b).inverse(), 1, 1, 1]


def test_a_certificate_predicted_past_the_prime_cap_is_refused_first(monkeypatch):
    """The query of `_long_conjugated_triple_point` is refused before any
    prime after the first is built, in well under a second."""
    rings = []
    ring = _Residues.ring

    def spy(self, start, stop):
        rings.append((start, stop))
        return ring(self, start, stop)

    monkeypatch.setattr(_Residues, "ring", spy)
    m, point = _long_conjugated_triple_point()
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match=f"limited to {CERTIFICATE_PRIME_CAP} primes"):
        membership(m, point, 1)
    assert time.perf_counter() - start < 1.0
    assert rings == [(0, 1)]


def test_the_prime_cap_is_checked_each_time_the_bound_is_set(monkeypatch):
    """At an order-5 point on a component of diamond, above the floor 10,
    the relator rank mod 11 is 0 and later primes raise it to 4, so the
    bound, and the primes it predicts, rise during the walk.  Each
    prediction is ceil(bits of the bound / (2 (bits of p_1 - 1))), at least
    the primes the rule takes at that bound.  A cap below the first
    prediction refuses before any prime after p_1 is built, a cap below the
    last one refuses after some were walked, and a cap at the last one
    changes nothing."""
    m, _ = _gate_input("diamond")
    point, k = _gate_point("diamond", True, 5, 0), 1
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
