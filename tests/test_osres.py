"""Tests for the degree-1 resonance machinery.

Membership oracles are frozen from hand calculations on small fixtures:
a pencil of three lines, the braid arrangements on four and five strands,
and the seven-line arrangement with three essential components.  Rank
identities that hold for every lattice are exercised as properties over
the fixture pool with random integer weights.
"""

import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charvar.arrangement import (
    ValidationError,
    decone,
    gen_family,
    lattice_from_affine,
    lattice_from_central3,
)
from charvar.components import enumerate_first_resonance
from charvar.exactalg import ExactMatrix, IntEchelon, clear_denominators, rational_rref
from charvar.osres import (
    ResonanceSampler,
    h1_dim,
    in_resonance,
    nbc_basis,
    pair_list,
    resonance_rank,
    resonance_rank_os,
    triple_list,
)
from osres_reference import (
    flat_row_rank,
    flat_wedge_rows,
    linearized_differential,
    projection,
)

# --- frozen membership oracles (hand-checked) ------------------------------

# pencil of three concurrent lines: weights summing to zero are resonant
PENCIL3_RESONANT = (1, -1, 0)

# braid arrangement on four strands, pair order lex:
# (12, 13, 14, 23, 24, 34).  A triple-point weight and the essential
# palindromic weight are resonant; a spread-out weight is not.
BRAID4_LOCAL = (1, -1, 0, 0, 0, 0)
BRAID4_ESSENTIAL = (1, -1, 0, 0, -1, 1)
BRAID4_GENERIC = (1, 2, 3, 4, 5, -15)

# braid arrangement on five strands: the four-strand essential weight
# embedded on the lines within strands {1,2,3,4}
BRAID5_ESSENTIAL = (1, -1, 0, 0, 0, -1, 0, 1, 0, 0)

# seven-line arrangement: tangent vectors of the three essential
# two-dimensional components, plus a weight in no component
DIAMOND_T1 = (1, 1, 1, 1, -2, 0, -2)
DIAMOND_T2 = (1, 1, 0, -2, 1, 1, -2)
DIAMOND_T3 = (1, 0, 1, -2, -2, 1, 1)
DIAMOND_GENERIC = (1, 2, 3, 4, 5, 6, 7)


def _braid4():
    return gen_family("braid", ell=4)


def _braid5():
    return gen_family("braid", ell=5)


def _diamond():
    return lattice_from_central3(gen_family("diamond"))


def _diamond_affine():
    res = decone(gen_family("diamond"), at=1)
    return lattice_from_affine(res.arrangement)


FIXTURE_LATTICES = [
    gen_family("pencil", n=3),
    gen_family("pencil", n=5),
    gen_family("generic", n=4),
    _braid4(),
    _braid5(),
    _diamond(),
    _diamond_affine(),
    lattice_from_central3(gen_family("monomial", r=2)),
    gen_family("falk_pair")[0],
]


def _matmul(a, b):
    return [
        [sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a
    ]


# --- basis and projection ---------------------------------------------------


def test_nbc_dimension_matches_b2():
    for lat in FIXTURE_LATTICES:
        basis = nbc_basis(lat)
        assert basis.dimension == lat.b2()


def test_nbc_projection_full_row_rank():
    for lat in FIXTURE_LATTICES:
        basis = nbc_basis(lat)
        if basis.dimension == 0:
            continue
        npairs = len(pair_list(lat.n))
        assert IntEchelon(npairs).add_rows(projection(basis)) == basis.dimension


def test_nbc_pairs_have_flat_minimum_first():
    for lat in FIXTURE_LATTICES:
        basis = nbc_basis(lat)
        for i, j in basis.pairs:
            cls = lat.flat_of_pair(i, j)
            assert cls is not None
            assert i == cls[0]


def test_nbc_projection_fixes_basis_pairs():
    lat = _braid4()
    basis = nbc_basis(lat)
    pairs = pair_list(lat.n)
    for r, bp in enumerate(basis.pairs):
        col = pairs.index(bp)
        column = [row[col] for row in projection(basis)]
        assert column[r] == 1
        assert sum(abs(v) for v in column) == 1


def test_nbc_projection_parallel_columns_vanish():
    lat = _diamond_affine()
    basis = nbc_basis(lat)
    pairs = pair_list(lat.n)
    for p in lat.parallel_pairs:
        col = pairs.index(p)
        assert all(row[col] == 0 for row in projection(basis))


def test_nbc_rewrites_inner_pair_of_triple():
    # flat {0, 1, 3} in the four-strand braid lattice: the pair (1, 3)
    # rewrites as (0, 3) - (0, 1)
    lat = _braid4()
    basis = nbc_basis(lat)
    pairs = pair_list(lat.n)
    col = pairs.index((1, 3))
    expected = {(0, 3): 1, (0, 1): -1}
    got = {
        basis.pairs[r]: row[col]
        for r, row in enumerate(projection(basis))
        if row[col]
    }
    assert got == expected


def test_flat_wedge_rows_are_negated_projection_rows():
    # row (X, i) of the wedge block equals minus the projection row of the
    # basis pair (min X, i), in matching order
    for lat in FIXTURE_LATTICES:
        basis = nbc_basis(lat)
        wedge = flat_wedge_rows(lat)
        assert len(wedge) == len(projection(basis))
        for wrow, prow in zip(wedge, projection(basis)):
            assert wrow == [-v for v in prow]


def test_flat_wedge_rank_is_b2():
    for lat in FIXTURE_LATTICES:
        rows = flat_wedge_rows(lat)
        if not rows:
            continue
        npairs = lat.n * (lat.n - 1) // 2
        m = ExactMatrix(rows, ncols=npairs)
        assert m.rank() == lat.b2()


# --- linearized boundary ----------------------------------------------------


def test_linearized_degree2_entries():
    rows = linearized_differential(2, 3, (5, 7, 11))
    # rows in pair order (01, 02, 12); columns ({0}, {1}, {2});
    # row (j, k) carries minus the k-th weight on column j and plus the
    # j-th weight on column k
    assert rows == [
        [Fraction(-7), Fraction(5), Fraction(0)],
        [Fraction(-11), Fraction(0), Fraction(5)],
        [Fraction(0), Fraction(-11), Fraction(7)],
    ]


def test_linearized_degree3_entries():
    rows = linearized_differential(3, 4, (2, 3, 5, 7))
    triples = triple_list(4)
    pairs = pair_list(4)
    row = rows[triples.index((0, 2, 3))]
    expected = {(2, 3): 2, (0, 3): -5, (0, 2): 7}
    got = {pairs[c]: v for c, v in enumerate(row) if v}
    assert got == expected


def test_linearized_composition_vanishes():
    lam = (3, -1, 4, 1, -5)
    d3 = linearized_differential(3, 5, lam)
    d2 = linearized_differential(2, 5, lam)
    product = _matmul(d3, d2)
    assert all(v == 0 for row in product for v in row)


def test_linearized_rejects_bad_degree_and_length():
    with pytest.raises(ValidationError):
        linearized_differential(4, 5, (1,) * 5)
    with pytest.raises(ValidationError):
        linearized_differential(2, 5, (1, 2))


# --- membership oracles -----------------------------------------------------


def test_pencil3_resonant_weight():
    lat = gen_family("pencil", n=3)
    assert resonance_rank(lat, PENCIL3_RESONANT) == 2
    assert in_resonance(lat, PENCIL3_RESONANT, k=1)
    assert h1_dim(lat, PENCIL3_RESONANT) == 1


def test_braid4_local_weight():
    lat = _braid4()
    assert in_resonance(lat, BRAID4_LOCAL, k=1)
    assert not in_resonance(lat, BRAID4_LOCAL, k=2)
    assert h1_dim(lat, BRAID4_LOCAL) == 1


def test_braid4_essential_weight():
    lat = _braid4()
    assert in_resonance(lat, BRAID4_ESSENTIAL, k=1)
    assert h1_dim(lat, BRAID4_ESSENTIAL) == 1


def test_braid4_generic_weight_not_resonant():
    lat = _braid4()
    assert not in_resonance(lat, BRAID4_GENERIC, k=1)
    assert h1_dim(lat, BRAID4_GENERIC) == 0


def test_braid5_embedded_essential_weight():
    lat = _braid5()
    assert in_resonance(lat, BRAID5_ESSENTIAL, k=1)


def test_diamond_essential_tangents_resonant():
    lat = _diamond()
    for lam in (DIAMOND_T1, DIAMOND_T2, DIAMOND_T3):
        assert in_resonance(lat, lam, k=1)
        assert h1_dim(lat, lam) >= 1


def test_diamond_generic_weight_not_resonant():
    lat = _diamond()
    assert not in_resonance(lat, DIAMOND_GENERIC, k=1)


def test_diamond_local_weight():
    lat = _diamond()
    lam = (1, 0, 0, -1, 0, 0, 0)  # supported inside the flat {0, 3, 5}
    assert in_resonance(lat, lam, k=1)


def test_affine_parallel_weight_resonant():
    lat = _diamond_affine()
    lam = [0] * lat.n
    i, j = lat.parallel_pairs[0]
    lam[i] = 1
    assert in_resonance(lat, lam, k=1)
    lam[j] = -1
    assert in_resonance(lat, lam, k=1)


def test_h1_rejects_zero_weight():
    lat = _braid4()
    with pytest.raises(ValidationError):
        h1_dim(lat, (0,) * 6)


def test_resonance_depth_validation():
    lat = _braid4()
    with pytest.raises(ValidationError):
        in_resonance(lat, BRAID4_LOCAL, k=0)


# --- cross-route and sampler properties --------------------------------------


@st.composite
def _lattice_and_weights(draw):
    lat = draw(st.sampled_from(FIXTURE_LATTICES))
    lam = draw(
        st.lists(
            st.integers(min_value=-4, max_value=4),
            min_size=lat.n,
            max_size=lat.n,
        )
    )
    return lat, lam


@settings(max_examples=40, deadline=None)
@given(_lattice_and_weights())
def test_two_rank_routes_agree(case):
    lat, lam = case
    assert resonance_rank(lat, lam) == resonance_rank_os(lat, lam)


@settings(max_examples=40, deadline=None)
@given(_lattice_and_weights())
def test_direct_rank_matches_flat_row_reference(case):
    """The n x b2 multiplication-map rank against the flat wedge rows
    stacked over the triple rows, zero weights and zero entries included."""
    lat, lam = case
    assert resonance_rank(lat, lam) == flat_row_rank(lat, lam)


@settings(max_examples=40, deadline=None)
@given(_lattice_and_weights())
def test_h1_equals_pair_count_minus_rank(case):
    """Koszul exactness: h1 read off the multiplication map is the pair
    count minus the rank of the flat wedge rows over the triple rows."""
    lat, lam = case
    if all(v == 0 for v in lam):
        lam = list(lam)
        lam[0] = 1
    npairs = lat.n * (lat.n - 1) // 2
    assert h1_dim(lat, lam) == npairs - flat_row_rank(lat, lam)


@settings(max_examples=40, deadline=None)
@given(_lattice_and_weights())
def test_sampler_matches_direct_rank(case):
    lat, lam = case
    sampler = ResonanceSampler(lat)
    assert sampler.rank_at(lam) == resonance_rank(lat, lam)


ROUTE_LATTICES = {
    "hessian": lambda: lattice_from_central3(gen_family("hessian")),
    "monomial33": lambda: lattice_from_central3(gen_family("monomial", r=3)),
    "braid5": _braid5,
    "braid7": lambda: gen_family("braid", ell=7),
}


def _embedded_braid4_bases(ell):
    """Tangent bases of the non-local components of braid(ell): the one of
    braid(4), on the lines among each 4 of the ell strands.  Resonance of a
    subarrangement is resonance of the whole, and lines are numbered by
    their strand pairs in lexicographic order, as in braid(4)."""
    (component,) = enumerate_first_resonance(_braid4()).nonlocals
    line = {p: i for i, p in enumerate(itertools.combinations(range(ell), 2))}
    bases = []
    for strands in itertools.combinations(range(ell), 4):
        lines = [line[p] for p in itertools.combinations(strands, 2)]
        basis = []
        for row in component.basis:
            vec = [0] * len(line)
            for i, v in zip(lines, row):
                vec[i] = v
            basis.append(vec)
        bases.append(basis)
    return bases


@functools.lru_cache(maxsize=None)
def _route_data(name):
    """Lattice, sampler and component tangent bases, built once per name.
    braid(7) has 21 lines, past the enumeration cap, so its bases are the
    embedded non-local ones."""
    lat = ROUTE_LATTICES[name]()
    if name == "braid7":
        bases = _embedded_braid4_bases(7)
    else:
        bases = [c.basis for c in enumerate_first_resonance(lat).components]
    return lat, ResonanceSampler(lat), bases


@st.composite
def _structured_weights(draw):
    """Random rational weights, sum-zero weights on a multiple point, or
    an integer point on the span of an enumerated component."""
    name = draw(st.sampled_from(sorted(ROUTE_LATTICES)))
    lat, sampler, bases = _route_data(name)
    kind = draw(st.sampled_from(["random", "flat", "component"]))
    small = st.integers(min_value=-5, max_value=5)
    if kind == "random":
        lam = draw(
            st.lists(
                st.fractions(min_value=-4, max_value=4, max_denominator=3),
                min_size=lat.n,
                max_size=lat.n,
            )
        )
    elif kind == "flat":
        flat = draw(st.sampled_from(sorted(lat.flats)))
        coeffs = draw(st.lists(small, min_size=len(flat) - 1, max_size=len(flat) - 1))
        lam = [0] * lat.n
        for i, c in zip(flat, coeffs):
            lam[i] = c
        lam[flat[-1]] = -sum(coeffs)
    else:
        basis = draw(st.sampled_from(bases))
        coeffs = draw(st.lists(small, min_size=len(basis), max_size=len(basis)))
        lam = [sum(c * row[i] for c, row in zip(coeffs, basis)) for i in range(lat.n)]
    return lat, sampler, kind, lam


@settings(max_examples=60, deadline=None)
@given(_structured_weights())
def test_four_rank_routes_agree_on_larger_lattices(case):
    """The direct rank, the flat-row reference, the basis-projection rank,
    the sampler and pairs - h1 agree on hessian, monomial(3,3), braid(5)
    and braid(7), on and off the resonance variety."""
    lat, sampler, kind, lam = case
    npairs = lat.n * (lat.n - 1) // 2
    rank = resonance_rank(lat, lam)
    assert flat_row_rank(lat, lam) == rank
    assert resonance_rank_os(lat, lam) == rank
    assert sampler.rank_at(lam) == rank
    if any(lam):
        assert npairs - h1_dim(lat, lam) == rank
        if kind != "random":
            assert rank <= npairs - 1


def test_zero_weight_rank_is_b2():
    """At the zero weight vector the rank is b2, as the flat-row reference
    gives it, on the fixtures and the larger lattices."""
    lattices = FIXTURE_LATTICES + [build() for build in ROUTE_LATTICES.values()]
    for lat in lattices:
        zero = (0,) * lat.n
        assert resonance_rank(lat, zero) == flat_row_rank(lat, zero) == lat.b2()


def test_sampler_precomputation_reused():
    lat = _diamond()
    sampler = ResonanceSampler(lat)
    assert sampler.base_rank == lat.b2()
    assert sampler.quotient_dim == 21 - 15
    assert sampler.in_resonance_at(DIAMOND_T1, k=1)
    assert not sampler.in_resonance_at(DIAMOND_GENERIC, k=1)
    assert sampler.h1_at(DIAMOND_T1) == h1_dim(lat, DIAMOND_T1)


def _rref_residuals(lat):
    """The sampler's quotient as elimination gives it: the reduced row
    echelon form of the flat wedge rows over Q, then, for each pair column,
    its residual on the free columns (minus its reduced row there at a
    pivot, its unit vector at a free column), scaled by one common factor
    to coprime integers.  Returns the rank and the residuals."""
    npairs = len(pair_list(lat.n))
    rows = [[Fraction(v) for v in row] for row in flat_wedge_rows(lat)]
    pivots, rref = rational_rref(rows, npairs)
    free = [c for c in range(npairs) if c not in pivots]
    residuals = []
    for c in range(npairs):
        if c in pivots:
            row = rref[pivots.index(c)]
            residuals.append([-row[f] for f in free])
        else:
            residuals.append([Fraction(f == c) for f in free])
    flat = clear_denominators(itertools.chain.from_iterable(residuals))
    q = len(free)
    return len(pivots), [flat[c * q : (c + 1) * q] for c in range(npairs)]


def test_sampler_quotient_is_the_reduced_flat_wedge_block():
    """The sampler reads its quotient off the no-broken-circuit projection
    without eliminating; on the families and on seeded restrictions of them
    (parallel pairs included), its residuals and base rank are exactly
    those of the reduced row echelon form of the flat wedge rows."""
    lattices = FIXTURE_LATTICES + [
        lattice_from_central3(gen_family("hessian")),
        lattice_from_central3(gen_family("monomial", r=3)),
        gen_family("falk_pair")[1],
    ]
    rng = random.Random(20261019)
    for lat in list(lattices):
        for _ in range(3):
            size = rng.randint(2, lat.n)
            lattices.append(lat.restrict(rng.sample(range(lat.n), size)))
    assert any(lat.parallel_pairs for lat in lattices)
    for lat in lattices:
        sampler = ResonanceSampler(lat)
        base_rank, residuals = _rref_residuals(lat)
        assert sampler.base_rank == base_rank
        assert sampler.quotient_dim == len(pair_list(lat.n)) - base_rank
        assert sampler._residuals == residuals


def test_rational_weights_accepted():
    lat = _braid4()
    lam = (Fraction(1, 2), Fraction(-1, 2), 0, 0, Fraction(-1, 2), Fraction(1, 2))
    assert in_resonance(lat, lam, k=1)
    assert resonance_rank(lat, lam) == resonance_rank(lat, BRAID4_ESSENTIAL)
