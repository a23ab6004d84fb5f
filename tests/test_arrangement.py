"""Tests for arrangements, rank-2 lattices, family generators, and deconing."""

import itertools
import math
import random

import arrangement_reference as reference
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charvar.arrangement import (
    FIELD_ORDER_CAP,
    Arrangement,
    CapExceeded,
    Lattice2,
    ValidationError,
    affine_to_central_point,
    b2,
    central_to_affine_point,
    decone,
    gen_family,
    lattice_from_affine,
    lattice_from_central3,
)
from charvar.cli import _coned_size
from charvar.exactalg import ExactScalar, root_of_unity

# Frozen oracle lattices, worked out by hand from the defining equations
# before the grouping code existed (0-based indices).

# braid on 4 strands: lines indexed 0:(12) 1:(13) 2:(14) 3:(23) 4:(24) 5:(34)
BRAID4_TRIPLES = {(0, 1, 3), (0, 2, 4), (1, 2, 5), (3, 4, 5)}
BRAID4_DOUBLES = {(0, 5), (1, 4), (2, 3)}

# diamond arrangement in its shipped order (coordinate planes at 2, 3, 6)
DIAMOND_TRIPLES = {(0, 3, 5), (4, 5, 6), (0, 1, 6), (0, 2, 4), (2, 3, 6), (1, 3, 4)}
DIAMOND_DOUBLES = {(2, 5), (1, 5), (1, 2)}

# deconed diamond at the plane z (label 2): the five affine vertices and
# two parallel classes in the order the lines keep from the central listing
# (central order 1,3,4,5,6,7 becomes affine 0..5)
DIAMOND_AFFINE_TRIPLES = {(0, 2, 4), (3, 4, 5), (0, 1, 3), (1, 2, 5)}
DIAMOND_AFFINE_DOUBLE = {(1, 4)}
DIAMOND_AFFINE_PARALLELS = {(0, 5), (2, 3)}


def test_lattice_validation_rejects_overlapping_flats():
    with pytest.raises(ValidationError):
        Lattice2(5, [(0, 1, 2), (0, 1, 3)])


def test_lattice_validation_names_the_least_shared_pair():
    # the fourth flat meets the first in (1, 2), the second in (5, 6) and
    # the third in (0, 6): the message names the least pair it shares
    with pytest.raises(ValidationError, match=r"pair \(0, 6\) lies in two flats"):
        Lattice2(8, [(1, 2, 7), (4, 5, 6), (0, 3, 6), (0, 1, 2, 5, 6)])
    with pytest.raises(ValidationError, match=r"pair \(1, 2\) lies in two flats"):
        Lattice2(8, [(1, 2, 7), (4, 5, 6), (1, 2, 4)])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sets(st.integers(0, 7), min_size=3, max_size=5), max_size=5))
def test_flat_bitmasks_agree_with_a_pair_map(flats):
    # a pair-to-flat map meets shared pairs flat by flat, each flat's pairs
    # in lexicographic order; the per-hyperplane flat bitmasks must refuse
    # exactly the same inputs, name the same pair, and otherwise find the
    # same flat of every pair
    owner, shared = {}, None
    for flat in map(tuple, map(sorted, flats)):
        for pair in itertools.combinations(flat, 2):
            if pair in owner:
                shared = pair
                break
            owner[pair] = flat
        if shared:
            break
    if shared is None:
        lat = Lattice2(8, flats)
        pairs = list(itertools.combinations(range(8), 2))
        assert [lat.flat_of_pair(j, i) for i, j in pairs] == [
            owner.get(pair, pair) for pair in pairs
        ]
        assert lat.doubles() == [pair for pair in pairs if pair not in owner]
    else:
        with pytest.raises(ValidationError) as excinfo:
            Lattice2(8, flats)
        assert str(excinfo.value).startswith(f"pair {shared} lies in two flats;")


def test_lattice_masks_mark_flats_and_double_neighbours():
    lat = Lattice2(5, [(0, 1, 2)], parallel_pairs=[(3, 4)])
    assert lat.flat_masks == [0b00111]
    assert lat.double_masks == [0b11000, 0b11000, 0b11000, 0b00111, 0b00111]
    for h in range(lat.n):
        partners = {j for pair in lat.doubles() if h in pair for j in pair if j != h}
        assert {j for j in range(lat.n) if lat.double_masks[h] >> j & 1} == partners


def test_lattice_validation_rejects_small_flats():
    with pytest.raises(ValidationError):
        Lattice2(4, [(0, 1)])


def test_lattice_validation_rejects_parallel_inside_flat():
    with pytest.raises(ValidationError):
        Lattice2(4, [(0, 1, 2)], parallel_pairs=[(0, 1)])


def test_lattice_validation_requires_transitive_parallels():
    with pytest.raises(ValidationError):
        Lattice2(4, [], parallel_pairs=[(0, 1), (1, 2)])
    # closed class is fine
    Lattice2(4, [], parallel_pairs=[(0, 1), (1, 2), (0, 2)])


def test_lattice_doubles_and_b2():
    lat = Lattice2(4, [(0, 1, 2)])
    assert lat.doubles() == [(0, 3), (1, 3), (2, 3)]
    assert b2(lat) == 2 + 3
    assert lat.flat_of_pair(0, 2) == (0, 1, 2)
    assert lat.flat_of_pair(3, 0) == (0, 3)


def test_lattice_parallel_pair_queries():
    lat = Lattice2(4, [], parallel_pairs=[(0, 1)])
    assert lat.flat_of_pair(0, 1) is None
    assert (0, 1) not in lat.doubles()
    assert b2(lat) == 5


def test_lattice_json_round_trip():
    lat = Lattice2(6, [(0, 1, 2), (0, 3, 4)], parallel_pairs=[(1, 5)])
    again = Lattice2.from_json(lat.to_json())
    assert again.n == lat.n
    assert again.flats == lat.flats
    assert again.parallel_pairs == lat.parallel_pairs
    assert lat.to_json()["flats"] == [[1, 2, 3], [1, 4, 5]]


def test_lattice_json_rejects_out_of_range():
    with pytest.raises(ValidationError):
        Lattice2.from_json({"n": 3, "flats": [[1, 2, 4]]})


def test_restrict_turns_flats_into_doubles():
    lat = Lattice2(5, [(0, 1, 2), (0, 3, 4)])
    sub = lat.restrict([0, 1, 3, 4])
    assert sub.n == 4
    assert sub.flats == [(0, 2, 3)]
    assert (0, 1) in sub.doubles()


# ---------------------------------------------------------------------------
# family generators and coordinate lattices
# ---------------------------------------------------------------------------


def test_braid4_lattice_matches_oracle():
    lat = gen_family("braid", ell=4)
    assert lat.n == 6
    assert set(lat.flats) == BRAID4_TRIPLES
    assert set(lat.doubles()) == BRAID4_DOUBLES
    assert b2(lat) == 4 * 2 + 3


def test_braid5_lattice_counts():
    lat = gen_family("braid", ell=5)
    assert lat.n == 10
    assert len(lat.flats) == 10
    assert len(lat.doubles()) == 15
    assert b2(lat) == 35


def test_diamond_lattice_matches_oracle():
    arr = gen_family("diamond")
    assert arr.n == 7
    lat = lattice_from_central3(arr)
    assert set(lat.flats) == DIAMOND_TRIPLES
    assert set(lat.doubles()) == DIAMOND_DOUBLES
    assert b2(lat) == 15


def test_monomial_lattice_r2():
    arr = gen_family("monomial", r=2)
    lat = lattice_from_central3(arr)
    assert lat.n == 6
    # four triple points, and the three family pairs stay implicit doubles
    assert len(lat.flats) == 4
    assert all(len(f) == 3 for f in lat.flats)
    assert len(lat.doubles()) == 3
    assert b2(lat) == 4 * 2 + 3


def test_monomial_lattice_r3():
    arr = gen_family("monomial", r=3)
    lat = lattice_from_central3(arr)
    assert lat.n == 9
    assert len(lat.flats) == 12
    sizes = sorted(len(f) for f in lat.flats)
    assert sizes == [3] * 12
    assert len(lat.doubles()) == 0
    assert b2(lat) == 24


def test_monomial_lattice_r4_counts():
    arr = gen_family("monomial", r=4)
    lat = lattice_from_central3(arr)
    assert lat.n == 12
    # three coordinate-axis flats of multiplicity 4 and 16 triples
    sizes = sorted(len(f) for f in lat.flats)
    assert sizes == [3] * 16 + [4] * 3
    assert len(lat.doubles()) == 0
    assert b2(lat) == 16 * 2 + 3 * 3


def test_monomial_triples_follow_exponent_sum():
    r = 3
    arr = gen_family("monomial", r=r)
    lat = lattice_from_central3(arr)
    cross_triples = []
    for f in lat.flats:
        if len(f) != 3:
            continue
        names = [arr.labels[i] for i in f]
        by_family = {name[1:3]: int(name.split("^")[1]) for name in names}
        if len(by_family) == 1:
            continue  # a same-family flat (all planes through one axis)
        # H12^p, H13^s, H23^q with s = p + q mod r
        assert set(by_family) == {"12", "13", "23"}
        assert (by_family["12"] + by_family["23"] - by_family["13"]) % r == 0
        cross_triples.append(f)
    assert len(cross_triples) == r * r


def test_full_monomial_lattice_r2():
    arr = gen_family("full_monomial", r=2)
    lat = lattice_from_central3(arr)
    assert lat.n == 9
    sizes = sorted(len(f) for f in lat.flats)
    # three coordinate-axis flats pick up the two coordinate planes
    assert sizes == [3, 3, 3, 3, 4, 4, 4]
    assert len(lat.doubles()) == 3 * 2


def test_hessian_lattice():
    arr = gen_family("hessian")
    lat = lattice_from_central3(arr)
    assert lat.n == 12
    sizes = sorted(len(f) for f in lat.flats)
    assert sizes == [4] * 9
    assert len(lat.doubles()) == 12
    assert b2(lat) == 9 * 3 + 12


def test_pencil_and_generic():
    pencil = gen_family("pencil", n=5)
    assert pencil.flats == [(0, 1, 2, 3, 4)]
    assert b2(pencil) == 4
    generic = gen_family("generic", n=5)
    assert generic.flats == []
    assert b2(generic) == 10


def test_falk_pair_shapes():
    first, second = gen_family("falk_pair")
    assert first.n == second.n == 7
    assert len(first.flats) == len(second.flats) == 4
    assert first.flats != second.flats
    assert b2(first) == b2(second) == 17


def test_gen_family_rejects_unknown():
    with pytest.raises(ValidationError):
        gen_family("octagon")
    with pytest.raises(ValidationError):
        gen_family("braid", ell=2)


def test_arrangement_rejects_duplicates_and_bad_central():
    with pytest.raises(ValidationError):
        Arrangement("central", [[1, 0, 0, 0], [2, 0, 0, 0]])
    with pytest.raises(ValidationError):
        Arrangement("central", [[1, 0, 0, 5]])
    with pytest.raises(ValidationError):
        Arrangement("affine", [[0, 0, 3]])


def test_field_order_cap_holds_on_the_lcm_of_the_coefficient_orders():
    # zeta_8 and zeta_15 span Q(zeta_120), at the cap; zeta_11 and zeta_13
    # span Q(zeta_143), above it
    def planes(p, q):
        return [[1, 0, 0, 0], [0, 1, 0, 0], [root_of_unity(p), root_of_unity(q), 1, 0]]

    assert FIELD_ORDER_CAP == 120
    assert Arrangement("central", planes(8, 15)).field_order == 120
    with pytest.raises(CapExceeded, match="field order 120 [(]got 143[)]"):
        Arrangement("central", planes(11, 13))
    with pytest.raises(CapExceeded):
        gen_family("monomial", r=121)


def test_arrangement_json_round_trip():
    arr = gen_family("monomial", r=3)
    again = Arrangement.from_json(arr.to_json())
    assert again.flavor == arr.flavor
    assert again.labels == arr.labels
    assert all(
        a == b for ra, rb in zip(again.hyperplanes, arr.hyperplanes) for a, b in zip(ra, rb)
    )


# ---------------------------------------------------------------------------
# deconing
# ---------------------------------------------------------------------------


def test_decone_diamond_at_z():
    arr = gen_family("diamond")
    res = decone(arr, at=1)  # the plane z, 0-based index 1
    assert res.infinity == 1
    assert res.line_to_central == (0, 2, 3, 4, 5, 6)
    lat = lattice_from_affine(res.arrangement)
    assert set(lat.flats) == DIAMOND_AFFINE_TRIPLES
    assert set(lat.doubles()) == DIAMOND_AFFINE_DOUBLE
    assert set(lat.parallel_pairs) == DIAMOND_AFFINE_PARALLELS
    assert b2(lat) == 9


def test_decone_preserves_incidences_generally():
    # every central rank-2 flat not through the infinity plane survives as
    # an affine vertex; those through it become parallel classes
    arr = gen_family("diamond")
    central = lattice_from_central3(arr)
    for at in range(arr.n):
        res = decone(arr, at=at)
        affine = lattice_from_affine(res.arrangement)
        back = {j: c for j, c in enumerate(res.line_to_central)}
        survived = {
            tuple(sorted(back[i] for i in f)) for f in affine.rank2_classes()
        }
        expected = set()
        for f in central.rank2_classes():
            if at in f:
                cut = tuple(i for i in f if i != at)
                if len(cut) >= 2:
                    # a parallel class, not a vertex
                    for pair in itertools.combinations(cut, 2):
                        assert (
                            affine.flat_of_pair(
                                res.line_to_central.index(pair[0]),
                                res.line_to_central.index(pair[1]),
                            )
                            is None
                        )
                continue
            expected.add(f)
        assert survived == expected


def test_monomial_decone_runs():
    arr = gen_family("monomial", r=3)
    res = decone(arr)
    assert res.infinity == arr.n - 1
    lat = lattice_from_affine(res.arrangement)
    assert lat.n == 8


def test_point_transport_round_trip():
    z = root_of_unity(6)
    point = [z, z.inverse(), ExactScalar.from_rational(1)]
    full = affine_to_central_point(point, at=1)
    assert len(full) == 4
    prod = ExactScalar.one()
    for v in full:
        prod = prod * v
    assert prod.is_one()
    back = central_to_affine_point(full, at=1)
    assert back == point


def test_point_transport_validates():
    with pytest.raises(ValidationError):
        central_to_affine_point([2, 1, 1], at=0)
    with pytest.raises(ValidationError):
        affine_to_central_point([1, 0], at=0)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=3, max_value=7))
def test_braid_lattice_counts_formula(ell):
    lat = gen_family("braid", ell=ell)
    n = ell * (ell - 1) // 2
    assert lat.n == n
    assert len(lat.flats) == ell * (ell - 1) * (ell - 2) // 6
    # every pair of strands pairs: each line meets ell-2 triples
    per_line = {}
    for f in lat.flats:
        for i in f:
            per_line[i] = per_line.get(i, 0) + 1
    assert all(v == ell - 2 for v in per_line.values())


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=2, max_value=5))
def test_monomial_b2_formula(r):
    arr = gen_family("monomial", r=r)
    lat = lattice_from_central3(arr)
    # r^2 triples plus three families of r concurrent planes
    expected = r * r * 2 + (3 * (r - 1) if r >= 3 else 3)
    assert b2(lat) == expected


# ---------------------------------------------------------------------------
# integer-keyed lattices against the ExactScalar reference
# ---------------------------------------------------------------------------

# every coordinate family, over Q and over Q(zeta_r) for r = 3, 4, 5
COORDINATE_FAMILIES = (
    [("diamond", {}), ("hessian", {})]
    + [("monomial", {"r": r}) for r in range(2, 6)]
    + [("full_monomial", {"r": r}) for r in range(2, 5)]
)
FAMILY_IDS = [f"{name}{kw.get('r', '')}" for name, kw in COORDINATE_FAMILIES]


def _assert_matches_reference(arr):
    if arr.flavor == "central":
        got, want = lattice_from_central3(arr), reference.lattice_from_central3(arr)
    else:
        got, want = lattice_from_affine(arr), reference.lattice_from_affine(arr)
    assert got.flats == want.flats
    # the parallel pairs keep the reference's pair order, not just its set
    assert got.parallel_pairs == want.parallel_pairs
    assert _coned_size(arr) == reference.coned_size(arr)
    return got


@pytest.mark.parametrize("name, params", COORDINATE_FAMILIES, ids=FAMILY_IDS)
def test_family_lattices_match_the_reference_centrally_and_at_every_chart(
    name, params
):
    arr = gen_family(name, **params)
    central = _assert_matches_reference(arr)
    assert central.flats
    for at in range(arr.n):
        _assert_matches_reference(decone(arr, at=at).arrangement)


def _zeta12_scalar(rng):
    return sum(
        (rng.randint(-2, 2) * root_of_unity(12, i) for i in range(4)),
        ExactScalar.zero(),
    )


def _zeta12_transform(rng):
    """A seeded invertible 3 x 3 matrix over Q(zeta_12)."""
    while True:
        m = [[_zeta12_scalar(rng) for _ in range(3)] for _ in range(3)]
        det = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
        if not det.is_zero():
            return m


def _transformed(rows, m):
    """Each normal a sent to a m: the planes of the image of the
    arrangement under x -> m^-1 x, with the same incidences."""
    return [
        [sum((row[i] * m[i][k] for i in range(3)), ExactScalar.zero()) for k in range(3)]
        + [ExactScalar.zero()]
        for row in rows
    ]


# families whose field order divides 12, so the images stay over Q(zeta_12)
ZETA12_FAMILIES = [
    ("diamond", {}),
    ("hessian", {}),
    ("monomial", {"r": 4}),
    ("monomial", {"r": 6}),
    ("full_monomial", {"r": 3}),
]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize(
    "name, params",
    ZETA12_FAMILIES,
    ids=[f"{name}{kw.get('r', '')}" for name, kw in ZETA12_FAMILIES],
)
def test_seeded_subarrangements_under_zeta12_transforms_match_the_reference(
    name, params, seed
):
    rng = random.Random(f"{name}{params}:{seed}")
    arr = gen_family(name, **params)
    lattice = lattice_from_central3(arr)
    support = sorted(rng.sample(range(arr.n), rng.randint(5, min(arr.n, 10))))
    rows = _transformed([arr.hyperplanes[i] for i in support], _zeta12_transform(rng))
    image = Arrangement("central", rows)
    assert image.field_order == 12
    got = _assert_matches_reference(image)
    # a linear change of coordinates keeps every incidence
    assert got.flats == sorted(lattice.restrict(support).flats)
    at = rng.randrange(image.n)
    _assert_matches_reference(decone(image, at=at).arrangement)


@pytest.mark.parametrize("flavor", ["central", "affine"])
def test_proportional_rows_at_different_orders_are_refused(flavor):
    z3, z6 = root_of_unity(3), root_of_unity(6)
    # zeta_3 is stored at order 3, the computed zeta_6^2 at order 6
    assert z6 * z6 == z3 and (z6 * z6).order == 6
    one, two = ExactScalar.one(), ExactScalar.from_rational(2)
    tail = [ExactScalar.zero()] if flavor == "central" else []
    first = [z3, one, two] + tail
    other = [one, ExactScalar.zero(), one] + tail
    rng = random.Random(flavor)
    copies = [[z6 * z6, one, two] + tail] + [
        [v * scale for v in first]
        for scale in (z6, two * z6 * z6, root_of_unity(12, 5) - one, _zeta12_scalar(rng))
    ]
    for again in copies:
        for rows in ([first, other, again], [again, other, first]):
            order = math.lcm(*(v.order for row in rows for v in row))
            assert reference.has_duplicate(rows, order)
            with pytest.raises(ValidationError, match="duplicate hyperplane"):
                Arrangement(flavor, rows)
    # the entries of z3^2 * first, with the last one at the wrong power
    near = [one, z3 * z3, two * z3] + tail
    assert not reference.has_duplicate([first, near, other], 3)
    assert Arrangement(flavor, [first, near, other]).n == 3


def test_lattice_build_runs_without_exact_scalar_products(monkeypatch):
    families = [("hessian", {}), ("monomial", {"r": 4})]
    want = [
        reference.lattice_from_central3(gen_family(name, **kw)).flats
        for name, kw in families
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("ExactScalar product or inverse in the lattice build")

    monkeypatch.setattr(ExactScalar, "__mul__", refuse)
    monkeypatch.setattr(ExactScalar, "__rmul__", refuse)
    monkeypatch.setattr(ExactScalar, "inverse", refuse)
    got = [lattice_from_central3(gen_family(name, **kw)).flats for name, kw in families]
    assert got == want
