"""Tests for the depth-1 component enumeration.

Census oracles were derived by hand from the defining geometry of each
family (block patterns forced by double points, tangent spaces solved
exactly) and frozen here before being compared with the enumeration.
"""

import functools
import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charvar.arrangement import (
    Lattice2,
    ValidationError,
    decone,
    gen_family,
    lattice_from_affine,
    lattice_from_central3,
    _full_monomial_lattice,
    _monomial_lattice,
)
from charvar.components import (
    CapExceeded,
    Component,
    DEFAULT_CAP,
    cone_lattice,
    enumerate_first_resonance,
    format_torus_equation,
    is_isotropic,
    local_components,
    neighborly_partitions,
    nonvanishing_block_pairs,
    pairing_form_vanishes,
    partition_tangent_space,
    product_components,
    resonance_from_json,
    resonance_to_json,
    _drop_contained,
    _is_subspace,
    _restriction,
    _span_echelon,
    _union_classes,
    saturated_span,
    _verify_components,
)
from charvar.exactalg import hermite_normal_form, rational_rref
from charvar.osres import ResonanceSampler, h1_dim, nbc_basis, pair_list
from osres_reference import projection

import charvar.components as components_module
import charvar.osres as osres_module
import components_reference


def lat_of(name, **kw):
    obj = gen_family(name, **kw)
    if hasattr(obj, "flats"):
        return obj
    return lattice_from_central3(obj)


# ---------------------------------------------------------------------------
# frozen census oracles
# ---------------------------------------------------------------------------

# braid(4): lines are the 2-subsets of {1..4} in lexicographic order; the
# lone nonlocal component pairs complementary transpositions.
BRAID4_BLOCKS = ((0, 5), (1, 4), (2, 3))
BRAID4_BASIS = ((1, 0, -1, -1, 0, 1), (0, 1, -1, -1, 1, 0))
BRAID4_TORUS_ROWS = [
    [1, 0, 0, 0, 0, -1],
    [0, 1, 0, 0, -1, 0],
    [0, 0, 1, -1, 0, 0],
    [1, 1, 1, 0, 0, 0],
]

# diamond arrangement in the generator's listing order; the three nonlocal
# tori written as monomial-equation exponent rows.
DIAMOND_TORI_ROWS = [
    # weights vanish on hyperplane 6 (= x); pairs (1,4), (2,3), (5,7)
    [
        [1, 0, 0, -1, 0, 0, 0],
        [0, 1, -1, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, -1],
        [0, 0, 0, 0, 0, 1, 0],
        [1, 1, 0, 0, 1, 0, 0],
    ],
    # weights vanish on hyperplane 3 (= y); pairs (1,5), (2,6), (4,7)
    [
        [1, 0, 0, 0, -1, 0, 0],
        [0, 1, 0, 0, 0, -1, 0],
        [0, 0, 0, 1, 0, 0, -1],
        [0, 0, 1, 0, 0, 0, 0],
        [1, 1, 0, 1, 0, 0, 0],
    ],
    # weights vanish on hyperplane 2 (= z); pairs (1,7), (3,6), (4,5)
    [
        [1, 0, 0, 0, 0, 0, -1],
        [0, 0, 1, 0, 0, -1, 0],
        [0, 0, 0, 1, -1, 0, 0],
        [0, 1, 0, 0, 0, 0, 0],
        [1, 0, 1, 1, 0, 0, 0],
    ],
]
DIAMOND_BLOCKS = [
    ((0, 3), (1, 2), (4, 6)),
    ((0, 4), (1, 5), (3, 6)),
    ((0, 6), (2, 5), (3, 4)),
]
DIAMOND_BASES = [
    ((1, 0, 0, 1, -1, 0, -1), (0, 1, 1, 0, -1, 0, -1)),
    ((1, 0, 0, -1, 1, 0, -1), (0, 1, 0, -1, 0, 1, -1)),
    ((1, 0, 0, -1, -1, 0, 1), (0, 0, 1, -1, -1, 1, 0)),
]
DIAMOND_TORSION = (-1, 1, 1, -1, -1, 1, -1)

# monomial families are indexed family-major: H12^(k) -> k-1,
# H13^(k) -> r+k-1, H23^(k) -> 2r+k-1.
MONOMIAL2_BLOCKS = ((0, 1), (2, 3), (4, 5))
MONOMIAL2_BASIS = ((1, 1, 0, 0, -1, -1), (0, 0, 1, 1, -1, -1))
MONOMIAL3_PARTITIONS = {
    ((0, 1, 2), (3, 4, 5), (6, 7, 8)),
    ((0, 4, 6), (1, 3, 7), (2, 5, 8)),
    ((0, 3, 8), (1, 5, 6), (2, 4, 7)),
    ((0, 5, 7), (1, 4, 8), (2, 3, 6)),
}

# the exponent-4 family: the four six-hyperplane subarrangements with the
# lattice of the r = 2 family, one per pair of exponent cosets.
MONOMIAL4_COSET_SUPPORTS = [
    (0, 2, 4, 6, 9, 11),
    (0, 2, 5, 7, 8, 10),
    (1, 3, 4, 6, 8, 10),
    (1, 3, 5, 7, 9, 11),
]
# its 21 3-nets on subarrangements: one on each coset support above, 16 on
# nine planes (each block takes one plane from each of the three 4-fold
# pencils), and the three pencils themselves on all twelve.
MONOMIAL4_NETS = {
    ((0, 2), (4, 6), (9, 11)),
    ((0, 2), (5, 7), (8, 10)),
    ((1, 3), (4, 6), (8, 10)),
    ((1, 3), (5, 7), (9, 11)),
    ((0, 6, 10), (1, 5, 11), (2, 4, 8)),
    ((0, 5, 9), (1, 4, 10), (2, 7, 11)),
    ((0, 4, 8), (1, 7, 9), (2, 6, 10)),
    ((0, 7, 11), (1, 6, 8), (2, 5, 9)),
    ((0, 5, 8), (1, 4, 9), (3, 6, 11)),
    ((0, 4, 11), (1, 7, 8), (3, 5, 10)),
    ((0, 7, 10), (1, 6, 11), (3, 4, 9)),
    ((0, 6, 9), (1, 5, 10), (3, 7, 8)),
    ((0, 4, 10), (2, 6, 8), (3, 5, 9)),
    ((0, 7, 9), (2, 5, 11), (3, 4, 8)),
    ((0, 6, 8), (2, 4, 10), (3, 7, 11)),
    ((0, 5, 11), (2, 7, 9), (3, 6, 10)),
    ((1, 6, 9), (2, 5, 10), (3, 4, 11)),
    ((1, 5, 8), (2, 4, 9), (3, 7, 10)),
    ((1, 4, 11), (2, 7, 8), (3, 6, 9)),
    ((1, 7, 10), (2, 6, 11), (3, 5, 8)),
    ((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11)),
}

# Hessian: coordinate planes 0..2, grid plane (a,b) -> 3 + 3a + b.
HESSIAN_DIM3_BLOCKS = ((0, 1, 2), (3, 8, 10), (4, 6, 11), (5, 7, 9))

# four-coordinate rank-3 monomial lattice at r = 2: families in pair order
# (01),(02),(03),(12),(13),(23), two hyperplanes each.
D4_FULL_BLOCKS = ((0, 1, 10, 11), (2, 3, 8, 9), (4, 5, 6, 7))

FALK_SUPPORTS = [
    [(0, 1, 2), (0, 3, 4), (2, 4, 5), (3, 5, 6)],
    [(0, 1, 2), (0, 3, 4), (0, 5, 6), (2, 4, 5)],
]


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------


def test_saturated_span_is_canonical():
    rows_a = [[2, 0, -2, 0], [0, 3, -3, 0]]
    rows_b = [[1, 0, -1, 0], [1, 3, -4, 0]]
    assert saturated_span(rows_a, 4) == saturated_span(rows_b, 4)
    assert saturated_span(rows_a, 4) == [[1, 0, -1, 0], [0, 1, -1, 0]]
    assert saturated_span([], 3) == []


def test_local_components_of_braid4():
    comps = local_components(gen_family("braid", ell=4))
    assert [c.support for c in comps] == [
        (0, 1, 3),
        (0, 2, 4),
        (1, 2, 5),
        (3, 4, 5),
    ]
    assert all(c.kind == "local" and c.dim == 2 for c in comps)
    assert all(not c.verified for c in comps)
    first = comps[0]
    assert first.basis == ((1, 0, 0, -1, 0, 0), (0, 1, 0, -1, 0, 0))


def test_component_contains_weight():
    comp = local_components(gen_family("braid", ell=4))[0]
    assert comp.contains_weight((2, 3, 0, -5, 0, 0))
    assert comp.contains_weight(("1/2", "1/3", 0, "-5/6", 0, 0))
    assert not comp.contains_weight((2, 3, 0, -5, 1, 0))
    assert not comp.contains_weight((1, 1, 1, 1, 1, 1))


def test_component_contains_point():
    comp = local_components(gen_family("braid", ell=4))[0]
    # support {0, 1, 3}: off-support coordinates 1, product over support 1
    from fractions import Fraction

    assert comp.contains_point((2, 3, 1, Fraction(1, 6), 1, 1))
    assert not comp.contains_point((2, 3, 1, Fraction(1, 6), 2, 1))
    assert not comp.contains_point((2, 3, 1, Fraction(1, 5), 1, 1))


def test_format_torus_equation():
    assert format_torus_equation([1, 1, 0, 0, 1]) == "t1*t2*t5=1"
    assert format_torus_equation([1, 0, 0, -1]) == "t1*t4^-1=1"
    assert format_torus_equation([0, 2, 0]) == "t2^2=1"
    assert format_torus_equation([0, 0]) == "1=1"


def test_component_json_schema_local():
    comp = local_components(gen_family("braid", ell=4))[0]
    data = comp.to_json()
    assert set(data) == {
        "kind",
        "support",
        "dimension",
        "linear_equations",
        "monomial_equations",
        "verified",
    }
    assert data["kind"] == "local"
    assert data["support"] == [1, 2, 4]
    assert data["dimension"] == 2
    assert data["linear_equations"] == [
        [1, 1, 0, 1, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 1],
    ]
    assert data["monomial_equations"] == ["t1*t2*t4=1", "t3=1", "t5=1", "t6=1"]
    assert data["verified"] is False
    assert Component.from_json(data) == comp


def test_component_json_schema_nonlocal():
    res = enumerate_first_resonance(gen_family("braid", ell=4))
    comp = res.nonlocals[0]
    data = comp.to_json()
    assert data["kind"] == "nonlocal"
    assert data["partition"] == [[1, 6], [2, 5], [3, 4]]
    assert data["verified"] is True
    assert "nonvanishing_pairs" not in data
    assert Component.from_json(data) == comp


def test_resonance_json_roundtrip():
    res = enumerate_first_resonance(lat_of("diamond"))
    data = resonance_to_json(res)
    assert [c["kind"] for c in data["components"]] == ["local"] * 6 + [
        "nonlocal"
    ] * 3
    back = resonance_from_json(data)
    assert back.locals == res.locals
    assert back.nonlocals == res.nonlocals
    assert back.flagged == res.flagged == []


def test_component_from_json_needs_equations():
    with pytest.raises(ValidationError):
        Component.from_json(
            {
                "kind": "local",
                "support": [1],
                "dimension": 1,
                "linear_equations": [],
                "monomial_equations": [],
                "verified": False,
            }
        )


# ---------------------------------------------------------------------------
# coning
# ---------------------------------------------------------------------------


def test_union_classes_are_ascending_and_ordered_by_least_member():
    # one helper builds the parallel classes of `cone_lattice`; the
    # double-point atoms of `neighborly_partitions` come in the same order
    assert _union_classes(7, [(4, 1), (6, 3), (3, 0), (5, 5)]) == [
        [0, 3, 6],
        [1, 4],
        [2],
        [5],
    ]
    assert _union_classes(3, []) == [[0], [1], [2]]


def test_cone_lattice_restores_central_diamond():
    central = lat_of("diamond")
    res = decone(gen_family("diamond"), at=1)
    affine = lattice_from_affine(res.arrangement)
    assert affine.parallel_pairs  # the chart really has parallel lines
    coned = cone_lattice(affine)
    # affine line j sits at central index line_to_central[j]; the new
    # hyperplane is the one sent to infinity
    relabel = list(res.line_to_central) + [res.infinity]
    expected = sorted(
        tuple(sorted(relabel[i] for i in f)) for f in coned.flats
    )
    assert expected == sorted(central.flats)
    assert coned.n == central.n
    assert not coned.parallel_pairs


def test_enumeration_requires_central_lattice():
    affine = lattice_from_affine(decone(gen_family("diamond"), at=1).arrangement)
    with pytest.raises(ValidationError, match="cone"):
        enumerate_first_resonance(affine)


def test_enumeration_cap():
    lat = gen_family("braid", ell=5)
    with pytest.raises(CapExceeded):
        enumerate_first_resonance(lat, cap=9)
    assert DEFAULT_CAP == 14


# ---------------------------------------------------------------------------
# neighborly partitions and tangent spaces
# ---------------------------------------------------------------------------


def test_neighborly_partitions_of_braid4_support():
    lat = gen_family("braid", ell=4)
    parts = list(neighborly_partitions(lat, range(6)))
    assert parts == [BRAID4_BLOCKS]


def test_neighborly_partitions_need_three_atoms():
    lat = gen_family("generic", n=6)
    # every pair is a double, so all lines merge into one atom
    assert list(neighborly_partitions(lat, range(6))) == []


def test_partition_tangent_space_matches_component():
    lat = lat_of("diamond")
    for blocks, basis in zip(DIAMOND_BLOCKS, DIAMOND_BASES):
        assert partition_tangent_space(lat, blocks) == [list(r) for r in basis]


def test_partition_tangent_space_rejects_non_neighborly():
    lat = lat_of("diamond")
    for blocks in (
        # flat (0, 3, 5) has two members in the first block and one outside
        ((0, 3), (5,), (1, 2, 4, 6)),
        # (1, 2) is a double point of the restriction to {0, 1, 2, 3, 4, 6},
        # split across two blocks; every triple point there is polychrome
        ((0, 3), (1,), (2,), (4, 6)),
    ):
        with pytest.raises(ValidationError, match="neighborly"):
            partition_tangent_space(lat, blocks)


@pytest.mark.parametrize("bad", [7, -1])
def test_support_indices_out_of_range_are_refused(bad):
    lat = lat_of("diamond")
    with pytest.raises(ValidationError, match=f"index {bad} out of range"):
        list(neighborly_partitions(lat, (0, 1, 2, 3, 4, bad)))
    with pytest.raises(ValidationError, match=f"index {bad} out of range"):
        partition_tangent_space(lat, ((0, 3), (1, 2), (4, bad)))


def test_partition_tangent_space_rejects_overlapping_blocks():
    lat = lat_of("diamond")
    with pytest.raises(ValidationError, match="disjoint"):
        partition_tangent_space(lat, ((0, 3), (3, 4), (1, 2)))


@settings(max_examples=25, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=9), min_size=4, max_size=8))
def test_yielded_partitions_produce_valid_tangent_spaces(support):
    lat = gen_family("braid", ell=5)
    support = sorted(support)
    sub = lat.restrict(support)
    classes = [set(f) for f in sub.flats] + [set(d) for d in sub.doubles()]
    pos = {h: i for i, h in enumerate(support)}
    for blocks in itertools.islice(neighborly_partitions(lat, support), 5):
        rows = partition_tangent_space(lat, blocks)
        block_sets = [set(pos[h] for h in b) for b in blocks]
        for row in rows:
            # supported inside the support set, total sum zero
            assert all(row[h] == 0 for h in range(lat.n) if h not in pos)
            assert sum(row) == 0
            for cls in classes:
                counts = [len(cls & b) for b in block_sets]
                if max(counts) != len(cls):  # polychrome class sums to zero
                    assert sum(row[support[i]] for i in cls) == 0


def _reference_tangent_space(lat, blocks):
    """The tangent solve by rational elimination: Fraction constraint rows
    on the support, the kernel read off their reduced echelon form, then
    embedded in all n coordinates and saturated."""
    support = sorted(itertools.chain.from_iterable(blocks))
    sub = lat.restrict(support)
    pos = {h: i for i, h in enumerate(support)}
    block_sets = [set(pos[h] for h in b) for b in blocks]
    constraints = [[Fraction(1)] * len(support)]
    for cls in [set(f) for f in sub.flats] + [set(d) for d in sub.doubles()]:
        if max(len(cls & b) for b in block_sets) < len(cls):
            constraints.append([Fraction(int(i in cls)) for i in range(len(support))])
    pivots, rref = rational_rref(constraints, len(support))
    kernel = []
    for free in range(len(support)):
        if free in pivots:
            continue
        vec = [Fraction(0)] * len(support)
        vec[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rref[r][free]
        denom = math.lcm(*(v.denominator for v in vec))
        full = [0] * lat.n
        for i, h in enumerate(support):
            full[h] = int(vec[i] * denom)
        kernel.append(full)
    return saturated_span(kernel, lat.n)


# every neighborly partition of every support, pencils included
REFERENCE_PARTITION_COUNTS = {"hessian": 305, "monomial": 50}


@pytest.mark.parametrize("name", sorted(REFERENCE_PARTITION_COUNTS))
def test_partition_tangent_space_matches_rational_reference(name):
    lat = lat_of(name, r=3) if name == "monomial" else lat_of(name)
    count = 0
    for size in range(3, lat.n + 1):
        for support in itertools.combinations(range(lat.n), size):
            for blocks in neighborly_partitions(lat, support):
                got = partition_tangent_space(lat, blocks)
                assert got == _reference_tangent_space(lat, blocks), blocks
                count += 1
    assert count == REFERENCE_PARTITION_COUNTS[name]


# ---------------------------------------------------------------------------
# the bitmask support scan against the restricted lattice
# ---------------------------------------------------------------------------


def _affine_diamond():
    return lattice_from_affine(decone(gen_family("diamond"), at=1).arrangement)


def _assert_scan_matches_restriction(lat, support):
    support = sorted(support)
    sub = lat.restrict(support)
    flats, atoms = _restriction(lat, support)
    assert flats == [{support[i] for i in f} for f in sub.flats], support
    assert [sorted(a) for a in atoms] == components_reference.restricted_atoms(
        lat, support
    ), support
    got = list(neighborly_partitions(lat, support))
    assert got == list(components_reference.neighborly_partitions(lat, support)), support
    return len(got)


SCAN_FIXTURES = {
    "diamond": lambda: lat_of("diamond"),
    "braid(5)": lambda: gen_family("braid", ell=5),
    "monomial(3,3)": lambda: lat_of("monomial", r=3),
    "coned affine diamond": lambda: cone_lattice(_affine_diamond()),
}


@pytest.mark.parametrize("name", sorted(SCAN_FIXTURES))
def test_support_scan_matches_the_restricted_lattice_on_every_support(name):
    lat = SCAN_FIXTURES[name]()
    yielded = 0
    for size in range(1, lat.n + 1):
        for support in itertools.combinations(range(lat.n), size):
            yielded += _assert_scan_matches_restriction(lat, support)
    assert yielded > 0


@pytest.mark.parametrize("name", ["hessian", "monomial(4,3)"])
def test_support_scan_matches_the_restricted_lattice_on_seeded_supports(name):
    lat = lat_of("hessian") if name == "hessian" else lat_of("monomial", r=4)
    rng = random.Random(f"scan:{name}")
    yielded = 0
    for _ in range(200):
        # each hyperplane in or out with even odds: supports of every size,
        # weighted as the census meets them
        support = [h for h in range(lat.n) if rng.random() < 0.5]
        yielded += _assert_scan_matches_restriction(lat, support)
    assert yielded > 0


def test_support_scan_keeps_parallel_pairs_apart():
    # parallel lines meet nowhere: they are no double point, so they join no
    # atom, exactly as `Lattice2.doubles` leaves them out
    lat = _affine_diamond()
    assert lat.parallel_pairs
    yielded = 0
    for size in range(1, lat.n + 1):
        for support in itertools.combinations(range(lat.n), size):
            yielded += _assert_scan_matches_restriction(lat, support)
    assert yielded > 0
    # the four lines of two parallel classes: no flat and no double among
    # (0, 5) and (2, 3), and every cross pair a double, so one atom
    flats, atoms = _restriction(lat, (0, 2, 3, 5))
    assert (flats, atoms) == ([], [{0, 2, 3, 5}])
    pair = Lattice2(4, [], parallel_pairs=[(0, 1), (2, 3)])
    assert _restriction(pair, range(4)) == ([], [{0, 1, 2, 3}])
    assert list(neighborly_partitions(pair, range(4))) == []


def _nonzero(comp):
    return {i for row in comp.basis for i, v in enumerate(row) if v}


def _echelon_candidates(lat, monkeypatch):
    """Every list of candidates the enumeration hands to `_drop_contained`."""
    seen = []
    original = components_module._drop_contained

    def spy(candidates):
        seen.append(list(candidates))
        return original(candidates)

    monkeypatch.setattr(components_module, "_drop_contained", spy)
    enumerate_first_resonance(lat)
    monkeypatch.undo()
    return seen


def test_containment_prefilter_is_sound_on_census_candidates(monkeypatch):
    contained = skipped = 0
    for lat in (
        lat_of("hessian"),
        gen_family("braid", ell=5),
        lat_of("monomial", r=4),
    ):
        (candidates,) = _echelon_candidates(lat, monkeypatch)
        for d in candidates:
            echelon = _span_echelon(d, lat.n)
            for c in candidates:
                if c is d or c.dim > d.dim:
                    continue
                if _is_subspace(c, echelon):
                    contained += 1
                    assert _nonzero(c) <= _nonzero(d), (c.support, d.support)
                elif not _nonzero(c) <= _nonzero(d):
                    skipped += 1
        assert _drop_contained(candidates) == components_reference.drop_contained(
            candidates
        )
    assert contained > 0 and skipped > 0


def test_containment_prefilter_is_sound_on_seeded_bases():
    rng = random.Random(20261019)
    n = 8
    spans = []
    for _ in range(60):
        support = rng.sample(range(n), rng.randint(2, n))
        dim = rng.randint(1, len(support) - 1)
        rows = []
        for _ in range(dim):
            row = [0] * n
            for h in support:
                row[h] = rng.randint(-2, 2)
            rows.append(row)
        spans.append(rows)
        # a subspace of it, so that containment happens
        mix = [sum(rng.randint(-2, 2) * r[i] for r in rows) for i in range(n)]
        spans.append([mix])
    comps = [
        Component(
            kind="nonlocal",
            support=tuple(sorted({i for r in rows for i, v in enumerate(r) if v})),
            blocks=(),
            basis=tuple(tuple(r) for r in saturated_span(rows, n)),
        )
        for rows in spans
        if any(any(r) for r in rows)
    ]
    contained = 0
    for d in comps:
        echelon = _span_echelon(d, n)
        for c in comps:
            if _is_subspace(c, echelon):
                contained += c is not d
                assert _nonzero(c) <= _nonzero(d)
    assert contained > 0
    assert _drop_contained(comps) == components_reference.drop_contained(comps)


# ---------------------------------------------------------------------------
# the pairing form
# ---------------------------------------------------------------------------


def test_pairing_form_detects_nonvanishing_pair():
    blocks = ((0, 1), (2,), (3,))
    basis = [(1, -1, 0, 0), (1, 0, -1, 0)]
    assert not pairing_form_vanishes(blocks, basis)
    assert nonvanishing_block_pairs(blocks, basis) == [(0, 1)]


def test_pairing_form_components_do_not_cancel_across_pairs():
    # determinants +1 and -1 on two same-block pairs must NOT cancel
    blocks = ((0, 1), (2, 3))
    basis = [(1, 0, 1, 0), (0, 1, 0, -1)]
    assert not pairing_form_vanishes(blocks, basis)
    assert nonvanishing_block_pairs(blocks, basis) == [(0, 1), (2, 3)]


def test_pairing_form_vanishes_for_block_constant_weights():
    blocks = ((0, 1), (2, 3), (4, 5))
    basis = [(1, 1, 0, 0, -1, -1), (0, 0, 1, 1, -1, -1)]
    assert pairing_form_vanishes(blocks, basis)
    assert nonvanishing_block_pairs(blocks, basis) == []


# ---------------------------------------------------------------------------
# censuses
# ---------------------------------------------------------------------------


def test_braid4_census():
    res = enumerate_first_resonance(gen_family("braid", ell=4))
    assert len(res.locals) == 4
    assert len(res.nonlocals) == 1
    assert res.flagged == []
    comp = res.nonlocals[0]
    assert comp.support == tuple(range(6))
    assert comp.blocks == BRAID4_BLOCKS
    assert comp.basis == BRAID4_BASIS
    assert comp.torus_equations() == hermite_normal_form(BRAID4_TORUS_ROWS)
    assert all(c.verified for c in res.components)


def test_braid5_census():
    res = enumerate_first_resonance(gen_family("braid", ell=5))
    assert len(res.locals) == 10
    assert len(res.nonlocals) == 5
    assert res.flagged == []
    pairs = list(itertools.combinations(range(5), 2))
    index = {p: i for i, p in enumerate(pairs)}
    expected_supports = []
    for quad in itertools.combinations(range(5), 4):
        expected_supports.append(
            tuple(sorted(index[p] for p in itertools.combinations(quad, 2)))
        )
    assert [c.support for c in res.nonlocals] == sorted(expected_supports)
    for comp in res.nonlocals:
        quad = next(
            q
            for q in itertools.combinations(range(5), 4)
            if tuple(sorted(index[p] for p in itertools.combinations(q, 2)))
            == comp.support
        )
        rows = []
        for p in pairs:
            if not set(p) <= set(quad):
                row = [0] * 10
                row[index[p]] = 1
                rows.append(row)
            else:
                comp_pair = tuple(sorted(set(quad) - set(p)))
                if p < comp_pair:
                    row = [0] * 10
                    row[index[p]] = 1
                    row[index[comp_pair]] = -1
                    rows.append(row)
        # product over the three pairs through the least point of the
        # 4-subset; the product over all six pairs inside would generate
        # an index-2 sublattice whose zero set picks up a torsion translate
        total = [0] * 10
        for x in quad[1:]:
            total[index[(quad[0], x)]] = 1
        rows.append(total)
        assert comp.torus_equations() == hermite_normal_form(rows)


def test_braid_census_counts_follow_binomials():
    for ell in range(3, 7):
        res = enumerate_first_resonance(gen_family("braid", ell=ell), cap=15)
        assert len(res.locals) == len(list(itertools.combinations(range(ell), 3)))
        assert len(res.nonlocals) == len(
            list(itertools.combinations(range(ell), 4))
        )
        assert res.flagged == []


def test_pencil_census():
    res = enumerate_first_resonance(gen_family("pencil", n=6))
    assert len(res.locals) == 1
    assert res.locals[0].dim == 5
    assert res.nonlocals == []
    assert res.flagged == []


def test_generic_census_is_empty():
    res = enumerate_first_resonance(gen_family("generic", n=6))
    assert res.components == []
    assert res.flagged == []


def test_diamond_census():
    res = enumerate_first_resonance(lat_of("diamond"))
    assert len(res.locals) == 6
    assert len(res.nonlocals) == 3
    assert res.flagged == []
    assert all(c.dim == 2 for c in res.components)
    for comp, blocks, basis, rows in zip(
        res.nonlocals, DIAMOND_BLOCKS, DIAMOND_BASES, DIAMOND_TORI_ROWS
    ):
        assert comp.blocks == blocks
        assert comp.basis == basis
        assert comp.torus_equations() == hermite_normal_form(rows)


def test_diamond_torsion_point_lies_on_all_three_tori():
    res = enumerate_first_resonance(lat_of("diamond"))
    for comp in res.nonlocals:
        assert comp.contains_point(DIAMOND_TORSION)
        assert comp.contains_point((1,) * 7)
    wrong = list(DIAMOND_TORSION)
    wrong[0] = 2
    assert not any(c.contains_point(wrong) for c in res.nonlocals)


def test_monomial2_census():
    res = enumerate_first_resonance(lat_of("monomial", r=2))
    assert len(res.locals) == 4
    assert len(res.nonlocals) == 1
    assert res.flagged == []
    comp = res.nonlocals[0]
    assert comp.blocks == MONOMIAL2_BLOCKS
    assert comp.basis == MONOMIAL2_BASIS


def test_monomial3_census():
    res = enumerate_first_resonance(lat_of("monomial", r=3))
    assert len(res.locals) == 12
    assert len(res.nonlocals) == 4
    assert res.flagged == []
    assert all(c.dim == 2 for c in res.components)
    assert {c.blocks for c in res.nonlocals} == MONOMIAL3_PARTITIONS
    assert all(len(c.support) == 9 for c in res.nonlocals)


def test_monomial_lattice_matches_geometry():
    for r in (2, 3, 4):
        geo = lattice_from_central3(gen_family("monomial", r=r))
        comb = _monomial_lattice(r, 3)
        assert geo.n == comb.n
        assert sorted(geo.flats) == sorted(comb.flats)
    for r in (2, 3):
        geo = lattice_from_central3(gen_family("full_monomial", r=r))
        comb = _full_monomial_lattice(r, 3)
        assert geo.n == comb.n
        assert sorted(geo.flats) == sorted(comb.flats)


def test_four_coordinate_monomial_census():
    lat = gen_family("monomial", r=2, l=4)
    res = enumerate_first_resonance(lat)
    assert len(res.locals) == 16
    assert len(res.nonlocals) == 13
    assert res.flagged == []
    full = [c for c in res.nonlocals if len(c.support) == lat.n]
    assert len(full) == 1
    assert full[0].blocks == D4_FULL_BLOCKS
    assert full[0].dim == 2
    # four six-hyperplane supports reproduce the three-coordinate census
    sizes = sorted(len(c.support) for c in res.nonlocals)
    assert sizes == [6] * 12 + [12]


def test_four_coordinate_family_partition_spans_dimension_two():
    # the three-block partition pairing disjoint coordinate-pair families
    # carries the pulled-back six-line pattern, so its span has dim 2
    for r in (2, 3):
        lat = gen_family("monomial", r=r, l=4)
        pairs = list(itertools.combinations(range(4), 2))
        fidx = {p: f for f, p in enumerate(pairs)}
        blocks = []
        for group in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((1, 2), (0, 3))):
            blk = []
            for p in group:
                f = fidx[p]
                blk.extend(range(f * r, f * r + r))
            blocks.append(tuple(sorted(blk)))
        rows = partition_tangent_space(lat, tuple(blocks))
        assert len(rows) == 2
        assert pairing_form_vanishes(tuple(blocks), rows)


def test_falk_pair_census():
    first, second = gen_family("falk_pair")
    for lat, supports in zip((first, second), FALK_SUPPORTS):
        res = enumerate_first_resonance(lat)
        assert [c.support for c in res.locals] == supports
        assert all(c.dim == 2 for c in res.locals)
        assert res.nonlocals == []
        assert res.flagged == []


def test_hessian_census():
    res = enumerate_first_resonance(lat_of("hessian"))
    assert len(res.locals) == 9
    assert all(c.dim == 3 for c in res.locals)
    assert res.flagged == []
    dim3 = [c for c in res.nonlocals if c.dim == 3]
    assert len(dim3) == 1
    assert dim3[0].blocks == HESSIAN_DIM3_BLOCKS
    assert pairing_form_vanishes(dim3[0].blocks, dim3[0].basis)
    assert all(c.dim == 2 for c in res.nonlocals if c is not dim3[0])


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------


def _lattices_isomorphic(a: Lattice2, b: Lattice2) -> bool:
    if a.n != b.n or sorted(map(len, a.flats)) != sorted(map(len, b.flats)):
        return False
    sig_a = [tuple(sorted(len(f) for f in a.flats if i in f)) for i in range(a.n)]
    sig_b = [tuple(sorted(len(f) for f in b.flats if i in f)) for i in range(b.n)]
    if sorted(sig_a) != sorted(sig_b):
        return False
    bset = set(map(frozenset, b.flats))
    aflats = list(map(set, a.flats))
    perm: list = [None] * a.n
    used = [False] * b.n

    def consistent() -> bool:
        for f in aflats:
            img = {perm[i] for i in f if perm[i] is not None}
            if not img:
                continue
            if len(img) == len(f):
                if frozenset(img) not in bset:
                    return False
            elif not any(img <= g for g in bset):
                return False
        return True

    def rec(i: int) -> bool:
        if i == a.n:
            return all(frozenset(perm[x] for x in f) in bset for f in aflats)
        for j in range(b.n):
            if used[j] or sig_a[i] != sig_b[j]:
                continue
            perm[i] = j
            used[j] = True
            if consistent() and rec(i + 1):
                return True
            perm[i] = None
            used[j] = False
        return False

    return rec(0)


def test_exponent_coset_subarrangements():
    # the rank-3 family at r = 4 contains exactly four six-hyperplane
    # subarrangements with the lattice of the r = 2 family, one per pair
    # of exponent cosets; the whole arrangement is the unique twelve-line
    # instance of itself
    lat4 = lat_of("monomial", r=4)
    target = _monomial_lattice(2, 3)
    found = []
    for sup in itertools.combinations(range(12), 6):
        sub = lat4.restrict(sup)
        if len(sub.flats) == 4 and _lattices_isomorphic(sub, target):
            found.append(sup)
    assert found == MONOMIAL4_COSET_SUPPORTS
    assert _lattices_isomorphic(lat4, _monomial_lattice(4, 3))


def _three_nets(lat: Lattice2, d: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every 3-net with blocks of size d on a subarrangement of lat.

    Brute force over supports of 3d hyperplanes and their partitions into
    three blocks (the block holding the least hyperplane first): a
    partition is a net when every pair from different blocks meets, inside
    the support, in a triple point with one member in each block.
    """
    owner = {}
    for cls in lat.rank2_classes():
        for h, k in itertools.permutations(cls, 2):
            owner[(h, k)] = frozenset(cls)
    nets = []
    for support in itertools.combinations(range(lat.n), 3 * d):
        for tail1 in itertools.combinations(support[1:], d - 1):
            first = (support[0],) + tail1
            left = [h for h in support[1:] if h not in tail1]
            for tail2 in itertools.combinations(left[1:], d - 1):
                second = (left[0],) + tail2
                third = tuple(h for h in left if h not in second)
                blocks = (first, second, third)
                if all(
                    len(owner[(h, k)].intersection(b)) == 1
                    for x, y in ((0, 1), (0, 2), (1, 2))
                    for h, k in itertools.product(blocks[x], blocks[y])
                    for b in blocks
                ):
                    nets.append(blocks)
    return nets


def _net_span(blocks, n: int) -> tuple[list[int], list[int]]:
    """v = u1 - u2 and w = u2 - u3 for the block indicators u1, u2, u3."""
    u = [[int(h in b) for h in range(n)] for b in blocks]
    return [a - b for a, b in zip(u[0], u[1])], [a - b for a, b in zip(u[1], u[2])]


def _wedge_in_os_degree_two(lat: Lattice2, v, w, proj=None) -> list[int]:
    """v ^ w in the Orlik-Solomon algebra, in no-broken-circuit coordinates;
    `proj` is `projection(nbc_basis(lat))`, built here when not given."""
    wedge = [v[i] * w[j] - v[j] * w[i] for i, j in pair_list(lat.n)]
    if proj is None:
        proj = projection(nbc_basis(lat))
    return [sum(c * x for c, x in zip(row, wedge)) for row in proj]


def test_monomial4_nets_are_certified_components():
    # independent census of the non-local components of the exponent-4
    # family, with no call into the enumeration: for a 3-net with block
    # indicators u1, u2, u3, the span of v = u1 - u2 and w = u2 - u3 is
    # isotropic (v ^ w = 0 in degree two) and h1 = 1 at a generic point of
    # it.  Every component of the resonance variety is isotropic, so one
    # through that point would force h1 >= dim - 1; the span is therefore a
    # whole two-dimensional component.
    lat = lat_of("monomial", r=4)
    nets = [blocks for d in (2, 3, 4) for blocks in _three_nets(lat, d)]
    assert set(nets) == MONOMIAL4_NETS
    assert len(nets) == len(MONOMIAL4_NETS) == 21
    sizes = sorted(sum(map(len, blocks)) for blocks in nets)
    assert sizes == [6] * 4 + [9] * 16 + [12]
    six_plane = sorted(
        tuple(sorted(itertools.chain(*blocks)))
        for blocks in nets
        if sum(map(len, blocks)) == 6
    )
    assert six_plane == MONOMIAL4_COSET_SUPPORTS
    for blocks in nets:
        v, w = _net_span(blocks, lat.n)
        assert not any(_wedge_in_os_degree_two(lat, v, w)), blocks
        assert h1_dim(lat, [2 * a + 3 * b for a, b in zip(v, w)]) == 1, blocks
    # control: trading two planes across blocks of a net breaks isotropy
    (a0, *rest0), (b0, *rest1), third = sorted(MONOMIAL4_NETS)[0]
    v, w = _net_span(((b0, *rest0), (a0, *rest1), third), lat.n)
    assert any(_wedge_in_os_degree_two(lat, v, w))


def test_every_sampled_resonant_weight_lies_in_a_component():
    fixtures = [
        gen_family("braid", ell=4),
        gen_family("braid", ell=5),
        lat_of("diamond"),
        lat_of("monomial", r=2),
        lat_of("monomial", r=3),
        gen_family("falk_pair")[0],
        gen_family("falk_pair")[1],
        gen_family("pencil", n=6),
        gen_family("generic", n=6),
    ]
    rng = random.Random(20260815)
    for lat in fixtures:
        res = enumerate_first_resonance(lat)
        comps = res.components
        sampler = ResonanceSampler(lat)
        flats = lat.flats
        for _ in range(1000):
            route = rng.randrange(3)
            if route == 0 or (route == 1 and not flats) or (route == 2 and not comps):
                lam = [rng.randint(-3, 3) for _ in range(lat.n)]
            elif route == 1:
                flat = flats[rng.randrange(len(flats))]
                lam = [0] * lat.n
                vals = [rng.randint(-4, 4) for _ in flat]
                vals[-1] = -sum(vals[:-1])
                for h, v in zip(flat, vals):
                    lam[h] = v
            else:
                comp = comps[rng.randrange(len(comps))]
                coeffs = [rng.randint(-4, 4) for _ in comp.basis]
                lam = [
                    sum(c * row[i] for c, row in zip(coeffs, comp.basis))
                    for i in range(lat.n)
                ]
            if not any(lam):
                continue
            if sampler.in_resonance_at(lam, k=1):
                assert any(c.contains_weight(lam) for c in comps)


def test_emitted_components_are_verified_with_generic_h1_one():
    from charvar.osres import h1_dim

    rng = random.Random(7)
    for lat in (gen_family("braid", ell=4), lat_of("diamond")):
        res = enumerate_first_resonance(lat)
        assert all(c.verified for c in res.components)
        for comp in res.components:
            assert comp.dim == 2
            for _ in range(5):
                coeffs = [0, 0]
                while 0 in coeffs or coeffs[0] == coeffs[1]:
                    coeffs = [rng.randint(-6, 6) for _ in range(2)]
                lam = [
                    sum(c * row[i] for c, row in zip(coeffs, comp.basis))
                    for i in range(lat.n)
                ]
                assert h1_dim(lat, lam) == 1


# ---------------------------------------------------------------------------
# the isotropy certificate
# ---------------------------------------------------------------------------

CENSUS_FIXTURES = {
    "hessian": lambda: lat_of("hessian"),
    "monomial(3,3)": lambda: lat_of("monomial", r=3),
    "braid(5)": lambda: gen_family("braid", ell=5),
    "diamond": lambda: lat_of("diamond"),
}


@functools.cache
def _census(name):
    lat = CENSUS_FIXTURES[name]()
    return lat, enumerate_first_resonance(lat).components, ResonanceSampler(lat)


@pytest.mark.parametrize("name", ["hessian", "braid(5)"])
def test_certificate_rejects_a_perturbed_basis_row(name):
    lat, comps, _ = _census(name)
    comp = next(c for c in comps if c.kind == "nonlocal")
    assert is_isotropic(lat, comp.basis)
    _verify_components(lat, [comp])
    first, *rest = comp.basis
    for h in range(lat.n):
        row = list(first)
        row[h] += 1
        mutated = replace(comp, basis=(tuple(row), *rest), verified=False)
        assert not is_isotropic(lat, mutated.basis), h
        with pytest.raises(RuntimeError, match="internal error"):
            _verify_components(lat, [comp, mutated])


@pytest.mark.parametrize("name", ["hessian", "braid(5)", "diamond"])
def test_certificate_agrees_with_the_projected_wedge(name):
    # the multiplication-map product of `is_isotropic` against the wedge
    # projected through the no-broken-circuit basis, on every pair of basis
    # rows of every component and on each single-entry perturbation of it
    lat, comps, _ = _census(name)
    proj = projection(nbc_basis(lat))
    verdicts = []
    for comp in comps:
        assert is_isotropic(lat, comp.basis)
        for u, v in itertools.combinations(comp.basis, 2):
            pairs = [(u, v)]
            for h in range(lat.n):
                bumped = [list(u), list(v)]
                for row in bumped:
                    row[h] += 1
                pairs += [(bumped[0], v), (u, bumped[1])]
            for a, b in pairs:
                want = not any(_wedge_in_os_degree_two(lat, a, b, proj))
                assert is_isotropic(lat, [a, b]) == want, (comp.support, a, b)
                verdicts.append(want)
    assert True in verdicts and False in verdicts


# every family with a flat of multiplicity three (generic lines have none)
LOCAL_FAMILIES = {
    "braid(4)": lambda: gen_family("braid", ell=4),
    "braid(5)": lambda: gen_family("braid", ell=5),
    "monomial(3,3)": lambda: lat_of("monomial", r=3),
    "monomial(4,3)": lambda: lat_of("monomial", r=4),
    "full_monomial(2,3)": lambda: lat_of("full_monomial", r=2),
    "hessian": lambda: lat_of("hessian"),
    "diamond": lambda: lat_of("diamond"),
    "pencil(5)": lambda: gen_family("pencil", n=5),
    "falk A": lambda: gen_family("falk_pair")[0],
    "falk B": lambda: gen_family("falk_pair")[1],
}


@pytest.mark.parametrize("name", sorted(LOCAL_FAMILIES))
def test_local_bases_are_saturated_hermite_forms(name):
    lat = LOCAL_FAMILIES[name]()
    assert lat.flats
    for comp in local_components(lat):
        rows = [list(r) for r in comp.basis]
        assert saturated_span(rows, lat.n) == rows, comp.support


def test_census_builds_no_restriction_projection_or_second_kernel(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("called during the census")

    lat = lat_of("hessian")
    monkeypatch.setattr(Lattice2, "restrict", refuse)
    monkeypatch.setattr(osres_module, "nbc_basis", refuse)
    monkeypatch.setattr(components_module, "saturated_span", refuse)
    assert not hasattr(components_module, "nbc_basis")
    res = enumerate_first_resonance(lat)
    assert len(res.components) == 64 and not res.flagged


def test_certificate_refuses_a_line():
    # a single row is trivially isotropic, but a line is resonant only when
    # its point is, so the certificate needs dimension two
    lat, comps, _ = _census("braid(5)")
    line = replace(comps[0], basis=comps[0].basis[:1])
    assert is_isotropic(lat, line.basis)
    with pytest.raises(RuntimeError, match="internal error"):
        _verify_components(lat, [line])


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_certified_spans_are_resonant_by_the_sampler(seed):
    # the certificate proves every point of the span resonant; the sampler
    # route and h1 check one seeded point of every census component
    rng = random.Random(seed)
    for name in CENSUS_FIXTURES:
        lat, comps, sampler = _census(name)
        for comp in comps:
            assert comp.verified
            coeffs = [0] * comp.dim
            while not any(coeffs):
                coeffs = [rng.randint(-9, 9) for _ in comp.basis]
            lam = [
                sum(c * row[i] for c, row in zip(coeffs, comp.basis))
                for i in range(lat.n)
            ]
            assert sampler.in_resonance_at(lam, k=1), (name, comp.support, lam)
            assert h1_dim(lat, lam) >= 1, (name, comp.support, lam)


def test_enumeration_is_deterministic():
    lat = lat_of("monomial", r=3)
    first = enumerate_first_resonance(lat)
    second = enumerate_first_resonance(lat)
    assert first.locals == second.locals
    assert first.nonlocals == second.nonlocals
    assert first.nonlocals == sorted(
        first.nonlocals, key=lambda c: (c.support, c.blocks)
    )


# ---------------------------------------------------------------------------
# components of a product, from each factor's components
# ---------------------------------------------------------------------------


def full_torus_component(n):
    basis = tuple(
        tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
    )
    return Component(
        kind="local", support=tuple(range(n)), blocks=(), basis=basis, verified=True
    )


def test_product_components_pin_the_complementary_block():
    c1 = full_torus_component(2)
    c2 = full_torus_component(3)
    out = product_components([c1], 2, [c2], 3)
    assert len(out) == 2
    first, second = out
    assert first.support == (0, 1)
    assert first.basis == ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0))
    assert first.torus_equations() == [[0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]
    assert second.support == (2, 3, 4)
    assert second.torus_equations() == [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]]


def test_product_components_with_an_empty_factor():
    c1 = full_torus_component(2)
    out = product_components([c1], 2, [], 3)
    assert len(out) == 1
    assert out[0].support == (0, 1)
    out = product_components([], 2, [c1], 2)
    assert out[0].support == (2, 3)


def test_product_components_shift_nonlocal_partitions():
    comp = Component(
        kind="nonlocal",
        support=(0, 1, 2),
        blocks=((0,), (1,), (2,)),
        basis=((1, -1, 0), (0, 1, -1)),
        verified=True,
    )
    out = product_components([], 1, [comp], 3)
    assert out[0].blocks == ((1,), (2,), (3,))
    assert out[0].basis == ((0, 1, -1, 0), (0, 0, 1, -1))


def test_product_components_validate_input():
    c1 = full_torus_component(2)
    with pytest.raises(ValidationError):
        product_components([c1], 3, [], 1)


def test_product_component_points_test_correctly():
    c1 = full_torus_component(2)
    c2 = full_torus_component(2)
    first, second = product_components([c1], 2, [c2], 2)
    assert first.contains_point([2, 3, 1, 1])
    assert not first.contains_point([2, 3, 5, 1])
    assert second.contains_point([1, 1, 5, 7])
    assert not second.contains_point([2, 1, 5, 7])
