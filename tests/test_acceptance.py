"""Acceptance suite: eleven end-to-end checks, one test (and one pass/fail
line) each.

Every expected value here is an exact integer or an exact vector pinned
from an independent source: either a hand-checkable computation on the
named example or a frozen oracle recomputed from first principles in the
per-module test files.  The only tolerances are the pinned wall-clock
bounds, asserted where a check is specified to be fast.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from fractions import Fraction

from alexander_reference import gassner, monodromy_chain_map, resolution_differential
from charvar.alexander import (
    MonodromyGen,
    lift_point,
    load_monodromy,
    membership,
    monodromy_braid,
    pencil_monodromy,
    phi_one_rank,
)
from charvar.arrangement import b2, gen_family, lattice_from_central3
from charvar.cli import main
from charvar.components import (
    enumerate_first_resonance,
    pairing_form_vanishes,
    partition_tangent_space,
    saturated_span,
)
from charvar.osres import resonance_rank, resonance_rank_os
from test_components import MONOMIAL4_NETS


def lat_of(name, **kw):
    obj = gen_family(name, **kw)
    return obj if hasattr(obj, "flats") else lattice_from_central3(obj)


def census_payload(capsys, lattice) -> dict:
    """Depth-1 census through the command-line front end."""
    import tempfile, os

    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(lattice.to_json(), handle)
        assert main(["components", path, "--format", "json"]) == 0
        return json.loads(capsys.readouterr().out)
    finally:
        os.unlink(path)


# the seven-line arrangement with three essential two-tori, in the
# generator's listing order; each torus as monomial-equation exponent rows.
DIAMOND_TORI_ROWS = [
    [
        [1, 0, 0, -1, 0, 0, 0],
        [0, 1, -1, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, -1],
        [0, 0, 0, 0, 0, 1, 0],
        [1, 1, 0, 0, 1, 0, 0],
    ],
    [
        [1, 0, 0, 0, -1, 0, 0],
        [0, 1, 0, 0, 0, -1, 0],
        [0, 0, 0, 1, 0, 0, -1],
        [0, 0, 1, 0, 0, 0, 0],
        [1, 1, 0, 1, 0, 0, 0],
    ],
    [
        [1, 0, 0, 0, 0, 0, -1],
        [0, 0, 1, 0, 0, -1, 0],
        [0, 0, 0, 1, -1, 0, 0],
        [0, 1, 0, 0, 0, 0, 0],
        [1, 0, 1, 1, 0, 0, 0],
    ],
]
DIAMOND_BASES = [
    ((1, 0, 0, 1, -1, 0, -1), (0, 1, 1, 0, -1, 0, -1)),
    ((1, 0, 0, -1, 1, 0, -1), (0, 1, 0, -1, 0, 1, -1)),
    ((1, 0, 0, -1, -1, 0, 1), (0, 0, 1, -1, -1, 1, 0)),
]
DIAMOND_TORSION = (-1, 1, 1, -1, -1, 1, -1)

# quadruple-point grid of twelve lines: coordinate planes 0..2, grid plane
# (a, b) -> 3 + 3a + b; the distinguished neighborly partition of all twelve.
HESSIAN_PARTITION = ((0, 1, 2), (3, 8, 10), (4, 6, 11), (5, 7, 9))

# decomposable pair: the four triple points of each lattice.
FALK_SUPPORTS = [
    [(0, 1, 2), (0, 3, 4), (2, 4, 5), (3, 5, 6)],
    [(0, 1, 2), (0, 3, 4), (0, 5, 6), (2, 4, 5)],
]


# ---------------------------------------------------------------------------
# 1. censuses of the braid-type lattices through the CLI
# ---------------------------------------------------------------------------


def test_braid_census_counts(capsys):
    for ell, total in ((4, 5), (5, 15)):
        start = time.monotonic()
        payload = census_payload(capsys, gen_family("braid", ell=ell))
        elapsed = time.monotonic() - start
        assert payload["census"]["total"] == total
        assert payload["census"]["by_dim"] == [
            {
                "dim": 2,
                "count": total,
                "local": {4: 4, 5: 10}[ell],
                "nonlocal": {4: 1, 5: 5}[ell],
            }
        ]
        assert all(comp["dimension"] == 2 for comp in payload["components"])
        assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 2. the seven-line census and its three essential torus equation sets
# ---------------------------------------------------------------------------


def test_diamond_census_and_nonlocal_torus_equations(capsys):
    payload = census_payload(capsys, lat_of("diamond"))
    assert payload["census"]["total"] == 9
    assert all(comp["dimension"] == 2 for comp in payload["components"])
    nonlocal_eqs = [
        saturated_span(comp["linear_equations"], 7)
        for comp in payload["components"]
        if comp["kind"] == "nonlocal"
    ]
    assert len(nonlocal_eqs) == 3
    want = [saturated_span(rows, 7) for rows in DIAMOND_TORI_ROWS]
    for rows in want:
        assert nonlocal_eqs.count(rows) == 1


# ---------------------------------------------------------------------------
# 3. depth-2 membership: the torsion point is in, torus points are not
# ---------------------------------------------------------------------------


def test_diamond_torsion_point_and_torus_points_at_depth_two():
    m = load_monodromy("diamond_monodromy")
    assert membership(m, lift_point(m.lift, DIAMOND_TORSION), 2).delta is True
    rng = random.Random(20260815)
    for basis in DIAMOND_BASES:
        for _ in range(20):
            params = [
                Fraction(rng.randint(2, 30), rng.randint(2, 30)) for _ in basis
            ]
            point = [
                params[0] ** basis[0][i] * params[1] ** basis[1][i]
                for i in range(7)
            ]
            assert membership(m, lift_point(m.lift, point), 2).delta is False


# ---------------------------------------------------------------------------
# 4. monomial-family censuses
# ---------------------------------------------------------------------------


def test_monomial_census_counts():
    res3 = enumerate_first_resonance(lat_of("monomial", r=3, l=3))
    assert len(res3.components) == 16
    assert all(comp.dim == 2 for comp in res3.components)
    local_supports = {comp.support for comp in res3.locals}
    # the three full monomial families, indexed family-major
    assert {(0, 1, 2), (3, 4, 5), (6, 7, 8)} <= local_supports
    assert len(res3.locals) == 12
    assert len(res3.nonlocals) == 4
    assert all(len(c.support) == 9 for c in res3.nonlocals)

    start = time.monotonic()
    res4 = enumerate_first_resonance(lat_of("monomial", r=4, l=3))
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    dims = {}
    for comp in res4.components:
        dims[comp.dim] = dims.get(comp.dim, 0) + 1
    full_support_essential = [
        comp for comp in res4.components if len(comp.support) == 12
    ]
    assert dims.get(3, 0) == 3
    assert len(full_support_essential) == 1
    assert dims.get(2, 0) == 37, (
        "depth-1 census of the exponent-4 family: expected 37 components "
        f"of dimension 2, enumeration found {dims.get(2, 0)}; beyond the "
        "traditional 21 (16 triple points, 4 six-plane nets, the full "
        "3-net) are 16 3-nets on nine-plane subarrangements, each certified "
        "without the enumerator in tests/test_components.py::"
        "test_monomial4_nets_are_certified_components"
    )
    assert sum(1 for comp in res4.locals if comp.dim == 2) == 16
    assert sorted(len(comp.support) for comp in res4.nonlocals) == (
        [6] * 4 + [9] * 16 + [12]
    )
    assert {comp.blocks for comp in res4.nonlocals} == MONOMIAL4_NETS


# ---------------------------------------------------------------------------
# 5. the twelve-line quadruple-point grid: distinguished partition
# ---------------------------------------------------------------------------


def test_hessian_partition_dimension_and_vanishing_form():
    lat = lat_of("hessian")
    rows = partition_tangent_space(lat, HESSIAN_PARTITION)
    assert len(rows) == 3
    assert pairing_form_vanishes(HESSIAN_PARTITION, rows)
    res = enumerate_first_resonance(lat)
    found = [
        comp
        for comp in res.nonlocals
        if set(map(frozenset, comp.blocks)) == set(map(frozenset, HESSIAN_PARTITION))
    ]
    assert len(found) == 1
    assert found[0].dim == 3
    assert saturated_span([list(r) for r in found[0].basis], 12) == rows


# ---------------------------------------------------------------------------
# 6. coordinate-extended monomial family: the essential two-torus basis
# ---------------------------------------------------------------------------


def test_full_monomial_essential_torus_basis():
    r = 3
    lat = lat_of("full_monomial", r=r, l=3)
    # blocks pair each coordinate plane with the monomial family it misses
    partition = ((2, 3, 4, 5), (1, 6, 7, 8), (0, 9, 10, 11))
    rows = partition_tangent_space(lat, partition)
    v1 = [0] * 12
    v2 = [0] * 12
    for k in (3, 4, 5):
        v1[k] = 1
    for k in (6, 7, 8):
        v2[k] = 1
    for k in (9, 10, 11):
        v1[k] -= 1
        v2[k] -= 1
    want1 = list(v1)
    want1[0] -= r
    want1[2] += r
    want2 = list(v2)
    want2[0] -= r
    want2[1] += r
    assert saturated_span(rows, 12) == saturated_span([want1, want2], 12)
    assert pairing_form_vanishes(partition, rows)


# ---------------------------------------------------------------------------
# 7. the chain map realizes the homomorphism minus the identity
# ---------------------------------------------------------------------------


def _assert_anchor(gen: MonodromyGen, n: int) -> None:
    phi = monodromy_chain_map(gen, n)
    theta = gassner(monodromy_braid(gen), n)
    d2 = resolution_differential(2, n)
    for i in range(n):
        row = [
            sum(
                (phi[i][k] * d2[k][j] for k in range(1, len(d2))),
                start=phi[i][0] * d2[0][j],
            )
            for j in range(n)
        ]
        for j in range(n):
            want = theta[i][j] - 1 if i == j else theta[i][j]
            assert row[j] == want, (gen, i, j)


def test_chain_map_anchor_identity():
    start = time.monotonic()
    for n in range(2, 7):
        for size in (2, 3, 4):
            if size > n:
                continue
            for X in itertools.combinations(range(1, n + 1), size):
                _assert_anchor(MonodromyGen(X), n)
    rng = random.Random(20260815)
    n = 6
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for _ in range(50):
        size = rng.choice((2, 3, 4))
        X = tuple(sorted(rng.sample(range(1, n + 1), size)))
        delta = tuple(
            (*rng.choice(pairs), rng.choice((-1, 1)))
            for _ in range(rng.randint(1, 4))
        )
        _assert_anchor(MonodromyGen(X, delta), n)
    assert time.monotonic() - start < 120.0


# ---------------------------------------------------------------------------
# 8. rank of the stacked chain map at the identity equals b2
# ---------------------------------------------------------------------------


FIXTURES = [
    ("braid4", lambda: lat_of("braid", ell=4)),
    ("braid5", lambda: lat_of("braid", ell=5)),
    ("monomial2", lambda: lat_of("monomial", r=2, l=3)),
    ("monomial3", lambda: lat_of("monomial", r=3, l=3)),
    ("monomial4", lambda: lat_of("monomial", r=4, l=3)),
    ("diamond", lambda: lat_of("diamond")),
    ("hessian", lambda: lat_of("hessian")),
    ("falkA", lambda: gen_family("falk_pair")[0]),
    ("falkB", lambda: gen_family("falk_pair")[1]),
    ("pencil4", lambda: lat_of("pencil", n=4)),
    ("pencil5", lambda: lat_of("pencil", n=5)),
    ("generic4", lambda: lat_of("generic", n=4)),
    ("generic5", lambda: lat_of("generic", n=5)),
]


def test_identity_rank_equals_second_betti_number():
    for name, build in FIXTURES:
        lat = build()
        assert phi_one_rank(lat) == b2(lat), name


# ---------------------------------------------------------------------------
# 9. the two resonance rank computations agree at random weights
# ---------------------------------------------------------------------------


def test_resonance_rank_transpose_identity():
    rng = random.Random(20260815)
    for name, build in FIXTURES:
        lat = build()
        for _ in range(100):
            lam = [rng.randint(-5, 5) for _ in range(lat.n)]
            assert resonance_rank(lat, lam) == resonance_rank_os(lat, lam), (
                name,
                lam,
            )


# ---------------------------------------------------------------------------
# 10. membership sampling on central pencils
# ---------------------------------------------------------------------------


def test_central_pencil_membership_sampling():
    rng = random.Random(20260815)
    for n in (4, 5):
        m = pencil_monodromy(n)
        for _ in range(10):
            t = [Fraction(rng.randint(2, 9), rng.randint(2, 9)) for _ in range(n - 1)]
            prod = Fraction(1)
            for v in t:
                prod *= v
            on = t + [1 / prod]
            assert membership(m, on, n - 2).delta is True
        for _ in range(10):
            t = [Fraction(rng.randint(2, 9), rng.randint(2, 9)) for _ in range(n)]
            prod = Fraction(1)
            for v in t:
                prod *= v
            if prod == 1:
                t[0] += 1
            assert membership(m, t, 1).delta is False


# ---------------------------------------------------------------------------
# 11. the decomposable pair: purely local depth-1 varieties
# ---------------------------------------------------------------------------


def test_decomposable_pair_census():
    for lat, supports in zip(gen_family("falk_pair"), FALK_SUPPORTS):
        res = enumerate_first_resonance(lat)
        assert res.nonlocals == []
        assert len(res.locals) == 4
        assert all(comp.dim == 2 for comp in res.locals)
        assert sorted(comp.support for comp in res.locals) == sorted(supports)
