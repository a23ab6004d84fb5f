"""Reference rank-2 lattices from coordinates, in ExactScalar arithmetic.

The library groups hyperplane pairs by integer keys on power-basis vectors
of Z[zeta_M] (`charvar.arrangement`).  This module keeps the direct route
it replaced: cross products and intersection points in `ExactScalar`
arithmetic, each direction divided by its first nonzero entry through a
polynomial inverse and written on the power basis of Q(zeta_M), where its
coordinates are unique.  Tests compare the two on the same arrangements.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from charvar.arrangement import Arrangement, Lattice2
from charvar.exactalg import ExactScalar


def value_key(values: Iterable[ExactScalar], order: int) -> tuple:
    """A hashable key, equal for equal values whose orders divide `order`.

    ExactScalar keeps no canonical order (zeta_3 is stored at order 3, the
    computed zeta_6^2 at order 6), so each value is written on the power
    basis of Q(zeta_order), where its integer coefficients over its
    denominator are unique; the key holds both, since the coefficients
    alone are the same for a value and its multiples by rationals.
    """
    return tuple((v.den, tuple(v._promoted(order))) for v in values)


def canonical_direction(vec: Sequence[ExactScalar], order: int) -> tuple:
    """A hashable canonical form of a nonzero vector up to scaling, for
    entries whose orders divide `order`."""
    lead = next(v for v in vec if not v.is_zero())
    inv = lead.inverse()
    return value_key([v * inv for v in vec], order)


def cross(u: Sequence[ExactScalar], v: Sequence[ExactScalar]) -> list[ExactScalar]:
    return [
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    ]


def has_duplicate(rows: Sequence[Sequence[ExactScalar]], order: int) -> bool:
    keys = [canonical_direction(row, order) for row in rows]
    return len(set(keys)) < len(keys)


def coned_size(arr: Arrangement) -> int:
    """The enumeration's hyperplane count: one more for an affine input
    with a pair of parallel lines."""
    if arr.flavor == "central":
        return arr.n
    order = arr.field_order
    directions = {canonical_direction(row[:2], order) for row in arr.hyperplanes}
    return arr.n + (len(directions) < arr.n)


def lattice_from_central3(arr: Arrangement) -> Lattice2:
    """Planes grouped by the canonical direction of their intersection line."""
    normals = [row[:3] for row in arr.hyperplanes]
    order = arr.field_order
    groups: dict[tuple, set[int]] = {}
    for i, j in itertools.combinations(range(arr.n), 2):
        key = canonical_direction(cross(normals[i], normals[j]), order)
        groups.setdefault(key, set()).update((i, j))
    flats = sorted(tuple(sorted(g)) for g in groups.values() if len(g) >= 3)
    return Lattice2(arr.n, flats)


def lattice_from_affine(arr: Arrangement) -> Lattice2:
    """Lines grouped by their intersection point, solved by Cramer's rule;
    pairs with a zero determinant are parallel, listed in pair order."""
    order = arr.field_order
    points: dict[tuple, set[int]] = {}
    parallels: list[tuple[int, int]] = []
    for i, j in itertools.combinations(range(arr.n), 2):
        a1, b1, c1 = arr.hyperplanes[i]
        a2, b2, c2 = arr.hyperplanes[j]
        det = a1 * b2 - a2 * b1
        if det.is_zero():
            parallels.append((i, j))
            continue
        inv = det.inverse()
        x = (b1 * c2 - b2 * c1) * inv
        y = (a2 * c1 - a1 * c2) * inv
        points.setdefault(value_key((x, y), order), set()).update((i, j))
    flats = sorted(tuple(sorted(g)) for g in points.values() if len(g) >= 3)
    return Lattice2(arr.n, flats, parallels)
