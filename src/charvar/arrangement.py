"""Hyperplane arrangements and their rank-2 intersection data.

An arrangement is a list of affine-linear functionals over an exact scalar
field, either central (all constants zero) or affine.  The only incidence
data the rest of the package needs is the rank-2 intersection lattice: for
each point (or line, in the central case) where three or more hyperplanes
meet, the set of hyperplanes through it.  Pairs meeting in no stored flat
are implicit double points, and affine arrangements additionally record
which pairs of lines are parallel (they meet nowhere).

Family generators build the standard example arrangements: braid lattices,
monomial and full monomial arrangements, the Hessian arrangement, the
diamond arrangement, pencils, generic lattices, and a pair of lattices
with matching local data but different global structure.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .exactalg import (
    ExactScalar,
    _adjugate,
    _euler_phi,
    _fold,
    _mul,
    clear_scalars,
    root_of_unity,
)


class ValidationError(ValueError):
    """Raised when an input object violates a structural precondition."""


class CapExceeded(Exception):
    """The input is larger than a size cap allows."""


# Largest field order M (the lcm of the coefficient orders) of an
# arrangement given by coordinates.  Each direction key multiplies by an
# adjugate of phi(M) - 1 Galois images, so the lattice of five planes with
# dense coefficients (entries in -3..3) takes 0.16 s at M = 120, 1.1 s at
# 240 and 3.9 s at 420 (one run on a 2-core Intel Xeon, Python 3.11).  A
# larger M is refused before Phi_M is built.
FIELD_ORDER_CAP = 120


# ---------------------------------------------------------------------------
# arrangements
# ---------------------------------------------------------------------------


def _scalar(value) -> ExactScalar:
    if isinstance(value, ExactScalar):
        return value
    return ExactScalar.from_rational(value)


@dataclass
class Arrangement:
    """A finite list of distinct hyperplanes, central or affine.

    Each hyperplane is the zero set of a functional a_1 x_1 + ... + a_d x_d
    + c, stored as the coefficient list [a_1, ..., a_d, c].  Central
    arrangements have every c equal to zero.
    """

    flavor: str
    hyperplanes: list[list[ExactScalar]]
    labels: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.flavor not in ("central", "affine"):
            raise ValidationError(f"unknown flavor {self.flavor!r}")
        if not self.hyperplanes:
            raise ValidationError("arrangement needs at least one hyperplane")
        self.hyperplanes = [[_scalar(v) for v in row] for row in self.hyperplanes]
        width = len(self.hyperplanes[0])
        if width < 2 or any(len(row) != width for row in self.hyperplanes):
            raise ValidationError("hyperplane rows must share one positive dimension")
        for row in self.hyperplanes:
            if all(v.is_zero() for v in row[:-1]):
                raise ValidationError("hyperplane has a zero linear part")
            if self.flavor == "central" and not row[-1].is_zero():
                raise ValidationError("central arrangement has a nonzero constant term")
        order = self.field_order
        if order > FIELD_ORDER_CAP:
            raise CapExceeded(
                f"arrangement coefficients are limited to field order "
                f"{FIELD_ORDER_CAP} (got {order})"
            )
        self._ring = _integer_ring(order)
        self._rows = [self._ring.entries(row) for row in self.hyperplanes]
        keys = self.direction_keys()
        if len(set(keys)) < len(keys):
            raise ValidationError("duplicate hyperplane")
        if not self.labels:
            self.labels = [f"H{i + 1}" for i in range(len(self.hyperplanes))]
        if len(self.labels) != len(self.hyperplanes):
            raise ValidationError("label count must match hyperplane count")

    @property
    def n(self) -> int:
        return len(self.hyperplanes)

    @property
    def dim(self) -> int:
        return len(self.hyperplanes[0]) - 1

    @property
    def field_order(self) -> int:
        """The lcm M of the coefficient orders: every coefficient lies in
        Q(zeta_M), so each row is kept as integer vectors on its power basis."""
        return math.lcm(*(v.order for row in self.hyperplanes for v in row))

    def direction_keys(self, width: int | None = None) -> list[tuple]:
        """One exact key per hyperplane for the direction of its first
        `width` coefficients (all of them by default): two rows get equal
        keys exactly when those coefficients are proportional.  With
        `width` = dim the linear parts are compared, so equal keys mark
        parallel hyperplanes."""
        return [self._ring.key(row[:width]) for row in self._rows]

    def to_json(self) -> dict:
        return {
            "flavor": self.flavor,
            "dim": self.dim,
            "hyperplanes": [[v.to_json() for v in row] for row in self.hyperplanes],
            "labels": list(self.labels),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Arrangement":
        try:
            flavor = obj["flavor"]
            rows = obj["hyperplanes"]
        except (TypeError, KeyError) as exc:
            raise ValidationError(f"arrangement JSON missing key: {exc}") from exc
        unknown = sorted(set(obj) - {"flavor", "dim", "hyperplanes", "labels"})
        if unknown:
            raise ValidationError(
                f"unknown arrangement key {', '.join(map(repr, unknown))}; "
                "expected 'flavor', 'hyperplanes' and optionally 'dim' and 'labels'"
            )
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise ValidationError(
                "arrangement hyperplanes must be a list of coefficient lists"
            )
        try:
            hyperplanes = [[ExactScalar.from_json(v) for v in row] for row in rows]
        except (ValueError, TypeError, KeyError) as exc:
            raise ValidationError(f"bad hyperplane entry: {exc}") from exc
        labels = obj.get("labels", [])
        if not isinstance(labels, list) or not all(isinstance(v, str) for v in labels):
            raise ValidationError("arrangement labels must be a list of strings")
        arr = cls(flavor=flavor, hyperplanes=hyperplanes, labels=labels)
        if "dim" in obj and obj["dim"] != arr.dim:
            raise ValidationError("declared dim disagrees with hyperplane rows")
        return arr


# ---------------------------------------------------------------------------
# rank-2 lattices
# ---------------------------------------------------------------------------


@dataclass
class Lattice2:
    """Rank-2 intersection data of an arrangement on n hyperplanes.

    `flats` lists the rank-2 flats of multiplicity at least 3, each as a
    sorted tuple of 0-based hyperplane indices.  A pair of hyperplanes in
    no stored flat and no parallel pair is an implicit double point.
    `parallel_pairs` lists pairs of lines that never meet; it is empty for
    central arrangements.

    Loading keeps, per hyperplane, a bitmask of the stored flats through
    it, built in O(sum of flat sizes) bitmask operations.  It checks that
    two flats share at most one hyperplane, and it answers `flat_of_pair`
    and `doubles`: a pair lies in the flat its two bitmasks have in common.
    No map over the C(|f|, 2) pairs of a flat is built, so a command's size
    cap refuses a large lattice at once.  The bitmasks of the support scan
    (`flat_masks`, `double_masks`) are built once, on first use.
    """

    n: int
    flats: list[tuple[int, ...]]
    parallel_pairs: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("lattice needs at least one hyperplane")
        self.flats = [tuple(sorted(set(f))) for f in self.flats]
        self.parallel_pairs = [tuple(sorted(p)) for p in self.parallel_pairs]
        # hyperplane -> bitmask of the flats through it; a flat that reaches
        # an earlier flat through two of its members shares their pair
        through: dict[int, int] = {}
        for fi, flat in enumerate(self.flats):
            if len(flat) < 3:
                raise ValidationError("stored flats must have multiplicity >= 3")
            if flat[0] < 0 or flat[-1] >= self.n:
                raise ValidationError("flat index out of range")
            bit, met = 1 << fi, 0
            for h in flat:
                earlier = through.get(h, 0)
                if met & earlier:
                    pair = next(
                        (a, b)
                        for a, b in itertools.combinations(flat, 2)
                        if through.get(a, 0) & through.get(b, 0) & ~bit
                    )
                    raise ValidationError(
                        f"pair {pair} lies in two flats; rank-2 flats must "
                        "intersect in at most one hyperplane"
                    )
                met |= earlier
                through[h] = earlier | bit
        parallel_set = set()
        for i, j in self.parallel_pairs:
            if not (0 <= i < j < self.n):
                raise ValidationError("parallel pair index out of range")
            if through.get(i, 0) & through.get(j, 0):
                raise ValidationError("a pair cannot be both parallel and concurrent")
            parallel_set.add((i, j))
        if len(parallel_set) != len(self.parallel_pairs):
            raise ValidationError("duplicate parallel pair")
        # parallelism must be an equivalence relation on the lines it touches
        if parallel_set:
            for group in _union_classes(self.n, parallel_set):
                for pair in itertools.combinations(group, 2):
                    if pair not in parallel_set:
                        raise ValidationError(
                            "parallel pairs are not transitively closed"
                        )
        self._parallel_set = parallel_set
        self._through = through

    # -- bitmasks of the support scan ----------------------------------------

    @functools.cached_property
    def flat_masks(self) -> list[int]:
        """One integer bitmask per stored flat (bit h set for hyperplane h),
        in the order of `flats`."""
        return [sum(1 << h for h in flat) for flat in self.flats]

    @functools.cached_property
    def double_masks(self) -> list[int]:
        """One bitmask per hyperplane h of its implicit-double neighbours:
        every other hyperplane that shares no stored flat with h and is not
        parallel to it.  Built in O(sum of flat sizes + n) mask operations."""
        blocked = [1 << h for h in range(self.n)]
        for flat, mask in zip(self.flats, self.flat_masks):
            for h in flat:
                blocked[h] |= mask
        for i, j in self.parallel_pairs:
            blocked[i] |= 1 << j
            blocked[j] |= 1 << i
        full = (1 << self.n) - 1
        return [full ^ b for b in blocked]

    # -- queries --------------------------------------------------------------

    def flat_of_pair(self, i: int, j: int) -> tuple[int, ...] | None:
        """The stored flat containing {i, j}, the implicit double, or None.

        Returns the flat tuple when the pair lies in a stored flat, the
        pair itself when it is an implicit double point, and None when the
        pair is parallel.
        """
        pair = (i, j) if i < j else (j, i)
        if pair in self._parallel_set:
            return None
        common = self._through.get(i, 0) & self._through.get(j, 0)
        return self.flats[common.bit_length() - 1] if common else pair

    def doubles(self) -> list[tuple[int, int]]:
        """All implicit double points, as sorted pairs."""
        through, parallel = self._through, self._parallel_set
        out = []
        for pair in itertools.combinations(range(self.n), 2):
            i, j = pair
            if not through.get(i, 0) & through.get(j, 0) and pair not in parallel:
                out.append(pair)
        return out

    def rank2_classes(self) -> list[tuple[int, ...]]:
        """All rank-2 flats: stored flats followed by implicit doubles."""
        return list(self.flats) + self.doubles()

    def b2(self) -> int:
        """Sum of (multiplicity - 1) over all rank-2 flats."""
        total = sum(len(f) - 1 for f in self.flats)
        total += len(self.doubles())
        return total

    def restrict(self, support: Sequence[int]) -> "Lattice2":
        """The lattice of the subarrangement on the given hyperplane set.

        Hyperplanes are reindexed by their position in sorted(support).
        Restricted flats of multiplicity 2 become implicit doubles, and
        restricted parallel pairs stay parallel.
        """
        support = sorted(set(support))
        pos = {h: i for i, h in enumerate(support)}
        flats = []
        for flat in self.flats:
            cut = [pos[h] for h in flat if h in pos]
            if len(cut) >= 3:
                flats.append(tuple(cut))
        parallels = [
            (pos[i], pos[j])
            for i, j in self.parallel_pairs
            if i in pos and j in pos
        ]
        return Lattice2(len(support), flats, parallels)

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        out = {
            "n": self.n,
            "flats": [[i + 1 for i in f] for f in self.flats],
        }
        if self.parallel_pairs:
            out["parallel_pairs"] = [[i + 1, j + 1] for i, j in self.parallel_pairs]
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "Lattice2":
        try:
            n = obj["n"]
            flats = obj["flats"]
        except (TypeError, KeyError) as exc:
            raise ValidationError(f"lattice JSON missing key: {exc}") from exc
        unknown = sorted(set(obj) - {"n", "flats", "parallel_pairs"})
        if unknown:
            raise ValidationError(
                f"unknown lattice key {', '.join(map(repr, unknown))}; expected "
                "'n', 'flats' and optionally 'parallel_pairs'"
            )
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValidationError("n must be an integer")
        def shift(seq):
            out = []
            for v in seq:
                if isinstance(v, bool) or not isinstance(v, int):
                    raise ValidationError(f"index {v!r} is not an integer")
                if not 1 <= v <= n:
                    raise ValidationError(f"index {v!r} out of range 1..{n}")
                out.append(v - 1)
            return out
        try:
            return cls(
                n=n,
                flats=[tuple(shift(f)) for f in flats],
                parallel_pairs=[tuple(shift(p)) for p in obj.get("parallel_pairs", [])],
            )
        except ValidationError:
            raise
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"malformed lattice JSON: {exc}") from exc


def b2(lattice: Lattice2) -> int:
    return lattice.b2()


def _union_classes(n: int, pairs: Iterable[tuple[int, int]]) -> list[list[int]]:
    """The classes of range(n) under the equivalence the pairs generate,
    each ascending, ordered by their least members (union-find)."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in pairs:
        parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


# ---------------------------------------------------------------------------
# lattices from coordinates
# ---------------------------------------------------------------------------
#
# Every coordinate lies in Q(zeta_M), M the arrangement's `field_order`.  A
# row is kept as integer vectors on the power basis of Z[zeta_M], cleared of
# denominators once (scaling a normal does not move its hyperplane), so a
# cross product is plain int arithmetic modulo the monic Phi_M and a
# direction has an exact integer key.


class _Integers:
    """Z, the ring of integral rows when every coefficient is rational:
    an entry is an int."""

    zero = 0

    @staticmethod
    def entries(row: Sequence[ExactScalar]) -> list[int]:
        return clear_scalars(row, 1)

    @staticmethod
    def cross(u: Sequence[int], v: Sequence[int]) -> tuple[int, int, int]:
        return (
            u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0],
        )

    @staticmethod
    def key(vec: Sequence[int]) -> tuple[int, ...]:
        """The primitive integer vector on the line of `vec`, its first
        nonzero entry positive."""
        g = math.gcd(*vec)
        if not g:
            raise ValidationError("zero vector has no direction")
        if next(c for c in vec if c) < 0:
            g = -g
        return tuple(c // g for c in vec)


class _CyclotomicIntegers:
    """Z[zeta_M] for M > 2: an entry is a tuple of phi(M) ints, its
    coefficients on the power basis 1, zeta, ..., zeta^(phi(M)-1), and
    products fold through the monic Phi_M (`charvar.exactalg._fold`)."""

    def __init__(self, order: int):
        self.order = order
        self.phi = _euler_phi(order)
        self.zero = (0,) * self.phi

    def entries(self, row: Sequence[ExactScalar]) -> list[tuple[int, ...]]:
        phi = self.phi
        flat = clear_scalars(row, self.order)
        return [tuple(flat[i : i + phi]) for i in range(0, len(flat), phi)]

    def cross(self, u, v) -> tuple[tuple[int, ...], ...]:
        m = self.order

        def det2(a, d, b, c):
            # a d - b c, folded once
            return tuple(_fold(m, _mul(a, d, _mul([-x for x in b], c))))

        return (
            det2(u[1], v[2], u[2], v[1]),
            det2(u[2], v[0], u[0], v[2]),
            det2(u[0], v[1], u[1], v[0]),
        )

    def key(self, vec) -> tuple[int, ...]:
        """An integer key of the line of `vec`: equal for two vectors
        exactly when one is a Q(zeta_M)-multiple of the other.

        Times the adjugate prod_{sigma != 1} sigma(lead) of its first
        nonzero entry, `vec` becomes N(lead) (vec / lead): its lead turns
        into the integer norm and every entry into an integral multiple of
        its ratio to the lead.  The ratios depend only on the line, so the
        primitive integer vector of those coefficients, its first nonzero
        coefficient (the norm's) positive, is the key.  A rational lead
        needs no adjugate, since vec is then a rational multiple of
        vec / lead already."""
        lead = next((e for e in vec if e != self.zero), None)
        if lead is None:
            raise ValidationError("zero vector has no direction")
        if any(lead[1:]):
            m = self.order
            adj = _adjugate(m, lead)
            vec = [_fold(m, _mul(e, adj)) for e in vec]
        return _Integers.key([c for e in vec for c in e])


def _integer_ring(order: int) -> _Integers | _CyclotomicIntegers:
    return _Integers() if order == 1 else _CyclotomicIntegers(order)


def _lattice_from_rows(arr: Arrangement, affine: bool) -> Lattice2:
    """Group the hyperplane pairs by the line their first three integral
    coefficients span: the normals of central planes in C^3, or the
    homogenized rows (a, b, c) of affine lines in C^2.  Affine lines whose
    cross product ends in zero meet only at infinity and are listed as
    parallel pairs, in pair order."""
    ring = arr._ring
    rows = [row[:3] for row in arr._rows]
    groups: dict[tuple, set[int]] = {}
    parallels: list[tuple[int, int]] = []
    for i, j in itertools.combinations(range(arr.n), 2):
        direction = ring.cross(rows[i], rows[j])
        if affine and direction[2] == ring.zero:
            parallels.append((i, j))
            continue
        groups.setdefault(ring.key(direction), set()).update((i, j))
    flats = sorted(tuple(sorted(g)) for g in groups.values() if len(g) >= 3)
    return Lattice2(arr.n, flats, parallels)


def lattice_from_central3(arr: Arrangement) -> Lattice2:
    """Group the planes of a central arrangement in C^3 by intersection line.

    Two planes meet in a line through the origin; the rank-2 flat of that
    line is the set of all planes containing it.  Flats of multiplicity 2
    stay implicit.
    """
    if arr.flavor != "central" or arr.dim != 3:
        raise ValidationError("expected a central arrangement in dimension 3")
    return _lattice_from_rows(arr, affine=False)


def lattice_from_affine(arr: Arrangement) -> Lattice2:
    """Group the lines of an affine arrangement in C^2 by intersection point."""
    if arr.flavor != "affine" or arr.dim != 2:
        raise ValidationError("expected an affine arrangement in dimension 2")
    return _lattice_from_rows(arr, affine=True)


# ---------------------------------------------------------------------------
# deconing and point transport
# ---------------------------------------------------------------------------


@dataclass
class DeconeResult:
    """An affine arrangement obtained from a central one by a chart choice.

    `line_to_central[j]` is the central index of affine line j, and
    `infinity` is the central index of the hyperplane sent to infinity.
    """

    arrangement: Arrangement
    line_to_central: tuple[int, ...]
    infinity: int


def decone(arr: Arrangement, at: int | None = None) -> DeconeResult:
    """Restrict a central arrangement in C^3 to the chart f = 1.

    `at` is the 0-based index of the hyperplane sent to infinity; the
    default is the last one.  The remaining planes become lines in the
    chart coordinates, listed in their central order.
    """
    if arr.flavor != "central" or arr.dim != 3:
        raise ValidationError("decone expects a central arrangement in dimension 3")
    if at is None:
        at = arr.n - 1
    if not (0 <= at < arr.n):
        raise ValidationError("decone index out of range")
    f = arr.hyperplanes[at][:3]
    # complete f to a basis with standard coordinate functionals
    basis = [f]
    for k in range(3):
        e = [ExactScalar.from_rational(1 if i == k else 0) for i in range(3)]
        candidate = basis + [e]
        if len(candidate) == 2:
            # e is a second direction unless f is a multiple of it
            if any(not f[i].is_zero() for i in range(3) if i != k):
                basis = candidate
        else:
            if not _det3(candidate).is_zero():
                basis = candidate
                break
    if len(basis) != 3:
        raise ValidationError("could not complete the chart basis")
    g1, g2 = basis[1], basis[2]
    m = [f, g1, g2]
    lines = []
    labels = []
    mapping = []
    for idx in range(arr.n):
        if idx == at:
            continue
        h = arr.hyperplanes[idx][:3]
        alpha, beta, gamma = _solve3_transposed(m, h)
        if beta.is_zero() and gamma.is_zero():
            raise ValidationError("hyperplane parallel to the chart is not a line")
        lines.append([beta, gamma, alpha])
        labels.append(arr.labels[idx])
        mapping.append(idx)
    affine = Arrangement(flavor="affine", hyperplanes=lines, labels=labels)
    return DeconeResult(arrangement=affine, line_to_central=tuple(mapping), infinity=at)


def _det3(rows: Sequence[Sequence[ExactScalar]]) -> ExactScalar:
    a, b, c = rows
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def _solve3_transposed(
    m: Sequence[Sequence[ExactScalar]], h: Sequence[ExactScalar]
) -> tuple[ExactScalar, ExactScalar, ExactScalar]:
    """Solve x_0 m[0] + x_1 m[1] + x_2 m[2] = h by Cramer's rule."""
    cols = [list(row) for row in m]
    det = _det3(cols)
    if det.is_zero():
        raise ValidationError("chart basis is singular")
    inv = det.inverse()
    out = []
    for k in range(3):
        replaced = [list(h) if i == k else cols[i] for i in range(3)]
        out.append(_det3(replaced) * inv)
    return out[0], out[1], out[2]


def central_to_affine_point(
    point: Sequence[ExactScalar], at: int
) -> list[ExactScalar]:
    """Drop the coordinate of the infinity plane from a central torus point.

    Central torus points must have coordinate product 1; membership
    questions about the central arrangement reduce to the affine one
    through this restriction.
    """
    point = [_scalar(v) for v in point]
    _torus_product(point, central=True)
    return [v for i, v in enumerate(point) if i != at]


def affine_to_central_point(
    point: Sequence[ExactScalar], at: int
) -> list[ExactScalar]:
    """Insert the infinity coordinate so the product of all coordinates is 1."""
    full = [_scalar(v) for v in point]
    full.insert(at, _torus_product(full).inverse())
    return full


def _torus_product(point: Sequence[ExactScalar], central: bool = False) -> ExactScalar:
    """The product of a torus point's coordinates.  A zero coordinate is
    refused, and so, for a central point, is a product other than 1."""
    prod = ExactScalar.one()
    for v in point:
        if v.is_zero():
            raise ValidationError("torus points must have nonzero coordinates")
        prod = prod * v
    if central and not prod.is_one():
        raise ValidationError("central torus points must have coordinate product 1")
    return prod


# ---------------------------------------------------------------------------
# family generators
# ---------------------------------------------------------------------------


def gen_family(name: str, **params):
    """Build a named example family.

    Returns an Arrangement for coordinate families (monomial, full_monomial,
    hessian, diamond), a Lattice2 for combinatorial families (braid, pencil,
    generic), and a pair of Lattice2 for falk_pair.
    """
    builders = {
        "braid": _gen_braid,
        "monomial": _gen_monomial,
        "full_monomial": _gen_full_monomial,
        "hessian": _gen_hessian,
        "diamond": _gen_diamond,
        "pencil": _gen_pencil,
        "generic": _gen_generic,
        "falk_pair": _gen_falk_pair,
    }
    if name not in builders:
        raise ValidationError(
            f"unknown family {name!r}; expected one of {sorted(builders)}"
        )
    return builders[name](**params)


def _gen_braid(ell: int) -> Lattice2:
    """The braid arrangement lattice: lines are the 2-subsets of 1..ell."""
    if ell < 3:
        raise ValidationError("braid family needs ell >= 3")
    pairs = list(itertools.combinations(range(ell), 2))
    index = {p: i for i, p in enumerate(pairs)}
    flats = []
    for i, j, k in itertools.combinations(range(ell), 3):
        flats.append(tuple(sorted((index[(i, j)], index[(i, k)], index[(j, k)]))))
    return Lattice2(len(pairs), sorted(flats))


def _monomial_planes(r: int) -> tuple[list[list[ExactScalar]], list[str]]:
    zero = ExactScalar.zero()
    one = ExactScalar.one()
    planes = []
    labels = []
    for (i, j) in ((0, 1), (0, 2), (1, 2)):
        for k in range(1, r + 1):
            z = root_of_unity(r, k)
            row = [zero, zero, zero, zero]
            row[i] = one
            row[j] = -z
            planes.append(row)
            labels.append(f"H{i + 1}{j + 1}^{k}")
    return planes, labels


def _gen_monomial(r: int, l: int = 3):
    """Hyperplanes x_i = zeta^k x_j over the r-th roots of unity.

    With l = 3 coordinates the result is a geometric Arrangement with
    coefficients in the cyclotomic field; for l > 3 the rank-2 lattice
    is produced directly from the incidence rules (families of r
    hyperplanes per coordinate pair meet in a common flat when r >= 3,
    and x_i = zeta^a x_j, x_j = zeta^b x_m force x_i = zeta^(a+b) x_m).
    """
    if r < 2:
        raise ValidationError("monomial family needs r >= 2")
    if l < 3:
        raise ValidationError("monomial family needs l >= 3")
    if l == 3:
        planes, labels = _monomial_planes(r)
        return Arrangement(flavor="central", hyperplanes=planes, labels=labels)
    return _monomial_lattice(r, l)


def _monomial_lattice(r: int, l: int) -> Lattice2:
    npairs = math.comb(l, 2)
    flats = [tuple(range(f * r, f * r + r)) for f in range(npairs)] if r >= 3 else []
    return Lattice2(r * npairs, sorted(flats + _triple_point_flats(r, l, 0)))


def _triple_point_flats(r: int, l: int, offset: int) -> list[tuple[int, ...]]:
    """The flats x_i = zeta^a x_j, x_j = zeta^b x_m, x_i = zeta^(a+b) x_m
    (i < j < m) of the monomial hyperplanes, where x_i = zeta^k x_j (k in
    1..r, matching the geometric labels H_ij^(k)) has the index offset +
    r * (position of (i, j) among the coordinate pairs) + k - 1."""
    family = {p: f for f, p in enumerate(itertools.combinations(range(l), 2))}

    def idx(i: int, j: int, k: int) -> int:
        return offset + family[(i, j)] * r + (k - 1)

    flats = []
    for i, j, m in itertools.combinations(range(l), 3):
        for a in range(1, r + 1):
            for b in range(1, r + 1):
                c = (a + b - 1) % r + 1
                flats.append(
                    tuple(sorted((idx(i, j, a), idx(j, m, b), idx(i, m, c))))
                )
    return flats


def _gen_full_monomial(r: int, l: int = 3):
    """The monomial hyperplanes together with the coordinate hyperplanes.

    As with the monomial family, l = 3 yields a geometric Arrangement
    and l > 3 the combinatorial rank-2 lattice: each coordinate pair
    {x_i, x_j} joins its whole monomial family in one flat of size r+2.
    """
    if r < 2:
        raise ValidationError("full_monomial family needs r >= 2")
    if l < 3:
        raise ValidationError("full_monomial family needs l >= 3")
    if l == 3:
        zero = ExactScalar.zero()
        one = ExactScalar.one()
        planes = []
        labels = []
        for i in range(3):
            row = [zero] * 4
            row[i] = one
            planes.append(row)
            labels.append(f"H{i + 1}")
        extra, extra_labels = _monomial_planes(r)
        return Arrangement(
            flavor="central",
            hyperplanes=planes + extra,
            labels=labels + extra_labels,
        )
    return _full_monomial_lattice(r, l)


def _full_monomial_lattice(r: int, l: int) -> Lattice2:
    flats = [
        (i, j) + tuple(range(l + f * r, l + f * r + r))
        for f, (i, j) in enumerate(itertools.combinations(range(l), 2))
    ]
    return Lattice2(l + r * len(flats), sorted(flats + _triple_point_flats(r, l, l)))


def _gen_hessian() -> Arrangement:
    """Twelve planes: the coordinate triangle and the grid x + w^a y + w^b z."""
    zero = ExactScalar.zero()
    one = ExactScalar.one()
    planes = []
    labels = []
    for i, name in enumerate(("x", "y", "z")):
        row = [zero] * 4
        row[i] = one
        planes.append(row)
        labels.append(name)
    for a in range(3):
        for b in range(3):
            planes.append([one, root_of_unity(3, a), root_of_unity(3, b), zero])
            labels.append(f"H({a},{b})")
    return Arrangement(flavor="central", hyperplanes=planes, labels=labels)


def _gen_diamond() -> Arrangement:
    """Seven planes in C^3 whose deleted lattice carries three essential tori.

    The listing order fixes the labels used by all stored results: the
    coordinate planes sit at positions 2, 3, and 6.
    """
    rows = [
        [1, 1, 1, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [1, -1, -1, 0],
        [1, -1, 1, 0],
        [1, 0, 0, 0],
        [1, 1, -1, 0],
    ]
    return Arrangement(
        flavor="central",
        hyperplanes=[[_scalar(v) for v in row] for row in rows],
    )


def _gen_pencil(n: int) -> Lattice2:
    """n lines through one point: a single rank-2 flat of full multiplicity."""
    if n < 3:
        raise ValidationError("pencil needs n >= 3")
    return Lattice2(n, [tuple(range(n))])


def _gen_generic(n: int) -> Lattice2:
    """n lines in general position: every pair is a double point."""
    if n < 1:
        raise ValidationError("generic needs n >= 1")
    return Lattice2(n, [])


def _gen_falk_pair() -> tuple[Lattice2, Lattice2]:
    """Two 7-line lattices with the same local counts, different structure."""
    first = Lattice2(7, [(0, 1, 2), (0, 3, 4), (2, 4, 5), (3, 5, 6)])
    second = Lattice2(7, [(0, 1, 2), (0, 3, 4), (2, 4, 5), (0, 5, 6)])
    return first, second
