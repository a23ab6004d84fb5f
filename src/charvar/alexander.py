"""Fundamental-group route to the depth-k jumping loci.

This module works with braid monodromy presentations of arrangement
groups: the Artin action of pure braids on free-group words, abelianized
Fox calculus pushed through braid words (the Gassner action), the rows of
the degree-two chain map attached to a conjugated full twist, the
presentation matrix of the Alexander invariant (first homology of the
universal abelian cover as a module over the character torus's coordinate
ring), and certified point membership in the depth-k characteristic
varieties (`membership`, the one route for torus points).  Every entry is
built at a point, never symbolically: the paper's V_k, cut out by the k-th
Fitting ideal, is decided as a rank at the point.

Index and sign conventions.  The whole-matrix constructions that pin them
(Gassner matrices, wedge squares, twist and monodromy chain maps) live in
the tests, in `tests/alexander_reference.py`.  There the identity
"Gassner minus identity equals the degree-two differential composed with
the twist chain map" fixes them jointly, and the row builders here are
checked against them entry by entry:

 - Free-group generators are 1-based.  A word is a tuple of nonzero
   integers; a negative entry is the inverse generator.  Words are kept
   freely reduced.
 - The pure-braid twist generator on strands i < j conjugates the two end
   strands by the product (g_i g_j) and every strand strictly between
   them by the commutator [g_i, g_j]; strands outside [i, j] are fixed.
 - A braid word acts leftmost-first: applying the concatenation of two
   words equals applying the left word, then the right word to the
   result.  Under this reading the standard positive twist word on a
   strand set composes to conjugation by the ascending product of the
   strand generators, which is what the chain-map formulas expand.
 - Fox derivatives are left derivatives.  The Gassner matrix stores the
   abelianized gradient of the image of g_i in row i; with rows acting as
   vectors on the right, the matrix of a word is the product of the
   factor matrices in word order.
 - Exterior-power bases are lexicographic; the Koszul-type differential
   on a k-subset alternates signs starting with minus on the smallest
   member, except in degree one where the column is (t_i - 1) with
   positive sign.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cache, cached_property
from importlib import resources
from typing import Iterable, Sequence

from .arrangement import Lattice2, ValidationError, _scalar, _torus_product
from .components import CapExceeded
from .exactalg import (
    MODULAR_PRIME_FLOOR,
    ExactMatrix,
    ExactScalar,
    IntEchelon,
    PrimeField,
    ResidueRing,
    _euler_phi,
    _fold,
    _galois,
    _mul,
    modp_ranks,
    prime_field,
)

# Largest order (lcm of the coordinates' orders) of a torus point that the
# membership tests accept.  On the locus a point needs about phi(m) times as
# many primes as at order 1, and more when its coordinates have
# denominators: at order 120 a point on a component of diamond or pencil(6)
# takes 0.002-0.005 s as a unit point (23-37 primes) and 0.007-0.14 s as a
# point (a/b) * zeta_120^e (69-333 primes), on one core of a 2-core Intel
# Xeon, Python 3.11 (the tests' `_gate_point`, seeds 0-3, depths 1 and 2,
# best of four runs).  A point of larger order is refused before any
# cyclotomic polynomial is built.
POINT_ORDER_CAP = 120

# Largest length, in unit twists, of a braid word (`normalize_braid`), so
# of a generator's conjugator.  Every factor of the conjugator is pushed
# through in each evaluation ring, and the majorant bounds, so the primes,
# grow with its length: the double point (1, 2) on 6 strands conjugated by
# (2, 3)^L takes, at the point (2/3) * zeta_120^(7+i), 0.016 s for L = 10
# (144 primes), 0.11 s for L = 30 (355 primes) and 0.38 s for L = 50 (567
# primes), and 0.73 s for L = 50 on 12 strands (716 primes).  Past the
# cap, L = 100 takes 2.8 s (1095 primes, past CERTIFICATE_PRIME_CAP too),
# and at the rational point ((i+2)/(i+1)) 0.005 s for L = 100 and 0.06 s
# for L = 300 (2-core Intel Xeon, Python 3.11, best of three).  The
# packaged fixtures' conjugators have at most 3.  Without the cap a factor
# ["A", 1, 2, 10**10] hung every command on load.
BRAID_LENGTH_CAP = 50

# Largest number of primes that a membership certificate is predicted to
# need (`_checked_bound`), checked each time the stop rule's bound is set,
# before the primes it asks for are built.  The costs of the strand, braid
# and order caps multiply here: the double point (3, 7) on 12 strands
# conjugated by (1,12)^25 (2,11)^25, within all three, needs 1654 primes
# at the point (2/3) * zeta_120^(7+i) and took 19.6 s; it is refused in
# 0.02 s.  Near the cap, the double point (1, 2) on 6 strands conjugated
# by (2, 3)^100 needs 1095 primes (2.8 s) and by (1, 6)^30 1016 primes
# (3.2 s).  The queries within the caps that the order, braid and strand
# cap comments quote need at most 716 primes, the tests' other queries at
# most 438 and the benchmark's member queries at most 12 (2-core Intel
# Xeon, Python 3.11).
CERTIFICATE_PRIME_CAP = 1000

FreeWord = tuple[int, ...]
TwistFactor = tuple[int, int, int]  # (i, j, exponent) with 1 <= i < j
BraidWord = tuple[TwistFactor, ...]


def point_order(coords: Sequence) -> int:
    """The order of a torus point: the lcm of its coordinates' orders
    (1 for a rational point).  Above POINT_ORDER_CAP it is refused."""
    order = math.lcm(*(_scalar(c).order for c in coords))
    if order > POINT_ORDER_CAP:
        raise CapExceeded(
            f"torus points are limited to order {POINT_ORDER_CAP} (got {order})"
        )
    return order


def _torus_coords(n: int, point: Sequence) -> list[ExactScalar]:
    coords = [_scalar(v) for v in point]
    if len(coords) != n:
        raise ValidationError(f"expected a point with {n} coordinates")
    if any(c.is_zero() for c in coords):
        raise ValidationError("torus points must have nonzero coordinates")
    point_order(coords)
    return coords


class _Ring:
    """Uniform scalar operations on the values of the t_i and their
    inverses: exact at a point (`_ring`), int residues modulo a prime or a
    product of primes (`_Residues`), or majorants with denominators
    (`majorant`).  The builders test zeros by truthiness and need only
    ring operations, so the tests also run them on Laurent polynomials."""

    __slots__ = ("n", "one", "zero", "modulus", "_t", "_tinv", "_factors", "_pushed")

    def __init__(self, t: list, tinv: list, one, zero, modulus: int | None = None):
        self.n, self._t, self._tinv, self.one, self.zero = len(t), t, tinv, one, zero
        self.modulus = modulus
        self._factors: dict[TwistFactor, list] = {}
        self._pushed: dict[MonodromyGen, tuple[list[list], list]] = {}

    @classmethod
    def majorant(cls, coords: Sequence[ExactScalar]) -> "_Ring":
        """Evaluation at majorants of t_i and 1/t_i (see `_Majorant`,
        `_coordinate_bounds`), so that the builders return, for every entry
        e, a denominator d with d * e in Z[zeta_M] and an integer bound on
        every |sigma(d * e)| over the embeddings sigma of Q(zeta_M) in C."""
        bounds = [_coordinate_bounds(c) for c in coords]
        t = [_Majorant(*b) for b, _ in bounds]
        tinv = [_Majorant(*b) for _, b in bounds]
        return cls(t, tinv, _Majorant(1, 1), _Majorant(0, 1))

    def t(self, index: int):
        return self._t[index]

    def tinv(self, index: int):
        return self._tinv[index]

    def factor_rows(self, factor: TwistFactor) -> list[list[tuple[int, object]]]:
        """Rows i..j of the Gassner matrix of a twist factor (i, j, e), each
        as its nonzero entries (column - i, entry) in columns i..j, where
        they all lie; built once per ring from the image words, which are
        built once per factor (`_factor_words`)."""
        rows = self._factors.get(factor)
        if rows is None:
            i, j, _ = factor
            rows = self._factors[factor] = [
                [
                    (c, x)
                    for c, x in enumerate(_gradient(word, self, i - 1, j - i + 1))
                    if x
                ]
                for word in _factor_words(factor)
            ]
        return rows


def _ring(n: int, point: Sequence) -> _Ring:
    """Exact values at a torus point."""
    t = _torus_coords(n, point)
    return _Ring(t, [c.inverse() for c in t], ExactScalar.one(), ExactScalar.zero())


class _Majorant:
    """A majorant of a value x of Q(zeta_M): a positive integer `den` with
    den * x in Z[zeta_M], and an integer `bound` on |sigma(den * x)| at
    every embedding sigma.  A sum or a difference clears with
    L = lcm(den_x, den_y) and is bounded by
    bound_x * L / den_x + bound_y * L / den_y; a product clears with
    den_x * den_y and is bounded by bound_x * bound_y."""

    __slots__ = ("bound", "den")

    def __init__(self, bound: int, den: int):
        self.bound, self.den = bound, den

    def __add__(self, other: "_Majorant") -> "_Majorant":
        if self.den == other.den:
            return _Majorant(self.bound + other.bound, self.den)
        den = math.lcm(self.den, other.den)
        return _Majorant(
            self.bound * (den // self.den) + other.bound * (den // other.den), den
        )

    __sub__ = __add__

    def __mul__(self, other: "_Majorant") -> "_Majorant":
        return _Majorant(self.bound * other.bound, self.den * other.den)

    def __neg__(self) -> "_Majorant":
        return self

    def is_zero(self) -> bool:
        return self.bound == 0

    def __bool__(self) -> bool:
        return not self.is_zero()


def _coordinate_bounds(c: ExactScalar) -> tuple[tuple[int, int], tuple[int, int]]:
    """The majorants (bound, den) of c and of 1/c (see `_Majorant`): as
    |sigma(zeta^i)| = 1 the sum of the |a_i|, a = c.ints, bounds every
    |sigma(c.den * c)|, and likewise for c.inverse().  When c * conj(c) = 1,
    that is a * conj(a) = den^2 on ints (conj the Galois map zeta -> 1/zeta),
    as for roots of unity and +-1, every |sigma(c)| is 1 and 1/c = conj(c)
    has the same denominator: both get (den, den), with no inverse built."""
    a, den = c.ints, c.den
    if _fold(c.order, _mul(a, _galois(c.order, a, -1))) == [den * den] + [0] * (len(a) - 1):
        return (den, den), (den, den)
    inverse = c.inverse()
    return (sum(map(abs, a)), den), (sum(map(abs, inverse.ints)), inverse.den)


def _cleared_norms(rows: list[list[_Majorant]]) -> list[int]:
    """Squared bounds on the Euclidean norms at every embedding of the
    majorant rows, each row r scaled by L_r, the lcm of its entries' dens,
    so that L_r times the row lies in Z[zeta_M]: entry e is bounded by
    e.bound * L_r / e.den."""
    norms = []
    for row in rows:
        scale = math.lcm(*{e.den for e in row})
        norms.append(sum((e.bound * (scale // e.den)) ** 2 for e in row))
    return norms


# ---------------------------------------------------------------------------
# free words and the Artin action
# ---------------------------------------------------------------------------


def free_reduce(letters: Iterable[int]) -> FreeWord:
    """Freely reduce a word (cancel adjacent inverse pairs)."""
    out: list[int] = []
    for x in letters:
        x = int(x)
        if x == 0:
            raise ValidationError("generator indices are nonzero")
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def invert_word(word: Iterable[int]) -> FreeWord:
    return tuple(-x for x in reversed(list(word)))


def normalize_braid(factors: Iterable[Sequence[int]]) -> BraidWord:
    """Flatten twist factors to unit exponents, validating indices.  A word
    of more than BRAID_LENGTH_CAP unit factors is refused before it is
    expanded."""
    checked: list[TwistFactor] = []
    for factor in factors:
        i, j, e = (int(v) for v in factor)
        if not 1 <= i < j:
            raise ValidationError(f"twist factor needs strands 1 <= i < j, got ({i}, {j})")
        if e == 0:
            raise ValidationError("twist exponent must be nonzero")
        checked.append((i, j, e))
    length = sum(abs(e) for _, _, e in checked)
    if length > BRAID_LENGTH_CAP:
        raise CapExceeded(
            f"braid words are limited to {BRAID_LENGTH_CAP} unit twists (got {length})"
        )
    return tuple((i, j, 1 if e > 0 else -1) for i, j, e in checked for _ in range(abs(e)))


def invert_braid(braid: Iterable[Sequence[int]]) -> BraidWord:
    return tuple((i, j, -e) for i, j, e in reversed(normalize_braid(braid)))


def twist_generator_image(i: int, j: int, exp: int, k: int) -> FreeWord:
    """Image of generator g_k under the (i, j) twist generator to the ±1 power."""
    if not 1 <= i < j:
        raise ValidationError("twist generator needs 1 <= i < j")
    if exp not in (1, -1):
        raise ValidationError("unit exponent expected")
    if k < i or k > j:
        return (k,)
    ends = (i, j)
    if k == i or k == j:
        z = ends if exp == 1 else invert_word(ends)
        return free_reduce(z + (k,) + invert_word(z))
    commutator = (i, j, -i, -j)
    if exp == 1:
        z = commutator
    else:
        # inverse action on a middle strand: conjugate by the commutator of
        # the inverted end generators
        z = (-j, -i, j, i)
    return free_reduce(z + (k,) + invert_word(z))


def artin_apply(braid: Iterable[Sequence[int]], word: Iterable[int]) -> FreeWord:
    """Apply a pure-braid word to a free-group word, leftmost factor first:
    apply(b1 + b2, w) equals apply(b2, apply(b1, w))."""
    current = free_reduce(word)
    for i, j, e in normalize_braid(braid):
        out: list[int] = []
        for letter in current:
            image = twist_generator_image(i, j, e, abs(letter))
            out.extend(image if letter > 0 else invert_word(image))
        current = free_reduce(out)
    return current


def full_twist(X: Sequence[int]) -> BraidWord:
    """The full twist on a strand set, as the standard positive twist word."""
    X = _validated_strands(X)
    word = []
    for b in range(1, len(X)):
        for a in range(b):
            word.append((X[a], X[b], 1))
    return tuple(word)


def _validated_strands(X: Sequence[int]) -> tuple[int, ...]:
    X = tuple(int(v) for v in X)
    if len(X) < 2:
        raise ValidationError("a twist needs at least two strands")
    if list(X) != sorted(set(X)) or X[0] < 1:
        raise ValidationError("strand sets are sorted 1-based tuples")
    return X


# ---------------------------------------------------------------------------
# Fox calculus and the Gassner action
# ---------------------------------------------------------------------------


def _gradient(word: FreeWord, ring: _Ring, lo: int, size: int) -> list:
    """Entries lo..lo+size-1 of the gradient of a freely reduced word whose
    letters all lie in generators lo+1..lo+size."""
    grad = [ring.zero] * size
    m = ring.one
    for letter in word:
        idx = abs(letter) - 1
        if letter > 0:
            grad[idx - lo] = grad[idx - lo] + m
            m = m * ring.t(idx)
        else:
            m = m * ring.tinv(idx)
            grad[idx - lo] = grad[idx - lo] - m
    return grad


@cache
def _factor_words(factor: TwistFactor) -> tuple[FreeWord, ...]:
    """The freely reduced images of g_i..g_j under a twist factor (i, j, e)."""
    i, j, e = factor
    return tuple(twist_generator_image(i, j, e, k) for k in range(i, j + 1))


def _push(braid: BraidWord, vectors: Iterable[Sequence], ring: _Ring) -> list[list]:
    """The row vectors times the Gassner matrix of a braid word.

    Row i of the Gassner matrix holds the gradient of the image of g_i, so
    the matrix of a word is the product of its factor matrices in word
    order, and the vectors are multiplied by one factor at a time, which
    keeps entries at their final polynomial size instead of materializing
    exponentially long image words.  A factor (i, j, e) fixes g_k outside
    i..j and sends g_k inside to a word in g_i, g_j, g_k, so only the
    coordinates i..j change, and they depend only on coordinates i..j.
    In a residue ring the vectors and every factor's output are reduced
    mod its modulus, so every entry of the result lies in [0, modulus).
    """
    modulus = ring.modulus
    vectors = [list(v) if modulus is None else [a % modulus for a in v] for v in vectors]
    for factor in braid:
        i, j, _ = factor
        rows = ring.factor_rows(factor)
        for v in vectors:
            new = [ring.zero] * (j - i + 1)
            for a, row in zip(v[i - 1 : j], rows):
                if not a:
                    continue
                for c, x in row:
                    new[c] = new[c] + a * x
            if modulus is not None:
                new = [a % modulus for a in new]
            v[i - 1 : j] = new
    return vectors


# ---------------------------------------------------------------------------
# full twists and their conjugates
# ---------------------------------------------------------------------------


def _wedge_vectors(u: Sequence, v: Sequence, pairs: Sequence[tuple[int, int]]):
    return [u[a] * v[b] - u[b] * v[a] for a, b in pairs]


def monodromy_braid(gen: "MonodromyGen") -> BraidWord:
    """The conjugated full twist as a braid word: the inverse conjugator,
    the twist, then the conjugator (words act leftmost-first)."""
    delta = normalize_braid(gen.delta)
    return invert_braid(delta) + full_twist(gen.X) + delta


# ---------------------------------------------------------------------------
# the standard free resolution differentials
# ---------------------------------------------------------------------------


@cache
def _koszul_pattern(k: int, n: int) -> tuple[int, tuple[tuple, ...]]:
    """The column count C(n, k-1) and, for each k-subset J in lexicographic
    order, the entries of its row of the degree-k differential as
    (column of J minus j, j - 1, whether the sign is minus), j in J."""
    cols = itertools.combinations(range(1, n + 1), k - 1)
    col_index = {c: i for i, c in enumerate(cols)}
    rows = tuple(
        tuple((col_index[J[:r] + J[r + 1 :]], J[r] - 1, r % 2 == 0) for r in range(k))
        for J in itertools.combinations(range(1, n + 1), k)
    )
    return len(col_index), rows


def _resolution_differential(k: int, ring: _Ring) -> list[list]:
    plus = [ring.t(i) - ring.one for i in range(ring.n)]
    if k == 1:
        return [[entry] for entry in plus]
    minus = [-entry for entry in plus]
    ncols, pattern = _koszul_pattern(k, ring.n)
    rows = []
    for entries in pattern:
        row = [ring.zero] * ncols
        for c, j, negative in entries:
            row[c] = minus[j] if negative else plus[j]
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# monodromy data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonodromyGen:
    """One braid monodromy generator: a full twist on X conjugated by delta."""

    X: tuple[int, ...]
    delta: BraidWord = ()

    def __post_init__(self):
        object.__setattr__(self, "X", _validated_strands(self.X))
        object.__setattr__(self, "delta", normalize_braid(self.delta))


def _check_gen(gen: MonodromyGen, n: int) -> None:
    if gen.X[-1] > n:
        raise ValidationError("strand index exceeds strand count")
    for i, j, _ in gen.delta:
        if j > n:
            raise ValidationError("conjugator strand index exceeds strand count")


@dataclass(frozen=True)
class MonodromyInput:
    """Braid monodromy of an affine line arrangement on n strands.

    One generator per intersection point (double points included).  The
    optional lift metadata relates the strands to the hyperplanes of a
    central arrangement one rank up: {"central_n": int, "strand_to_central":
    [1-based indices], "infinity": 1-based index of the line at infinity}.
    """

    n: int
    generators: tuple[MonodromyGen, ...]
    lift: dict | None = None

    def __post_init__(self):
        if self.n < 2:
            raise ValidationError("monodromy needs at least two strands")
        object.__setattr__(self, "generators", tuple(self.generators))
        seen_pairs: set[tuple[int, int]] = set()
        for gen in self.generators:
            _check_gen(gen, self.n)
            for pair in itertools.combinations(gen.X, 2):
                if pair in seen_pairs:
                    raise ValidationError(
                        f"strand pair {pair} lies in two vertex sets"
                    )
                seen_pairs.add(pair)
        if self.lift is not None:
            self._check_lift()

    def _check_lift(self) -> None:
        lift = self.lift
        try:
            central_n = _json_int(lift["central_n"])
            strands = [_json_int(v) for v in lift["strand_to_central"]]
            infinity = _json_int(lift["infinity"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed lift metadata: {exc}") from exc
        if central_n != self.n + 1:
            raise ValidationError("lift central_n must be strand count plus one")
        if sorted(strands + [infinity]) != list(range(1, central_n + 1)):
            raise ValidationError(
                "lift strand map plus infinity must enumerate the central lines"
            )

    @property
    def b2(self) -> int:
        """Second Betti number of the presented complement: sum of
        (multiplicity - 1) over the intersection points."""
        return sum(len(g.X) - 1 for g in self.generators)

    def lattice(self) -> Lattice2:
        """Rank-2 intersection lattice encoded by the vertex sets (0-based);
        strand pairs in no vertex set become parallel pairs."""
        flats = [tuple(s - 1 for s in g.X) for g in self.generators if len(g.X) >= 3]
        covered = set()
        for g in self.generators:
            covered.update(
                tuple(sorted((a - 1, b - 1)))
                for a, b in itertools.combinations(g.X, 2)
            )
        parallels = [
            p
            for p in itertools.combinations(range(self.n), 2)
            if p not in covered
        ]
        return Lattice2(self.n, flats, parallels)

    def to_json(self) -> dict:
        data = {
            "n": self.n,
            "generators": [
                {
                    "X": list(g.X),
                    "delta": [["A", i, j, e] for i, j, e in g.delta],
                }
                for g in self.generators
            ],
        }
        if self.lift is not None:
            data["lift"] = dict(self.lift)
        return data

    @classmethod
    def from_json(cls, obj: dict) -> "MonodromyInput":
        try:
            n = _json_int(obj["n"])
            raw_gens = obj["generators"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed monodromy data: {exc}") from exc
        gens = []
        try:
            for item in raw_gens:
                if not isinstance(item, dict):
                    raise ValidationError("each monodromy generator must be an object")
                X = tuple(_json_int(v) for v in item["X"])
                delta = []
                for entry in item.get("delta", ()):
                    if len(entry) != 4 or entry[0] != "A":
                        raise ValidationError(
                            'conjugator factors look like ["A", i, j, exponent]'
                        )
                    delta.append(tuple(_json_int(v) for v in entry[1:]))
                gens.append(MonodromyGen(X, tuple(delta)))
        except ValidationError:
            raise
        except KeyError as exc:
            raise ValidationError(f"monodromy generator missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"malformed monodromy generator: {exc}") from exc
        return cls(n, tuple(gens), obj.get("lift"))


def _json_int(value) -> int:
    """An integer from JSON: floats, strings and booleans are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def pencil_monodromy(n: int) -> MonodromyInput:
    """Monodromy of n affine lines through one point: a single full twist."""
    if n < 2:
        raise ValidationError("a pencil needs at least two lines")
    return MonodromyInput(n, (MonodromyGen(tuple(range(1, n + 1))),))


def generic_monodromy(n: int) -> MonodromyInput:
    """Monodromy template for n lines in general position: one twist per
    pair with trivial conjugators (membership answers at this level do not
    depend on the conjugators)."""
    if n < 2:
        raise ValidationError("need at least two lines")
    gens = tuple(
        MonodromyGen((i, j)) for i, j in itertools.combinations(range(1, n + 1), 2)
    )
    return MonodromyInput(n, gens)


def grid_monodromy(n1: int, n2: int) -> MonodromyInput:
    """Monodromy of two transverse families of parallel lines (n1 and n2
    of them): one double point per cross pair, trivial conjugators.

    The complement is a product of a free group of rank n1 with one of
    rank n2, and the cross-pair twist relators present exactly the
    commutators between the two families, so this input is an exact
    presentation independent of any plane geometry.
    """
    if n1 < 1 or n2 < 1:
        raise ValidationError("each parallel family needs at least one line")
    if n1 + n2 < 2:
        raise ValidationError("monodromy needs at least two strands")
    gens = tuple(
        MonodromyGen((i, j))
        for i in range(1, n1 + 1)
        for j in range(n1 + 1, n1 + n2 + 1)
    )
    return MonodromyInput(n1 + n2, gens)


def load_monodromy(name: str) -> MonodromyInput:
    """Load a packaged monodromy fixture by name (without extension)."""
    path = resources.files("charvar.fixtures").joinpath(f"{name}.json")
    try:
        text = path.read_text()
    except (FileNotFoundError, ModuleNotFoundError) as exc:
        raise ValidationError(f"unknown monodromy fixture: {name}") from exc
    return MonodromyInput.from_json(json.loads(text))


# ---------------------------------------------------------------------------
# the Alexander-invariant presentation and membership tests
# ---------------------------------------------------------------------------


def presentation_matrix(m: MonodromyInput, point: Sequence) -> list[list]:
    """Presentation matrix of the Alexander invariant evaluated at a torus
    point: the monodromy chain map rows for all vertex-set strands except
    each set's largest, stacked over the degree-three resolution
    differential.  Shape (b2 + C(n,3)) x C(n,2).
    """
    return _presentation_rows(m, _ring(m.n, point))


def _presentation_rows(m: MonodromyInput, ring: _Ring) -> list[list]:
    rows: list[list] = []
    for gen in m.generators:
        rows.extend(_chain_map_rows(gen, ring))
    if m.n >= 3:
        rows.extend(_resolution_differential(3, ring))
    return rows


def _unit_rows(strands: Iterable[int], ring: _Ring) -> list[list]:
    return [
        [ring.one if c == s - 1 else ring.zero for c in range(ring.n)] for s in strands
    ]


def _chain_map_rows(gen: MonodromyGen, ring: _Ring) -> list[list]:
    """Rows X[:-1] of the monodromy chain map Gassner(delta^-1) Phi_X
    wedge^2(Theta), Theta = Gassner(delta), without building a matrix:
    x_s ^ y with (x_s, y) from `_pushed_vectors`."""
    pairs = list(itertools.combinations(range(ring.n), 2))
    xs, y = _pushed_vectors(gen, ring)
    return [_wedge_vectors(x, y, pairs) for x in xs]


def _pushed_vectors(gen: MonodromyGen, ring: _Ring) -> tuple[list[list], list]:
    """The vectors x_s = u_s Theta, s in X[:-1], and y = nabla Theta whose
    wedges x_s ^ y are the rows of the monodromy chain map, so that both
    criteria are built from them; computed once per ring.

    Row k of Phi_X is e_k ^ nabla for k in X (nabla the gradient of the
    product of the X generators), (t_k - 1) nabla ^ nabla_{X>k} for
    X_0 < k < X_last outside X, and 0 otherwise.  So with theta_s the row
    e_s Gassner(delta^-1), row s of Gassner(delta^-1) Phi_X is u_s ^ nabla,
    where u_s = sum_{k in X} theta_s[k] e_k
    - sum_{X_0 < k < X_last, k not in X} theta_s[k] (t_k - 1) nabla_{X>k};
    and (u ^ w) wedge^2(Theta) = (u Theta) ^ (w Theta).
    """
    pushed = ring._pushed.get(gen)
    if pushed is not None:
        return pushed
    X = gen.X
    nabla = _gradient(X, ring, 0, ring.n)
    units = _unit_rows(X[:-1], ring)
    if not gen.delta:
        pushed = ring._pushed[gen] = units, nabla
        return pushed
    members = set(X)
    uppers = {}  # k -> (t_k - 1) nabla_{X>k}
    for k in range(X[0] + 1, X[-1]):
        if k not in members:
            upper = _gradient([s for s in X if s > k], ring, 0, ring.n)
            uppers[k] = [(ring.t(k - 1) - ring.one) * c for c in upper]
    us = []
    for theta in _push(invert_braid(gen.delta), units, ring):
        u = [theta[c] if c + 1 in members else ring.zero for c in range(ring.n)]
        for k, upper in uppers.items():
            a = theta[k - 1]
            if not a:
                continue
            for c, x in enumerate(upper):
                if x:
                    u[c] = u[c] - a * x
        us.append(u)
    *xs, y = _push(gen.delta, us + [nabla], ring)
    pushed = ring._pushed[gen] = xs, y
    return pushed


def relator_jacobian(m: MonodromyInput, point: Sequence) -> list[list]:
    """Abelianized Fox Jacobian of the monodromy relators evaluated at a
    torus point: for each vertex set, the rows (Gassner(generator) -
    identity) for all strands but the largest.  Shape b2 x n.  Built as the
    presentation's chain-map rows times the degree-two differential (see
    `_relator_rows`)."""
    return _relator_rows(m, _ring(m.n, point))


def _relator_rows(m: MonodromyInput, ring: _Ring) -> list[list]:
    """Rows X[:-1] of Gassner(generator) - I for every generator, from the
    chain-map vectors: Gassner(gen) - I = Phi_gen d_2, and d_2 sends
    e_a ^ e_b to (t_b - 1) e_a - (t_a - 1) e_b, so row s is
    (x_s ^ y) d_2 = eps(y) x_s - eps(x_s) y with
    eps(v) = sum_b (t_b - 1) v_b, O(n) per row from `_pushed_vectors`."""

    def eps(v: list):
        total = ring.zero
        for b, a in enumerate(v):
            if a:
                total = total + (ring.t(b) - ring.one) * a
        return total

    rows = []
    for gen in m.generators:
        xs, y = _pushed_vectors(gen, ring)
        ey = eps(y)
        for x in xs:
            ex = eps(x)
            rows.append([ey * a - ex * b for a, b in zip(x, y)])
    return rows


def presentation_rank(m: MonodromyInput, point: Sequence) -> int:
    """Exact rank over Q(zeta_M) of the presentation matrix evaluated at a
    torus point (`ExactMatrix.rank`).  No library route calls it: it is the
    oracle that the tests hold `membership`'s certified ranks against, and
    the traced benchmark binds it by name."""
    return ExactMatrix(presentation_matrix(m, point=point), math.comb(m.n, 2)).rank()


def relator_rank(m: MonodromyInput, point: Sequence) -> int:
    """Exact rank over Q(zeta_M) of the relator Jacobian evaluated at a
    torus point (`ExactMatrix.rank`).  Like `presentation_rank`, the tests' oracle
    for `membership` and a name the traced benchmark binds; no library
    route calls it."""
    return ExactMatrix(relator_jacobian(m, point=point), m.n).rank()


@dataclass(frozen=True)
class Membership:
    """A depth-k verdict at a torus point: the exact presentation rank,
    both criteria (`partial2` is None beyond the relator window), and the
    primes that decided each criterion, "mod <p1>*<p2>*..." (None for
    `partial2` beyond the window)."""

    rank: int
    delta: bool
    partial2: bool | None
    certificate: dict


def membership(
    m: MonodromyInput, point: Sequence, k: int, prime_floor: int = MODULAR_PRIME_FLOOR
) -> Membership:
    """Depth-k membership of a torus point, by certified modular ranks.

    Let M be the point's order and p_1 < p_2 < ... the primes that apply:
    the primes p = 1 (mod M) above prime_floor that divide no coordinate
    denominator and map no coordinate to 0 (a prime that does not apply is
    skipped for the next; only those dividing a denominator or the norm of
    a coordinate fail, so finitely many).  At p_i every coordinate is a
    unit of the local ring of Z[zeta_M] at a prime P_i above p_i (see
    `PrimeField`), so every entry of the presentation matrix and of the
    relator Jacobian (an integer polynomial in the t_i and their inverses)
    lies in that ring, and reducing modulo P_i is a ring map that commutes
    with minors.  Hence the rank r_i mod p_i is at most the true rank r.

    Both criteria's ranks mod p_i come from the relator rows alone.  The
    presentation is [Phi; d_3], Phi the stacked chain-map rows x_s ^ y and
    d_3 the degree-three Koszul differential on the (t_j - 1); the relator
    Jacobian is R = Phi d_2, whose rows eps(y) x_s - eps(x_s) y are built
    from the same pushes (see `_pushed_vectors`, `_relator_rows`).  Let
    t' be the point's image in F_{p_i}.

    - If some t'_j != 1, then t'_j - 1 is a unit and the Koszul complex on
      the (t'_j - 1) is exact: the rows of d_3 span the left kernel of d_2,
      of dimension C(n,2) - (n - 1) = C(n-1,2), and d_2 maps the row space
      of [Phi; d_3] onto that of R with exactly that kernel.  So the
      presentation has rank C(n-1,2) + rank R mod p_i.
    - If t' = 1, then d_3 vanishes and row s of Phi is e_s ^ (sum of e_j,
      j in X), the only row holding the pair (s, max X), as no strand pair
      lies in two vertex sets.  So the presentation has rank b2 mod p_i.

    So each prime's relator rows are built and eliminated once per query,
    for both criteria: the primes of each new range are built together,
    once, modulo their product N = p_start ... p_stop-1 (see `ResidueRing`),
    and ranked at all of them by one elimination modulo N (`modp_ranks`, in
    runs of at most MODULUS_BITS bits).  Z -> Z/N is a ring map, so every
    entry is the residue of the entry built in Z/N, and an elimination
    modulo N is one in every F_{p_i} at once.  The presentation rows are
    built only on the majorant ring, for the stop rule:

    - a rank mod p_1 equal to min(rows, columns) is the exact rank, and a
      relator rank mod p_1 above n - k - 1 proves `partial2` false;
    - otherwise let s = max r_i over the primes taken.  The `_Ring.majorant`
      build gives each entry e a denominator d_e with d_e * e in Z[zeta_M]
      and a bound B_e on every |sigma(d_e * e)| over the embeddings sigma
      of Q(zeta_M) in C (at a unit point, where every coordinate and its
      inverse has integer power-basis coefficients, every d_e is 1).
      Scale row r by L_r, the lcm of its entries' d_e; its entries are
      then bounded by B_e * L_r / d_e.  Let H be the product of the s + 1
      largest of these cleared row norms.  For an (s+1)-minor D, the
      matching minor D' = (prod L_r) * D of the cleared rows lies in
      Z[zeta_M] and |sigma(D')| <= H at every sigma (Hadamard), so
      |N(D')| <= H^phi(M).  D lies in P_i times the local ring at P_i, so
      D' lies in P_i for every prime taken, and p_1 * ... * p_j divides
      N(D'), as the P_i are distinct (that primes were skipped does not
      matter).  Primes are taken until p_1 * ... * p_j > H^phi(M); then
      D' = 0, so D = 0, and s = r exactly.  The primes this rule needs at
      the current s are taken as one range, a larger s asks for another,
      and a rule that predicts more than CERTIFICATE_PRIME_CAP primes is
      refused before its range is built.  The certificate names the primes
      used.

    This is the one route by which the library decides a torus point: the
    depth-k verdict is `.delta` (rank at most C(n,2) - k), `.partial2` is
    the relator criterion (rank at most n - k - 1) within
    `relator_route_limit`, and `.rank` at the point 1 is the presentation
    rank there, b2.  A central point goes through `lift_point` first.  The
    tests hold it against the exact Q(zeta_M) ranks `presentation_rank`
    and `relator_rank`, and against a reference that ranks the
    presentation rows themselves.
    """
    if k < 1:
        raise ValidationError("depth k must be at least 1")
    residues = _Residues(m.n, point, prime_floor)
    relator: list[int] = []  # the relator rank mod each prime so far

    def relator_ranks(start: int, stop: int) -> list[int]:
        begin = len(relator)
        if begin < stop:
            rows = _relator_rows(m, residues.ring(begin, stop))
            primes = [residues.field(i).p for i in range(begin, stop)]
            relator.extend(modp_ranks(rows, m.n, primes))
        return relator[start:stop]

    kernel = math.comb(m.n - 1, 2)

    def presentation_ranks(start: int, stop: int) -> list[int]:
        return [
            m.b2 if all(v == 1 for v in residues.images[i]) else kernel + r
            for i, r in enumerate(relator_ranks(start, stop), start)
        ]

    ncols = math.comb(m.n, 2)
    full = min(m.b2 + math.comb(m.n, 3), ncols)
    rank, delta_route = _certified_rank(
        m, residues, _presentation_rows, presentation_ranks, full, ncols
    )
    partial2, partial2_route = None, None
    if k <= relator_route_limit(m):
        r, partial2_route = _certified_rank(
            m, residues, _relator_rows, relator_ranks, min(m.b2, m.n), m.n - k - 1
        )
        partial2 = r <= m.n - k - 1
    return Membership(
        rank,
        rank <= ncols - k,
        partial2,
        {"delta": delta_route, "partial2": partial2_route},
    )


class _Residues:
    """A torus point's evaluation rings modulo products of consecutive
    primes that apply (see `field`), and its majorant ring, shared by both
    criteria.  Each coordinate's image at each prime is computed once, from
    its `ints` and `den` (`PrimeField.reduce`)."""

    def __init__(self, n: int, point: Sequence, floor: int):
        self.coords = _torus_coords(n, point)
        self.order = point_order(self.coords)
        self.floor = floor
        self.fields: list[PrimeField] = []
        # per prime, the coordinates' images and their inverses
        self.images: list[list[int]] = []
        self.inverses: list[list[int]] = []

    def field(self, i: int) -> PrimeField:
        """The i-th prime that applies: a prime p = 1 (mod the order) above
        the floor that divides no coordinate denominator and maps every
        coordinate to a unit (`reduce` gives None or 0 otherwise).  Only the
        primes dividing a denominator or the norm of a coordinate fail, so
        the search ends."""
        while len(self.fields) <= i:
            field = prime_field(self.order, self.floor)
            self.floor = field.p
            images = [field.reduce(c) for c in self.coords]
            if all(images):
                self.fields.append(field)
                self.images.append(images)
                self.inverses.append([pow(v, -1, field.p) for v in images])
        return self.fields[i]

    def ring(self, start: int, stop: int) -> _Ring:
        """Evaluation at the point's image in Z/N, N = p_start ... p_stop-1,
        the ring's `modulus` (see `PrimeField`, `ResidueRing`): the images
        and inverses at those primes, where every image is a unit, combined
        by the Chinese remainder theorem.  Entries are built on integer
        representatives, which `_push` reduces mod N to keep them small."""
        crt = ResidueRing([self.field(i) for i in range(start, stop)])
        return _Ring(
            [crt.combine(v) for v in zip(*self.images[start:stop])],
            [crt.combine(v) for v in zip(*self.inverses[start:stop])],
            1,
            0,
            crt.p,
        )

    @cached_property
    def majorant(self) -> _Ring:
        return _Ring.majorant(self.coords)


def _certified_rank(
    m: MonodromyInput, residues: _Residues, build, ranks, full: int, threshold: int
) -> tuple[int, str]:
    """The rank at the point of build's matrix, which has rank at most
    `full`, with the primes used (see `membership`): the exact rank, or a
    modular rank above threshold.  `ranks(start, stop)` gives the matrix's
    rank mod p_start .. p_stop-1, and build runs only on the majorant ring,
    for the norms of the stop rule.  The primes after the first are asked
    for in ranges, each as long as the rule needs at the current rank, and
    walked in order until the rule stops."""
    primes = [residues.field(0).p]
    rank = ranks(0, 1)[0]
    if rank < full and rank <= threshold:
        norms = sorted(_cleared_norms(build(m, residues.majorant)), reverse=True)
        phi = _euler_phi(residues.order)
        bound = _checked_bound(norms[: rank + 1], phi, primes[0])
        product, stop = primes[0], 1
        while product ** 2 <= bound:
            if len(primes) == stop:
                # the primes the rule needs at the current rank, in one range
                start, batch = stop, product
                while batch ** 2 <= bound:
                    batch *= residues.field(stop).p
                    stop += 1
                batch_ranks = iter(ranks(start, stop))
            p = residues.field(len(primes)).p
            primes.append(p)
            product *= p
            r = next(batch_ranks)
            if r > rank:
                rank = r
                if rank == full or rank > threshold:
                    break
                bound = _checked_bound(norms[: rank + 1], phi, primes[0])
    return rank, "mod " + "*".join(map(str, primes))


def _checked_bound(norms: list[int], phi: int, p: int) -> int:
    """The stop rule's bound H^phi, H the product of the norms, refused when
    it predicts more than CERTIFICATE_PRIME_CAP primes.  Every prime taken
    is at least p >= 2^(b-1), b = p.bit_length(), so primes are taken until
    their product squared passes the bound after at most
    ceil(bound.bit_length() / (2 (b - 1))) of them."""
    bound = math.prod(norms) ** phi
    predicted = -(-bound.bit_length() // (2 * (p.bit_length() - 1)))
    if predicted > CERTIFICATE_PRIME_CAP:
        raise CapExceeded(
            f"membership certificates are limited to {CERTIFICATE_PRIME_CAP} primes "
            f"(this point may need {predicted})"
        )
    return bound


def relator_route_limit(m: MonodromyInput) -> int:
    """Largest depth for which the relator-Jacobian criterion is valid:
    min(n - 1, C(n,2) - b2).  At the point 1 the relator Jacobian vanishes,
    so its criterion, rank at most n - k - 1, fails for every k >= n, while
    the presentation there has rank b2 <= C(n,2) - k for every k up to
    C(n,2) - b2."""
    return min(m.n - 1, math.comb(m.n, 2) - m.b2)


def lift_point(lift: dict | None, central_point: Sequence) -> list[ExactScalar]:
    """Restrict a central torus point (coordinate product 1) to the affine
    strands recorded in the lift metadata (`MonodromyInput.lift`), in strand
    order, so that `membership` decides it."""
    if lift is None:
        raise ValidationError("this monodromy has no central lift metadata")
    coords = [_scalar(v) for v in central_point]
    strands = [int(v) for v in lift["strand_to_central"]]
    if len(coords) != len(strands) + 1:
        raise ValidationError("central point arity does not match the lift")
    point_order(coords)
    _torus_product(coords, central=True)
    return [coords[s - 1] for s in strands]


# ---------------------------------------------------------------------------
# the chain map at the identity character
# ---------------------------------------------------------------------------


def phi_one_matrix(lat: Lattice2) -> list[list[int]]:
    """Integer matrix of the stacked twist chain maps evaluated at the
    identity character: one block of `_chain_map_rows` per rank-2 class,
    rows indexed by the class members except the largest.  Conjugators act
    trivially there, so the matrix depends only on the lattice."""
    ring = _Ring([1] * lat.n, [1] * lat.n, 1, 0)
    rows = []
    for cls in lat.rank2_classes():
        rows.extend(_chain_map_rows(MonodromyGen(tuple(c + 1 for c in cls)), ring))
    return rows


def phi_one_rank(lat: Lattice2) -> int:
    return IntEchelon(math.comb(lat.n, 2)).add_rows(phi_one_matrix(lat))

