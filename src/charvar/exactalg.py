"""Exact scalar arithmetic and linear algebra for arrangement invariants.

Scalars live in cyclotomic extensions of the rationals: every value is
either a rational number or an element of Q(zeta_m) written on the power
basis 1, zeta, ..., zeta^(phi(m)-1) modulo the m-th cyclotomic polynomial,
as integer coefficients over one denominator (`ExactScalar`).  Their
arithmetic is one kernel on int coefficient lists by ring operations only:
`_fold` onto the power basis through the monic Phi_m, `_mul`, the Galois
action `_galois`, and `_adjugate`, prod_{sigma != 1} sigma(a), so
1/a = adj(a) / N(a).  Scalars, the direction keys of `charvar.arrangement`
and the zeta-shift of the cyclotomic rank use it.
Linear algebra has one kernel per job: a sparse fraction-free integer
echelon for every exact rank (each pivot row kept as its nonzero entries
divided by its content, and a row scaled only when a pivot's lead does
not divide the entry it clears; clones share the immutable pivot rows),
which ranks rows over Q(zeta_m) by restriction of scalars to Q; a sparse
elimination modulo a product of primes for the certified modular ranks
(rows of int residues built once modulo the product, by the Chinese
remainder theorem, are ranked at every one of the primes at once); a
rational reduced echelon form; and one
unimodular reduction behind the Hermite normal form and the saturated
integer kernel.  There are no symbolic (Laurent polynomial) entries:
the library decides a torus point by ranks of matrices evaluated there.

Everything here is deterministic and division-free where possible, so the
same inputs always produce the same pivots, ranks, and basis vectors.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from functools import lru_cache


# ---------------------------------------------------------------------------
# the Z[zeta_m] kernel: power-basis coefficient lists (lowest degree
# first) under ring operations only
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of the m-th cyclotomic polynomial, low to high."""
    assert m >= 1, "order must be positive"
    # x^m - 1 divided exactly by the monic Phi_d of every proper divisor d
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            den = cyclotomic_polynomial(d)
            quot = [0] * (len(num) - len(den) + 1)
            for shift in range(len(quot) - 1, -1, -1):
                c = quot[shift] = num[shift + len(den) - 1]
                if c:
                    for i, f in enumerate(den, shift):
                        num[i] -= c * f
            assert not any(num), "cyclotomic division left a remainder"
            num = quot
    return tuple(num)


@lru_cache(maxsize=None)
def _fold_terms(m: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """phi(m) and the nonzero terms (t, f) of Phi_m below its leading 1."""
    poly = cyclotomic_polynomial(m)
    return len(poly) - 1, tuple((t, f) for t, f in enumerate(poly[:-1]) if f)


def _fold(m: int, raw: list) -> list:
    """A polynomial in zeta_m on the power basis, computed in place: its
    exponents are folded modulo m (zeta^m = 1), then each top coefficient
    is folded back through the monic Phi_m, which keeps integers integral.
    Returns `raw`, cut or padded to phi(m) coefficients."""
    phi, terms = _fold_terms(m)
    n = len(raw)
    if n > m:
        for i in range(m, n):
            if raw[i]:
                raw[i % m] += raw[i]
        del raw[m:]
        n = m
    for j in range(n - 1, phi - 1, -1):
        c = raw[j]
        if c:
            base = j - phi
            for t, f in terms:
                raw[base + t] -= c * f
    del raw[phi:]
    raw += [0] * (phi - n)
    return raw


def _mul(a: Sequence, b: Sequence, acc: list | None = None) -> list:
    """The product of two coefficient lists as polynomials, not folded;
    added into `acc` in place when given (at least len(a) + len(b) - 1
    long), so a sum of products folds once."""
    if acc is None:
        acc = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                acc[j] += x * y
    return acc


def _galois(m: int, a: Sequence, k: int) -> list:
    """The image of a under the automorphism zeta_m -> zeta_m^k (k prime
    to m) of Q(zeta_m)."""
    raw = [0] * m
    for i, c in enumerate(a):
        raw[i * k % m] += c
    return _fold(m, raw)


def _adjugate(m: int, a: Sequence) -> list:
    """prod_{sigma != 1} sigma(a) over the automorphisms of Q(zeta_m), m > 2:
    a times it is the norm N(a), a rational, integral when a is."""
    adj = None
    for k in range(2, m):
        if math.gcd(k, m) == 1:
            image = _galois(m, a, k)
            adj = image if adj is None else _fold(m, _mul(adj, image))
    return adj


def _prime_factors(m: int) -> list[int]:
    """The distinct prime factors of a positive integer, ascending."""
    out = []
    q = 2
    while q * q <= m:
        if m % q == 0:
            out.append(q)
            while m % q == 0:
                m //= q
        q += 1
    if m > 1:
        out.append(m)
    return out


@lru_cache(maxsize=None)
def _euler_phi(m: int) -> int:
    phi = m
    for q in _prime_factors(m):
        phi -= phi // q
    return phi


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------


class ExactScalar:
    """An exact number: rational, or an element of Q(zeta_m).

    The representation is (order, ints, den) with den * value =
    sum_i ints[i] * zeta_order^i, len(ints) = phi(order), den > 0 and
    gcd(den, *ints) = 1: one form per value and order, den the lcm of the
    power-basis coefficients' denominators.  Order 1 holds exactly the
    rationals (zeta_2 = -1 among them).  Mixed-order arithmetic promotes
    both operands to the lcm of their orders, which keeps the form.  The
    constructor brings any ints over a nonzero den to that form; `coeffs`
    is the Fraction view ints[i] / den, for printing and JSON.
    """

    __slots__ = ("order", "ints", "den")

    def __init__(self, order: int, ints: Sequence[int], den: int = 1):
        assert den, "zero denominator"
        assert len(ints) == _euler_phi(order), "coefficient list must have length phi(order)"
        if order > 1 and not any(ints[1:]):  # a rational; phi(2) = 1
            order, ints = 1, ints[:1]
        g = math.gcd(den, *ints) if den > 0 else -math.gcd(den, *ints)
        self.order, self.den = order, den // g
        self.ints = tuple([c // g for c in ints] if g != 1 else ints)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_coeffs(cls, order: int, coeffs: Sequence[int | Fraction]) -> "ExactScalar":
        """The value sum_i coeffs[i] * zeta_order^i, coeffs ints or Fractions."""
        den = math.lcm(*(c.denominator for c in coeffs))
        return cls(order, [c.numerator * (den // c.denominator) for c in coeffs], den)

    @classmethod
    def from_rational(cls, value: int | Fraction) -> "ExactScalar":
        value = value if isinstance(value, (int, Fraction)) else Fraction(value)
        return cls(1, (value.numerator,), value.denominator)

    @classmethod
    def root_of_unity(cls, m: int, k: int = 1) -> "ExactScalar":
        """The primitive m-th root of unity raised to the power k."""
        assert m >= 1, "order must be positive"
        return cls(m, _fold(m, [0] * (k % m) + [1]))

    @classmethod
    def zero(cls) -> "ExactScalar":
        return cls(1, (0,))

    @classmethod
    def one(cls) -> "ExactScalar":
        return cls(1, (1,))

    # -- predicates and conversions ----------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.ints)

    def is_zero(self) -> bool:
        return self.order == 1 and self.ints[0] == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_one(self) -> bool:
        return self.order == 1 and self.ints[0] == 1 and self.den == 1

    def is_rational(self) -> bool:
        return self.order == 1

    def as_rational(self) -> Fraction:
        assert self.order == 1, "scalar is not rational"
        return Fraction(self.ints[0], self.den)

    # -- arithmetic ----------------------------------------------------------

    def _promoted(self, order: int) -> list[int]:
        """`ints` on the power basis of Q(zeta_order), over the same `den`."""
        if self.order == order:
            return list(self.ints)
        assert order % self.order == 0, "scalar order must divide the target order"
        if self.order == 1:
            return [self.ints[0]] + [0] * (_euler_phi(order) - 1)
        step = order // self.order
        raw = [0] * ((len(self.ints) - 1) * step + 1)
        raw[::step] = self.ints
        return _fold(order, raw)

    def __add__(self, other: "ExactScalar") -> "ExactScalar":
        other = _coerce(other)
        m = math.lcm(self.order, other.order)
        den = math.lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        a, b = self._promoted(m), other._promoted(m)
        return ExactScalar(m, [x * sa + y * sb for x, y in zip(a, b)], den)

    def __sub__(self, other: "ExactScalar") -> "ExactScalar":
        return self + -_coerce(other)

    def __neg__(self) -> "ExactScalar":
        return ExactScalar(self.order, [-c for c in self.ints], self.den)

    def __mul__(self, other: "ExactScalar") -> "ExactScalar":
        other = _coerce(other)
        den = self.den * other.den
        if self.order == 1 and other.order == 1:
            return ExactScalar(1, (self.ints[0] * other.ints[0],), den)
        m = math.lcm(self.order, other.order)
        return ExactScalar(m, _fold(m, _mul(self._promoted(m), other._promoted(m))), den)

    def inverse(self) -> "ExactScalar":
        """den * adj(a) / N(a), a = den * self integral (see `_adjugate`)."""
        assert not self.is_zero(), "zero has no inverse"
        if self.order == 1:
            return ExactScalar(1, (self.den,), self.ints[0])
        m = self.order
        adj = _adjugate(m, self.ints)
        norm, *rest = _fold(m, _mul(self.ints, adj))
        assert not any(rest), "a times its adjugate must be rational"
        return ExactScalar(m, [c * self.den for c in adj], norm)

    def conjugate(self) -> "ExactScalar":
        """The image under zeta -> 1/zeta, which is complex conjugation at
        every embedding of Q(zeta_m) in C."""
        return ExactScalar(self.order, _galois(self.order, self.ints, -1), self.den)

    def __truediv__(self, other: "ExactScalar") -> "ExactScalar":
        return self * _coerce(other).inverse()

    def __pow__(self, exponent: int) -> "ExactScalar":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = ExactScalar.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    __radd__ = __add__
    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ExactScalar.from_rational(other)
        if not isinstance(other, ExactScalar):
            return NotImplemented
        m = math.lcm(self.order, other.order)
        return self.den == other.den and self._promoted(m) == other._promoted(m)

    def __repr__(self) -> str:
        if self.order == 1:
            return str(self.as_rational())
        sym = f"z{self.order}"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                mono = sym if i == 1 else f"{sym}^{i}"
                parts.append(mono if c == 1 else f"-{mono}" if c == -1 else f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"

    # -- serialization -------------------------------------------------------

    def to_json(self):
        if self.order == 1:
            return str(self.as_rational())
        return {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, obj) -> "ExactScalar":
        if isinstance(obj, dict):
            order = obj["order"]
            coeffs = obj["coeffs"]
            if not isinstance(order, int) or isinstance(order, bool) or order < 1:
                raise ValueError("scalar order must be a positive integer")
            if not isinstance(coeffs, list):
                raise ValueError("scalar coeffs must be a list")
            # phi(m) >= sqrt(m / 2), so a short list is refused before factoring m
            if 2 * len(coeffs) ** 2 < order or len(coeffs) != _euler_phi(order):
                raise ValueError("coefficient list length must equal phi(order)")
            return cls.from_coeffs(order, [_json_rational(c) for c in coeffs])
        return cls.from_rational(_json_rational(obj))


def _json_rational(value) -> Fraction:
    """An exact rational from JSON: an int, or a string [-]digits[/digits]
    with a nonzero denominator (so no exponent asks for a huge integer)."""
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    match = isinstance(value, str) and re.fullmatch(r"(-?[0-9]+)(?:/([0-9]+))?", value)
    if not match or match[2] and not int(match[2]):
        raise ValueError(
            f"cannot parse a rational from {value!r}: expected an integer or "
            "a string [-]digits[/digits] with a nonzero denominator"
        )
    return Fraction(int(match[1]), int(match[2] or 1))


def _coerce(value) -> ExactScalar:
    if isinstance(value, ExactScalar):
        return value
    if isinstance(value, (int, Fraction)):
        return ExactScalar.from_rational(value)
    raise TypeError(f"cannot treat {value!r} as a scalar")


def root_of_unity(m: int, k: int = 1) -> ExactScalar:
    return ExactScalar.root_of_unity(m, k)


# ---------------------------------------------------------------------------
# ranks of matrices over exact scalars
# ---------------------------------------------------------------------------


class ExactMatrix:
    """A dense matrix of ExactScalar entries, kept for its exact rank over
    Q(zeta_M), which the integer echelon computes."""

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, entries: Sequence[Sequence[ExactScalar]], ncols: int | None = None):
        rows = [[_coerce(e) for e in row] for row in entries]
        if rows:
            ncols_found = len(rows[0])
            assert all(len(r) == ncols_found for r in rows), "ragged matrix"
            if ncols is not None:
                assert ncols == ncols_found, "declared column count mismatch"
            ncols = ncols_found
        else:
            assert ncols is not None, "empty matrix needs an explicit column count"
        self.nrows = len(rows)
        self.ncols = ncols
        self.entries = rows

    def rank(self) -> int:
        """Rank over Q(zeta_M), M the lcm of the entries' orders, by
        restriction of scalars to Q.

        With d = phi(M), 1, zeta, ..., zeta^(d-1) is a Q-basis of
        Q(zeta_M), so the Q(zeta_M)-span of the rows is the Q-span of the
        rows zeta^i r (i < d) on the power basis, and has Q-dimension d
        times the rank.  Each row, cleared of denominators, goes to the
        integer echelon with its d - 1 zeta-multiples, rows of least
        largest entry first (small pivots keep the fraction-free growth
        down).  The span stays closed under zeta, so a row that depends on
        it over Q does so over Q(zeta_M) and its multiples are skipped.
        Multiplying by zeta shifts each entry's coefficients up by one and
        folds the top one back through the monic integer Phi_M (`_fold`),
        so rows stay integral.  Rational rows have d = 1.  The echelon stops at
        full rank."""
        if self.nrows == 0 or self.ncols == 0:
            return 0
        order = math.lcm(*(e.order for row in self.entries for e in row))
        d = _euler_phi(order)
        rows = [clear_scalars(row, order) for row in self.entries]
        echelon = IntEchelon(d * self.ncols)
        for vec in sorted(rows, key=lambda vec: max(map(abs, vec))):
            if echelon.rank == echelon.ncols:
                break
            if not echelon.add_row(vec):
                continue
            for _ in range(d - 1):
                shifted = []
                for start in range(0, len(vec), d):
                    shifted += _fold(order, [0] + vec[start : start + d])
                vec = shifted
                echelon.add_row(vec)
        return echelon.rank // d


def nullspace(matrix: ExactMatrix) -> list[list[int]]:
    """Basis of the saturated integer kernel of a rational matrix, in
    Hermite form (see `integer_kernel`).  No library code calls it; the
    traced benchmark (perfbench/spans.py) wraps it by name."""
    rows = [clear_scalars(row, 1) for row in matrix.entries]
    return integer_kernel(rows, matrix.ncols)


def clear_scalars(values: Sequence[ExactScalar], order: int) -> list[int]:
    """The power-basis coefficients on Q(zeta_order) of scalars whose
    orders divide `order`, concatenated and scaled by the one positive
    factor that makes them coprime integers (see `clear_denominators`)."""
    den = math.lcm(*(v.den for v in values))
    flat = [c * (den // v.den) for v in values for c in v._promoted(order)]
    g = math.gcd(*flat)
    return [c // g for c in flat] if g > 1 else flat


def clear_denominators(values: Iterable) -> list[int]:
    """Rationals (or anything Fraction accepts) scaled by the one positive
    factor that makes them coprime integers; all zero stays all zero.  A
    positive common factor leaves every rank and every sign unchanged."""
    fracs = [Fraction(v) for v in values]
    denom = math.lcm(*(v.denominator for v in fracs))
    ints = [v.numerator * (denom // v.denominator) for v in fracs]
    g = math.gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


# ---------------------------------------------------------------------------
# incremental integer echelon (the one integer rank kernel)
# ---------------------------------------------------------------------------


class IntEchelon:
    """Incremental fraction-free echelon over the integers, on sparse rows.

    Rows are added one at a time, each as a dense sequence of ncols
    integers or as a {column: value} mapping of its nonzero entries.  A
    pivot row is stored as (lead, columns, values): its first nonzero
    entry, then the columns after the lead where it is nonzero and the
    entries there, all divided by the row's content and signed so that the
    lead is positive.  The row being reduced is a {column: value} dict.
    While its first column holds a pivot, it loses entry/lead times the
    pivot row, an exact quotient when the lead divides the entry; only
    when it does not is the row first multiplied by lead/gcd(lead, entry).
    The first column without a pivot becomes the new pivot's lead.  Every
    step is an invertible row operation over Q, so ranks are exact.
    Stored pivot rows are tuples and never mutated, so a clone shares them
    and costs only a dict copy, which suits loops that test many small
    perturbations of a fixed row block.  Every integer and rational rank
    goes through it: `IntEchelon(ncols).add_rows(rows)`, and so does every
    Q(zeta_M) rank, written over Q (`ExactMatrix.rank`).
    """

    __slots__ = ("ncols", "_pivot_rows")

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._pivot_rows: dict[int, tuple[int, tuple[int, ...], tuple[int, ...]]] = {}

    @property
    def rank(self) -> int:
        return len(self._pivot_rows)

    def clone(self) -> "IntEchelon":
        other = IntEchelon(self.ncols)
        other._pivot_rows = dict(self._pivot_rows)
        return other

    def add_row(self, row: Sequence[int] | Mapping[int, int]) -> bool:
        """Reduce row against the pivots; store it if independent."""
        if isinstance(row, Mapping):
            work = {c: v for c, v in row.items() if v}
            assert all(0 <= c < self.ncols for c in work), "column out of range"
        else:
            assert len(row) == self.ncols, "row length mismatch"
            work = {c: v for c, v in enumerate(row) if v}
        pivots = self._pivot_rows
        while work:
            col = min(work)
            entry = work.pop(col)
            pivot = pivots.get(col)
            if pivot is None:
                g = math.gcd(entry, *work.values())
                if entry < 0:
                    g = -g
                cols = sorted(work)
                # from a list: a tuple built from a generator is resized,
                # and freed ones piled up in CPython's tuple freelists
                vals = tuple([work[c] // g for c in cols])
                pivots[col] = (entry // g, tuple(cols), vals)
                return True
            lead, cols, vals = pivot
            factor, rem = divmod(entry, lead)
            if rem:
                g = math.gcd(lead, entry)
                scale = lead // g
                factor = entry // g
                work = {c: v * scale for c, v in work.items()}
            for c, v in zip(cols, vals):
                w = work.get(c, 0) - factor * v
                if w:
                    work[c] = w
                else:
                    del work[c]
        return False

    def add_rows(self, rows: Iterable[Sequence[int] | Mapping[int, int]]) -> int:
        """Add rows in order until the rank reaches the column count; returns
        how many were independent (on a fresh echelon, the rank of the rows)."""
        added = 0
        for row in rows:
            if self.rank == self.ncols:
                break
            if self.add_row(row):
                added += 1
        return added


# ---------------------------------------------------------------------------
# rational reduced echelon and integer lattice normal forms
# ---------------------------------------------------------------------------


def rational_rref(
    rows: Iterable[Sequence[Fraction]], ncols: int
) -> tuple[list[int], list[list[Fraction]]]:
    """Reduced row echelon form over the rationals.

    Returns the pivot columns and the nonzero reduced rows; the input is
    not modified.
    """
    work = [[Fraction(v) for v in row] for row in rows]
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        piv = None
        for idx in range(r, len(work)):
            if work[idx][col]:
                piv = idx
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        lead = work[r][col]
        work[r] = [v / lead for v in work[r]]
        for idx in range(len(work)):
            if idx != r and work[idx][col]:
                factor = work[idx][col]
                work[idx] = [a - factor * b for a, b in zip(work[idx], work[r])]
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    return pivots, work[: len(pivots)]


def _unimodular_echelon(work: list[list[int]], ncols: int) -> list[int]:
    """Bring the first ncols columns of integer rows to echelon form in
    place, by row swaps, negations and adding integer multiples of one row
    to another; returns the pivot columns, one per leading row.

    Each column is cleared below the pivot by repeated division with
    remainder, the smallest entry becoming the pivot, so pivots are
    positive and the row operations are invertible over the integers."""
    r = 0
    pivots: list[int] = []
    for col in range(ncols):
        while True:
            nz = [i for i in range(r, len(work)) if work[i][col]]
            if not nz:
                break
            best = min(nz, key=lambda i: abs(work[i][col]))
            work[r], work[best] = work[best], work[r]
            if work[r][col] < 0:
                work[r] = [-v for v in work[r]]
            again = False
            for i in range(r + 1, len(work)):
                if work[i][col]:
                    q = work[i][col] // work[r][col]
                    work[i] = [a - q * b for a, b in zip(work[i], work[r])]
                    if work[i][col]:
                        again = True
            if not again:
                pivots.append(col)
                r += 1
                break
        if r == len(work):
            break
    return pivots


def hermite_normal_form(rows: Iterable[Sequence[int]]) -> list[list[int]]:
    """Row-style Hermite normal form of an integer matrix.

    Pivots are positive, entries above each pivot are reduced into
    [0, pivot), and zero rows are dropped, so two row sets span the same
    integer lattice exactly when their normal forms are equal.
    """
    work = [list(map(int, row)) for row in rows]
    if not work:
        return []
    pivots = _unimodular_echelon(work, len(work[0]))
    work = work[: len(pivots)]
    # forward order: reducing with row rr changes only columns right of its
    # pivot, so the entries above earlier pivots stay reduced
    for rr, col in enumerate(pivots):
        for above in range(rr):
            q = work[above][col] // work[rr][col]
            if q:
                work[above] = [a - q * b for a, b in zip(work[above], work[rr])]
    return work


def integer_kernel(rows: Iterable[Sequence[int]], ncols: int) -> list[list[int]]:
    """Basis of the saturated integer kernel {u : A u = 0} in Hermite form.

    Works on the transpose augmented with an identity block, using only
    unimodular row operations, so the result spans the full lattice of
    integer solutions (not a finite-index sublattice).
    """
    mat = [list(map(int, row)) for row in rows]
    m = len(mat)
    aug = [
        [mat[i][j] for i in range(m)] + [1 if t == j else 0 for t in range(ncols)]
        for j in range(ncols)
    ]
    r = len(_unimodular_echelon(aug, m))
    kernel = [row[m:] for row in aug[r:]]
    return hermite_normal_form(kernel)


# ---------------------------------------------------------------------------
# reduction modulo a prime (the certified modular rank)
# ---------------------------------------------------------------------------

MODULAR_PRIME_FLOOR = 2**30  # modular ranks use the least suitable prime above this


class PrimeField:
    """F_p as the residue field of Z[zeta_M] at a prime above p.

    For a prime p = 1 (mod M), F_p holds an element omega of order exactly
    M; since p does not divide M, omega is a root of the M-th cyclotomic
    polynomial mod p, so zeta_M -> omega extends to a ring map from
    Z[zeta_M] onto F_p with kernel a prime ideal P above p.  The map
    extends to the local ring of P: every a/b with b outside P, in
    particular every scalar whose denominator `den` is prime to p.
    `reduce` evaluates that map on a scalar's `ints` and divides by `den`
    mod p (a scalar of order d dividing M sends zeta_d to omega^(M/d),
    matching how scalars are promoted), and declines when p divides `den`.

    Residues are plain ints in [0, p).  Z -> Z/p is a ring map, so sums
    and products of residues computed in Z and reduced mod p (at any
    point, or only at the end) are the residues of the same expressions.
    """

    __slots__ = ("order", "p", "omega")

    def __init__(self, order: int, floor: int = MODULAR_PRIME_FLOOR):
        self.order = order
        self.p = modular_prime(order, floor)
        self.omega = _element_of_order(order, self.p)

    def reduce(self, value: ExactScalar) -> int | None:
        """The image of an exact scalar of order dividing M: that of
        value.ints over value.den, or None when p divides value.den."""
        assert self.order % value.order == 0, "scalar order must divide the field order"
        p = self.p
        if value.den % p == 0:
            return None
        step = pow(self.omega, self.order // value.order, p)
        acc = 0
        for c in reversed(value.ints):
            acc = (acc * step + c) % p
        return acc * pow(value.den, -1, p) % p


class ResidueRing:
    """Z/(p_1 ... p_j) for the distinct primes of some `PrimeField`s, which
    the Chinese remainder theorem identifies with the product of the fields.

    `combine` sends the images of a scalar in the fields to its residue
    (an int in [0, p_1 ... p_j)), whose image mod each p_i is its image in
    the i-th field.  Reduction mod p_i is a ring map onto F_{p_i}, so
    anything built from such residues by ring operations reduces mod p_i
    to the same thing built in F_{p_i}: one build serves every p_i.
    """

    __slots__ = ("fields", "p", "_idempotents")

    def __init__(self, fields: Sequence[PrimeField]):
        self.fields = tuple(fields)
        self.p = math.prod(field.p for field in self.fields)
        # e_i = 1 mod p_i and 0 mod every other p_l
        self._idempotents = [
            self.p // field.p * pow(self.p // field.p, -1, field.p)
            for field in self.fields
        ]

    def combine(self, images: Sequence[int]) -> int:
        """The residue whose image mod each p_i is images[i]."""
        return sum(e * v for e, v in zip(self._idempotents, images)) % self.p


@lru_cache(maxsize=None)
def prime_field(order: int, floor: int = MODULAR_PRIME_FLOOR) -> PrimeField:
    return PrimeField(order, floor)


def modular_prime(order: int, floor: int = MODULAR_PRIME_FLOOR) -> int:
    """The least prime above floor that is 1 modulo order."""
    p = floor + 1
    p += (1 - p) % order
    while not _is_prime(p):
        p += order
    return p


_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# the least strong pseudoprime to all twelve bases (Sorenson-Webster, 2017)
_MILLER_RABIN_LIMIT = 318665857834031151167461


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the prime bases 2..37, exact below
    _MILLER_RABIN_LIMIT; a larger n raises ValueError."""
    if n >= _MILLER_RABIN_LIMIT:
        raise ValueError(f"{n} is too large for a deterministic primality test")
    if n < 2:
        return False
    for q in _MILLER_RABIN_BASES:
        if n % q == 0:
            return n == q
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _element_of_order(order: int, p: int) -> int:
    """The first element of exact multiplicative order `order` in F_p found
    by raising 2, 3, ... to the power (p - 1) / order."""
    factors = _prime_factors(order)
    for a in range(2, p):
        w = pow(a, (p - 1) // order, p)
        if all(pow(w, order // q, p) != 1 for q in factors):
            return w
    raise AssertionError("F_p has no element of the requested order")


# Largest modulus, in bits, of one elimination in `modp_ranks`.  Python's
# integer division is quadratic: modulo the 9991-bit product of 333 primes
# above 2^30 one product-and-reduce takes 0.27 ms and one inverse 10 ms, so
# a long batch is eliminated in runs of primes whose product stays below
# this, each run once.  Over the 32 order-120 queries of the
# `POINT_ORDER_CAP` comment (up to 333 primes) one elimination per batch
# took 1.21 s, runs of 1024 bits 0.78 s, of 512 bits 0.77 s and of 128 bits
# 1.20 s; one double point on 30 strands at a unit point of order 5 (98
# primes, 4060 rows) took 2.0, 1.8 and 3.8 s at the first three (best of
# two or three runs, 2-core Intel Xeon, Python 3.11).  The batches of the
# benchmark's member queries (at most 11 primes, 341 bits) stay one run.
MODULUS_BITS = 1024


def modp_rank(rows: Iterable[Sequence[int]], ncols: int, p: int) -> int:
    """Rank over F_p of integer rows (`modp_ranks` with the one prime p)."""
    return modp_ranks(rows, ncols, (p,))[0]


def modp_ranks(
    rows: Iterable[Sequence[int]], ncols: int, primes: Sequence[int]
) -> list[int]:
    """Rank over F_p of integer rows at each of some distinct primes, by one
    sparse elimination modulo their product N that stops at full rank (one
    per run of primes whose product has at most MODULUS_BITS bits).

    Rows are reduced mod N and kept as {column: value} dicts of their
    nonzero entries.  Each step takes the remaining row with the fewest
    nonzeros as the pivot row, pivots on its first stored column, and
    clears that column from every other remaining row; rows that become
    zero are dropped.  A lead prime to N is a unit mod every p, so each
    step is a step of the elimination over every F_p at once (Z/N is the
    product of the F_p), and the pivots counted are each prime's rank.  A
    nonzero lead that is not prime to N vanishes mod some of the primes:
    then the rows as they stand are ranked at each prime alone, where
    every nonzero lead is a unit.

    Reduction modulo p is a ring map, so every minor that survives it was
    nonzero before: no rank exceeds the rank over the rationals.
    """
    rows = list(rows)
    ranks: list[int] = []
    start = 0
    while start < len(primes):
        stop, n = start + 1, primes[start]
        while stop < len(primes) and (n * primes[stop]).bit_length() <= MODULUS_BITS:
            n *= primes[stop]
            stop += 1
        work = [{c: r for c, v in enumerate(row) if (r := v % n)} for row in rows]
        ranks += _modular_ranks(work, ncols, primes[start:stop], n, 0)
        start = stop
    return ranks


def _modular_ranks(
    work: list[dict[int, int]], ncols: int, primes: Sequence[int], n: int, found: int
) -> list[int]:
    """The ranks of `modp_ranks`: `found` pivots taken, `work` the remaining
    rows mod n, the product of the primes."""
    work = [row for row in work if row]
    while work and found < ncols:
        pivot = min(work, key=len)
        col, lead = next(iter(pivot.items()))
        if math.gcd(lead, n) != 1:
            return [
                _modular_ranks(
                    [{c: r for c, v in row.items() if (r := v % p)} for row in work],
                    ncols, (p,), p, found,
                )[0]
                for p in primes
            ]
        inv = pow(lead, -1, n)
        for row in work:
            a = row.get(col)
            if a is None or row is pivot:
                continue
            factor = a * inv % n
            for c, b in pivot.items():
                v = (row.get(c, 0) - factor * b) % n
                if v:
                    row[c] = v
                else:
                    # factor * b can vanish mod n where the row has no entry
                    row.pop(c, None)
        work = [row for row in work if row and row is not pivot]
        found += 1
    return [found] * len(primes)
