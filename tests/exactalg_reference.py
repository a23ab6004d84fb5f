"""Reference Q(zeta_m) arithmetic in Fraction polynomial long division.

The library computes in Z[zeta_m] by one kernel of ring operations
(`charvar.exactalg`: a fold through the monic Phi_m, a product, the Galois
action and the adjugate inverse).  This module keeps the route it
replaced, written on dense Fraction coefficient lists (lowest degree
first): the m-th cyclotomic polynomial by Fraction division of x^m - 1,
reduction to the power basis by long division, and inverses by the
extended Euclidean algorithm.  It shares no code with the kernel, so the
tests compare two independent computations; `tests/arrangement_reference.py`
shares `ExactScalar` with the code it checks, and leans on these tests.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Sequence


def _trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def divmod_poly(
    num: Sequence[Fraction], den: Sequence[Fraction]
) -> tuple[list[Fraction], list[Fraction]]:
    num = _trim([Fraction(c) for c in num])
    den = _trim([Fraction(c) for c in den])
    assert den, "division by the zero polynomial"
    quot = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    rem = num
    while len(rem) >= len(den):
        shift = len(rem) - len(den)
        factor = rem[-1] / den[-1]
        quot[shift] = factor
        for i, c in enumerate(den):
            rem[shift + i] -= factor * c
        _trim(rem)
    return quot, rem


def mul_poly(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _trim(out)


def sub_poly(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    return _trim(out)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Phi_m: x^m - 1 divided by Phi_d for every proper divisor d."""
    num = [Fraction(-1)] + [Fraction(0)] * (m - 1) + [Fraction(1)]
    for d in range(1, m):
        if m % d == 0:
            num, rem = divmod_poly(num, cyclotomic_polynomial(d))
            assert not rem
    assert all(c.denominator == 1 for c in num)
    return tuple(int(c) for c in num)


def reduce(m: int, raw: Sequence[Fraction]) -> list[Fraction]:
    """A polynomial in zeta_m on the power basis: exponents taken mod m,
    then the remainder of long division by Phi_m, padded to phi(m)."""
    phi = len(cyclotomic_polynomial(m)) - 1
    folded = [Fraction(0)] * max(len(raw), m)
    for i, c in enumerate(raw):
        folded[i % m] += c
    _, rem = divmod_poly(folded, cyclotomic_polynomial(m))
    return rem + [Fraction(0)] * (phi - len(rem))


def mod_inverse(a: Sequence[Fraction], f: Sequence[Fraction]) -> list[Fraction]:
    """Inverse of a modulo f by the extended Euclidean algorithm."""
    # invariants: r0 = s0*a mod f, r1 = s1*a mod f (the f-cofactors are not kept)
    r0, r1 = _trim([Fraction(c) for c in f]), _trim([Fraction(c) for c in a])
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while r1:
        q, r = divmod_poly(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, sub_poly(s0, mul_poly(q, s1))
    assert len(r0) == 1, "element is not invertible modulo an irreducible polynomial"
    return [c / r0[0] for c in s0]


# -- values on the power basis of Q(zeta_order) -----------------------------


def promote(order: int, coeffs: Sequence[Fraction], to: int) -> list[Fraction]:
    """The value on the power basis of Q(zeta_to), order dividing to."""
    step = to // order
    raw = [Fraction(0)] * (len(coeffs) * step)
    for i, c in enumerate(coeffs):
        raw[i * step] = Fraction(c)
    return reduce(to, raw)


def galois(order: int, coeffs: Sequence[Fraction], k: int) -> list[Fraction]:
    """The image under zeta -> zeta^k."""
    raw = [Fraction(0)] * order
    for i, c in enumerate(coeffs):
        raw[i * k % order] += c
    return reduce(order, raw)


def inverse(order: int, coeffs: Sequence[Fraction]) -> list[Fraction]:
    return reduce(order, mod_inverse(coeffs, cyclotomic_polynomial(order)))
