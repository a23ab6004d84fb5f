"""Laurent polynomials over Z: the symbolic entries of the test references.

An element of the group ring Z[Z^n], over which the Alexander invariant
is a module, with integer exponents of either sign and integer
coefficients.  It evaluates to a scalar at a point whose coordinates are
roots of unity times rationals.  The library decides torus points by
ranks at the point; its only symbolic entries are the relator rows it
compiles on its own packed polynomials (`charvar.alexander._Laurent`).
The tests use these to pin the symbolic constructions (Gassner matrices,
chain maps, resolution differentials, Fitting ideals) that the row
builders are checked against, and to recompute the relator polynomials'
bounds independently of the compiled layout.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence

from charvar.alexander import _Ring
from charvar.exactalg import ExactScalar


def _require_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be an int, not {value!r}")
    return value


class LaurentPoly:
    """A Laurent polynomial over Z in nvars variables t1..tn: an element of
    the group ring Z[Z^n] over which the Alexander invariant is a module.

    Terms map exponent tuples (length nvars, integers of either sign) to
    nonzero integer coefficients.  The public constructors, mixed
    arithmetic and comparison take Python ints only: a bool, Fraction,
    float or any other value raises TypeError.  Arithmetic builds its
    results with `_raw`, which skips that check.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[tuple[int, ...], int] | None = None):
        self.nvars = nvars
        clean: dict[tuple[int, ...], int] = {}
        for exp, coeff in (terms or {}).items():
            if _require_int(coeff, "coefficient"):
                exp = tuple(_require_int(e, "exponent") for e in exp)
                assert len(exp) == nvars, "exponent tuple length mismatch"
                clean[exp] = coeff
        self.terms = clean

    @classmethod
    def _raw(cls, nvars: int, terms: dict[tuple[int, ...], int]) -> "LaurentPoly":
        """An instance on terms already known to be clean (int coefficients,
        none zero), as arithmetic produces them."""
        poly = object.__new__(cls)
        poly.nvars = nvars
        poly.terms = terms
        return poly

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPoly":
        return cls._raw(nvars, {})

    @classmethod
    def constant(cls, value: int, nvars: int) -> "LaurentPoly":
        value = _require_int(value, "coefficient")
        return cls._raw(nvars, {(0,) * nvars: value} if value else {})

    @classmethod
    def one(cls, nvars: int) -> "LaurentPoly":
        return cls._raw(nvars, {(0,) * nvars: 1})

    @classmethod
    def variable(cls, index: int, nvars: int, power: int = 1) -> "LaurentPoly":
        """The monomial t_{index+1}^power (index is 0-based)."""
        assert 0 <= index < nvars, "variable index out of range"
        exp = [0] * nvars
        exp[index] = _require_int(power, "exponent")
        return cls._raw(nvars, {tuple(exp): 1})

    @classmethod
    def monomial(cls, exponents: Sequence[int], coeff: int = 1) -> "LaurentPoly":
        return cls(len(exponents), {tuple(exponents): coeff})

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            s = out.get(exp, 0) + c
            if s:
                out[exp] = s
            else:
                del out[exp]
        return LaurentPoly._raw(self.nvars, out)

    def __sub__(self, other) -> "LaurentPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "LaurentPoly":
        return self._coerce(other) + (-self)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._raw(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(map(operator.add, e1, e2))
                s = out.get(exp, 0) + c1 * c2
                if s:
                    out[exp] = s
                else:
                    del out[exp]
        return LaurentPoly._raw(self.nvars, out)

    __radd__ = __add__
    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "LaurentPoly":
        if exponent < 0:
            # the units of Z[Z^n] are the monomials +-t^a
            if len(self.terms) != 1 or abs(next(iter(self.terms.values()))) != 1:
                raise ValueError("negative powers need a unit monomial +-t^a")
            ((exp, coeff),) = self.terms.items()
            inv = LaurentPoly._raw(self.nvars, {tuple(-e for e in exp): coeff})
            return inv ** (-exponent)
        result = LaurentPoly.one(self.nvars)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def _coerce(self, other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            assert self.nvars == other.nvars, "variable counts differ"
            return other
        return LaurentPoly.constant(other, self.nvars)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            other = LaurentPoly.constant(other, self.nvars)
        return self.nvars == other.nvars and self.terms == other.terms

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, point: Sequence[ExactScalar]) -> ExactScalar:
        assert len(point) == self.nvars, "point dimension mismatch"
        total = ExactScalar.zero()
        for exp, coeff in self.terms.items():
            term = ExactScalar.from_rational(coeff)
            for v, e in zip(point, exp):
                if e:
                    term = term * (v**e)
            total = total + term
        return total

    def at_one(self) -> int:
        return sum(self.terms.values())

    # -- display ---------------------------------------------------------------

    def __repr__(self) -> str:
        return self.to_str()

    def to_str(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms, reverse=True):
            coeff = self.terms[exp]
            monos = []
            for i, e in enumerate(exp):
                if e == 1:
                    monos.append(f"t{i + 1}")
                elif e:
                    monos.append(f"t{i + 1}^{e}")
            body = "*".join(monos)
            if not body:
                piece = str(coeff)
            elif coeff == 1:
                piece = body
            elif coeff == -1:
                piece = f"-{body}"
            else:
                piece = f"{coeff}*{body}"
            parts.append(piece)
        text = " + ".join(parts)
        return text.replace("+ -", "- ")


def symbolic_ring(n: int) -> _Ring:
    """The scalars of the row builders as Laurent polynomials: t_i and 1/t_i
    are the variables and their inverses, so every entry comes out
    symbolic."""
    t = [LaurentPoly.variable(i, n) for i in range(n)]
    tinv = [LaurentPoly.variable(i, n, -1) for i in range(n)]
    return _Ring(t, tinv, LaurentPoly.one(n), LaurentPoly.zero(n))
