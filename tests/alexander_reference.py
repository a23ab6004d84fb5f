"""Reference constructions for the Alexander-invariant tests.

These build whole matrices the way the paper writes them: the Gassner
matrix of a braid word, its wedge square, the chain map of a full twist,
and the chain map of a conjugated twist as the product of the three.  The
library builds only the rows it ranks (`charvar.alexander._pushed_vectors`),
so these stay here as the oracle that pins its index and sign conventions:
the tests check the identity "Gassner minus identity equals the degree-two
differential composed with the twist chain map" on them, and the row
builders against them entry by entry.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from charvar.alexander import (
    BraidWord,
    MonodromyGen,
    _check_gen,
    _gradient,
    _product_gradient,
    _push,
    _ring,
    _Ring,
    _validated_strands,
    _wedge_vectors,
    free_reduce,
    invert_braid,
    normalize_braid,
)
from charvar.arrangement import ValidationError


def fox_gradient(word: Iterable[int], ring: _Ring) -> list:
    """Abelianized left Fox gradient of a free word."""
    word = free_reduce(word)
    if any(abs(letter) > ring.n for letter in word):
        raise ValidationError("word letter exceeds strand count")
    return _gradient(word, ring, 0, ring.n)


def _gassner(braid: BraidWord, ring: _Ring) -> list[list]:
    identity = [
        [ring.one if a == b else ring.zero for b in range(ring.n)] for a in range(ring.n)
    ]
    return _push(braid, identity, ring)


def gassner(braid: Iterable[Sequence[int]], n: int, point: Sequence | None = None):
    """Gassner matrix of a pure-braid word: row i is the abelianized Fox
    gradient of the image of g_i.  Symbolic when no point is given."""
    return _gassner(normalize_braid(braid), _ring(n, point))


def wedge_square(matrix: Sequence[Sequence]) -> list[list]:
    """Second exterior power of a square matrix on the lexicographic basis."""
    pairs = list(itertools.combinations(range(len(matrix)), 2))
    return [_wedge_vectors(matrix[a], matrix[b], pairs) for a, b in pairs]


def _mat_mul(left: Sequence[Sequence], right: Sequence[Sequence], ring: _Ring):
    if not left:
        return []
    ncols = len(right[0]) if right else 0
    out = []
    for row in left:
        acc = [ring.zero] * ncols
        for k, a in enumerate(row):
            if a.is_zero():
                continue
            rrow = right[k]
            for j in range(ncols):
                b = rrow[j]
                if not b.is_zero():
                    acc[j] = acc[j] + a * b
        out.append(acc)
    return out


def _twist_chain_map(X: tuple[int, ...], ring: _Ring) -> list[list]:
    n = ring.n
    pairs = list(itertools.combinations(range(n), 2))
    nabla = _product_gradient(X, ring)
    members = set(X)
    lo, hi = X[0], X[-1]
    rows = []
    for k in range(1, n + 1):
        if k in members:
            unit = [ring.zero] * n
            unit[k - 1] = ring.one
            rows.append(_wedge_vectors(unit, nabla, pairs))
        elif lo < k < hi:
            upper = [s for s in X if s > k]
            nabla_up = _product_gradient(upper, ring)
            factor = ring.t(k - 1) - ring.one
            rows.append(
                [factor * c for c in _wedge_vectors(nabla, nabla_up, pairs)]
            )
        else:
            rows.append([ring.zero] * len(pairs))
    return rows


def twist_chain_map(X: Sequence[int], n: int, point: Sequence | None = None):
    """Degree-two chain map of the full twist on X: an n x C(n,2) matrix.

    Rows for strands in X wedge the strand vector with the gradient of the
    product of the X generators; rows for strands strictly inside the span
    of X but not in it carry (t_k - 1) times the wedge of that gradient
    with the gradient of the upper part; all other rows vanish.
    """
    X = _validated_strands(X)
    if X[-1] > n:
        raise ValidationError("strand index exceeds strand count")
    return _twist_chain_map(X, _ring(n, point))


def _monodromy_chain_map(gen: "MonodromyGen", ring: _Ring) -> list[list]:
    base = _twist_chain_map(gen.X, ring)
    if not gen.delta:
        return base
    delta = normalize_braid(gen.delta)
    theta_inv = _gassner(invert_braid(delta), ring)
    theta2 = wedge_square(_gassner(delta, ring))
    return _mat_mul(_mat_mul(theta_inv, base, ring), theta2, ring)


def monodromy_chain_map(
    gen: "MonodromyGen", n: int, point: Sequence | None = None
) -> list[list]:
    """Chain map of a conjugated full twist: Gassner of the inverse
    conjugator, times the twist chain map, times the wedge square of the
    Gassner of the conjugator."""
    _check_gen(gen, n)
    return _monodromy_chain_map(gen, _ring(n, point))
