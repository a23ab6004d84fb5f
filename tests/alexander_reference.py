"""Reference constructions for the Alexander-invariant tests.

These build whole matrices the way the paper writes them: the Gassner
matrix of a braid word, its wedge square, the chain map of a full twist,
and the chain map of a conjugated twist as the product of the three.  The
library builds only the rows it ranks (`charvar.alexander._pushed_vectors`),
so these stay here as the oracle that pins its index and sign conventions:
the tests check the identity "Gassner minus identity equals the degree-two
differential composed with the twist chain map" on them, and the row
builders against them entry by entry.

Each construction is symbolic, over Laurent polynomials (`laurent`), when
no point is given, and exact at the point otherwise.  The generators of a
Fitting ideal, the paper's definition of V_k, live here too: the library
decides V_k as a rank at a point, and the tests hold the two against each
other.  So does the certified rank loop that ranks each prime of a batch
by its own elimination (`certified_rank`, `membership`), and the row
norms of the circuit majorant, which pushes bounds through the builders
(`majorant_ring`, `circuit_norms`): the library's bounds from the
compiled relator polynomials are held against them.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Sequence

from charvar import alexander
from charvar.alexander import (
    BraidWord,
    MonodromyGen,
    _check_gen,
    _gradient,
    _push,
    _resolution_differential,
    _Ring,
    _validated_strands,
    _wedge_vectors,
    free_reduce,
    invert_braid,
    normalize_braid,
)
from charvar.arrangement import ValidationError
from charvar.exactalg import MODULAR_PRIME_FLOOR, ExactScalar, _euler_phi, modp_rank
from laurent import LaurentPoly, symbolic_ring


def _ring(n: int, point: Sequence | None = None) -> _Ring:
    """Symbolic Laurent scalars, or exact values at a torus point."""
    return symbolic_ring(n) if point is None else alexander._ring(n, point)


def majorant_ring(coords: Sequence) -> _Ring:
    """The circuit majorant ring at a point (`charvar.alexander._Majorant`):
    the row builders on it return, for every entry e, a denominator d with
    d * e in Z[zeta_M] and an integer bound on every |sigma(d * e)| over
    the embeddings sigma of Q(zeta_M) in C, counting every term the
    builders form."""
    return _Ring.majorant([alexander._scalar(c) for c in coords])


def _cleared_norms(rows: list[list]) -> list[int]:
    """Squared bounds on the Euclidean norms at every embedding of the
    majorant rows, each row r scaled by L_r, the lcm of its entries' dens,
    so that L_r times the row lies in Z[zeta_M]: entry e is bounded by
    e.bound * L_r / e.den."""
    norms = []
    for row in rows:
        scale = math.lcm(*{e.den for e in row})
        norms.append(sum((e.bound * (scale // e.den)) ** 2 for e in row))
    return norms


def circuit_norms(m, build, coords: Sequence[ExactScalar]) -> list[int]:
    """The cleared norms of build's rows on the circuit majorant ring."""
    return _cleared_norms(build(m, majorant_ring(coords)))


def resolution_differential(k: int, n: int, point: Sequence | None = None):
    """Differential C(n,k) -> C(n,k-1) of the standard Koszul-type free
    resolution over the Laurent ring; degree one is the positive column
    (t_i - 1)."""
    if not 1 <= k <= n:
        raise ValidationError("differential degree must satisfy 1 <= k <= n")
    return _resolution_differential(k, _ring(n, point))


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
    nabla = fox_gradient(X, ring)
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
            nabla_up = fox_gradient(upper, ring)
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


# ---------------------------------------------------------------------------
# Fitting ideals
# ---------------------------------------------------------------------------


def _det(rows: list[list]):
    size = len(rows)
    if size == 1:
        return rows[0][0]
    total = None
    for j, entry in enumerate(rows[0]):
        if entry.is_zero():
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = entry * _det(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    if total is None:
        return rows[0][0] - rows[0][0]
    return total


def _one_like(entry):
    if isinstance(entry, LaurentPoly):
        return LaurentPoly.one(entry.nvars)
    return ExactScalar.one()


def fitting_generators(matrix: Sequence[Sequence], k: int):
    """Generators of the k-th Fitting ideal of the module presented by the
    matrix (columns = module generators): all (q - k + 1)-minors.  Entries
    are symbolic (LaurentPoly) or evaluated at a point (ExactScalar).

    Returns [] for the zero ideal (k <= 0 or minors larger than the row
    count) and [1] for the unit ideal (k > q).
    """
    rows = [list(r) for r in matrix]
    if not rows or not rows[0]:
        raise ValidationError("fitting_generators needs a nonempty matrix")
    p, q = len(rows), len(rows[0])
    if k > q:
        return [_one_like(rows[0][0])]
    size = q - k + 1
    if k <= 0 or size > p:
        return []
    gens = []
    for rset in itertools.combinations(range(p), size):
        for cset in itertools.combinations(range(q), size):
            det = _det([[rows[i][j] for j in cset] for i in rset])
            if not det.is_zero() and all(det != g for g in gens):
                gens.append(det)
    return gens


def certified_rank(
    m, residues, build, ncols: int, threshold: int, norms: list[int] | None = None
) -> tuple[int, str]:
    """The certified rank loop on build's own rows with one elimination per
    prime: each batch of primes is built once modulo their product and then
    ranked at its primes one by one (`modp_rank`), under the stop rule of
    `membership` on the row norms `norms` (by default the circuit norms of
    build's rows, `circuit_norms`).  The library ranks only the relator
    rows, a batch at all its primes in one elimination (`modp_ranks`), and
    reads the presentation's ranks from them; this loop ranks the
    presentation rows themselves, the reference its ranks and certificates
    are held against."""
    ring = residues.ring(0, 1)
    rows = build(m, ring)
    full = min(len(rows), ncols)
    primes = [ring.modulus]
    rank = modp_rank(rows, ncols, ring.modulus)
    if rank < full and rank <= threshold:
        if norms is None:
            norms = circuit_norms(m, build, residues.coords)
        norms = sorted(norms, reverse=True)
        phi = _euler_phi(residues.order)
        bound = math.prod(norms[: rank + 1]) ** phi
        product, stop = primes[0], 1
        while product ** 2 <= bound:
            if len(primes) == stop:
                start, batch = stop, product
                while batch ** 2 <= bound:
                    batch *= residues.field(stop).p
                    stop += 1
                ring = residues.ring(start, stop)
                values = [[v % ring.modulus for v in row] for row in build(m, ring)]
            p = residues.field(len(primes)).p
            primes.append(p)
            product *= p
            r = modp_rank(values, ncols, p)
            if r > rank:
                rank = r
                if rank == full or rank > threshold:
                    break
                bound = math.prod(norms[: rank + 1]) ** phi
    return rank, "mod " + "*".join(map(str, primes))


def membership(m, point: Sequence, k: int, prime_floor: int = MODULAR_PRIME_FLOOR):
    """`charvar.alexander.membership` on the reference loop `certified_rank`,
    which builds and ranks each criterion's own rows: the same
    `Membership`, rank, verdicts and certificates."""
    residues = alexander._Residues(m.n, point, prime_floor)
    ncols = math.comb(m.n, 2)
    rank, delta_route = certified_rank(
        m, residues, alexander._presentation_rows, ncols, ncols
    )
    partial2, partial2_route = None, None
    if k <= alexander.relator_route_limit(m):
        relator, partial2_route = certified_rank(
            m, residues, alexander._relator_rows, m.n, m.n - k - 1
        )
        partial2 = relator <= m.n - k - 1
    return alexander.Membership(
        rank, rank <= ncols - k, partial2, {"delta": delta_route, "partial2": partial2_route}
    )
