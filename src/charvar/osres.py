"""Degree-1 resonance of the Orlik-Solomon algebra, in exact arithmetic.

For an arrangement with rank-2 lattice data on n hyperplanes, the degree-2
part of the Orlik-Solomon algebra is the quotient of the wedge square of
Z^n by one three-term relation per dependent triple.  A weight vector
lambda defines a degree-1 element; the first resonance variety collects
the weight vectors whose multiplication map has extra kernel.

The direct route ranks that multiplication map, A^1 -> A^2 in the
no-broken-circuit basis: an n x b2 integer matrix written down flat by
flat, whose rank gives the degree-1 cohomology h1 and the resonance rank
C(n,2) - h1.  An independent route ranks the combined projection-and-wedge
map out of the pair space, and a sampler object reads the quotient of the
pair space by the flat wedge rows off the projection once, with no
elimination, so that many weight vectors can be tested quickly.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .arrangement import Lattice2, ValidationError
from .exactalg import IntEchelon, clear_denominators

# ---------------------------------------------------------------------------
# index helpers
# ---------------------------------------------------------------------------


def pair_list(n: int) -> list[tuple[int, int]]:
    """All 2-subsets of range(n) in lexicographic order."""
    return list(itertools.combinations(range(n), 2))


def triple_list(n: int) -> list[tuple[int, int, int]]:
    """All 3-subsets of range(n) in lexicographic order."""
    return list(itertools.combinations(range(n), 3))


@functools.cache
def _pair_index(n: int) -> dict[tuple[int, int], int]:
    """The column of each 2-subset in the lexicographic pair basis.  Built
    once per n and shared, so callers only read it."""
    return {p: c for c, p in enumerate(pair_list(n))}


def _weights(n: int, lam: Sequence) -> list[int]:
    """A weight vector on n hyperplanes scaled to integers, which leaves
    every rank here unchanged."""
    ints = clear_denominators(lam)
    if len(ints) != n:
        raise ValidationError("weight vector length must equal n")
    return ints


def _check_depth(k: int) -> None:
    if k < 1:
        raise ValidationError("resonance depth must be at least 1")


# ---------------------------------------------------------------------------
# no-broken-circuit basis and projection
# ---------------------------------------------------------------------------


@dataclass
class NbcBasis:
    """The degree-2 no-broken-circuit basis and the projection onto it.

    `pairs[r]` is the r-th basis pair (both indices 0-based).  The
    projection has one row per basis pair and one column per 2-subset of
    hyperplanes (lexicographic); column c holds the coordinates of the
    image of the wedge basis vector e_c.  `columns[c]` lists the nonzero
    entries of column c as (basis row, coefficient): at most two, none for
    a parallel pair, which projects to zero.
    """

    n: int
    pairs: list[tuple[int, int]]
    columns: list[list[tuple[int, int]]]

    @property
    def dimension(self) -> int:
        return len(self.pairs)


def nbc_basis(lat: Lattice2) -> NbcBasis:
    """Basis pairs (min of the flat, other element) and the projection map.

    A pair {i, j} with i < j is a basis pair exactly when i is the minimal
    element of the rank-2 flat containing the pair.  A non-basis pair
    {j, k} inside a flat with minimum m rewrites as e_{mk} - e_{mj}; a
    parallel pair maps to zero.
    """
    n = lat.n
    pairs = pair_list(n)
    basis_pairs: list[tuple[int, int]] = []
    basis_pos: dict[tuple[int, int], int] = {}
    for cls in lat.rank2_classes():
        m = cls[0]
        for i in cls[1:]:
            basis_pos[(m, i)] = len(basis_pairs)
            basis_pairs.append((m, i))
    columns: list[list[tuple[int, int]]] = []
    for j, k in pairs:
        cls = lat.flat_of_pair(j, k)
        if cls is None:
            columns.append([])  # parallel pair, projects to zero
        elif j == cls[0]:
            columns.append([(basis_pos[(j, k)], 1)])
        else:
            m = cls[0]
            columns.append([(basis_pos[(m, k)], 1), (basis_pos[(m, j)], -1)])
    return NbcBasis(n=n, pairs=basis_pairs, columns=columns)


# ---------------------------------------------------------------------------
# resonance membership: the direct route
# ---------------------------------------------------------------------------


def _multiplication_columns(
    lat: Lattice2, ints: Sequence[int]
) -> Iterator[dict[int, int]]:
    """The multiplication map mu: A^1 -> A^2 by the weight covector, an
    n x b2 matrix in the no-broken-circuit basis, one {hyperplane: entry}
    column per basis pair; zero columns are left out.

    A^2 splits over the rank-2 flats X; a parallel pair multiplies to zero.
    The summand of X has the basis f_b = e_{min X} e_b for b in X past its
    minimum, with f_{min X} = 0, in which the Orlik-Solomon relations read
    e_j e_i = f_i - f_j.  So the product of the weight covector with e_i
    has, for each flat X containing i, the part lambda_X f_i - sum over j
    in X of lambda_j f_j, where lambda_X is the weight sum over X: the
    column of f_b holds lambda_X - lambda_b at b and -lambda_b at the rest
    of X.
    """
    for cls in lat.rank2_classes():
        lam_x = sum(ints[j] for j in cls)
        for b in cls[1:]:
            lam_b = ints[b]
            if lam_b or lam_x:
                col = dict.fromkeys(cls, -lam_b)
                col[b] = lam_x - lam_b
                yield col


def _h1(lat: Lattice2, ints: Sequence[int]) -> int:
    """h1 = n - 1 - rank(mu) at a nonzero integer weight vector: the kernel
    of mu modulo the line of the weight covector, which mu sends to
    lambda * lambda = 0.  So the rank is at most n - 1, and the columns stop
    going into the echelon once it is reached.  Ranked column by column,
    the echelon is n wide and its pivot rows short, whatever b2 is."""
    top = lat.n - 1
    ech = IntEchelon(lat.n)
    for col in _multiplication_columns(lat, ints):
        if ech.rank == top:
            break
        ech.add_row(col)
    return top - ech.rank


def resonance_rank(lat: Lattice2, lam: Sequence) -> int:
    """The resonance rank C(n,2) - h1 at a nonzero weight vector.

    This is the rank of the flat wedge rows stacked over the degree-3
    linearized boundary, which Koszul exactness of the weighted exterior
    algebra ties to the degree-1 cohomology; `resonance_rank_os` builds it
    from the algebra side.  Computed as an n x b2 integer rank, the
    multiplication map of `h1_dim`, fed to the echelon column by column.

    At the zero weight vector the rank is b2 by convention: the rank of the
    linearized presentation at the identity, the flat wedge rows alone, and
    not C(n,2) - h1(A, 0) = C(n,2) - n.  So the zero weight lies in depth k
    exactly for k <= C(n,2) - b2.
    """
    n = lat.n
    ints = _weights(n, lam)
    if not any(ints):
        return lat.b2()
    return n * (n - 1) // 2 - _h1(lat, ints)


def in_resonance(lat: Lattice2, lam: Sequence, k: int = 1) -> bool:
    """Depth-k resonance membership of a weight vector."""
    _check_depth(k)
    n = lat.n
    npairs = n * (n - 1) // 2
    return resonance_rank(lat, lam) <= npairs - k


def h1_dim(lat: Lattice2, lam: Sequence) -> int:
    """Dimension of the degree-1 cohomology of the weighted complex.

    The weight vector must be nonzero.  Computed from the multiplication
    map into the no-broken-circuit basis, the same columns as resonance_rank.
    The routes independent of both are `resonance_rank_os`, the sampler and
    the flat-row reference of the tests.
    """
    ints = _weights(lat.n, lam)
    if not any(ints):
        raise ValidationError("weight vector must be nonzero")
    return _h1(lat, ints)


# ---------------------------------------------------------------------------
# resonance membership: the basis-projection route
# ---------------------------------------------------------------------------


def resonance_rank_os(lat: Lattice2, lam: Sequence) -> int:
    """Rank of the combined projection-and-wedge map out of the pair space.

    Each 2-subset maps to its projection onto the no-broken-circuit basis
    together with the wedge of the weight covector against it.  This
    rebuilds the resonance rank from the algebra side and serves as a
    cross-check of the direct route.
    """
    n = lat.n
    ints = _weights(n, lam)
    basis = nbc_basis(lat)
    dim = basis.dimension
    triples = triple_list(n)
    triple_pos = {t: dim + idx for idx, t in enumerate(triples)}
    rows = []
    for c, (a, b) in enumerate(pair_list(n)):
        row = dict(basis.columns[c])
        for j in range(n):
            if j == a or j == b or ints[j] == 0:
                continue
            tri = tuple(sorted((j, a, b)))
            sign = 1 if tri.index(j) % 2 == 0 else -1
            row[triple_pos[tri]] = sign * ints[j]
        rows.append(row)
    return IntEchelon(dim + len(triples)).add_rows(rows)


# ---------------------------------------------------------------------------
# fast repeated sampling
# ---------------------------------------------------------------------------


class ResonanceSampler:
    """Preprocessed resonance testing for many weight vectors on one lattice.

    The flat wedge block is fixed.  Its rows are the negated rows of the
    no-broken-circuit projection (`nbc_basis`), and those are already in
    reduced row echelon form: the row of a basis pair has a 1 in that
    pair's column, which no other row meets and which precedes the row's
    other entries, at the non-basis pairs (the free columns) that project
    onto the basis pair.  So every pair coordinate is replaced by its
    residual in the quotient without elimination: a basis pair by minus
    its projection row on the free columns, a non-basis pair by its unit
    vector there.  Testing a weight vector then reduces one short integer
    row per triple of hyperplanes inside a space of dimension (pairs - b2).
    """

    def __init__(self, lat: Lattice2):
        self.lat = lat
        n = lat.n
        self.n = n
        pair_pos = _pair_index(n)
        self.npairs = len(pair_pos)
        basis = nbc_basis(lat)
        self.base_rank = basis.dimension
        pivots = [pair_pos[p] for p in basis.pairs]
        pivot_set = set(pivots)
        free_cols = [c for c in range(self.npairs) if c not in pivot_set]
        q = self.quotient_dim = len(free_cols)
        residuals = [[0] * q for _ in range(self.npairs)]
        for idx, c in enumerate(free_cols):
            residuals[c][idx] = 1
            for r, coeff in basis.columns[c]:
                residuals[pivots[r]][idx] = -coeff
        self._residuals = residuals
        self._triple_data = [
            (a, b, c, pair_pos[(b, c)], pair_pos[(a, c)], pair_pos[(a, b)])
            for a, b, c in triple_list(n)
        ]

    def rank_at(self, lam: Sequence) -> int:
        ints = _weights(self.n, lam)
        q = self.quotient_dim
        if q == 0:
            return self.base_rank
        ech = IntEchelon(q)
        res = self._residuals
        for a, b, c, cbc, cac, cab in self._triple_data:
            la, lb, lc = ints[a], -ints[b], ints[c]
            if not (la or lb or lc):
                continue
            ra, rb, rc = res[cbc], res[cac], res[cab]
            row = [la * x + lb * y + lc * z for x, y, z in zip(ra, rb, rc)]
            if any(row):
                ech.add_row(row)
                if ech.rank == q:
                    break
        return self.base_rank + ech.rank

    def h1_at(self, lam: Sequence) -> int:
        return self.npairs - self.rank_at(lam)

    def in_resonance_at(self, lam: Sequence, k: int = 1) -> bool:
        _check_depth(k)
        return self.rank_at(lam) <= self.npairs - k
