"""Reference constructions for the Orlik-Solomon tests.

The library ranks the multiplication map into the no-broken-circuit basis
(`charvar.osres.resonance_rank` and `h1_dim`, one n x b2 matrix) and reads
the projection onto that basis column by column (`NbcBasis.columns`).  The
forms here are what the tests hold those against: the flat wedge rows, the
resonance rank as the rank of those rows stacked over the degree-3
linearized boundary (`flat_row_rank`, C(n,3) triple rows in C(n,2)
columns), the dense projection, and the linearized boundary itself.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from charvar.arrangement import Lattice2, ValidationError
from charvar.exactalg import IntEchelon, clear_denominators
from charvar.osres import NbcBasis, pair_list, triple_list


def projection(basis: NbcBasis) -> list[list[int]]:
    """The projection onto the no-broken-circuit basis as dense rows: one
    row per basis pair, one column per 2-subset of hyperplanes."""
    rows = [[0] * len(basis.columns) for _ in basis.pairs]
    for c, entries in enumerate(basis.columns):
        for r, v in entries:
            rows[r][c] = v
    return rows


def flat_wedge_entries(lat: Lattice2) -> list[dict[int, int]]:
    """One row per (rank-2 flat X, element i of X past its minimum): the
    wedge of e_i with the sum of e_j over j in X, as a {pair column: entry}
    map of its nonzero entries."""
    pair_pos = {p: c for c, p in enumerate(pair_list(lat.n))}
    rows = []
    for cls in lat.rank2_classes():
        for i in cls[1:]:
            row = {}
            for j in cls:
                if j < i:
                    row[pair_pos[(j, i)]] = -1
                elif j > i:
                    row[pair_pos[(i, j)]] = 1
            rows.append(row)
    return rows


def flat_row_rank(lat: Lattice2, lam: Sequence) -> int:
    """Rank of the flat wedge rows stacked over the degree-3 linearized
    boundary at the given weights: one three-entry row per triple of
    hyperplanes, skipped where the weights of all three vanish.  At the
    zero weight vector every triple row is skipped and the rank is b2."""
    n = lat.n
    ints = clear_denominators(lam)
    if len(ints) != n:
        raise ValidationError("weight vector length must equal n")
    pair_pos = {p: c for c, p in enumerate(pair_list(n))}
    npairs = len(pair_pos)
    ech = IntEchelon(npairs)
    ech.add_rows(flat_wedge_entries(lat))
    for a, b, c in triple_list(n):
        if ech.rank == npairs:
            break
        la, lb, lc = ints[a], ints[b], ints[c]
        if not (la or lb or lc):
            continue
        ech.add_row({pair_pos[(b, c)]: la, pair_pos[(a, c)]: -lb, pair_pos[(a, b)]: lc})
    return ech.rank


def flat_wedge_rows(lat: Lattice2) -> list[list[int]]:
    """One integer row per (rank-2 flat X, element i of X past its minimum).

    The row holds the coordinates of the wedge of e_i with the sum of e_j
    over j in X, in the lexicographic pair basis.  The stack has full row
    rank equal to the second Betti number of the complement.
    """
    npairs = lat.n * (lat.n - 1) // 2
    rows = []
    for entries in flat_wedge_entries(lat):
        row = [0] * npairs
        for c, v in entries.items():
            row[c] = v
        rows.append(row)
    return rows


def linearized_differential(k: int, n: int, lam: Sequence) -> list[list[Fraction]]:
    """The weighted incidence matrix of k-subsets against (k-1)-subsets.

    Row J (a k-subset, lexicographic) has entry (-1)^(r+1) lambda_{j_r} in
    the column J minus its r-th smallest element.  Supported for k = 2
    and k = 3, the degrees the resonance test needs.
    """
    if k not in (2, 3):
        raise ValidationError("linearized differential supported for k in {2, 3}")
    lam = [Fraction(v) for v in lam]
    if len(lam) != n:
        raise ValidationError("weight vector length must equal n")
    cols = list(itertools.combinations(range(n), k - 1))
    col_pos = {c: idx for idx, c in enumerate(cols)}
    rows = []
    for subset in itertools.combinations(range(n), k):
        row = [Fraction(0)] * len(cols)
        for r, element in enumerate(subset):
            rest = tuple(x for x in subset if x != element)
            sign = 1 if r % 2 == 0 else -1
            row[col_pos[rest]] += sign * lam[element]
        rows.append(row)
    return rows
