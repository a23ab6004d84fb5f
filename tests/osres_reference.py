"""Reference constructions for the Orlik-Solomon tests.

The library ranks sparse rows (`charvar.osres._flat_wedge_entries`, the
triple rows of `resonance_rank`) and reads the no-broken-circuit
projection column by column (`NbcBasis.columns`).  The dense forms here,
with the linearized boundary of the weighted complex, are what the tests
hold those against.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from charvar.arrangement import Lattice2, ValidationError
from charvar.osres import NbcBasis, _flat_wedge_entries


def projection(basis: NbcBasis) -> list[list[int]]:
    """The projection onto the no-broken-circuit basis as dense rows: one
    row per basis pair, one column per 2-subset of hyperplanes."""
    rows = [[0] * len(basis.columns) for _ in basis.pairs]
    for c, entries in enumerate(basis.columns):
        for r, v in entries:
            rows[r][c] = v
    return rows


def flat_wedge_rows(lat: Lattice2) -> list[list[int]]:
    """One integer row per (rank-2 flat X, element i of X past its minimum).

    The row holds the coordinates of the wedge of e_i with the sum of e_j
    over j in X, in the lexicographic pair basis.  The stack has full row
    rank equal to the second Betti number of the complement.
    """
    npairs = lat.n * (lat.n - 1) // 2
    rows = []
    for entries in _flat_wedge_entries(lat):
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
