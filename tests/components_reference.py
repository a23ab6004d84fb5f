"""Reference forms of the census support scan, for the component tests.

The library reads each support's restricted flats and double-point atoms
off per-lattice bitmasks (`charvar.components.neighborly_partitions`) and
skips containment tests between components whose nonzero coordinates rule
containment out (`charvar.components._drop_contained`).  The forms here are
the direct ones the tests hold those against: the partition search on the
restricted lattice `lat.restrict(support)` with its atoms from
`_union_classes` of the restriction's doubles, and the containment filter
that echelons every pair.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from charvar.arrangement import Lattice2, _union_classes
from charvar.components import Component, _is_subspace, _span_echelon


def restricted_atoms(lat: Lattice2, support: Sequence[int]) -> list[list[int]]:
    """The double-point atoms of the restricted lattice, in original
    indices, ascending and ordered by least member."""
    support = sorted(support)
    sub = lat.restrict(support)
    return [[support[i] for i in atom] for atom in _union_classes(sub.n, sub.doubles())]


def neighborly_partitions(
    lat: Lattice2, support: Sequence[int]
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All neighborly partitions of the support with at least three blocks,
    searched on the restricted lattice."""
    support = tuple(sorted(support))
    sub = lat.restrict(support)
    atoms = _union_classes(sub.n, sub.doubles())
    if len(atoms) < 3:
        return
    flats = [set(f) for f in sub.flats]
    atom_flats: list[list[int]] = []
    for atom in atoms:
        touched = [fi for fi, f in enumerate(flats) if f & set(atom)]
        atom_flats.append(touched)
    blocks: list[set[int]] = []

    def violated(fi: int) -> bool:
        f = flats[fi]
        size = len(f)
        counts = [len(f & b) for b in blocks]
        placed = sum(counts)
        for c in counts:
            if c >= size - 1 and placed > c:
                return True
        return False

    def extend(k: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if k == len(atoms):
            if len(blocks) >= 3:
                yield tuple(
                    tuple(sorted(support[i] for i in b)) for b in blocks
                )
            return
        atom = set(atoms[k])
        for b in range(len(blocks) + 1):
            fresh = b == len(blocks)
            if fresh:
                blocks.append(set(atom))
            else:
                blocks[b] |= atom
            if not any(violated(fi) for fi in atom_flats[k]):
                yield from extend(k + 1)
            if fresh:
                blocks.pop()
            else:
                blocks[b] -= atom

    yield from extend(0)


def drop_contained(components: list[Component]) -> list[Component]:
    """The components whose span lies in no other component's span, with
    an echelon test for every pair of compatible dimension."""
    keep = []
    echelons = {id(c): None for c in components}
    n = len(components[0].basis[0]) if components else 0
    for c in components:
        contained = False
        for d in components:
            if c is d or c.dim > d.dim:
                continue
            if c.dim == d.dim and c.basis == d.basis:
                continue
            if echelons[id(d)] is None:
                echelons[id(d)] = _span_echelon(d, n)
            if _is_subspace(c, echelons[id(d)]):
                contained = True
                break
        if not contained:
            keep.append(c)
    return keep
