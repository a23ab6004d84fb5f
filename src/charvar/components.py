"""Components of the degree-1 resonance and characteristic varieties.

The degree-1 resonance variety of an arrangement is a finite union of
linear subspaces of the weight space.  Each rank-2 flat of multiplicity
three or more contributes a local component: weights supported on the
flat that sum to zero.  The remaining components come from neighborly
partitions of subarrangements: a partition of a support set is neighborly
when every block that contains all but one hyperplane of a flat of the
restricted lattice contains the whole flat.  The restricted lattice is
never built: each support's flats and double-point atoms are read off the
lattice's bitmasks (`_restriction`), for the partition search and for the
tangent solve alike.  The candidate subspace of a neighborly partition is
cut out by the total sum and by the sums over the polychrome flats (those
meeting several blocks); it is kept when it has dimension at least two and
the pairing form vanishes on it.  The pairing form is vector-valued: one
alternating coordinate per pair of hyperplanes sharing a block, each a
two-by-two determinant of weight entries, and every coordinate must vanish
identically.  Candidates of dimension at least two whose form does not
vanish are reported separately rather than silently dropped.

Every emitted component is proved resonant on its whole span by an exact
isotropy certificate: the Orlik-Solomon product u v vanishes in degree two
for every pair of basis rows, read off the multiplication map that also
gives the resonance rank (see `is_isotropic`).

Each component exponentiates to a subtorus of the character torus cut out
by integer monomial equations; those are read off as the saturated
integer kernel of the tangent basis, in Hermite normal form.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

from .arrangement import CapExceeded, Lattice2, ValidationError, _scalar, _union_classes
from .exactalg import ExactScalar, IntEchelon, clear_denominators, integer_kernel
from .osres import _multiplication_columns


DEFAULT_CAP = 14


def check_cap(n: int, cap: int) -> None:
    """Refuse an enumeration over n hyperplanes when n exceeds the cap."""
    if n > cap:
        raise CapExceeded(f"arrangement has {n} hyperplanes, enumeration cap is {cap}")


# ---------------------------------------------------------------------------
# component objects
# ---------------------------------------------------------------------------


def saturated_span(rows: Sequence[Sequence[int]], ncols: int) -> list[list[int]]:
    """Hermite-normal-form basis of the saturation of the row span.

    The saturation is the set of all integer vectors lying in the
    rational span of the rows; its Hermite normal form is a canonical
    basis, so two inputs spanning the same rational subspace produce
    identical output.  Taking the integer kernel twice computes exactly
    that: the kernel of the kernel of a lattice is its saturation.
    """
    return integer_kernel(integer_kernel([list(r) for r in rows], ncols), ncols)


@dataclass(frozen=True)
class Component:
    """One irreducible piece of the degree-1 resonance variety.

    `basis` spans the tangent subspace, stored as the Hermite normal
    form of its saturated integer lattice so equal subspaces have equal
    bases.  `support` lists the hyperplanes with nonzero weight somewhere
    on the component.  For a nonlocal component `blocks` records the
    neighborly partition that produced it; local components carry the
    empty tuple.  `verified` is set once the isotropy certificate has
    proved every point of the span resonant.
    """

    kind: str  # "local" or "nonlocal"
    support: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]
    basis: tuple[tuple[int, ...], ...]
    verified: bool = False

    @property
    def dim(self) -> int:
        return len(self.basis)

    @functools.cached_property
    def _nonzero_mask(self) -> int:
        """Bitmask of the coordinates where some basis row is nonzero."""
        return _mask(i for row in self.basis for i, v in enumerate(row) if v)

    def torus_equations(self) -> list[list[int]]:
        """Integer exponent vectors cutting out the exponentiated subtorus.

        Each row u is the equation: product of t_i^(u_i) equals 1.  The
        rows span the saturated orthogonal lattice of the tangent space,
        so the equations define the connected subtorus itself.
        """
        n = len(self.basis[0]) if self.basis else 0
        return integer_kernel([list(row) for row in self.basis], n)

    def contains_weight(self, lam: Sequence) -> bool:
        """Whether a rational weight vector lies in the tangent subspace:
        scaled to integers, it adds nothing to the basis echelon."""
        target = clear_denominators(lam)
        return not _span_echelon(self, len(target)).add_row(target)

    def contains_point(self, point: Sequence) -> bool:
        """Whether a character-torus point satisfies every torus equation.

        Coordinates may be exact scalars, rationals, or ints; they must be
        invertible (nonzero).
        """
        coords = [_scalar(v) for v in point]
        one = ExactScalar.one()
        for eq in self.torus_equations():
            acc = ExactScalar.one()
            for c, e in zip(coords, eq):
                if e:
                    acc = acc * c**e
            if acc != one:
                return False
        return True

    def to_json(self) -> dict:
        """Spec-shaped dictionary; hyperplanes are numbered from 1.

        `linear_equations` are integer rows w meaning w . lambda = 0 on
        the tangent subspace; the same exponent rows, read as monomials,
        cut out the exponentiated subtorus and appear formatted in
        `monomial_equations`.  `partition` is present only for nonlocal
        components.  Unverified nonlocal candidates additionally report
        the same-block pairs whose determinant coordinate obstructed the
        pairing form from vanishing.
        """
        eqs = self.torus_equations()
        data = {
            "kind": self.kind,
            "support": [i + 1 for i in self.support],
            "dimension": self.dim,
            "linear_equations": eqs,
            "monomial_equations": [format_torus_equation(eq) for eq in eqs],
            "verified": self.verified,
        }
        if self.kind == "nonlocal":
            data["partition"] = [[i + 1 for i in block] for block in self.blocks]
            if not self.verified and self.blocks:
                data["nonvanishing_pairs"] = [
                    [i + 1, j + 1]
                    for i, j in nonvanishing_block_pairs(self.blocks, self.basis)
                ]
        return data

    @classmethod
    def from_json(cls, data: dict) -> "Component":
        eqs = [list(row) for row in data["linear_equations"]]
        if not eqs:
            raise ValidationError(
                "component JSON needs at least one linear equation"
            )
        n = len(eqs[0])
        blocks = tuple(
            tuple(sorted(i - 1 for i in block))
            for block in data.get("partition", [])
        )
        return cls(
            kind=data["kind"],
            support=tuple(sorted(i - 1 for i in data["support"])),
            blocks=blocks,
            basis=tuple(tuple(row) for row in integer_kernel(eqs, n)),
            verified=bool(data["verified"]),
        )


@dataclass
class Resonance1:
    """Everything the depth-1 enumeration finds on one lattice.

    `flagged` holds nonlocal candidates of dimension at least two whose
    pairing form did not vanish; they are reported, never counted."""

    locals: list[Component]
    nonlocals: list[Component]
    flagged: list[Component]

    @property
    def components(self) -> list[Component]:
        return self.locals + self.nonlocals


# ---------------------------------------------------------------------------
# coning an affine lattice
# ---------------------------------------------------------------------------


def cone_lattice(lat: Lattice2) -> Lattice2:
    """Central lattice of the cone: one extra hyperplane at index n.

    Multiple points keep their flats; each parallel class becomes a flat
    through the new hyperplane.  The result has no parallel pairs, so the
    component enumeration applies to it.
    """
    n = lat.n
    flats = [tuple(f) for f in lat.flats]
    for cls in _union_classes(n, lat.parallel_pairs):
        if len(cls) >= 2:
            flats.append(tuple(cls) + (n,))
    return Lattice2(n + 1, flats)


# ---------------------------------------------------------------------------
# local components
# ---------------------------------------------------------------------------


def local_components(lat: Lattice2) -> list[Component]:
    """One component per rank-2 flat of multiplicity at least three:
    weights supported on the flat summing to zero.

    The rows e_i - e_last, for i in the flat before its last member, have
    unit pivots and zeros above every pivot, so they are already the
    Hermite normal form of their saturated lattice."""
    out = []
    for flat in sorted(lat.flats):
        last = flat[-1]
        rows = []
        for i in flat[:-1]:
            row = [0] * lat.n
            row[i] = 1
            row[last] = -1
            rows.append(tuple(row))
        out.append(
            Component(kind="local", support=tuple(flat), blocks=(), basis=tuple(rows))
        )
    return out


# ---------------------------------------------------------------------------
# neighborly partitions
# ---------------------------------------------------------------------------


def _mask(indices: Iterable[int]) -> int:
    """The bitmask with bit h set for each index h."""
    mask = 0
    for h in indices:
        mask |= 1 << h
    return mask


def _restriction(
    lat: Lattice2, support: Sequence[int]
) -> tuple[list[set[int]], list[set[int]]]:
    """The flats and the double-point atoms of the lattice restricted to the
    support, in original indices, read off the lattice's bitmasks.

    With S the support's mask, a stored flat f is a flat of the restriction
    when f & S has at least three members and a double point joining its two
    members when it has exactly two; the other double neighbours of h in the
    restriction are `lat.double_masks[h] & S` (parallel pairs are in neither,
    as in `Lattice2.doubles`).  The flats keep the order of `lat.flats`.  The
    atoms are the connected components of that graph on S, each grown by a
    bit-walk from the least member not yet placed, so they come in the order
    `_union_classes` gives the restriction's classes: ordered by least member.
    The support must be ascending; an index outside 0..n-1 is refused.
    """
    if support and not (0 <= support[0] and support[-1] < lat.n):
        bad = support[0] if support[0] < 0 else support[-1]
        raise ValidationError(f"hyperplane index {bad} out of range 0..{lat.n - 1}")
    mask = _mask(support)
    links = {h: lat.double_masks[h] & mask for h in support}
    flats: list[set[int]] = []
    for flat, fmask in zip(lat.flats, lat.flat_masks):
        cut = fmask & mask
        size = cut.bit_count()
        if size >= 3:
            flats.append({h for h in flat if cut >> h & 1})
        elif size == 2:
            i, j = (h for h in flat if cut >> h & 1)
            links[i] |= 1 << j
            links[j] |= 1 << i
    atoms: list[set[int]] = []
    rest = mask
    while rest:
        atom = frontier = rest & -rest
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            new = links[bit.bit_length() - 1] & ~atom
            atom |= new
            frontier |= new
        rest &= ~atom
        atoms.append({h for h in support if atom >> h & 1})
    return flats, atoms


def neighborly_partitions(
    lat: Lattice2, support: Sequence[int]
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All neighborly partitions of the support with at least three blocks.

    Hyperplanes joined by a double point of the restricted lattice are
    forced into a common block, so the search runs over the resulting
    atoms.  Partial assignments are pruned as soon as some flat has all
    but one of its members in one block and a member in another.
    Partitions are yielded as sorted blocks of original indices.

    The restricted lattice is not built: its flats and atoms come from the
    lattice's bitmasks (`_restriction`), in the order that
    `lat.restrict(support)` and `_union_classes` of its doubles give them,
    so the partitions are yielded in that search's order.
    """
    support = tuple(sorted(support))
    flats, atoms = _restriction(lat, support)
    if len(atoms) < 3:
        return
    atom_flats = [[fi for fi, f in enumerate(flats) if f & atom] for atom in atoms]
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
                yield tuple(tuple(sorted(b)) for b in blocks)
            return
        atom = atoms[k]
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


def partition_tangent_space(
    lat: Lattice2, blocks: Sequence[Sequence[int]]
) -> list[list[int]]:
    """Tangent subspace of a neighborly partition, as canonical basis rows
    (Hermite normal form of the saturated integer lattice of the span).

    The support is the union of the blocks, restricted as in the partition
    search (`_restriction`).  The partition is neighborly when every
    double-point atom lies in one block (a split atom splits one of its
    double points) and no restricted flat has all but one member in one
    block and its last member in another; otherwise this raises.  The
    constraints are the total sum and the sums over the polychrome flats,
    0/1 rows on the support's columns, so the tangent lattice is their
    saturated integer kernel there, padded with zeros off the support.  The
    support is ascending, so the padded rows stay in Hermite normal form.
    """
    support = tuple(sorted(set(itertools.chain.from_iterable(blocks))))
    if len(support) != sum(len(b) for b in blocks):
        raise ValidationError("blocks must be disjoint")
    flats, atoms = _restriction(lat, support)
    block_sets = [set(b) for b in blocks]
    if not all(any(atom <= b for b in block_sets) for atom in atoms):
        raise ValidationError("partition is not neighborly for this lattice")
    constraints = [[1] * len(support)]
    for flat in flats:
        counts = [len(flat & b) for b in block_sets]
        if max(counts) == len(flat):
            continue  # monochrome flat imposes nothing
        if any(c >= len(flat) - 1 for c in counts):
            raise ValidationError("partition is not neighborly for this lattice")
        constraints.append([int(h in flat) for h in support])
    out = []
    for row in integer_kernel(constraints, len(support)):
        full = [0] * lat.n
        for h, v in zip(support, row):
            full[h] = v
        out.append(full)
    return out


def _nonvanishing_pairs(
    blocks: Sequence[Sequence[int]], basis: Sequence[Sequence[int]]
) -> Iterator[tuple[int, int]]:
    """Same-block hyperplane pairs whose determinant does not vanish, block
    by block, each found at its first nonzero basis pair.

    The pairing of two weight vectors u, v is vector-valued: one
    coordinate per pair {i, j} lying in a common block, holding the
    two-by-two determinant u_i v_j - u_j v_i.  Each coordinate is an
    alternating bilinear form, so it vanishes on the whole subspace
    exactly when it vanishes on every pair of basis vectors.
    """
    for block in blocks:
        for i, j in itertools.combinations(sorted(block), 2):
            for u, v in itertools.combinations(basis, 2):
                if u[i] * v[j] - u[j] * v[i] != 0:
                    yield i, j
                    break


def nonvanishing_block_pairs(
    blocks: Sequence[Sequence[int]], basis: Sequence[Sequence[int]]
) -> list[tuple[int, int]]:
    """The sorted same-block pairs {i, j} whose determinant coordinate of
    the pairing form is nonzero at some basis pair."""
    return sorted(set(_nonvanishing_pairs(blocks, basis)))


def pairing_form_vanishes(
    blocks: Sequence[Sequence[int]], basis: Sequence[Sequence[int]]
) -> bool:
    """Whether every same-block determinant coordinate of the pairing
    form vanishes identically on the subspace spanned by the basis; the
    scan stops at the first pair that does not."""
    return next(_nonvanishing_pairs(blocks, basis), None) is None


# ---------------------------------------------------------------------------
# full enumeration
# ---------------------------------------------------------------------------


def enumerate_first_resonance(
    lat: Lattice2, cap: int = DEFAULT_CAP
) -> Resonance1:
    """All components of the depth-1 resonance variety of a central lattice.

    Local components come from the flats; nonlocal ones from neighborly
    partitions over every support of size at least three.  Subspaces
    contained in strictly larger ones are dropped, duplicates are merged,
    and every surviving component is proved resonant on its whole span by
    the isotropy certificate (`is_isotropic`).  Candidates whose pairing
    form does not vanish are returned in `flagged` (unless contained in a
    verified component) and never counted as components.
    """
    if lat.parallel_pairs:
        raise ValidationError(
            "component enumeration needs a central lattice; cone the "
            "arrangement first (see cone_lattice)"
        )
    check_cap(lat.n, cap)
    n = lat.n
    locals_ = local_components(lat)
    seen: dict[tuple, Component] = {}
    for comp in locals_:
        seen[comp.basis] = comp
    flagged_raw: list[Component] = []
    for size in range(3, n + 1):
        for support in itertools.combinations(range(n), size):
            if set(support) <= set(lat.flat_of_pair(*support[:2])):
                # the support is a pencil: every admitted partition spans
                # the local subspace of the surrounding flat (two flats
                # share at most one hyperplane, so the flat of the first
                # pair is the only candidate)
                continue
            for blocks in neighborly_partitions(lat, support):
                blocks = tuple(sorted(blocks))
                basis_rows = partition_tangent_space(lat, blocks)
                if len(basis_rows) < 2:
                    continue
                key = tuple(tuple(r) for r in basis_rows)
                comp = Component(
                    kind="nonlocal", support=support, blocks=blocks, basis=key
                )
                if pairing_form_vanishes(blocks, basis_rows):
                    seen.setdefault(key, comp)
                else:
                    flagged_raw.append(comp)
    survivors = _verify_components(lat, _drop_contained(list(seen.values())))
    locals_out = [c for c in survivors if c.kind == "local"]
    nonlocals_out = sorted(
        (c for c in survivors if c.kind == "nonlocal"),
        key=lambda c: (c.support, c.blocks),
    )
    flagged_out = _filter_flagged(flagged_raw, survivors)
    return Resonance1(
        locals=locals_out, nonlocals=nonlocals_out, flagged=flagged_out
    )


def _span_echelon(comp: Component, n: int) -> IntEchelon:
    ech = IntEchelon(n)
    ech.add_rows([list(r) for r in comp.basis])
    return ech


def _is_subspace(comp: Component, ech: IntEchelon) -> bool:
    probe = ech.clone()
    return probe.add_rows([list(r) for r in comp.basis]) == 0


def _lies_in(c: Component, d: Component, echelons: dict[int, IntEchelon]) -> bool:
    """Whether the span of c lies in the span of d.

    The pair is ruled out before any echelon is built when c has the larger
    dimension or is nonzero at a coordinate where d is not: every vector in
    the span of d is zero wherever all of d's basis rows are.  Otherwise d's
    span echelon is built once, into `echelons` by id, and cloned."""
    if c.dim > d.dim or c._nonzero_mask & ~d._nonzero_mask:
        return False
    if id(d) not in echelons:
        echelons[id(d)] = _span_echelon(d, len(d.basis[0]))
    return _is_subspace(c, echelons[id(d)])


def _drop_contained(components: list[Component]) -> list[Component]:
    """The components whose span lies in no other component's span."""
    echelons: dict[int, IntEchelon] = {}
    return [
        c
        for c in components
        if not any(
            d is not c and _lies_in(c, d, echelons) and c.basis != d.basis
            for d in components
        )
    ]


def _filter_flagged(
    flagged: list[Component], survivors: list[Component]
) -> list[Component]:
    """The flagged candidates, once per basis, that lie in no survivor."""
    echelons: dict[int, IntEchelon] = {}
    out = []
    seen_keys = set()
    for cand in flagged:
        if cand.basis in seen_keys:
            continue
        if any(_lies_in(cand, d, echelons) for d in survivors):
            continue
        seen_keys.add(cand.basis)
        out.append(cand)
    return out


def is_isotropic(lat: Lattice2, basis: Sequence[Sequence[int]]) -> bool:
    """Whether the Orlik-Solomon product u v is zero in degree two for
    every pair of rows u, v of an integer basis.

    Each column of the multiplication map by u (`_multiplication_columns`,
    the map `resonance_rank` ranks) holds one no-broken-circuit coordinate
    of u e_i for every hyperplane i, so its pairing with v is that
    coordinate of u v; every one must vanish.  The product is bilinear and
    alternating, so the span is then isotropic, and an isotropic subspace V
    of dimension at least two lies in the first resonance variety: every
    nonzero a in V has an independent b in V with a b = 0, so H^1(A, a) is
    nonzero.
    """
    for k, u in enumerate(basis[:-1]):
        for col in _multiplication_columns(lat, u):
            for v in basis[k + 1 :]:
                if sum(entry * v[h] for h, entry in col.items()):
                    return False
    return True


def _verify_components(
    lat: Lattice2, components: list[Component]
) -> list[Component]:
    """Certify each component resonant on its whole span: dimension at least
    two and an isotropic basis.  Returns copies marked verified; raises if
    any component fails, since the enumeration must never emit a wrong one."""
    out = []
    for comp in components:
        if comp.dim < 2 or not is_isotropic(lat, comp.basis):
            raise RuntimeError(
                "internal error: enumerated component failed the "
                f"isotropy certificate (kind={comp.kind}, "
                f"support={comp.support})"
            )
        out.append(replace(comp, verified=True))
    return out


# ---------------------------------------------------------------------------
# serialization of a full result
# ---------------------------------------------------------------------------


def product_components(
    comps1: Sequence[Component],
    n1: int,
    comps2: Sequence[Component],
    n2: int,
) -> list[Component]:
    """Components of a product of two spaces, given each factor's.

    The depth-k locus of a product is the union of each factor's locus
    with the other factor pinned at the identity character, so every input
    component is embedded in the n1 + n2 coordinates by zero-padding its
    tangent basis on the complementary block (equivalently, adding the
    identity constraints t_j = 1 there), whatever the depth the input
    lists describe.
    """
    out = []
    for comps, offset, n in ((comps1, 0, n1), (comps2, n1, n2)):
        for comp in comps:
            if comp.basis and len(comp.basis[0]) != n:
                raise ValidationError(
                    "component arity does not match the declared factor size"
                )
            basis = tuple(
                tuple([0] * offset + list(row) + [0] * (n1 + n2 - offset - n))
                for row in comp.basis
            )
            out.append(
                Component(
                    kind=comp.kind,
                    support=tuple(i + offset for i in comp.support),
                    blocks=tuple(tuple(i + offset for i in b) for b in comp.blocks),
                    basis=basis,
                    verified=comp.verified,
                )
            )
    return out


def resonance_to_json(result: Resonance1) -> dict:
    return {
        "components": [c.to_json() for c in result.components],
        "flagged": [c.to_json() for c in result.flagged],
    }


def resonance_from_json(data: dict) -> Resonance1:
    comps = [Component.from_json(c) for c in data["components"]]
    return Resonance1(
        locals=[c for c in comps if c.kind == "local"],
        nonlocals=[c for c in comps if c.kind == "nonlocal"],
        flagged=[Component.from_json(c) for c in data["flagged"]],
    )


def format_torus_equation(eq: Sequence[int]) -> str:
    """Monomial equation as compact text, e.g. 't1*t2*t5=1' or 't1*t4^-1=1'."""
    parts = []
    for i, e in enumerate(eq):
        if e == 0:
            continue
        if e == 1:
            parts.append(f"t{i + 1}")
        else:
            parts.append(f"t{i + 1}^{e}")
    if not parts:
        return "1=1"
    return "*".join(parts) + "=1"
