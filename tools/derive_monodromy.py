"""Derive and validate the packaged braid-monodromy fixtures.

A fixture is data: the rows of a rational central arrangement in C^3, the
1-based plane sent to infinity, the shear c of the sweep coordinate
s = u + c*v on the chart (u, v) that `charvar.arrangement.decone` gives,
and any special points to check.  Everything else is derived, in exact
rational arithmetic.  Every chart line is the graph of its height v over
s (a vertical line is refused).  Strands are numbered bottom to top right
of every intersection, which fixes the lift to the central arrangement.
Each intersection contributes one monodromy generator: the full twist on
the positions it occupies, conjugated by the positive half twists of the
intersections passed earlier, on the sweep from right to left.  That is
the one braid convention, which `triangle_pin_check` pins on three lines.

Each positional generator is then rewritten in the package's native form
(a full twist on a strand set conjugated by a short word of two-strand
twists) by a breadth-first search over conjugator words, checked exactly
against the wiring automorphism.  The assembled monodromy is accepted
only if its lattice is the central lattice restricted through the lift,
and if it reproduces the first-resonance census of the central
arrangement: samples of a component torus of dimension d must lie in
V_{d-1} and not in V_d, the special points must test as listed, and
random off-component points must test outside V_1.  A fixture that fails
is an error.

Run from the repository root after an editable install:

    python3 tools/derive_monodromy.py          # derive and write the fixtures
    python3 tools/derive_monodromy.py --check  # compare only; exit 1 on a difference
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from charvar.alexander import (
    MonodromyGen,
    MonodromyInput,
    artin_apply,
    free_reduce,
    full_twist,
    invert_word,
    lift_point,
    membership,
    monodromy_braid,
)
from charvar.arrangement import Arrangement, Lattice2, decone, lattice_from_central3
from charvar.components import enumerate_first_resonance

OUT_DIR = Path(__file__).resolve().parent.parent / "src" / "charvar" / "fixtures"

PRIMES = (2, 3, 5, 7, 11, 13)


# ---------------------------------------------------------------------------
# fixture definitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fixture:
    """A packaged monodromy as data.

    `rows` are the coefficients of x, y, z of the central planes, `infinity`
    is the 1-based plane sent to infinity, `shear` is c in the sweep
    coordinate u + c*v, and `special` lists (central point, depth, expected
    membership) triples to check besides the census.
    """

    name: str
    rows: tuple[tuple[int, int, int], ...]
    infinity: int
    shear: Fraction
    special: tuple = ()


def diamond_fixture() -> Fixture:
    torsion = (-1, 1, 1, -1, -1, 1, -1)
    return Fixture(
        name="diamond_monodromy",
        rows=((1, 1, 1), (0, 0, 1), (0, 1, 0), (1, -1, -1), (1, -1, 1), (1, 0, 0), (1, 1, -1)),
        infinity=2,
        shear=Fraction(-1, 4),
        special=((torsion, 1, True), (torsion, 2, True)),
    )


def braid4_fixture() -> Fixture:
    return Fixture(
        name="braid4_affine_monodromy",
        rows=((1, 0, 0), (1, 1, 0), (1, 1, 1), (0, 1, 0), (0, 1, 1), (0, 0, 1)),
        infinity=6,
        shear=Fraction(3),
    )


# ---------------------------------------------------------------------------
# wiring diagrams over exact rationals
# ---------------------------------------------------------------------------


def sweep_lines(chart: Arrangement, shear: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Each chart line a*u + b*v + c = 0 as (slope, intercept) of its
    height v over the sweep coordinate s = u + shear*v."""
    lines = []
    for label, row in zip(chart.labels, chart.hyperplanes):
        a, b, c = (v.as_rational() for v in row)
        run = b - a * shear
        if run == 0:
            raise ValueError(f"line {label} is vertical in the sweep")
        lines.append((-a / run, -c / run))
    return lines


def compute_wiring(lines):
    """Sweep the lines and return (order, events).

    `lines` lists (slope, intercept) pairs; heights are slope * s +
    intercept.  Right of every intersection the heights are ordered by
    (slope, intercept), and `order` lists the line indices bottom to top
    there: strand i is line order[i - 1].  Events come back in sweep order
    (decreasing s) as (strand_set, position_interval) pairs, where the
    interval is the 1-based contiguous block of positions the strands
    occupy just before they cross.
    """
    vertices = {}
    for a, b in itertools.combinations(range(len(lines)), 2):
        (ma, ca), (mb, cb) = lines[a], lines[b]
        if ma == mb:
            continue
        s = Fraction(cb - ca, ma - mb)
        vertices.setdefault((s, ma * s + ca), set()).update((a, b))

    order = sorted(range(len(lines)), key=lambda k: lines[k])
    strand_of_line = {line: pos + 1 for pos, line in enumerate(order)}

    current = list(order)
    events = []
    for (s, _), through in sorted(vertices.items(), key=lambda kv: kv[0][0], reverse=True):
        positions = sorted(current.index(line) + 1 for line in through)
        a, b = positions[0], positions[-1]
        if positions != list(range(a, b + 1)):
            raise AssertionError(f"vertex at s={s} occupies non-contiguous positions")
        events.append((frozenset(strand_of_line[line] for line in through), (a, b)))
        current[a - 1 : b] = reversed(current[a - 1 : b])

    covered = set()
    for through, _ in events:
        covered.update(itertools.combinations(sorted(through), 2))
    parallel = {
        tuple(sorted((strand_of_line[a], strand_of_line[b])))
        for a, b in itertools.combinations(range(len(lines)), 2)
        if lines[a][0] == lines[b][0]
    }
    everything = set(itertools.combinations(range(1, len(lines) + 1), 2))
    if covered | parallel != everything or covered & parallel:
        raise AssertionError("wiring does not cross each non-parallel pair exactly once")
    return order, events


# ---------------------------------------------------------------------------
# automorphisms from words in elementary crossings
# ---------------------------------------------------------------------------


def crossing_image(letter, k):
    """Image of generator k under one elementary crossing of positions
    (i, i+1), i = |letter|, positive when the letter is."""
    i = abs(letter)
    if letter > 0:
        if k == i:
            return (i, i + 1, -i)
        if k == i + 1:
            return (i,)
    else:
        if k == i:
            return (i + 1,)
        if k == i + 1:
            return (-(i + 1), i, i + 1)
    return (k,)


def apply_crossings(word, w):
    """Apply a crossing word to a free word, leftmost crossing first."""
    for letter in word:
        out = []
        for c in w:
            img = crossing_image(letter, abs(c))
            out.extend(img if c > 0 else invert_word(img))
        w = free_reduce(out)
    return w


def half_twist_word(a, b):
    """Positive half twist on positions a..b as a crossing word."""
    word = []
    for top in range(a, b):
        word.extend(range(top, a - 1, -1))
    return word


def substitute(images, word):
    """Apply the automorphism given by generator images to a free word."""
    out = []
    for c in word:
        img = images[abs(c) - 1]
        out.extend(img if c > 0 else invert_word(img))
    return free_reduce(out)


def positional_generators(events, n):
    """Automorphism images of every vertex monodromy generator.

    Generator k is the full twist on the k-th event's position interval,
    conjugated on the left by the half twists of events 1..k-1, first
    event first.
    """
    result = []
    prefix = []
    for through, (a, b) in events:
        half = half_twist_word(a, b)
        word = prefix + half * 2 + [-c for c in prefix[::-1]]
        images = tuple(apply_crossings(word, (k,)) for k in range(1, n + 1))
        result.append((through, word, images))
        prefix += half
    return result


def triangle_pin_check():
    """Regression anchor: on three pairwise-crossing lines the convention
    must produce exactly the three classical words."""
    lines = [(Fraction(-1), Fraction(0)), (Fraction(0), Fraction(0)), (Fraction(1), Fraction(-3))]
    order, events = compute_wiring(lines)
    assert order == [0, 1, 2]
    assert [(set(e), iv) for e, iv in events] == [
        ({2, 3}, (2, 3)),
        ({1, 3}, (1, 2)),
        ({1, 2}, (2, 3)),
    ]
    words = [list(word) for _, word, _ in positional_generators(events, 3)]
    assert words == [
        [2, 2],
        [2, 1, 1, -2],
        [2, 1, 2, 2, -1, -2],
    ], words
    print("triangle pin check: ok")


# ---------------------------------------------------------------------------
# rewriting a positional generator as twist-plus-conjugator
# ---------------------------------------------------------------------------


def find_conjugator(n, strands, target_images, max_depth=4):
    """Shortest two-strand-twist word d with inv(d) T(strands) d acting as
    `target_images`; None if none exists within the depth bound."""
    twist_images = tuple(
        artin_apply(full_twist(sorted(strands)), (k,)) for k in range(1, n + 1)
    )
    identity = tuple((k,) for k in range(1, n + 1))
    probe = min(strands)

    def matches(images):
        if substitute(images, twist_images[probe - 1]) != substitute(target_images, images[probe - 1]):
            return False
        return all(
            substitute(images, twist_images[k]) == substitute(target_images, images[k])
            for k in range(n)
        )

    letters = [
        (i, j, e)
        for i, j in itertools.combinations(range(1, n + 1), 2)
        for e in (1, -1)
    ]
    if matches(identity):
        return ()
    visited = {identity}
    frontier = deque([(identity, ())])
    depth = 0
    while frontier and depth < max_depth:
        depth += 1
        for _ in range(len(frontier)):
            images, word = frontier.popleft()
            for letter in letters:
                new_images = tuple(artin_apply((letter,), w) for w in images)
                if new_images in visited:
                    continue
                new_word = word + (letter,)
                if matches(new_images):
                    return new_word
                visited.add(new_images)
                frontier.append((new_images, new_word))
    return None


def solve_generators(events, n):
    """Match every positional generator with a MonodromyGen."""
    gens = []
    for through, _, target in positional_generators(events, n):
        strands = tuple(sorted(through))
        delta = find_conjugator(n, strands, target)
        if delta is None:
            raise ValueError(f"no conjugator within the depth bound for strands {list(strands)}")
        gen = MonodromyGen(strands, delta)
        braid = monodromy_braid(gen)
        check = tuple(artin_apply(braid, (k,)) for k in range(1, n + 1))
        assert check == target, f"conjugator verification failed for {list(strands)}"
        gens.append(gen)
    return tuple(gens)


# ---------------------------------------------------------------------------
# validation against the resonance census
# ---------------------------------------------------------------------------


def affine_lattice_from_lift(central: Lattice2, lift) -> Lattice2:
    """Affine rank-2 lattice predicted by restricting the central one."""
    strand_of_central = {c: s for s, c in enumerate(lift["strand_to_central"], start=1)}
    inf = lift["infinity"] - 1
    flats = []
    parallels = set()
    for cls in central.rank2_classes():
        members = set(cls)
        if inf in members:
            rest = sorted(strand_of_central[c + 1] - 1 for c in members - {inf})
            parallels.update(itertools.combinations(rest, 2))
        elif len(members) >= 3:
            flats.append(tuple(sorted(strand_of_central[c + 1] - 1 for c in members)))
    return Lattice2(central.n - 1, flats, sorted(parallels))


def lattices_equal(a: Lattice2, b: Lattice2) -> bool:
    return (
        a.n == b.n
        and {frozenset(c) for c in a.rank2_classes()} == {frozenset(c) for c in b.rank2_classes()}
        and {frozenset(p) for p in a.parallel_pairs} == {frozenset(p) for p in b.parallel_pairs}
    )


def component_sample(comp, which):
    """A rational point of the component's torus built from prime powers."""
    d = len(comp.basis)
    primes = PRIMES[which * d : (which + 1) * d]
    if len(primes) < d:
        raise AssertionError("not enough primes for a sample of this dimension")
    n = len(comp.basis[0])
    return [
        Fraction(1)
        *_prod(Fraction(p) ** comp.basis[r][i] for r, p in enumerate(primes))
        for i in range(n)
    ]


def _prod(items):
    acc = Fraction(1)
    for v in items:
        acc *= v
    return acc


def random_off_points(components, n, count, rng):
    points = []
    while len(points) < count:
        exps = [[rng.randint(-3, 3) for _ in range(n - 1)] for _ in range(2)]
        for row in exps:
            row.append(-sum(row))
        point = [Fraction(2) ** exps[0][i] * Fraction(3) ** exps[1][i] for i in range(n)]
        if any(comp.contains_point(point) for comp in components):
            continue
        points.append(point)
    return points


def central_in_vk(m: MonodromyInput, point, k: int) -> bool:
    """Certified depth-k membership of a central torus point, restricted to
    the affine strands through the lift metadata."""
    return membership(m, lift_point(m.lift, point), k).delta


def validate(m: MonodromyInput, census, special) -> list[str]:
    """Failures of the monodromy against the census of its central
    arrangement: the rank at the identity must be b2, two samples of each
    component torus of dimension d must lie in V_{d-1} and not in V_d, the
    special points must test as listed, and random off-component points
    must test outside V_1."""
    failures = []

    rank1 = membership(m, [Fraction(1)] * m.n, 1).rank
    if rank1 != m.b2:
        failures.append(f"rank at the identity is {rank1}, expected b2 = {m.b2}")

    for comp in census.components:
        for which in range(2):
            point = component_sample(comp, which)
            for k, expected in ((comp.dim - 1, True), (comp.dim, False)):
                if central_in_vk(m, point, k) != expected:
                    failures.append(
                        f"{comp.kind} component {comp.support} sample {which} "
                        f"{'not ' if expected else ''}in V_{k}"
                    )

    for point, k, expected in special:
        got = central_in_vk(m, point, k)
        if got != expected:
            failures.append(f"special point {point} at depth {k}: {got}, expected {expected}")

    rng = random.Random(20260815)
    for point in random_off_points(census.components, m.lift["central_n"], 5, rng):
        if central_in_vk(m, point, 1):
            failures.append(f"off-component point {point} tests inside depth 1")
    return failures


# ---------------------------------------------------------------------------
# deriving a fixture
# ---------------------------------------------------------------------------


def monodromy(fixture: Fixture) -> tuple[MonodromyInput, Lattice2]:
    """The fixture's monodromy with its lift, and the lattice of its
    central arrangement."""
    central = Arrangement("central", [[*row, 0] for row in fixture.rows])
    chart = decone(central, at=fixture.infinity - 1)
    order, events = compute_wiring(sweep_lines(chart.arrangement, fixture.shear))
    lift = {
        "central_n": central.n,
        "strand_to_central": [chart.line_to_central[line] + 1 for line in order],
        "infinity": fixture.infinity,
    }
    m = MonodromyInput(len(order), solve_generators(events, len(order)), lift)
    return m, lattice_from_central3(central)


def derive(fixture: Fixture) -> str:
    """The fixture's JSON text; a monodromy that fails a check raises
    ValueError."""
    print(f"== {fixture.name} ==")
    m, central = monodromy(fixture)
    print(
        f"  wiring: {len(m.generators)} vertices, "
        f"strands to central planes {m.lift['strand_to_central']}"
    )
    if not lattices_equal(m.lattice(), affine_lattice_from_lift(central, m.lift)):
        raise ValueError("the monodromy lattice is not the central lattice through the lift")
    census = enumerate_first_resonance(central)
    print(
        f"  census: {len(census.locals)} local, {len(census.nonlocals)} nonlocal components"
    )
    failures = validate(m, census, fixture.special)
    if failures:
        raise ValueError("validation failed:" + "".join(f"\n    - {f}" for f in failures))
    print("  validated")
    for gen in m.generators:
        print(f"    X={list(gen.X)} delta={list(gen.delta)}")
    return json.dumps(m.to_json(), indent=2) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare the derived fixtures with the packaged JSON; write nothing",
    )
    args = parser.parse_args(argv)
    triangle_pin_check()
    ok = True
    for fixture in (diamond_fixture(), braid4_fixture()):
        try:
            text = derive(fixture)
        except ValueError as exc:
            print(f"  FAILED: {exc}")
            ok = False
            continue
        out = OUT_DIR / f"{fixture.name}.json"
        if not args.check:
            out.write_text(text)
            print(f"  wrote {out}")
        elif not out.exists() or out.read_text() != text:
            print(f"  MISMATCH: {out} differs from the derived fixture")
            ok = False
        else:
            print(f"  matches {out}")
    if not ok:
        return 1
    if args.check:
        print("all fixtures re-derived and identical to the packaged JSON")
    else:
        print("all fixtures derived and validated")
    return 0


if __name__ == "__main__":
    sys.exit(main())
