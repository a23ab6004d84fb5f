#!/usr/bin/env python3
"""Derive and validate the packaged braid-monodromy fixtures.

For each fixture this tool recomputes, in exact rational arithmetic, a
real wiring diagram of the affine line set: lines are graphs of linear
height functions over a sweep coordinate, strands are numbered bottom to
top at a basepoint right of every intersection, and each intersection
contributes one monodromy generator — the full twist on the positions it
occupies, conjugated by the positive half twists of the intersections
passed earlier on the way from the basepoint.

Each positional generator is then rewritten in the package's native form
(a full twist on a strand set conjugated by a short word of two-strand
twists) by a breadth-first search over conjugator words, checked exactly
against the wiring automorphism.  The assembled monodromy is accepted
only if it reproduces the independently enumerated first-resonance
census of the corresponding central arrangement: sample points of every
component torus must test inside the depth-1 characteristic variety,
random off-component points must test outside, and for the seven-line
diamond the order-two point must lie at depth two while generic points
of the non-local tori must not.

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
from charvar.arrangement import Lattice2, gen_family, lattice_from_central3
from charvar.components import enumerate_first_resonance

OUT_DIR = Path(__file__).resolve().parent.parent / "src" / "charvar" / "fixtures"

PRIMES = (2, 3, 5, 7, 11, 13)


# ---------------------------------------------------------------------------
# wiring diagrams over exact rationals
# ---------------------------------------------------------------------------


def compute_wiring(lines, basepoint):
    """Sweep the line set and return (strand_of_line, events).

    `lines` maps 1-based printed labels to (slope, intercept); heights are
    slope * s + intercept.  Strand i is the line with the i-th smallest
    height at the basepoint.  Events come back in sweep order (decreasing
    s) as (strand_set, position_interval) pairs, where the interval is the
    1-based contiguous block of positions the strands occupy just before
    they cross.
    """
    labels = sorted(lines)
    height = {k: (lambda s, m=lines[k][0], c=lines[k][1]: m * s + c) for k in labels}

    vertices = {}
    for a, b in itertools.combinations(labels, 2):
        ma, ca = lines[a]
        mb, cb = lines[b]
        if ma == mb:
            continue
        s = Fraction(cb - ca, ma - mb)
        key = (s, height[a](s))
        vertices.setdefault(key, set()).update((a, b))
    for s, _ in vertices:
        if s >= basepoint:
            raise AssertionError("basepoint is not to the right of every vertex")

    order = sorted(labels, key=lambda k: height[k](basepoint))
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
        (strand_of_line[a], strand_of_line[b])
        for a, b in itertools.combinations(labels, 2)
        if lines[a][0] == lines[b][0]
    }
    parallel = {tuple(sorted(p)) for p in parallel}
    everything = set(itertools.combinations(range(1, len(labels) + 1), 2))
    if covered | parallel != everything or covered & parallel:
        raise AssertionError("wiring does not cross each non-parallel pair exactly once")
    return strand_of_line, events


# ---------------------------------------------------------------------------
# automorphisms from words in elementary crossings
# ---------------------------------------------------------------------------


def crossing_image(letter, k, chirality):
    """Image of generator k under one elementary crossing of positions
    (i, i+1); `chirality` mirrors every crossing when set to "B"."""
    i = abs(letter)
    positive = (letter > 0) == (chirality == "A")
    if positive:
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


def apply_crossings(word, w, chirality):
    """Apply a crossing word to a free word, leftmost crossing first."""
    for letter in word:
        out = []
        for c in w:
            img = crossing_image(letter, abs(c), chirality)
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


def positional_generators(events, n, chirality, conj_side, conj_order):
    """Automorphism images of every vertex monodromy generator.

    Generator k is the full twist on the k-th event's position interval,
    conjugated by the half twists of events 1..k-1.  `conj_side` picks
    which side of the twist the accumulated half twists multiply on, and
    `conj_order` whether they accumulate first-event-first or reversed.
    """
    result = []
    prefix = []
    for through, (a, b) in events:
        blocks = prefix if conj_order == "forward" else prefix[::-1]
        conj = list(itertools.chain.from_iterable(blocks))
        twist = half_twist_word(a, b) * 2
        if conj_side == "left":
            word = conj + twist + [-c for c in conj[::-1]]
        else:
            word = [-c for c in conj[::-1]] + twist + conj
        images = tuple(apply_crossings(word, (k,), chirality) for k in range(1, n + 1))
        result.append((through, word, images))
        prefix.append(half_twist_word(a, b))
    return result


COMBOS = [
    ("A", "left", "forward"),
    ("A", "right", "forward"),
    ("B", "left", "forward"),
    ("B", "right", "forward"),
    ("A", "left", "reversed"),
    ("A", "right", "reversed"),
    ("B", "left", "reversed"),
    ("B", "right", "reversed"),
]


def triangle_pin_check():
    """Regression anchor: on three pairwise-crossing lines the recipe with
    the default combo must produce exactly the three classical words."""
    lines = {1: (Fraction(-1), Fraction(0)), 2: (Fraction(0), Fraction(0)), 3: (Fraction(1), Fraction(-3))}
    strand_of_line, events = compute_wiring(lines, Fraction(4))
    assert strand_of_line == {1: 1, 2: 2, 3: 3}
    assert [(set(e), iv) for e, iv in events] == [
        ({2, 3}, (2, 3)),
        ({1, 3}, (1, 2)),
        ({1, 2}, (2, 3)),
    ]
    gens = positional_generators(events, 3, "A", "left", "forward")
    words = [list(word) for _, word, _ in gens]
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


def solve_generators(events, n, combo):
    """Match every positional generator with a MonodromyGen, or None."""
    chirality, conj_side, conj_order = combo
    gens = []
    for through, _, target in positional_generators(events, n, chirality, conj_side, conj_order):
        delta = find_conjugator(n, sorted(through), target)
        if delta is None:
            return None
        gen = MonodromyGen(tuple(sorted(through)), delta)
        braid = monodromy_braid(gen)
        check = tuple(artin_apply(braid, (k,)) for k in range(1, n + 1))
        assert check == target, f"conjugator verification failed for {sorted(through)}"
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


def validate(m: MonodromyInput, census, torsion_checks, hard_depth2, label):
    failures = []
    warnings = []

    ones = [Fraction(1)] * m.n
    rank1 = membership(m, ones, 1).rank
    if rank1 != m.b2:
        failures.append(f"rank at the identity is {rank1}, expected b2 = {m.b2}")

    for comp in census.components:
        for which in range(2):
            point = component_sample(comp, which)
            if not central_in_vk(m, point, 1):
                failures.append(
                    f"{comp.kind} component {comp.support} sample {which} not at depth 1"
                )
            deep = central_in_vk(m, point, 2)
            if deep:
                msg = (
                    f"{comp.kind} component {comp.support} sample {which} "
                    "unexpectedly at depth 2"
                )
                (failures if hard_depth2 else warnings).append(msg)

    for point, k, expected in torsion_checks:
        got = central_in_vk(m, point, k)
        if got != expected:
            failures.append(f"special point {point} at depth {k}: {got}, expected {expected}")

    rng = random.Random(20260815)
    for point in random_off_points(census.components, m.lift["central_n"], 5, rng):
        if central_in_vk(m, point, 1):
            failures.append(f"off-component point {point} tests inside depth 1")

    for note in warnings:
        print(f"  [{label}] note: {note}")
    return failures


# ---------------------------------------------------------------------------
# fixture definitions
# ---------------------------------------------------------------------------


def diamond_fixture():
    F = Fraction
    lines = {
        1: (F(-4), F(0)),
        2: (F(-4, 5), F(-4, 5)),
        3: (F(-4, 5), F(4, 5)),
        4: (F(0), F(0)),
        5: (F(4, 3), F(-4, 3)),
        6: (F(4, 3), F(4, 3)),
    }
    lift = {"central_n": 7, "strand_to_central": [6, 1, 7, 3, 4, 5], "infinity": 2}
    central = lattice_from_central3(gen_family("diamond"))
    torsion = [
        ([F(-1), F(1), F(1), F(-1), F(-1), F(1), F(-1)], 1, True),
        ([F(-1), F(1), F(1), F(-1), F(-1), F(1), F(-1)], 2, True),
    ]
    expected_events = [
        ({3, 4, 5}, (3, 5)),
        ({1, 2, 5}, (1, 3)),
        ({1, 4}, (3, 4)),
        ({1, 3, 6}, (4, 6)),
        ({2, 4, 6}, (2, 4)),
    ]
    return {
        "name": "diamond_monodromy",
        "lines": lines,
        "basepoint": F(2),
        "lift": lift,
        "central": central,
        "strand_identity": True,
        "expected_events": expected_events,
        "torsion": torsion,
        "hard_depth2": True,
        "expected_b2": 9,
    }


def braid4_fixture():
    F = Fraction
    # Sheared chart of x=0; x+y=0; x+y+1=0; y=0; y=-1 with height y and
    # sweep coordinate x+3y, where every line is a graph over the sweep.
    lines = {
        1: (F(1, 3), F(0)),
        2: (F(1, 2), F(0)),
        3: (F(1, 2), F(1, 2)),
        4: (F(0), F(0)),
        5: (F(0), F(-1)),
    }
    lift = {"central_n": 6, "strand_to_central": [5, 4, 1, 2, 3], "infinity": 6}
    central = gen_family("braid", ell=4)
    expected_events = [
        ({2, 3, 4}, (2, 4)),
        ({2, 5}, (4, 5)),
        ({1, 4}, (1, 2)),
        ({1, 3, 5}, (2, 4)),
    ]
    return {
        "name": "braid4_affine_monodromy",
        "lines": lines,
        "basepoint": F(1),
        "lift": lift,
        "central": central,
        "strand_identity": False,
        "expected_events": expected_events,
        "torsion": [],
        "hard_depth2": False,
        "expected_b2": 6,
    }


def derive(fixture):
    name = fixture["name"]
    print(f"== {name} ==")
    strand_of_line, events = compute_wiring(fixture["lines"], fixture["basepoint"])
    n = len(fixture["lines"])
    if fixture["strand_identity"]:
        assert strand_of_line == {k: k for k in fixture["lines"]}, strand_of_line
    got_events = [(set(e), iv) for e, iv in events]
    assert got_events == [
        (set(e), iv) for e, iv in fixture["expected_events"]
    ], got_events
    print(f"  wiring: {len(events)} vertices, strands {strand_of_line}")

    census = enumerate_first_resonance(fixture["central"])
    print(
        f"  census: {len(census.locals)} local, {len(census.nonlocals)} nonlocal components"
    )

    for combo in COMBOS:
        gens = solve_generators(events, n, combo)
        if gens is None:
            print(f"  combo {combo}: no conjugators within depth bound")
            continue
        m = MonodromyInput(n, gens, fixture["lift"])
        if m.b2 != fixture["expected_b2"]:
            print(f"  combo {combo}: b2 mismatch {m.b2}")
            continue
        predicted = affine_lattice_from_lift(fixture["central"], fixture["lift"])
        if not lattices_equal(m.lattice(), predicted):
            print(f"  combo {combo}: affine lattice mismatch")
            continue
        failures = validate(m, census, fixture["torsion"], fixture["hard_depth2"], name)
        if failures:
            print(f"  combo {combo}: membership validation failed:")
            for f in failures:
                print(f"    - {f}")
            continue
        print(f"  combo {combo}: validated")
        for gen in gens:
            print(f"    X={list(gen.X)} delta={list(gen.delta)}")
        return json.dumps(m.to_json(), indent=2) + "\n"
    print(f"  FAILED: no combo validates for {name}")
    return None


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
        text = derive(fixture)
        if text is None:
            ok = False
            continue
        out = OUT_DIR / f"{fixture['name']}.json"
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
