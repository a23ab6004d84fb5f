"""Command-line front end for the arrangement invariants in this package.

Subcommands
-----------
``gen``         build a named example family and print its JSON description
``lattice``     extract rank-2 intersection data from an arrangement file
``components``  enumerate depth-1 components with a census summary
``member``      exact depth-k membership of a single point
``report``      consolidated self-check over the bundled example families

Input files are JSON and are recognised by their keys: ``generators``
marks braid-monodromy data, ``hyperplanes`` marks coordinate arrangements,
``flats`` marks bare rank-2 lattices, and ``pair`` marks a two-lattice
bundle.  The prefix ``fixture:`` in place of a path loads a packaged
monodromy fixture by name (for example ``fixture:diamond_monodromy``).

Each subcommand reads the parsed arguments directly, builds one JSON-able
payload and hands it to `_render`, which writes it as JSON or, under
``--format text``, as the text the subcommand derives from it.  ``report``
takes ``--seed`` and ``--samples`` (at least 1) for its seeded checks.

Exit codes: 0 success, 1 failed report check, 2 validation error,
3 enumeration or size cap exceeded.  All output is deterministic for a fixed
``--seed``.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Sequence

from .alexander import (
    MonodromyInput,
    grid_monodromy,
    lift_point,
    load_monodromy,
    membership,
    pencil_monodromy,
    phi_one_rank,
)
from .arrangement import (
    Arrangement,
    Lattice2,
    ValidationError,
    b2,
    gen_family,
    lattice_from_affine,
    lattice_from_central3,
)
from .components import (
    DEFAULT_CAP,
    CapExceeded,
    Component,
    Resonance1,
    check_cap,
    cone_lattice,
    enumerate_first_resonance,
    resonance_to_json,
)
from .exactalg import ExactScalar
from .osres import resonance_rank, resonance_rank_os


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _rng(args, label: str) -> random.Random:
    """Independent deterministic stream per named use site."""
    return random.Random(f"{args.seed}:{label}")


def _json_text(value, indent: str = "") -> str:
    """JSON with two-space indentation, except that a list holding no list
    or object stays on one line, e.g. ``[1, 1, 0, 0]``; it loads equal to
    ``json.dumps(value, indent=2)``.  Object keys are strings, as in every
    payload."""
    inner = indent + "  "
    if isinstance(value, dict) and value:
        items = [f"{json.dumps(k)}: {_json_text(v, inner)}" for k, v in value.items()]
    elif isinstance(value, (list, tuple)) and any(
        isinstance(v, (dict, list, tuple)) for v in value
    ):
        items = [_json_text(v, inner) for v in value]
    else:
        return json.dumps(value)
    opening, closing = "{}" if isinstance(value, dict) else "[]"
    body = ",\n".join(inner + item for item in items)
    return f"{opening}\n{body}\n{indent}{closing}"


def _render(args, payload, text: Callable[[object], str]) -> None:
    """Write a command's one result: the payload as JSON (`_json_text`), or
    `text(payload)` under ``--format text``; to ``--output`` when given,
    else stdout."""
    fmt = args.format or _DEFAULT_FORMATS[args.command]
    out = text(payload) if fmt == "text" else _json_text(payload)
    if not out.endswith("\n"):
        out += "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(out)
    else:
        sys.stdout.write(out)


# ---------------------------------------------------------------------------
# input loading and point parsing
# ---------------------------------------------------------------------------


def _load_input(path: str):
    """Read a JSON input and classify it.

    Returns one of ("monodromy", MonodromyInput), ("arrangement",
    Arrangement), ("lattice", Lattice2), or ("pair", (Lattice2, Lattice2)).
    """
    if path.startswith("fixture:"):
        return "monodromy", load_monodromy(path[len("fixture:"):])
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = handle.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(raw)
    except ValueError as exc:  # JSONDecodeError, or an int over the digit limit
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: expected a JSON object at the top level")
    if "generators" in obj:
        return "monodromy", MonodromyInput.from_json(obj)
    if "hyperplanes" in obj:
        return "arrangement", Arrangement.from_json(obj)
    if "pair" in obj:
        pair = obj["pair"]
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValidationError(f"{path}: 'pair' must hold exactly two lattices")
        return "pair", tuple(Lattice2.from_json(p) for p in pair)
    if "flats" in obj:
        return "lattice", Lattice2.from_json(obj)
    raise ValidationError(
        f"{path}: unrecognised input; expected one of the keys "
        "'generators', 'hyperplanes', 'flats', or 'pair'"
    )


def _arrangement_lattice(arr: Arrangement) -> Lattice2:
    if arr.flavor == "central":
        return lattice_from_central3(arr)
    return lattice_from_affine(arr)


# Largest hyperplane or strand count of an arrangement or monodromy input
# that a lattice is built from (`_as_lattice`, so every command).  The build
# visits all C(n,2) pairs: n strands in no vertex set (all lines parallel)
# take 0.21 s and 37 MiB at n = 300, with 0.69 MB of `lattice` output,
# 0.63 s and 71 MiB at 500, and 2.8 s, 240 MiB and 7.9 MB at 1000; n random
# planes of a central arrangement 0.22 s at 300 and 2.2 s and 224 MiB at
# 1000 (2-core Intel Xeon, Python 3.11).  A larger input is refused before
# any pair is visited.
LATTICE_INPUT_CAP = 300


def _as_lattice(kind: str, value) -> Lattice2:
    if kind == "lattice":
        return value
    if kind == "pair":
        raise ValidationError("this command needs a single arrangement or lattice")
    if value.n > LATTICE_INPUT_CAP:
        raise CapExceeded(
            f"lattices are built from at most {LATTICE_INPUT_CAP} hyperplanes "
            f"or strands (got {value.n})"
        )
    return _arrangement_lattice(value) if kind == "arrangement" else value.lattice()


def _parse_point(text: str) -> list[ExactScalar]:
    """Parse a point given as a JSON array or a comma-separated list.

    Each coordinate may be an integer, a rational string like ``-3/2``, or
    (in the JSON form) a cyclotomic scalar object with ``order``/``coeffs``.
    """
    stripped = text.strip()
    if stripped.startswith("["):
        try:
            entries = json.loads(stripped)
        except ValueError as exc:  # JSONDecodeError, or an int over the digit limit
            raise ValidationError(f"point is not valid JSON: {exc}") from exc
        if not isinstance(entries, list):
            raise ValidationError("a JSON point must be an array")
    else:
        entries = [tok.strip() for tok in stripped.split(",")] if stripped else []
        for position, entry in enumerate(entries, 1):
            if not entry:
                raise ValidationError(f"coordinate {position} of the point is empty")
    if not entries:
        raise ValidationError("the point has no coordinates")
    coords = []
    for entry in entries:
        try:
            coords.append(ExactScalar.from_json(entry))
        except (ValueError, TypeError, KeyError) as exc:
            raise ValidationError(f"bad coordinate {entry!r}: {exc}") from exc
    return coords


def _rational_weights(coords: Sequence[ExactScalar]) -> list[Fraction]:
    out = []
    for c in coords:
        if c.order != 1:
            raise ValidationError(
                "weight vectors on a lattice input must have rational entries"
            )
        out.append(c.as_rational())
    return out


# ---------------------------------------------------------------------------
# text rendering
# ---------------------------------------------------------------------------


def _arrangement_text(arr: Arrangement) -> str:
    lines = [f"{arr.flavor} arrangement: {arr.n} hyperplanes in dimension {arr.dim}"]
    for label, row in zip(arr.labels, arr.hyperplanes):
        coeffs = " ".join(str(v) for v in row)
        lines.append(f"  {label}: [{coeffs}]")
    return "\n".join(lines)


def _lattice_text(lat: Lattice2) -> str:
    lines = [
        f"lattice: {lat.n} hyperplanes, "
        f"{len(lat.flats)} flats of multiplicity >= 3, "
        f"{len(lat.parallel_pairs)} parallel pairs"
    ]
    for f in lat.flats:
        lines.append("  flat {" + ",".join(str(i + 1) for i in f) + "}")
    for i, j in lat.parallel_pairs:
        lines.append(f"  parallel {i + 1} {j + 1}")
    return "\n".join(lines)


def _census(res: Resonance1, n: int) -> dict:
    by_dim: dict[int, dict[str, int]] = {}
    for comp in res.components:
        row = by_dim.setdefault(comp.dim, {"count": 0, "local": 0, "nonlocal": 0})
        row["count"] += 1
        row[comp.kind] += 1
    essential = sum(1 for comp in res.components if len(comp.support) == n)
    return {
        "total": len(res.components),
        "by_dim": [
            {"dim": d, **by_dim[d]} for d in sorted(by_dim, reverse=True)
        ],
        "essential": essential,
        "flagged": len(res.flagged),
    }


def _census_line(census: dict) -> str:
    noun = "component" if census["total"] == 1 else "components"
    parts = [f"{census['total']} {noun}"]
    for row in census["by_dim"]:
        parts.append(
            f"dim {row['dim']}: {row['count']} "
            f"(local {row['local']}, nonlocal {row['nonlocal']})"
        )
    return ", ".join(parts)


def _component_line(comp: dict) -> str:
    """One component of a `components` payload (support numbered from 1)."""
    supp = "{" + ",".join(map(str, comp["support"])) + "}"
    line = f"{comp['kind']} dim {comp['dimension']} support {supp}"
    if comp["monomial_equations"]:
        line += "  " + "; ".join(comp["monomial_equations"])
    return line


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


_FAMILY_PARAMS = {
    "braid": ("l",),
    "monomial": ("r", "l"),
    "full_monomial": ("r", "l"),
    "hessian": (),
    "diamond": (),
    "pencil": ("n",),
    "generic": ("n",),
    "falk_pair": (),
}


def _family_kwargs(args) -> dict:
    family = args.family
    if family not in _FAMILY_PARAMS:
        raise ValidationError(
            f"unknown family {family!r}; expected one of {sorted(_FAMILY_PARAMS)}"
        )
    allowed = _FAMILY_PARAMS[family]
    for flag in ("r", "l", "n"):
        if getattr(args, flag) is not None and flag not in allowed:
            raise ValidationError(f"family {family!r} does not take --{flag}")
    kwargs = {}
    if family == "braid":
        if args.l is None:
            raise ValidationError("family 'braid' requires --l (number of points)")
        kwargs["ell"] = args.l
    elif family in ("monomial", "full_monomial"):
        if args.r is None:
            raise ValidationError(f"family {family!r} requires --r")
        kwargs["r"] = args.r
        kwargs["l"] = 3 if args.l is None else args.l
    elif family in ("pencil", "generic"):
        if args.n is None:
            raise ValidationError(f"family {family!r} requires --n")
        kwargs["n"] = args.n
    return kwargs


def _family_json(obj) -> dict:
    if isinstance(obj, tuple):
        return {"pair": [part.to_json() for part in obj]}
    return obj.to_json()


def _family_text(obj) -> str:
    if isinstance(obj, tuple):
        blocks = []
        for tag, part in zip("AB", obj):
            blocks.append(f"[{tag}] " + _lattice_text(part))
        return "\n".join(blocks)
    if isinstance(obj, Arrangement):
        return _arrangement_text(obj)
    return _lattice_text(obj)


def cmd_gen(args) -> int:
    obj = gen_family(args.family, **_family_kwargs(args))
    _render(args, _family_json(obj), lambda _: _family_text(obj))
    return 0


# ---------------------------------------------------------------------------
# lattice
# ---------------------------------------------------------------------------


def cmd_lattice(args) -> int:
    kind, value = _load_input(args.input)
    obj = value if kind == "pair" else _as_lattice(kind, value)
    _render(args, _family_json(obj), lambda _: _family_text(obj))
    return 0


# ---------------------------------------------------------------------------
# components
# ---------------------------------------------------------------------------


def _enumerate_with_cone(lat: Lattice2, cap: int) -> tuple[Resonance1, Lattice2, bool]:
    coned = bool(lat.parallel_pairs)
    if coned:
        lat = cone_lattice(lat)
    return enumerate_first_resonance(lat, cap=cap), lat, coned


def _coned_size(value: Arrangement | MonodromyInput) -> int:
    """Hyperplanes the enumeration sees of an arrangement or a monodromy,
    one more when parallel lines make it cone the input; read without
    building the lattice, which costs C(n,2) cross products or pairs.  A
    monodromy has parallels when its vertex sets, which share no pair,
    cover fewer than C(n,2) pairs."""
    if isinstance(value, MonodromyInput):
        covered = sum(math.comb(len(gen.X), 2) for gen in value.generators)
        return value.n + (covered < math.comb(value.n, 2))
    if value.flavor == "central":
        return value.n
    return value.n + (len(set(value.direction_keys(value.dim))) < value.n)


def _components_payload(lat: Lattice2, cap: int) -> dict:
    res, lat, coned = _enumerate_with_cone(lat, cap)
    payload = {
        "n": lat.n,
        "coned": coned,
        "census": _census(res, lat.n),
    }
    payload.update(resonance_to_json(res))
    return payload


def _components_lines(payload: dict) -> list[str]:
    lines = []
    if payload["coned"]:
        lines.append(
            f"note: affine input; added the line at infinity as "
            f"hyperplane {payload['n']} before enumeration"
        )
    census = payload["census"]
    lines.append(_census_line(census))
    if census["essential"]:
        lines.append(f"essential: {census['essential']}")
    if census["flagged"]:
        lines.append(f"flagged (pairing form does not vanish): {census['flagged']}")
    lines.extend(_component_line(comp) for comp in payload["components"])
    return lines


def _components_text(payload: dict) -> str:
    if "pair" in payload:
        return "\n".join(
            f"[{tag}] {line}"
            for tag, part in zip("AB", payload["pair"])
            for line in _components_lines(part)
        )
    return "\n".join(_components_lines(payload))


def cmd_components(args) -> int:
    if args.k != 1:
        raise ValidationError(
            "component enumeration is only available at depth k = 1; use "
            "'charvar member' to test depth-k membership of specific points"
        )
    kind, value = _load_input(args.input)
    if kind == "pair":
        payload = {"pair": [_components_payload(lat, args.cap) for lat in value]}
    else:
        if kind in ("arrangement", "monodromy"):
            check_cap(_coned_size(value), args.cap)
        payload = _components_payload(_as_lattice(kind, value), args.cap)
    _render(args, payload, _components_text)
    return 0


# ---------------------------------------------------------------------------
# member
# ---------------------------------------------------------------------------

# Largest hyperplane count `member` takes on arrangement or lattice input.
# At n = 200 a lattice call takes at most 0.06 s at small integer weights
# (the pencil, at generic weights) and 0.25 s at rational weights with
# six-digit denominators; a central arrangement of 200 random integer
# planes takes 0.15 s, 0.09 s of it the lattice build (2-core Intel Xeon,
# Python 3.11).  A larger input is refused before its lattice or any pair
# list is built.
MEMBER_HYPERPLANE_CAP = 200

# Largest strand count `member` and `report` take on monodromy input.  A
# pencil, one vertex set of all n strands, is the costliest shape measured:
# on its component (coordinate product 1) the relator rank stays below its
# largest possible value, so the certificate needs many primes.  At the
# point (2/3) * zeta_120^(7+i), i < n - 1, completed to product 1, it takes
# 0.018 s on 12 strands (69 primes), 0.021 s on 16, 0.037 s on 20, 0.11 s
# on 30 (188 primes) and 0.27 s on 40 (274 primes); the first query of a
# process, which compiles the relator rows, 0.034 s on 12 strands and
# 0.38 s on 40.  At the unit point zeta_5^i so completed it takes 0.0005 s
# on 12 strands and 0.0046 s on 40 (0.004 s and 0.074 s first), at the
# rational point ((i+2)/(i+1)) so completed 0.0010 s on 12 and 0.013 s on
# 40 (0.004 s and 0.083 s first).  One double point on n strands, at those
# points without the completion, is decided at the first prime, with no
# compile, in under 0.001 s up to 40 strands; the process peaked at
# 20 MiB.  `report`'s rank at the identity, read from the vertex sets
# (`phi_one_rank`), takes under 0.001 s on 40 strands (2-core Intel Xeon,
# Python 3.11, best of three).  A larger input is refused before any ring
# is built.
MEMBER_STRAND_CAP = 12


def _check_strands(command: str, m: MonodromyInput) -> None:
    """Refuse a monodromy above MEMBER_STRAND_CAP, before `membership`."""
    if m.n > MEMBER_STRAND_CAP:
        raise CapExceeded(
            f"{command} on monodromy input is limited to "
            f"{MEMBER_STRAND_CAP} strands (got {m.n})"
        )


def _member_monodromy(m: MonodromyInput, coords: list[ExactScalar], k: int) -> dict:
    lifted = False
    if len(coords) == m.n:
        point = coords
    elif m.lift is not None and len(coords) == len(m.lift["strand_to_central"]) + 1:
        point = lift_point(m.lift, coords)
        lifted = True
    else:
        expect = str(m.n)
        if m.lift is not None:
            expect += f" or {len(m.lift['strand_to_central']) + 1}"
        raise ValidationError(
            f"point has {len(coords)} coordinates; this input takes {expect}"
        )
    verdict = membership(m, point, k)
    return {
        "in_Vk": verdict.delta,
        "rank": verdict.rank,
        "k": k,
        "route": "alexander",
        "lifted": lifted,
        "criteria": {"delta": verdict.delta, "partial2": verdict.partial2},
        "consistent": verdict.partial2 is None or verdict.partial2 == verdict.delta,
        "certificate": verdict.certificate,
    }


def _member_lattice(lat: Lattice2, coords: list[ExactScalar], k: int) -> dict:
    lam = _rational_weights(coords)
    if len(lam) != lat.n:
        raise ValidationError(
            f"point has {len(lam)} coordinates; this lattice has {lat.n} hyperplanes"
        )
    npairs = lat.n * (lat.n - 1) // 2
    rank = resonance_rank(lat, lam)
    verdict = rank <= npairs - k
    return {
        "in_Vk": verdict,
        "rank": rank,
        "k": k,
        "route": "resonance",
        "criteria": {"delta": None, "partial2": None, "resonance": verdict},
        "consistent": True,
    }


def _member_text(verdict: dict) -> str:
    lines = [
        f"in V_{verdict['k']}: {'yes' if verdict['in_Vk'] else 'no'}",
        f"rank: {verdict['rank']}",
        f"route: {verdict['route']}",
    ]
    for name, value in verdict["criteria"].items():
        shown = "n/a" if value is None else ("yes" if value else "no")
        lines.append(f"criterion {name}: {shown}")
    lines.append(f"consistent: {'yes' if verdict['consistent'] else 'no'}")
    for name, route in verdict.get("certificate", {}).items():
        lines.append(f"certificate {name}: {route or 'n/a'}")
    return "\n".join(lines)


def cmd_member(args) -> int:
    if args.k < 1:
        raise ValidationError("depth k must be at least 1")
    kind, value = _load_input(args.input)
    coords = _parse_point(args.point)
    if kind == "monodromy":
        _check_strands("member", value)
        verdict = _member_monodromy(value, coords, args.k)
    elif kind == "pair":
        raise ValidationError(
            "member needs a single input; split the pair file first"
        )
    else:
        if value.n > MEMBER_HYPERPLANE_CAP:
            raise CapExceeded(
                "member on arrangement or lattice input is limited to "
                f"{MEMBER_HYPERPLANE_CAP} hyperplanes (got {value.n})"
            )
        verdict = _member_lattice(_as_lattice(kind, value), coords, args.k)
    _render(args, verdict, _member_text)
    return 0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def _fixture_lattice(name: str, **kw) -> Lattice2:
    obj = gen_family(name, **kw)
    if isinstance(obj, Lattice2):
        return obj
    return _arrangement_lattice(obj)


def _check_census(lat, cap, want=None):
    """Every component verified and none flagged; with `want` = (total,
    {dim: (local, nonlocal)}, essential), also that census."""
    res = enumerate_first_resonance(lat, cap=cap)
    census = _census(res, lat.n)
    ok = not census["flagged"] and all(comp.verified for comp in res.components)
    if want is not None:
        total, by_dim, essential = want
        got_by_dim = {
            row["dim"]: (row["local"], row["nonlocal"]) for row in census["by_dim"]
        }
        ok = (
            ok
            and census["total"] == total
            and got_by_dim == by_dim
            and census["essential"] == essential
        )
    return ok, _census_line(census)


def _random_fraction(rng: random.Random) -> Fraction:
    value = Fraction(rng.randint(2, 9), rng.randint(2, 9))
    return value if value != 1 else value + 1


def _component_point(comp: Component, rng: random.Random) -> list[Fraction]:
    params = [_random_fraction(rng) for _ in comp.basis]
    n = len(comp.basis[0])
    point = []
    for i in range(n):
        value = Fraction(1)
        for row, u in zip(comp.basis, params):
            value *= u ** row[i]
        point.append(value)
    return point


def _off_component_point(
    components, n: int, rng: random.Random
) -> list[Fraction]:
    while True:
        exps = [[rng.randint(-3, 3) for _ in range(n - 1)] for _ in range(2)]
        for row in exps:
            row.append(-sum(row))
        point = [
            Fraction(2) ** exps[0][i] * Fraction(3) ** exps[1][i] for i in range(n)
        ]
        if not any(comp.contains_point(point) for comp in components):
            return point


def _check_diamond_membership(args):
    m = load_monodromy("diamond_monodromy")
    central = lattice_from_central3(gen_family("diamond"))
    res = enumerate_first_resonance(central)
    torsion = [-1, 1, 1, -1, -1, 1, -1]

    def inside(point, k):
        return membership(m, lift_point(m.lift, point), k).delta

    checks = []
    checks.append(inside(torsion, 2))
    ones = [Fraction(1)] * m.n
    checks.append(membership(m, ones, 1).delta)
    rng = _rng(args, "diamond-membership")
    for comp in res.nonlocals:
        for _ in range(args.samples):
            point = _component_point(comp, rng)
            checks.append(inside(point, 1))
            checks.append(not inside(point, 2))
    for _ in range(args.samples):
        point = _off_component_point(res.components, central.n, rng)
        checks.append(not inside(point, 1))
    ok = all(checks)
    return ok, (
        f"torsion point at depth 2; {args.samples} points per non-local torus "
        "at depth 1 only; seeded off-locus points excluded"
    )


def _check_pencil_membership(args, n: int):
    m = pencil_monodromy(n)
    rng = _rng(args, f"pencil-{n}")
    ok = True
    for _ in range(args.samples):
        t = [_random_fraction(rng) for _ in range(n - 1)]
        prod = Fraction(1)
        for v in t:
            prod *= v
        on = t + [1 / prod]
        ok = ok and membership(m, on, n - 2).delta
        off = t + [prod + 1 if prod != -1 else Fraction(7)]
        ok = ok and not membership(m, off, 1).delta
    return ok, (
        f"{args.samples} points with coordinate product 1 at depth {n - 2}; "
        f"{args.samples} with product != 1 outside depth 1"
    )


def _check_product_membership():
    m = grid_monodromy(2, 2)
    factor = [Fraction(3), Fraction(5), Fraction(1), Fraction(1)]
    mixed = [Fraction(3), Fraction(5), Fraction(7), Fraction(11)]
    ok = (
        phi_one_rank(m) == m.b2
        and membership(m, factor, 1).delta
        and not membership(m, factor, 2).delta
        and not membership(m, mixed, 1).delta
    )
    return ok, "product of two free pairs: factor locus at depth 1, mixed points outside"


def _check_identity_rank(fixtures):
    details = []
    ok = True
    for label, lat in fixtures:
        got = phi_one_rank(lat)
        want = b2(lat)
        ok = ok and got == want
        details.append(f"{label}={got}")
    return ok, "rank at the identity equals b2: " + ", ".join(details)


def _check_monodromy_identity_rank(items):
    details = []
    ok = True
    for label, m in items:
        got = phi_one_rank(m)
        ok = ok and got == m.b2
        details.append(f"{label}={got}")
    return ok, "presentation rank at the identity equals b2: " + ", ".join(details)


def _check_transpose(args, fixtures, label):
    rng = _rng(args, label)
    ok = True
    for _label, lat in fixtures:
        for _ in range(args.samples):
            lam = [rng.randint(-5, 5) for _ in range(lat.n)]
            ok = ok and resonance_rank(lat, lam) == resonance_rank_os(lat, lam)
    return ok, (
        f"{args.samples} seeded weights per fixture: stacked rank matches the "
        "multiplication-map rank"
    )


# expected census of each report fixture: (total, {dim: (local, nonlocal)},
# essential)
_REPORT_CENSUS = {
    "braid(4)": (5, {2: (4, 1)}, 1),
    "braid(5)": (15, {2: (10, 5)}, 0),
    "diamond": (9, {2: (6, 3)}, 0),
    "monomial(2,3)": (5, {2: (4, 1)}, 1),
    "monomial(3,3)": (16, {2: (12, 4)}, 4),
    "hessian": (64, {3: (9, 1), 2: (0, 54)}, 1),
    "falk A": (4, {2: (4, 0)}, 0),
    "falk B": (4, {2: (4, 0)}, 0),
    "pencil(4)": (1, {3: (1, 0)}, 1),
    "generic(4)": (0, {}, 0),
}
_TRANSPOSE_FIXTURES = ("braid(4)", "diamond", "falk A", "pencil(4)", "generic(4)")


def _default_checks(args) -> list[tuple[str, Callable[[], tuple[bool, str]]]]:
    falk_a, falk_b = gen_family("falk_pair")
    lattices = {
        "braid(4)": _fixture_lattice("braid", ell=4),
        "braid(5)": _fixture_lattice("braid", ell=5),
        "diamond": _fixture_lattice("diamond"),
        "monomial(2,3)": _fixture_lattice("monomial", r=2, l=3),
        "monomial(3,3)": _fixture_lattice("monomial", r=3, l=3),
        "hessian": _fixture_lattice("hessian"),
        "falk A": falk_a,
        "falk B": falk_b,
        "pencil(4)": _fixture_lattice("pencil", n=4),
        "pencil(5)": _fixture_lattice("pencil", n=5),
        "generic(4)": _fixture_lattice("generic", n=4),
    }
    transpose = [(label, lattices[label]) for label in _TRANSPOSE_FIXTURES]
    checks = [
        (f"census {label}", partial(_check_census, lattices[label], 20, want))
        for label, want in _REPORT_CENSUS.items()
    ]
    return checks + [
        ("identity rank bridge", lambda: _check_identity_rank(lattices.items())),
        (
            "identity rank (monodromy)",
            lambda: _check_monodromy_identity_rank(
                [
                    ("diamond", load_monodromy("diamond_monodromy")),
                    ("braid4_affine", load_monodromy("braid4_affine_monodromy")),
                    ("pencil(4)", pencil_monodromy(4)),
                    ("grid(2,2)", grid_monodromy(2, 2)),
                ]
            ),
        ),
        ("resonance transpose", lambda: _check_transpose(args, transpose, "transpose")),
        ("membership diamond", lambda: _check_diamond_membership(args)),
        ("membership pencil(4)", lambda: _check_pencil_membership(args, 4)),
        ("membership pencil(5)", lambda: _check_pencil_membership(args, 5)),
        ("membership product", _check_product_membership),
    ]


def _file_checks(
    args, path: str
) -> list[tuple[str, Callable[[], tuple[bool, str]]]]:
    kind, value = _load_input(path)
    if kind == "monodromy":
        _check_strands("report", value)
        item = [(path, value)]
        return [(f"{path}: identity rank", partial(_check_monodromy_identity_rank, item))]
    if kind == "arrangement":
        check_cap(_coned_size(value), args.cap)
    lattices = value if kind == "pair" else (_as_lattice(kind, value),)
    tags = ("A", "B") if kind == "pair" else ("",)
    checks = []
    for tag, lat in zip(tags, lattices):
        label = f"{path}{' ' + tag if tag else ''}"
        work = cone_lattice(lat) if lat.parallel_pairs else lat
        item = [(label, work)]
        checks += [
            (f"{label}: census", partial(_check_census, work, args.cap)),
            (f"{label}: identity rank bridge", partial(_check_identity_rank, item)),
            (
                f"{label}: resonance transpose",
                partial(_check_transpose, args, item, f"transpose:{label}"),
            ),
        ]
    return checks


def _report_text(report: dict) -> str:
    lines = [
        f"{'PASS' if r['pass'] else 'FAIL'}  {r['name']}: {r['detail']}"
        for r in report["checks"]
    ]
    lines.append(
        f"{report['passed']} of {report['total']} checks passed (seed {report['seed']})"
    )
    return "\n".join(lines)


def cmd_report(args) -> int:
    if args.samples < 1:
        raise ValidationError("--samples must be at least 1")
    if args.inputs:
        checks = [check for path in args.inputs for check in _file_checks(args, path)]
    else:
        checks = _default_checks(args)
    results = []
    for name, fn in checks:
        ok, detail = fn()
        results.append({"name": name, "pass": bool(ok), "detail": detail})
    passed = sum(1 for r in results if r["pass"])
    report = {
        "seed": args.seed,
        "samples": args.samples,
        "passed": passed,
        "total": len(results),
        "checks": results,
    }
    _render(args, report, _report_text)
    return 0 if passed == len(results) else 1


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charvar",
        description=(
            "Exact first-resonance and characteristic-variety computations "
            "for complex hyperplane arrangements."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("-o", "--output", help="write the result to this file")
    out.add_argument(
        "--format",
        choices=("json", "text"),
        help="output format (default depends on the subcommand)",
    )

    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument(
        "--seed", type=int, default=0, help="seed for all random sampling (default 0)"
    )
    sampling.add_argument(
        "--samples",
        type=int,
        default=5,
        help="number of sample points per randomised check (default 5)",
    )

    p_gen = sub.add_parser(
        "gen", parents=[out], help="build a named example family"
    )
    p_gen.add_argument(
        "--family",
        required=True,
        help="one of: " + ", ".join(sorted(_FAMILY_PARAMS)),
    )
    p_gen.add_argument("--r", type=int, help="exponent parameter (monomial families)")
    p_gen.add_argument(
        "--l", type=int, help="size parameter (braid: points; monomial: coordinates)"
    )
    p_gen.add_argument("--n", type=int, help="line count (pencil and generic)")
    p_gen.set_defaults(run=cmd_gen)

    p_lat = sub.add_parser(
        "lattice", parents=[out], help="rank-2 intersection data of an input"
    )
    p_lat.add_argument("input", help="arrangement, lattice, or monodromy JSON file")
    p_lat.set_defaults(run=cmd_lattice)

    p_comp = sub.add_parser(
        "components",
        parents=[out],
        help="enumerate depth-1 components and print a census",
    )
    p_comp.add_argument("input", help="arrangement, lattice, or monodromy JSON file")
    p_comp.add_argument(
        "--k", type=int, default=1, help="depth (enumeration supports only 1)"
    )
    p_comp.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_CAP,
        help=f"largest hyperplane count to enumerate (default {DEFAULT_CAP})",
    )
    p_comp.set_defaults(run=cmd_components)

    p_mem = sub.add_parser(
        "member",
        parents=[out],
        help="exact depth-k membership of one point",
    )
    p_mem.add_argument("input", help="monodromy, arrangement, or lattice JSON file")
    p_mem.add_argument(
        "--point",
        required=True,
        help=(
            "the point: a JSON array or comma-separated rationals "
            "(use --point=-1,1,... for a leading minus sign)"
        ),
    )
    p_mem.add_argument("--k", type=int, default=1, help="depth to test (default 1)")
    p_mem.set_defaults(run=cmd_member)

    p_rep = sub.add_parser(
        "report",
        parents=[out, sampling],
        help="consolidated self-check over the bundled example families",
    )
    p_rep.add_argument(
        "inputs",
        nargs="*",
        help="optional input files to check instead of the default battery",
    )
    p_rep.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_CAP,
        help=f"enumeration cap for file checks (default {DEFAULT_CAP})",
    )
    p_rep.set_defaults(run=cmd_report)

    return parser


# read by `_render`, not set on the subparsers: argparse parents share their
# action objects, so a `--format` default set on one subcommand would change
# it for every subcommand built from the same parent
_DEFAULT_FORMATS = {
    "gen": "json",
    "lattice": "json",
    "components": "text",
    "member": "json",
    "report": "text",
}


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
