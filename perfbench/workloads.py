"""The four benchmark workloads: seeded inputs, one batch of ops, and the
check each op's output must pass.

An op is one in-process call of `charvar.cli.main`: a `components` call in
the census workload, a `member` call in the other three.  `build` writes the
input files for a seed and returns the batch; the batch is the same list of
ops every time it runs, so per-layer counts repeat exactly.  Expected
answers come from outside the timed code: census totals asserted by
`charvar report`, recorded censuses of the seeded subarrangements
(`reference.json`), the point kind of every membership query, and the
independent `ResonanceSampler` route for resonance queries.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from charvar.alexander import grid_monodromy, load_monodromy, pencil_monodromy
from charvar.arrangement import gen_family, lattice_from_central3
from charvar.cli import main as cli_main
from charvar.components import cone_lattice, enumerate_first_resonance
from charvar.exactalg import ExactScalar
from charvar.osres import ResonanceSampler

HERE = Path(__file__).resolve().parent
WORKLOADS = ("census", "resonance", "member-rational", "member-torus")


@dataclass
class Op:
    """One CLI call and what its JSON output must say."""

    label: str
    argv: list[str]
    expect: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    ops: list[Op]
    inputs_digest: str
    check: object  # callable(op, parsed_output) -> error message or None
    resolve: object = None  # callable() filling expectations, run outside timing


def _digest(paths: list[Path], extra: object) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    h.update(json.dumps(extra, sort_keys=True).encode())
    return h.hexdigest()


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")
    return path


def _gen(workdir: Path, name: str, args: list[str]) -> Path:
    path = workdir / f"{name}.json"
    rc = cli_main(["gen", *args, "-o", str(path)])
    if rc != 0:
        raise RuntimeError(f"charvar gen {' '.join(args)} exited with {rc}")
    return path


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

# label -> (gen arguments, total, {dim: (local, nonlocal)}, essential), as
# asserted by `charvar report`
CENSUS_FIXED = {
    "diamond": (["--family", "diamond"], 9, {2: (6, 3)}, 0),
    "braid5": (["--family", "braid", "--l", "5"], 15, {2: (10, 5)}, 0),
    "monomial33": (["--family", "monomial", "--r", "3"], 16, {2: (12, 4)}, 4),
    "hessian": (["--family", "hessian"], 64, {3: (9, 1), 2: (0, 54)}, 1),
}
# parent arrangement and number of deleted hyperplanes, one op each; the
# deleted hyperplanes are drawn from the seed
CENSUS_DELETIONS = (("hessian", 1), ("hessian", 1), ("hessian", 2),
                    ("monomial43", 1), ("monomial43", 2))


def census_key(payload: dict) -> dict:
    """Order-free summary of a `components --format json` payload: the
    census block plus a digest of every component's kind, support,
    dimension and canonical equations."""
    comps = sorted(
        json.dumps(
            [c["kind"], c["support"], c["dimension"], c["linear_equations"]]
        )
        for c in payload["components"]
    )
    return {
        "census": payload["census"],
        "components_sha256": hashlib.sha256("\n".join(comps).encode()).hexdigest(),
        "all_verified": all(c["verified"] for c in payload["components"]),
    }


def subarrangement(source: Path, deleted: tuple[int, ...], target: Path) -> Path:
    """Write the arrangement of `source` minus the 1-based `deleted` planes."""
    data = json.loads(source.read_text(encoding="utf-8"))
    keep = [i for i in range(len(data["hyperplanes"])) if i + 1 not in deleted]
    data["hyperplanes"] = [data["hyperplanes"][i] for i in keep]
    if "labels" in data:
        data["labels"] = [data["labels"][i] for i in keep]
    return _write_json(target, data)


def _build_census(seed: int, workdir: Path) -> Workload:
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    rng = random.Random(f"{seed}:census")
    paths = {}
    ops = []
    for label, (args, total, by_dim, essential) in CENSUS_FIXED.items():
        paths[label] = _gen(workdir, label, args)
        ops.append(
            Op(
                label,
                ["components", str(paths[label]), "--format", "json"],
                {
                    "total": total,
                    "by_dim": by_dim,
                    "essential": essential,
                    "reference": reference[label],
                },
            )
        )
    paths["monomial43"] = _gen(workdir, "monomial43", ["--family", "monomial", "--r", "4"])
    for idx, (parent, count) in enumerate(CENSUS_DELETIONS):
        deleted = tuple(sorted(rng.sample(range(1, 13), count)))
        label = f"{parent}-" + ",".join(map(str, deleted))
        path = subarrangement(paths[parent], deleted, workdir / f"sub{idx}.json")
        ops.append(
            Op(
                label,
                ["components", str(path), "--format", "json"],
                {"reference": reference[label]},
            )
        )
    files = sorted(workdir.glob("*.json"))
    return Workload("census", ops, _digest(files, [op.label for op in ops]), _check_census)


def _check_census(op: Op, payload: dict) -> str | None:
    census = payload["census"]
    want = op.expect
    if "total" in want:
        got_by_dim = {
            row["dim"]: (row["local"], row["nonlocal"]) for row in census["by_dim"]
        }
        if (census["total"], got_by_dim, census["essential"]) != (
            want["total"], want["by_dim"], want["essential"]
        ):
            return f"census {census} differs from the report's {want['total']}"
    got = census_key(payload)
    if got != want["reference"]:
        return f"census of {op.label} differs from the recorded reference"
    if census["flagged"] or not got["all_verified"]:
        return f"{op.label}: flagged or unverified components"
    return None


# ---------------------------------------------------------------------------
# resonance
# ---------------------------------------------------------------------------

# lattice -> weight kinds, each queried at k = 1 and k = 2
RESONANCE_MIX = {
    "hessian": ("flat4", "generic"),
    "monomial43": ("flat4", "flat3", "generic"),
    "braid5": ("flat3", "nonlocal", "generic"),
}


def _nonzero(rng: random.Random, bound: int) -> int:
    return rng.choice([v for v in range(-bound, bound + 1) if v])


def _flat_weight(rng: random.Random, n: int, flats: list, size: int) -> list[int]:
    flat = rng.choice([f for f in flats if len(f) == size])
    while True:
        vals = [_nonzero(rng, 6) for _ in flat[:-1]]
        if sum(vals):
            break
    lam = [0] * n
    for i, v in zip(flat[:-1], vals):
        lam[i] = v
    lam[flat[-1]] = -sum(vals)
    return lam


def _generic_weight(rng: random.Random, n: int) -> list[int]:
    while True:
        lam = [_nonzero(rng, 6) for _ in range(n)]
        if sum(lam):
            return lam


def _nonlocal_weight(rng: random.Random, comps: list) -> list[int]:
    comp = rng.choice(comps)
    coeffs = [_nonzero(rng, 4) for _ in comp.basis]
    return [sum(c * row[i] for c, row in zip(coeffs, comp.basis))
            for i in range(len(comp.basis[0]))]


def _build_resonance(seed: int, workdir: Path) -> Workload:
    rng = random.Random(f"{seed}:resonance")
    lattices = {
        "hessian": lattice_from_central3(gen_family("hessian")),
        "monomial43": lattice_from_central3(gen_family("monomial", r=4)),
        "braid5": gen_family("braid", ell=5),
    }
    nonlocals = enumerate_first_resonance(lattices["braid5"]).nonlocals
    ops = []
    files = []
    for label, kinds in RESONANCE_MIX.items():
        lat = lattices[label]
        path = _write_json(workdir / f"{label}.json", lat.to_json())
        files.append(path)
        for kind, k in itertools.product(kinds, (1, 2)):
            if kind.startswith("flat"):
                lam = _flat_weight(rng, lat.n, lat.flats, int(kind[4:]))
            elif kind == "nonlocal":
                lam = _nonlocal_weight(rng, nonlocals)
            else:
                lam = _generic_weight(rng, lat.n)
            ops.append(
                Op(
                    f"{label}:{kind}:k{k}",
                    ["member", str(path), "--point", json.dumps(lam), "--k", str(k)],
                    {"lattice": label, "weights": lam, "k": k},
                )
            )

    def resolve():
        """Expected rank and verdict of every query by the sampler route."""
        samplers = {label: ResonanceSampler(lat) for label, lat in lattices.items()}
        for op in ops:
            sampler = samplers[op.expect["lattice"]]
            rank = sampler.rank_at(op.expect["weights"])
            op.expect["rank"] = rank
            op.expect["in_Vk"] = rank <= sampler.npairs - op.expect["k"]

    extra = [op.argv[3] for op in ops]
    return Workload("resonance", ops, _digest(files, extra), _check_member, resolve)


# ---------------------------------------------------------------------------
# membership at torus points
# ---------------------------------------------------------------------------

TORSION_POINT = [-1, 1, 1, -1, -1, 1, -1]  # diamond, central labels, in V_2
MEMBER_INPUTS = ("diamond", "braid4_affine", "pencil6", "grid33")
MEMBER_KINDS = {
    "diamond": ("on", "off", "torsion", "lift"),
    "braid4_affine": ("on", "off", "lift"),
    "pencil6": ("on", "off"),
    "grid33": ("on", "off"),
}
TORUS_ORDERS = tuple(range(3, 13))
POINTS_PER_CELL = 2  # seeded points per (input, kind, k)
ATTEMPTS = 10_000  # draws before a point kind is declared unreachable


def _monodromy_inputs(workdir: Path) -> dict:
    """label -> (CLI input argument, MonodromyInput, written file or None)."""
    out = {}
    for label in ("diamond", "braid4_affine"):
        name = f"{label}_monodromy"
        out[label] = (f"fixture:{name}", load_monodromy(name), None)
    for label, m in (("pencil6", pencil_monodromy(6)), ("grid33", grid_monodromy(3, 3))):
        path = _write_json(workdir / f"{label}.json", m.to_json())
        out[label] = (str(path), m, path)
    return out


class _Torus:
    """Points of one input's character torus, in the coordinates of the
    cone of its affine lattice (strands first, the line at infinity last),
    and the components those points are placed on or kept off."""

    def __init__(self, m):
        self.m = m
        self.n = m.n
        self.components = enumerate_first_resonance(cone_lattice(m.lattice())).components
        self.equations = [comp.torus_equations() for comp in self.components]

    def containing(self, contains) -> list[int]:
        """Indices of the components whose every equation `contains` accepts."""
        return [
            idx for idx, eqs in enumerate(self.equations) if all(contains(eq) for eq in eqs)
        ]

    def visiting_order(self) -> list[int]:
        """Component indices with local and non-local ones alternating."""
        by_kind = [
            [i for i, c in enumerate(self.components) if c.kind == kind]
            for kind in ("local", "nonlocal")
        ]
        order = []
        for pair in itertools.zip_longest(*by_kind):
            order.extend(i for i in pair if i is not None)
        return order

    def free(self, target: int | None) -> tuple[int, ...]:
        """Coordinates a point may move: the strands off the locus, the
        support of the component on it."""
        if target is None:
            return tuple(range(self.n))
        return self.components[target].support

    def lift_order(self, central: list) -> list:
        """Reorder cone coordinates into the central labels of the lift."""
        lift = self.m.lift
        out = [None] * (self.n + 1)
        for strand, label in enumerate(lift["strand_to_central"]):
            out[label - 1] = central[strand]
        out[lift["infinity"] - 1] = central[self.n]
        return out


def _rational_point(rng: random.Random, torus: _Torus, target: int | None):
    """A central point (n + 1 Fractions, product 1) on component `target`
    alone, or off every component when `target` is None.  Every coordinate
    free to move (the strands off the locus, the support on a component)
    differs from 1, so the cost of a query depends little on the draw."""
    for _ in range(ATTEMPTS):
        if target is None:
            exps = []
            for _ in range(2):
                row = [rng.randint(-3, 3) for _ in range(torus.n)]
                exps.append(row + [-sum(row)])
            point = [Fraction(2) ** a * Fraction(3) ** b for a, b in zip(*exps)]
        else:
            basis = torus.components[target].basis
            params = [Fraction(rng.randint(2, 9), rng.randint(2, 9)) for _ in basis]
            point = []
            for i in range(torus.n + 1):
                value = Fraction(1)
                for row, u in zip(basis, params):
                    value *= u ** row[i]
                point.append(value)
        if any(point[i] == 1 for i in torus.free(target)):
            continue

        def contains(eq, point=point):
            acc = Fraction(1)
            for c, e in zip(point, eq):
                acc *= c ** e
            return acc == 1

        if torus.containing(contains) == ([] if target is None else [target]):
            return point
    raise RuntimeError(f"no rational point found for component {target}")


def _torus_point(rng: random.Random, torus: _Torus, target: int | None, order: int):
    """Like `_rational_point`, with coordinates powers of a primitive
    order-th root of unity, given as exponents."""
    for _ in range(ATTEMPTS):
        if target is None:
            exps = [rng.randrange(order) for _ in range(torus.n)]
            exps.append(-sum(exps) % order)
        else:
            basis = torus.components[target].basis
            params = [rng.randrange(order) for _ in basis]
            exps = [
                sum(a * row[i] for a, row in zip(params, basis)) % order
                for i in range(torus.n + 1)
            ]
        if any(exps[i] == 0 for i in torus.free(target)):
            continue
        found = torus.containing(
            lambda eq: sum(e * x for e, x in zip(eq, exps)) % order == 0
        )
        if found == ([] if target is None else [target]):
            return exps
    raise RuntimeError(f"no order-{order} point found for component {target}")


def _point_json(values) -> list:
    out = []
    for v in values:
        if isinstance(v, ExactScalar):
            out.append(v.to_json())
        elif isinstance(v, Fraction) and v.denominator != 1:
            out.append(str(v))
        else:
            out.append(int(v))
    return out


def _build_member(seed: int, workdir: Path, torus_points: bool) -> Workload:
    name = "member-torus" if torus_points else "member-rational"
    rng = random.Random(f"{seed}:{name}")
    inputs = _monodromy_inputs(workdir)
    ops = []
    schedule = itertools.cycle(TORUS_ORDERS)
    for label in MEMBER_INPUTS:
        arg, m, _path = inputs[label]
        torus = _Torus(m)
        # on-locus points visit the components in turn, local and non-local
        # alternating, so the seed moves the points but not the mix
        targets = itertools.cycle(torus.visiting_order())
        for kind in MEMBER_KINDS[label]:
            if torus_points and kind == "torsion":
                continue
            for k, copy in itertools.product((1, 2), range(POINTS_PER_CELL)):
                if kind == "torsion" and copy:
                    continue  # the torsion point is one fixed point
                order = next(schedule) if torus_points else 1
                target = None if kind in ("off", "torsion") else next(targets)
                depth = 0 if target is None else torus.components[target].dim - 1
                if kind == "torsion":
                    central, depth = [Fraction(v) for v in TORSION_POINT], 2
                elif torus_points:
                    exps = _torus_point(rng, torus, target, order)
                    central = [ExactScalar.root_of_unity(order, e) for e in exps]
                else:
                    central = _rational_point(rng, torus, target)
                if kind == "lift":
                    point = torus.lift_order(central)
                elif kind == "torsion":
                    point = central
                else:
                    point = central[: torus.n]
                tag = f"{label}:{kind}:k{k}:{copy}" + (f":m{order}" if torus_points else "")
                ops.append(
                    Op(
                        tag,
                        ["member", arg, "--point", json.dumps(_point_json(point)),
                         "--k", str(k)],
                        {"in_Vk": k <= depth, "lifted": len(point) == m.n + 1},
                    )
                )
    files = [p for _a, _m, p in inputs.values() if p is not None]
    extra = [[op.label, op.argv[3], op.argv[5]] for op in ops]
    return Workload(name, ops, _digest(files, extra), _check_member)


def _check_member(op: Op, verdict: dict) -> str | None:
    want = op.expect
    if verdict.get("consistent") is not True:
        return f"{op.label}: verdict not consistent: {verdict}"
    if verdict["in_Vk"] != want["in_Vk"]:
        return f"{op.label}: in_Vk {verdict['in_Vk']}, expected {want['in_Vk']}"
    if "lifted" in want and verdict.get("lifted") != want["lifted"]:
        return f"{op.label}: lifted {verdict.get('lifted')}, expected {want['lifted']}"
    if "rank" in want and verdict["rank"] != want["rank"]:
        return f"{op.label}: rank {verdict['rank']}, sampler rank {want['rank']}"
    return None


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Write the inputs of one workload for one seed and return its batch."""
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "census":
        return _build_census(seed, workdir)
    if name == "resonance":
        return _build_resonance(seed, workdir)
    if name == "member-rational":
        return _build_member(seed, workdir, torus_points=False)
    if name == "member-torus":
        return _build_member(seed, workdir, torus_points=True)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
