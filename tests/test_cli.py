"""End-to-end tests for the command-line front end.

Every test drives ``charvar.cli.main`` in-process with an argv list and
checks stdout, stderr, exit codes, and written files.
"""

from __future__ import annotations

import argparse
import json
import random
import time
from fractions import Fraction

import pytest

from charvar.alexander import (
    BRAID_LENGTH_CAP,
    CERTIFICATE_PRIME_CAP,
    load_monodromy,
    pencil_monodromy,
    presentation_rank,
    relator_rank,
)
from charvar.arrangement import decone, gen_family
from charvar.cli import (
    LATTICE_INPUT_CAP,
    MEMBER_HYPERPLANE_CAP,
    MEMBER_STRAND_CAP,
    _components_payload,
    _json_text,
    main,
)
from charvar.components import DEFAULT_CAP, Component, format_torus_equation
from charvar.exactalg import modular_prime, root_of_unity


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def test_gen_braid_emits_the_lattice_json(capsys):
    code, out, err = run(capsys, "gen", "--family", "braid", "--l", "4")
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert obj["n"] == 6
    assert len(obj["flats"]) == 4


def test_gen_diamond_emits_the_arrangement_json(capsys):
    code, out, _ = run(capsys, "gen", "--family", "diamond")
    assert code == 0
    obj = json.loads(out)
    assert obj["flavor"] == "central"
    assert len(obj["hyperplanes"]) == 7


def test_gen_monomial_defaults_to_three_coordinates(capsys):
    code, out, _ = run(capsys, "gen", "--family", "monomial", "--r", "2")
    assert code == 0
    assert len(json.loads(out)["hyperplanes"]) == 6


def test_gen_falk_pair_emits_two_lattices(capsys):
    code, out, _ = run(capsys, "gen", "--family", "falk_pair")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["pair"]) == 2
    assert all(part["n"] == 7 for part in obj["pair"])


def test_gen_writes_the_output_file(capsys, tmp_path):
    target = tmp_path / "braid4.json"
    code, out, _ = run(capsys, "gen", "--family", "braid", "--l", "4", "-o", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["n"] == 6


def test_gen_text_format_summarises(capsys):
    code, out, _ = run(capsys, "gen", "--family", "diamond", "--format", "text")
    assert code == 0
    assert out.startswith("central arrangement: 7 hyperplanes in dimension 3")


def test_gen_rejects_missing_and_foreign_parameters(capsys):
    code, _, err = run(capsys, "gen", "--family", "braid")
    assert code == 2 and "requires --l" in err
    code, _, err = run(capsys, "gen", "--family", "pencil", "--n", "4", "--r", "2")
    assert code == 2 and "does not take --r" in err
    code, _, err = run(capsys, "gen", "--family", "nonesuch")
    assert code == 2 and "unknown family" in err


# ---------------------------------------------------------------------------
# lattice
# ---------------------------------------------------------------------------


@pytest.fixture
def diamond_file(tmp_path):
    path = tmp_path / "diamond.json"
    path.write_text(json.dumps(gen_family("diamond").to_json()))
    return str(path)


@pytest.fixture
def braid4_file(tmp_path):
    path = tmp_path / "braid4.json"
    path.write_text(json.dumps(gen_family("braid", ell=4).to_json()))
    return str(path)


@pytest.fixture
def monodromy_file(tmp_path):
    path = tmp_path / "mono.json"
    path.write_text(json.dumps(load_monodromy("diamond_monodromy").to_json()))
    return str(path)


def test_lattice_of_a_central_arrangement(capsys, diamond_file):
    code, out, _ = run(capsys, "lattice", diamond_file)
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 7
    assert len(obj["flats"]) == 6


def test_lattice_passes_a_lattice_through(capsys, braid4_file):
    code, out, _ = run(capsys, "lattice", braid4_file)
    assert code == 0
    assert json.loads(out) == json.loads(open(braid4_file).read())


def test_lattice_of_monodromy_input(capsys, monodromy_file):
    code, out, _ = run(capsys, "lattice", monodromy_file)
    assert code == 0
    assert json.loads(out)["n"] == 6


def test_lattice_of_an_affine_arrangement_keeps_parallels(capsys, tmp_path):
    affine = decone(gen_family("diamond"), at=1).arrangement
    path = tmp_path / "affine.json"
    path.write_text(json.dumps(affine.to_json()))
    code, out, _ = run(capsys, "lattice", str(path))
    assert code == 0
    assert json.loads(out)["parallel_pairs"]


def _zeta(order, *coeffs):
    return {"order": order, "coeffs": [str(c) for c in coeffs]}


@pytest.mark.parametrize(
    "obj, code, out, err",
    [
        (
            # the first four planes share one line
            {
                "flavor": "central",
                "hyperplanes": [
                    [_zeta(6, 0, -1), _zeta(6, 1, -1), _zeta(6, 0, -1), 0],
                    [_zeta(3, 0, 1), -1, 2, 0],
                    [_zeta(3, 0, -1), 1, 1, 0],
                    [_zeta(3, 0, -1), 1, 0, 0],
                    [1, 0, 0, 0],
                ],
            },
            0,
            "lattice: 5 hyperplanes, 1 flats of multiplicity >= 3, 0 parallel pairs\n"
            "  flat {1,2,3,4}\n",
            "",
        ),
        (
            # lines 2 and 3 are one line, written at orders 3 and 6
            {
                "flavor": "affine",
                "hyperplanes": [
                    [_zeta(6, 0, 1), -1, 2],
                    [_zeta(3, 0, -1), _zeta(3, 0, 1), _zeta(3, -1, -2)],
                    [_zeta(6, 0, -1), _zeta(6, 0, 1), _zeta(6, -1, -1)],
                    [1, 0, _zeta(3, 0, 1)],
                ],
            },
            2,
            "",
            "error: duplicate hyperplane\n",
        ),
        (
            # zeta_3 x + y and zeta_6^2 x + y, with zeta_6^2 = zeta_6 - 1
            {
                "flavor": "affine",
                "hyperplanes": [[_zeta(3, 0, 1), 1, 0], [_zeta(6, -1, 1), 1, 0]],
            },
            2,
            "",
            "error: duplicate hyperplane\n",
        ),
    ],
    ids=["central-one-flat", "affine-duplicate", "duplicate-pair"],
)
def test_lattice_of_coefficients_written_at_different_orders(
    capsys, tmp_path, obj, code, out, err
):
    """Equal cyclotomic values computed at different orders (zeta_3 and
    zeta_6^2) group together: one flat, or a duplicate refused."""
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(obj))
    assert run(capsys, "lattice", str(path), "--format", "text") == (code, out, err)


# five planes, one coefficient zeta_2310 on its power basis (phi = 480): a
# file of about 1 KB whose lattice build, uncapped, runs for minutes
_FIELD_ORDER_2310 = {
    "flavor": "central",
    "hyperplanes": [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [1, 1, 1, 0],
        [{"order": 2310, "coeffs": ["0", "1"] + ["0"] * 478}, 2, 3, 0],
    ],
}


@pytest.mark.parametrize(
    "argv",
    [["lattice"], ["components"], ["member", "--point=1,1,1,1,1"]],
    ids=["lattice", "components", "member"],
)
def test_arrangement_of_large_field_order_is_refused_quickly(capsys, tmp_path, argv):
    path = tmp_path / "order2310.json"
    path.write_text(json.dumps(_FIELD_ORDER_2310))
    start = time.perf_counter()
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err.startswith("error:") and "field order 120 (got 2310)" in err


@pytest.mark.parametrize(
    "entry, message",
    [
        ('"1/0"', "nonzero denominator"),
        ('{"order": 3, "coeffs": ["1", "1/0"]}', "nonzero denominator"),
        ('"1e30000000"', "cannot parse a rational"),
        ("1" * 4301, "not valid JSON"),
    ],
    ids=["zero-denominator", "zero-denominator-in-coeffs", "exponent", "4301-digits"],
)
def test_arrangement_scalars_take_only_their_documented_forms(
    capsys, tmp_path, entry, message
):
    """A scalar is an int or a string [-]digits[/digits]: a zero
    denominator, an exponent or an int past Python's digit limit is a
    validation error, and read no further."""
    path = tmp_path / "bad.json"
    rows = "[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 1, %s, 0]" % entry
    path.write_text('{"flavor": "central", "hyperplanes": [%s]}' % rows)
    start = time.perf_counter()
    code, out, err = run(capsys, "lattice", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error:") and message in err


# ---------------------------------------------------------------------------
# components
# ---------------------------------------------------------------------------


def test_components_census_line_for_braid5(capsys, tmp_path):
    path = tmp_path / "braid5.json"
    path.write_text(json.dumps(gen_family("braid", ell=5).to_json()))
    code, out, _ = run(capsys, "components", str(path))
    assert code == 0
    assert out.splitlines()[0] == "15 components, dim 2: 15 (local 10, nonlocal 5)"
    assert sum(1 for line in out.splitlines() if line.startswith("local ")) == 10
    assert sum(1 for line in out.splitlines() if line.startswith("nonlocal ")) == 5


def test_components_json_payload(capsys, diamond_file):
    code, out, _ = run(capsys, "components", diamond_file, "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["census"]["total"] == 9
    assert obj["census"]["by_dim"] == [
        {"dim": 2, "count": 9, "local": 6, "nonlocal": 3}
    ]
    assert obj["coned"] is False
    assert len(obj["components"]) == 9
    assert obj["flagged"] == []


def test_components_cones_affine_input_with_a_notice(capsys, tmp_path):
    affine = decone(gen_family("diamond"), at=1).arrangement
    path = tmp_path / "affine.json"
    path.write_text(json.dumps(affine.to_json()))
    code, out, _ = run(capsys, "components", str(path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("note: affine input")
    assert lines[1] == "9 components, dim 2: 9 (local 6, nonlocal 3)"


def test_components_rejects_depth_two(capsys, braid4_file):
    code, _, err = run(capsys, "components", braid4_file, "--k", "2")
    assert code == 2
    assert "member" in err


def test_components_cap_exceeded_exits_three(capsys, braid4_file):
    code, _, err = run(capsys, "components", braid4_file, "--cap", "3")
    assert code == 3
    assert "cap" in err


def test_components_on_a_pair_file(capsys, tmp_path):
    pair = gen_family("falk_pair")
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"pair": [lat.to_json() for lat in pair]}))
    code, out, _ = run(capsys, "components", str(path))
    assert code == 0
    assert "[A] 4 components, dim 2: 4 (local 4, nonlocal 0)" in out
    assert "[B] 4 components, dim 2: 4 (local 4, nonlocal 0)" in out


def _component_route_line(data: dict) -> str:
    """A component's text line built through `Component` and its torus
    equations, independently of the JSON's `monomial_equations`."""
    comp = Component.from_json(data)
    supp = "{" + ",".join(str(i + 1) for i in comp.support) + "}"
    line = f"{comp.kind} dim {comp.dim} support {supp}"
    eqs = comp.torus_equations()
    if eqs:
        line += "  " + "; ".join(format_torus_equation(eq) for eq in eqs)
    return line


_FALK_CENSUS = ["4 components, dim 2: 4 (local 4, nonlocal 0)"]


@pytest.mark.parametrize(
    "source, headers",
    [
        (
            gen_family("hessian").to_json(),
            [[
                "64 components, dim 3: 10 (local 9, nonlocal 1), "
                "dim 2: 54 (local 0, nonlocal 54)",
                "essential: 1",
            ]],
        ),
        (
            gen_family("diamond").to_json(),
            [["9 components, dim 2: 9 (local 6, nonlocal 3)"]],
        ),
        (
            decone(gen_family("diamond"), at=1).arrangement.to_json(),
            [[
                "note: affine input; added the line at infinity as hyperplane 7 "
                "before enumeration",
                "9 components, dim 2: 9 (local 6, nonlocal 3)",
            ]],
        ),
        (
            {"pair": [lat.to_json() for lat in gen_family("falk_pair")]},
            [_FALK_CENSUS, _FALK_CENSUS],
        ),
    ],
    ids=["hessian", "diamond", "affine", "pair"],
)
def test_components_text_matches_the_component_route(capsys, tmp_path, source, headers):
    """The text lines are the census header and, per component, the line
    that `Component.torus_equations` gives for the JSON component."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(source))
    code, text, _ = run(capsys, "components", str(path), "--format", "text")
    assert code == 0
    _, raw, _ = run(capsys, "components", str(path), "--format", "json")
    payload = json.loads(raw)
    if "pair" in payload:
        parts, tags = payload["pair"], ["[A] ", "[B] "]
    else:
        parts, tags = [payload], [""]
    want = []
    for tag, part, header in zip(tags, parts, headers):
        lines = header + [_component_route_line(c) for c in part["components"]]
        want.extend(tag + line for line in lines)
    assert text.splitlines() == want


@pytest.mark.parametrize("flavor, n, counted", [("central", 300, 300), ("affine", 300, 301)])
def test_components_refuses_a_large_arrangement_before_its_lattice(
    capsys, tmp_path, flavor, n, counted
):
    # the lattice of 300 planes takes C(300, 2) cross products; the cap is
    # checked first, and an affine input with parallel lines counts the line at
    # infinity that coning would add, as the enumeration's own check does
    rng = random.Random(300)
    planes = [[rng.randint(-10**6, 10**6) for _ in range(3)] for _ in range(n)]
    if flavor == "central":
        planes = [row + [0] for row in planes]
    else:
        planes[-1] = [2 * planes[0][0], 2 * planes[0][1], planes[0][2] + 1]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"flavor": flavor, "hyperplanes": planes}))
    start = time.perf_counter()
    code, out, err = run(capsys, "components", str(path))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err == (
        f"error: arrangement has {counted} hyperplanes, "
        f"enumeration cap is {DEFAULT_CAP}\n"
    )


def test_components_default_cap_matches_the_library(capsys, tmp_path):
    lat_json = {"n": DEFAULT_CAP + 1, "flats": []}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(lat_json))
    code, _, err = run(capsys, "components", str(path))
    assert code == 3 and "cap" in err
    code, out, _ = run(capsys, "components", str(path), "--cap", str(DEFAULT_CAP + 1))
    assert code == 0
    assert out.splitlines()[0] == "0 components"


# ---------------------------------------------------------------------------
# member
# ---------------------------------------------------------------------------


def test_member_torsion_point_via_packaged_fixture(capsys):
    code, out, _ = run(
        capsys,
        "member",
        "fixture:diamond_monodromy",
        "--point=[-1,1,1,-1,-1,1,-1]",
        "--k",
        "2",
    )
    assert code == 0
    verdict = json.loads(out)
    assert verdict["in_Vk"] is True
    assert verdict["criteria"]["delta"] is True
    assert verdict["criteria"]["partial2"] is True
    assert "resonance" not in verdict["criteria"]
    assert verdict["consistent"] is True
    assert verdict["lifted"] is True
    # a +-1 point is a unit point: on the locus the relator rank mod p1 is
    # certified exact by the norm bound, and both criteria are read from it
    p1 = modular_prime(1)
    assert verdict["certificate"] == {"delta": f"mod {p1}", "partial2": f"mod {p1}"}


@pytest.mark.parametrize("k", [5, 6])
def test_member_at_the_identity_is_consistent_at_every_depth(capsys, k):
    # at k = n = 6 the relator criterion (rank 0 <= n - k - 1) fails at
    # the point 1, so it is not applied there: partial2 is n/a
    code, out, _ = run(
        capsys, "member", "fixture:diamond_monodromy", "--point=[1,1,1,1,1,1]", "--k", str(k)
    )
    assert code == 0
    verdict = json.loads(out)
    assert verdict["in_Vk"] is True and verdict["consistent"] is True
    assert verdict["criteria"]["partial2"] is (True if k == 5 else None)


def _twisted_triple_point(tmp_path):
    """One triple point (1, 2, 3) on 6 strands conjugated by 50 unit
    twists, (1,6)^25 (2,5)^25, as a monodromy file."""
    path = tmp_path / "twisted.json"
    generator = {"X": [1, 2, 3], "delta": [["A", 1, 6, 25], ["A", 2, 5, 25]]}
    path.write_text(json.dumps({"n": 6, "generators": [generator]}))
    return path


def test_member_refuses_a_certificate_of_too_many_primes_quickly(capsys, tmp_path):
    # at this order-120 point (a, b, 1/(ab), 1, 1, 1) of the triple point's
    # local component its certificate is predicted to need 1617 primes
    path = _twisted_triple_point(tmp_path)
    a, b = (Fraction(2, 3) * root_of_unity(120, e) for e in (7, 8))
    point = [c.to_json() for c in (a, b, (a * b).inverse())] + ["1"] * 3
    start = time.perf_counter()
    code, out, err = run(capsys, "member", str(path), f"--point={json.dumps(point)}")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err.startswith(
        f"error: membership certificates are limited to {CERTIFICATE_PRIME_CAP} primes"
    )


def test_member_decides_a_long_conjugated_triple_point_at_one_prime(capsys, tmp_path):
    """At the generic order-120 point (2/3) * zeta_120^(7+i) the relator
    rows of the twisted triple point have their largest possible rank,
    b2 = 2 (exactly 2 over Q(zeta_120), by `relator_rank`, a check too
    slow to run here), at the first prime: the presentation rank is
    C(5,2) + 2 = 12, both criteria hold at depth 1, and one prime
    certifies it."""
    path = _twisted_triple_point(tmp_path)
    point = [(Fraction(2, 3) * root_of_unity(120, 7 + i)).to_json() for i in range(6)]
    start = time.perf_counter()
    code, out, err = run(capsys, "member", str(path), f"--point={json.dumps(point)}")
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (0, "")
    verdict = json.loads(out)
    assert (verdict["rank"], verdict["in_Vk"], verdict["consistent"]) == (12, True, True)
    assert verdict["criteria"] == {"delta": True, "partial2": True}
    route = verdict["certificate"]["delta"]
    assert "*" not in route and verdict["certificate"]["partial2"] == route


def test_member_rational_point_on_a_component_is_certified_by_primes(capsys):
    """A rational point on a non-local component of diamond (parameters 2
    and 3 on its basis (1, 0, 0, 1, -1, -1), (0, 1, 1, 0, -1, -1)): its
    coordinates 1/6 are not units, and the deficient ranks mod p1 are made
    exact by the primes after it, as many as the relator rows' majorant
    bound asks for; both criteria are read from that one rank."""
    code, out, _ = run(
        capsys, "member", "fixture:diamond_monodromy", "--point=2,3,3,2,1/6,1/6"
    )
    assert code == 0
    verdict = json.loads(out)
    assert verdict["in_Vk"] is True and verdict["consistent"] is True
    point = [2, 3, 3, 2, Fraction(1, 6), Fraction(1, 6)]
    assert verdict["rank"] == presentation_rank(load_monodromy("diamond_monodromy"), point)
    primes = [modular_prime(1)]
    while len(primes) < 2:
        primes.append(modular_prime(1, primes[-1]))
    # the majorant bound of the relator polynomials needs two primes
    route = "mod " + "*".join(map(str, primes))
    assert verdict["certificate"] == {"delta": route, "partial2": route}


def test_member_skips_the_default_prime_where_it_does_not_apply(capsys, tmp_path):
    """On pencil(4), a coordinate equal to the default first prime p1 maps
    to 0 mod p1, and its inverse has p1 in the denominator: p1 does not
    apply, and the certificate names the primes after it instead (one off
    the locus, as many as the norm bound asks for on it)."""
    m = pencil_monodromy(4)
    path = tmp_path / "pencil4.json"
    path.write_text(json.dumps(m.to_json()))
    p1 = modular_prime(1)
    for point, on in (
        ([p1, 3, 5, 7], False),
        ([Fraction(1, p1), 3, 5, 7], False),
        ([p1, Fraction(1, p1), 1, 1], True),
    ):
        arg = ",".join(map(str, point))
        code, out, _ = run(capsys, "member", str(path), f"--point={arg}")
        assert code == 0
        verdict = json.loads(out)
        rank = presentation_rank(m, point)
        partial2 = relator_rank(m, point) <= m.n - 2
        assert (verdict["rank"], verdict["in_Vk"], rank <= 5) == (rank, on, on)
        assert verdict["criteria"] == {"delta": on, "partial2": partial2}
        for route in verdict["certificate"].values():
            primes = [int(p) for p in route.removeprefix("mod ").split("*")]
            want = [modular_prime(1, p1)]
            while len(want) < len(primes):
                want.append(modular_prime(1, want[-1]))
            assert primes == want and (len(primes) > 1) == on
            assert str(p1) not in route and "exact" not in route


def test_member_accepts_comma_separated_rationals(capsys, monodromy_file):
    code, out, _ = run(
        capsys, "member", monodromy_file, "--point=-1,1,1,-1,-1,1,-1", "--k", "2"
    )
    assert code == 0
    assert json.loads(out)["in_Vk"] is True


def test_member_identity_is_inside_at_depth_one(capsys, monodromy_file):
    code, out, _ = run(capsys, "member", monodromy_file, "--point=1,1,1,1,1,1")
    assert code == 0
    verdict = json.loads(out)
    assert verdict["in_Vk"] is True
    assert verdict["rank"] == 9
    assert verdict["lifted"] is False


def test_member_generic_point_is_outside(capsys, monodromy_file):
    code, out, _ = run(capsys, "member", monodromy_file, "--point=2,3,5,7,11,13")
    assert code == 0
    verdict = json.loads(out)
    assert verdict["in_Vk"] is False
    assert verdict["rank"] == 15
    # off the locus the full relator rank mod p1 decides both criteria
    modular = f"mod {modular_prime(1)}"
    assert verdict["certificate"] == {"delta": modular, "partial2": modular}


def test_member_relator_route_nulls_out_beyond_its_window(capsys, monodromy_file):
    code, out, _ = run(
        capsys, "member", monodromy_file, "--point=1,1,1,1,1,1", "--k", "7"
    )
    assert code == 0
    verdict = json.loads(out)
    assert verdict["criteria"]["partial2"] is None
    assert verdict["consistent"] is True
    assert verdict["certificate"] == {"delta": f"mod {modular_prime(1)}", "partial2": None}


def test_main_calls_in_sequence_share_no_state(capsys, monodromy_file):
    """The parser is built once per process: an argparse error, then an
    explicit --k, leave nothing behind for the calls after them."""
    with pytest.raises(SystemExit) as exc:
        main(["member", monodromy_file])  # --point is required
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, "member", monodromy_file, "--point=1,1,1,1,1,1")
    assert code == 0 and json.loads(out)["k"] == 1
    torsion = "--point=-1,1,1,-1,-1,1,-1"
    code, out, _ = run(capsys, "member", monodromy_file, torsion, "--k", "2")
    assert code == 0 and json.loads(out)["k"] == 2
    code, out, _ = run(capsys, "member", monodromy_file, torsion)
    assert code == 0 and json.loads(out)["k"] == 1


def test_member_weight_on_a_lattice_input(capsys, braid4_file):
    code, out, _ = run(capsys, "member", braid4_file, "--point=1,-1,0,0,0,0")
    assert code == 0
    verdict = json.loads(out)
    assert verdict["route"] == "resonance"
    assert verdict["in_Vk"] is True
    assert verdict["criteria"] == {"delta": None, "partial2": None, "resonance": True}
    code, out, _ = run(capsys, "member", braid4_file, "--point=1,1,-2,0,1,-1")
    assert json.loads(out)["in_Vk"] is False


def test_member_zero_weight_rank_is_b2(capsys, tmp_path):
    """The zero weight has rank b2 = 39 on the hessian lattice, so it lies
    in V_k exactly for k <= C(12,2) - 39 = 27; it is not read from
    h1(A, 0) = 12, which would give rank 54."""
    path = tmp_path / "hessian.json"
    path.write_text(json.dumps(gen_family("hessian").to_json()))
    zero = ",".join(["0"] * 12)
    for k, inside in ((1, True), (27, True), (28, False)):
        code, out, _ = run(capsys, "member", str(path), f"--point={zero}", "--k", str(k))
        assert code == 0
        verdict = json.loads(out)
        assert (verdict["rank"], verdict["in_Vk"]) == (39, inside)


def test_member_refuses_a_misspelt_lattice_key(capsys, tmp_path):
    """Two parallel lines among four: read with its parallel pair the
    weight e1 - e2 is resonant at rank 5; the misspelt key is refused
    instead of read as a generic arrangement (rank 6, not resonant)."""
    intended = tmp_path / "parallel.json"
    intended.write_text(json.dumps({"n": 4, "flats": [], "parallel_pairs": [[1, 2]]}))
    code, out, _ = run(capsys, "member", str(intended), "--point=1,-1,0,0", "--k", "1")
    assert code == 0
    assert (json.loads(out)["rank"], json.loads(out)["in_Vk"]) == (5, True)
    misspelt = tmp_path / "misspelt.json"
    misspelt.write_text(json.dumps({"n": 4, "flats": [], "parallel": [[1, 2]]}))
    code, out, err = run(capsys, "member", str(misspelt), "--point=1,-1,0,0", "--k", "1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "'parallel'" in err


def test_member_refuses_a_large_lattice_quickly(capsys, tmp_path):
    path = tmp_path / "generic.json"
    path.write_text(json.dumps({"n": 100000, "flats": []}))
    start = time.perf_counter()
    code, out, err = run(capsys, "member", str(path), "--point=1,-1", "--k", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and f"{MEMBER_HYPERPLANE_CAP} hyperplanes" in err
    assert "(got 100000)" in err


def test_one_flat_of_every_line_is_refused_before_its_pairs_are_mapped(
    capsys, tmp_path
):
    # one flat through all 2000 lines holds C(2000, 2) pairs; loading maps
    # none of them, so both caps refuse at once
    path = tmp_path / "pencil.json"
    path.write_text(json.dumps({"n": 2000, "flats": [list(range(1, 2001))]}))
    refusals = {
        ("member", str(path), "--point=1,-1"): (
            f"error: member on arrangement or lattice input is limited to "
            f"{MEMBER_HYPERPLANE_CAP} hyperplanes (got 2000)\n"
        ),
        ("components", str(path)): (
            f"error: arrangement has 2000 hyperplanes, enumeration cap is {DEFAULT_CAP}\n"
        ),
    }
    for argv, message in refusals.items():
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 0.5, argv[0]
        assert (code, out, err) == (3, "", message)


@pytest.mark.parametrize("n", [MEMBER_STRAND_CAP + 1, 40])
def test_member_refuses_a_monodromy_of_many_strands_quickly(capsys, tmp_path, n):
    # a pencil on 40 strands takes 7.8 s and 54 MiB at an order-120 point of
    # its component (see MEMBER_STRAND_CAP)
    path = tmp_path / "double.json"
    path.write_text(json.dumps({"n": n, "generators": [{"X": [1, 2]}]}))
    start = time.perf_counter()
    code, out, err = run(capsys, "member", str(path), "--point=" + ",".join(["2"] * n))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err == (
        f"error: member on monodromy input is limited to {MEMBER_STRAND_CAP} "
        f"strands (got {n})\n"
    )
    path.write_text(json.dumps({"n": MEMBER_STRAND_CAP, "generators": [{"X": [1, 2]}]}))
    point = "--point=" + ",".join(["2"] * MEMBER_STRAND_CAP)
    assert run(capsys, "member", str(path), point)[0] == 0


@pytest.mark.parametrize(
    "n, generators, counted",
    [(2000, [{"X": [1, 2]}], 2001), (DEFAULT_CAP + 1, [{"X": list(range(1, 16))}], 15)],
    ids=["parallels", "pencil"],
)
def test_components_refuses_a_large_monodromy_before_its_lattice(
    capsys, tmp_path, n, generators, counted
):
    # the lattice of 2000 strands lists C(2000, 2) pairs (3.2 s, 480 MiB);
    # the cap is checked first, counting the line at infinity that coning
    # adds when some pair lies in no vertex set
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": n, "generators": generators}))
    start = time.perf_counter()
    code, out, err = run(capsys, "components", str(path))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err == (
        f"error: arrangement has {counted} hyperplanes, enumeration cap is {DEFAULT_CAP}\n"
    )


@pytest.mark.parametrize(
    "argv",
    [["lattice"], ["components"], ["member", "--point=2,3,5,7,11,13"]],
    ids=["lattice", "components", "member"],
)
def test_a_long_conjugator_is_refused_before_it_is_expanded(capsys, tmp_path, argv):
    # the exponent 10^10 was expanded into as many unit twists on load
    obj = load_monodromy("diamond_monodromy").to_json()
    obj["generators"][0]["delta"] = [["A", 1, 2, 10**10]]
    path = tmp_path / "long.json"
    path.write_text(json.dumps(obj))
    start = time.perf_counter()
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err == (
        f"error: braid words are limited to {BRAID_LENGTH_CAP} unit twists "
        "(got 10000000000)\n"
    )
    obj["generators"][0]["delta"] = [["A", 1, 2, BRAID_LENGTH_CAP]]
    path.write_text(json.dumps(obj))
    assert run(capsys, "lattice", str(path))[0] == 0


@pytest.mark.parametrize(
    "obj",
    [
        {"n": 1000, "generators": []},
        {"n": 1000, "generators": [{"X": [1, 2]}]},
        {"flavor": "affine", "hyperplanes": [[1, i, i * i] for i in range(1000)]},
        {"flavor": "central", "hyperplanes": [[1, i, i * i, 0] for i in range(1000)]},
    ],
    ids=["parallels", "double-point", "affine", "central"],
)
def test_lattice_refuses_a_large_input_before_its_pairs(capsys, tmp_path, obj):
    # 1000 parallel strands took 2.8 s, 240 MiB and 7.9 MB of output, and
    # one double point among them 0.65 s before the parallels were refused
    path = tmp_path / "big.json"
    path.write_text(json.dumps(obj))
    start = time.perf_counter()
    code, out, err = run(capsys, "lattice", str(path))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err == (
        f"error: lattices are built from at most {LATTICE_INPUT_CAP} hyperplanes "
        "or strands (got 1000)\n"
    )


def test_flats_sharing_a_pair_are_a_validation_error(capsys, tmp_path):
    path = tmp_path / "overlap.json"
    path.write_text(json.dumps({"n": 4, "flats": [[1, 2, 3], [1, 2, 4]]}))
    for command in ("lattice", "components"):
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "lies in two flats" in err


def test_member_arity_mismatch_is_a_validation_error(capsys, monodromy_file):
    code, _, err = run(capsys, "member", monodromy_file, "--point=1,1,1")
    assert code == 2
    assert "coordinates" in err


def test_member_bad_coordinate_is_a_validation_error(capsys, braid4_file):
    code, _, err = run(capsys, "member", braid4_file, "--point=1,oops")
    assert code == 2
    assert "bad coordinate" in err


@pytest.mark.parametrize(
    "arg, position",
    [("1,2,,4,5,6,7", 3), (",1,1,1,1,1,1", 1), ("1,1,1,1,1,1,", 7), ("1,1, ,1,1,1", 3)],
    ids=["inner", "leading", "trailing", "blank"],
)
def test_member_refuses_an_empty_field_in_the_point(capsys, arg, position):
    """An empty field is refused, not dropped: without the check,
    1,2,,4,5,6,7 was answered as the diamond point (1,2,4,5,6,7)."""
    code, out, err = run(capsys, "member", "fixture:diamond_monodromy", f"--point={arg}")
    assert (code, out) == (2, "")
    assert err == f"error: coordinate {position} of the point is empty\n"


def test_member_text_format(capsys, monodromy_file):
    code, out, _ = run(
        capsys, "member", monodromy_file, "--point=1,1,1,1,1,1", "--format", "text"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "in V_1: yes"
    modular = f"mod {modular_prime(1)}"
    assert lines[-2:] == [f"certificate delta: {modular}", f"certificate partial2: {modular}"]
    code, out, _ = run(
        capsys, "member", monodromy_file, "--point=1,1,1,1,1,1", "--k", "7",
        "--format", "text",
    )
    assert out.splitlines()[-1] == "certificate partial2: n/a"


def test_member_cyclotomic_point_in_json_form(capsys, monodromy_file):
    point = json.dumps(
        [{"order": 4, "coeffs": ["0", "1"]}, {"order": 4, "coeffs": ["0", "-1"]}]
        + ["1"] * 4
    )
    code, out, _ = run(capsys, "member", monodromy_file, "--point", point)
    assert code == 0
    assert json.loads(out)["rank"] >= 0


def test_member_refuses_a_point_of_large_order_quickly(capsys):
    # zeta_5040 on the power basis: phi(5040) = 1152 coefficients
    zeta = {"order": 5040, "coeffs": ["0", "1"] + ["0"] * 1150}
    point = json.dumps([zeta] + [1] * 5)
    start = time.perf_counter()
    code, out, err = run(capsys, "member", "fixture:diamond_monodromy", "--point", point)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "order" in err


def test_member_rejects_a_boolean_order(capsys, monodromy_file):
    point = json.dumps([{"order": True, "coeffs": ["1"]}] + [1] * 5)
    code, _, err = run(capsys, "member", monodromy_file, "--point", point)
    assert code == 2
    assert err.startswith("error:") and "positive integer" in err


@pytest.mark.parametrize(
    "zeta", [{"order": 3, "coeffs": [0.1, True]}, {"order": 3, "coeffs": "12"}],
    ids=["float-and-bool", "string"],
)
def test_member_rejects_inexact_scalar_coefficients(capsys, zeta):
    point = json.dumps([zeta] + [1] * 5)
    code, out, err = run(capsys, "member", "fixture:diamond_monodromy", "--point", point)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "bad coordinate" in err


@pytest.mark.parametrize(
    "point, message",
    [
        ("1/0,1,1,1,1,1", "nonzero denominator"),
        ('["1/0", 1, 1, 1, 1, 1]', "nonzero denominator"),
        ('[{"order": 3, "coeffs": ["1", "1/0"]}, 1, 1, 1, 1, 1]', "nonzero denominator"),
        ("1e30000000,1,1,1,1,1", "cannot parse a rational"),
        ("[%s, 1, 1, 1, 1, 1]" % ("1" * 4301), "not valid JSON"),
    ],
    ids=["zero-denominator", "json-zero-denominator", "zero-denominator-in-coeffs",
         "exponent", "4301-digits"],
)
def test_member_point_scalars_take_only_their_documented_forms(capsys, point, message):
    code, out, err = run(capsys, "member", "fixture:diamond_monodromy", f"--point={point}")
    assert code == 2 and out == ""
    assert err.startswith("error:") and message in err


def test_member_rejects_unknown_fixture(capsys):
    code, _, err = run(capsys, "member", "fixture:nope", "--point=1")
    assert code == 2
    assert "unknown monodromy fixture" in err


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def test_report_default_battery_passes(capsys):
    code, out, _ = run(capsys, "report", "--samples", "2")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("checks passed (seed 0)")
    assert "census braid(5): 15 components, dim 2: 15 (local 10, nonlocal 5)" in out


def test_report_default_battery_names_are_pinned():
    """The default battery, by name and in order, so that adding or removing
    a check changes this list on purpose."""
    import charvar.cli as cli

    args = argparse.Namespace(seed=0, samples=1)
    assert [name for name, _ in cli._default_checks(args)] == [
        "census braid(4)",
        "census braid(5)",
        "census diamond",
        "census monomial(2,3)",
        "census monomial(3,3)",
        "census hessian",
        "census falk A",
        "census falk B",
        "census pencil(4)",
        "census generic(4)",
        "identity rank bridge",
        "identity rank (monodromy)",
        "resonance transpose",
        "membership diamond",
        "membership pencil(4)",
        "membership pencil(5)",
        "membership product",
    ]


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_report_refuses_fewer_than_one_sample(capsys, samples):
    code, out, err = run(capsys, "report", f"--samples={samples}")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--samples" in err


def test_report_is_byte_identical_under_a_fixed_seed(tmp_path, capsys):
    first = tmp_path / "r1.txt"
    second = tmp_path / "r2.txt"
    assert main(["report", "--seed", "42", "--samples", "2", "-o", str(first)]) == 0
    assert main(["report", "--seed", "42", "--samples", "2", "-o", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_report_json_format(capsys):
    code, out, _ = run(capsys, "report", "--samples", "1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] == obj["total"]
    assert {"name", "pass", "detail"} <= set(obj["checks"][0])


def test_report_on_files_checks_each_input(capsys, braid4_file, monodromy_file):
    code, out, _ = run(capsys, "report", braid4_file, monodromy_file, "--samples", "2")
    assert code == 0
    assert f"PASS  {braid4_file}: census" in out
    assert f"PASS  {monodromy_file}: identity rank" in out


@pytest.mark.parametrize("n", [MEMBER_STRAND_CAP + 1, 80])
def test_report_refuses_a_monodromy_of_many_strands_quickly(capsys, tmp_path, n):
    # `report` shares `member`'s strand cap
    path = tmp_path / "double.json"
    path.write_text(json.dumps({"n": n, "generators": [{"X": [1, 2]}]}))
    start = time.perf_counter()
    code, out, err = run(capsys, "report", str(path))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err == (
        f"error: report on monodromy input is limited to {MEMBER_STRAND_CAP} "
        f"strands (got {n})\n"
    )
    path.write_text(json.dumps({"n": MEMBER_STRAND_CAP, "generators": [{"X": [1, 2]}]}))
    assert run(capsys, "report", str(path))[0] == 0


def test_report_refuses_a_large_arrangement_before_its_lattice(capsys, tmp_path):
    # `report` built the lattice of these 1000 lines, no two parallel, in
    # 1.7 s and 208 MiB before refusing; the count is now read first
    path = tmp_path / "lines.json"
    rows = [[1, i, i * i] for i in range(1000)]
    path.write_text(json.dumps({"flavor": "affine", "hyperplanes": rows}))
    start = time.perf_counter()
    code, out, err = run(capsys, "report", str(path))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err == f"error: arrangement has 1000 hyperplanes, enumeration cap is {DEFAULT_CAP}\n"


def test_report_corrupted_file_is_a_validation_error(capsys, tmp_path):
    path = tmp_path / "corrupt.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "report", str(path))
    assert code == 2
    assert "not valid JSON" in err


def test_report_failure_exits_nonzero(capsys, tmp_path, monkeypatch):
    import charvar.cli as cli

    monkeypatch.setattr(
        cli, "_default_checks", lambda cfg: [("forced", lambda: (False, "boom"))]
    )
    code, out, _ = run(capsys, "report")
    assert code == 1
    assert "FAIL  forced: boom" in out


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def test_missing_file_is_a_validation_error(capsys):
    code, _, err = run(capsys, "components", "/nonexistent/never.json")
    assert code == 2
    assert "cannot read" in err


def test_unrecognised_json_shape_is_a_validation_error(capsys, tmp_path):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"surprise": 1}))
    code, _, err = run(capsys, "lattice", str(path))
    assert code == 2
    assert "unrecognised input" in err


_AFFINE_TRIANGLE = {
    "flavor": "affine",
    "hyperplanes": [[1, 0, 0], [0, 1, 0], [1, 1, 1]],
}


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"n": 3, "generators": [{"delta": []}]}, "missing key 'X'"),
        ({"n": 3, "generators": [[1, 2]]}, "must be an object"),
        ({"n": 3, "generators": [{"X": [1, "x"]}]}, "malformed monodromy generator"),
        ({"n": 3, "flats": [5]}, "malformed lattice"),
        (
            {"n": 3.9, "generators": [{"X": [1, 2.7]}, {"X": [True, 3]}, {"X": [2, 3]}]},
            "expected an integer, got 3.9",
        ),
        ({"n": 3, "generators": [{"X": [True, 3]}]}, "expected an integer, got True"),
        (
            {"n": 3, "generators": [{"X": [1, 2], "delta": [["A", 1, 2, 1.5]]}]},
            "expected an integer, got 1.5",
        ),
        (
            {
                "n": 2,
                "generators": [{"X": [1, 2]}],
                "lift": {"central_n": 3.0, "strand_to_central": [1, 2], "infinity": 3},
            },
            "malformed lift metadata: expected an integer, got 3.0",
        ),
        ({"n": True, "flats": []}, "n must be an integer"),
        ({"n": 3, "flats": [[1, True, 3]]}, "index True is not an integer"),
        ({"n": 4, "flats": [], "parallel": [[1, 2]]}, "unknown lattice key 'parallel'"),
        (
            {"pair": [{"n": 3, "flats": []}, {"n": 3, "flats": [], "labels": []}]},
            "unknown lattice key 'labels'",
        ),
        ({"pair": [{"n": 3, "flats": []}, 5]}, "a lattice must be a JSON object"),
        (_AFFINE_TRIANGLE | {"labels": 5}, "labels must be a list of strings"),
        (_AFFINE_TRIANGLE | {"labels": "abc"}, "labels must be a list of strings"),
        (
            _AFFINE_TRIANGLE | {"labels": [1, None, {"x": 1}]},
            "labels must be a list of strings",
        ),
        (
            _AFFINE_TRIANGLE | {"label": ["a", "b", "c"]},
            "unknown arrangement key 'label'",
        ),
        (
            _AFFINE_TRIANGLE | {"flats": [], "n": 3},
            "unknown arrangement key 'flats', 'n'",
        ),
        (
            {"flavor": "affine", "hyperplanes": "abc"},
            "hyperplanes must be a list of coefficient lists",
        ),
        (
            {"flavor": "affine", "hyperplanes": [[1, 0, 0], 5, [1, 1, 1]]},
            "hyperplanes must be a list of coefficient lists",
        ),
        ({"n": 3, "generators": 5}, "monodromy generators must be a list of objects"),
        (
            {"n": 3, "generators": [{"X": 5}]},
            "monodromy generator X must be a list of strand indices",
        ),
        (
            {"n": 3, "generators": [{"X": [1, 2], "delta": 5}]},
            'monodromy generator delta must be a list of ["A", i, j, exponent] factors',
        ),
        (
            {"n": 3, "flats": 5},
            "malformed lattice JSON: flats must be a list of index lists",
        ),
        (
            {"n": 3, "flats": [], "parallel_pairs": 5},
            "malformed lattice JSON: parallel_pairs must be a list of index pairs",
        ),
        (
            {"n": 3, "flats": [], "parallel_pairs": [[1, 2, 3]]},
            "malformed lattice JSON: parallel_pairs must be a list of index pairs",
        ),
        (
            {"n": 3, "flats": [], "parallel_pairs": [[1]]},
            "malformed lattice JSON: parallel_pairs must be a list of index pairs",
        ),
        (
            {"n": 3, "generators": [{"X": [1, 2, 3]}], "lfit": {"central_n": 4}},
            "unknown monodromy key 'lfit'; expected 'n', 'generators' and optionally 'lift'",
        ),
        (
            {"n": 3, "generators": [{"X": [1, 2, 3], "dleta": [["A", 1, 3, 1]]}]},
            "unknown monodromy generator key 'dleta'; expected 'X' and optionally 'delta'",
        ),
        (
            {
                "n": 3,
                "generators": [{"X": [1, 2, 3]}],
                "lift": {
                    "central_n": 4,
                    "strand_to_central": [1, 2, 3],
                    "infinity": 4,
                    "infinty": 4,
                },
            },
            "unknown lift key 'infinty'; expected 'central_n', 'strand_to_central', 'infinity'",
        ),
        (
            {"n": 3, "generators": [{"X": [1, 2, 3]}], "lift": [4, [1, 2, 3], 4]},
            "lift metadata must be an object",
        ),
    ],
    ids=[
        "generator-without-X",
        "generator-not-an-object",
        "non-integer-strand",
        "flat-not-a-list",
        "float-n-and-strands",
        "boolean-strand",
        "float-conjugator-exponent",
        "float-lift-count",
        "boolean-n",
        "boolean-flat-index",
        "misspelt-parallel-pairs",
        "unknown-key-in-pair",
        "non-object-lattice-in-pair",
        "numeric-labels",
        "string-labels",
        "non-string-labels",
        "misspelt-labels",
        "lattice-keys-in-arrangement",
        "string-hyperplanes",
        "non-list-hyperplane-row",
        "non-list-generators",
        "non-list-generator-X",
        "non-list-generator-delta",
        "non-list-flats",
        "non-list-parallel-pairs",
        "parallel-triple",
        "parallel-single",
        "misspelt-monodromy-lift",
        "misspelt-generator-delta",
        "misspelt-lift-infinity",
        "non-object-lift",
    ],
)
def test_malformed_input_file_is_a_validation_error(capsys, tmp_path, obj, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "lattice", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and message in err


def test_member_refuses_misspelt_monodromy_keys_at_every_level(capsys, tmp_path):
    """A misspelt key would drop a conjugator or the lift and change the
    verdicts: `member` names it and the keys expected, with exit code 2,
    at the top level, inside a generator and inside `lift`; with the keys
    spelt right the same file is decided."""
    path = tmp_path / "misspelt.json"
    generator = {"X": [1, 2, 3], "dleta": [["A", 1, 3, 1]]}
    lift = {"central_n": 4, "strand_to_central": [1, 2, 3], "infinty": 4}
    cases = [
        ({"n": 3, "generators": [generator], "lfit": {"central_n": 4}}, "monodromy key 'lfit'"),
        ({"n": 3, "generators": [generator]}, "monodromy generator key 'dleta'"),
        (
            {"n": 3, "generators": [{"X": [1, 2, 3], "delta": [["A", 1, 3, 1]]}], "lift": lift},
            "lift key 'infinty'",
        ),
    ]
    for obj, key in cases:
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "member", str(path), "--point=2,3,1/6")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: unknown {key}; expected ")
    lift["infinity"] = lift.pop("infinty")
    path.write_text(json.dumps(cases[2][0]))
    code, out, _ = run(capsys, "member", str(path), "--point=2,3,1/6")
    assert code == 0 and json.loads(out)["in_Vk"] is True


def test_console_entry_point_matches_main():
    import charvar.__main__  # noqa: F401  (import must succeed)
    from charvar.cli import main as script_main

    assert callable(script_main)


# ---------------------------------------------------------------------------
# JSON output format
# ---------------------------------------------------------------------------


def _scalar_lists(value):
    if isinstance(value, dict):
        value = list(value.values())
    elif not isinstance(value, (list, tuple)):
        return
    elif not any(isinstance(v, (dict, list, tuple)) for v in value):
        yield value
        return
    for item in value:
        yield from _scalar_lists(item)


@pytest.mark.parametrize(
    "payload",
    [
        _components_payload(gen_family("braid", ell=5), DEFAULT_CAP),
        {"pair": [part.to_json() for part in gen_family("falk_pair")]},
        decone(gen_family("diamond"), at=1).arrangement.to_json(),
        {"a": [], "b": {}, "c": [[], {}], "d": ("x, y", None, True, 1.5), "e": [[1]]},
    ],
    ids=["components", "pair", "arrangement", "edge-cases"],
)
def test_json_text_loads_equal_with_scalar_lists_inline(payload):
    text = _json_text(payload)
    old = json.dumps(payload, indent=2)
    assert json.loads(text) == json.loads(old)
    lines = [line.strip().rstrip(",") for line in text.splitlines()]
    for scalars in _scalar_lists(payload):
        inline = json.dumps(scalars)
        assert any(line == inline or line.endswith(": " + inline) for line in lines)
    # objects and lists of containers keep the two-space layout
    assert text.splitlines()[:2] == old.splitlines()[:2]
    assert len(text.splitlines()) < len(old.splitlines())
