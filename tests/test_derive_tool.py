"""Tests of `tools/derive_monodromy.py` through its functions: a fixture
is data, so moving its sweep must still give a monodromy that validates
with the one braid convention, and validation must catch a broken one."""

from __future__ import annotations

import importlib.util
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from charvar.alexander import MonodromyGen, MonodromyInput, load_monodromy
from charvar.arrangement import gen_family, lattice_from_central3
from charvar.components import enumerate_first_resonance


def _load_tool():
    path = Path(__file__).resolve().parent.parent / "tools" / "derive_monodromy.py"
    spec = importlib.util.spec_from_file_location("derive_monodromy", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


tool = _load_tool()


@pytest.mark.parametrize(
    "fixture, shear",
    [(tool.diamond_fixture(), Fraction(1, 5)), (tool.braid4_fixture(), Fraction(2))],
    ids=["diamond", "braid4"],
)
def test_fixture_validates_at_a_second_shear(fixture, shear):
    fixture = replace(fixture, shear=shear)
    m, central = tool.monodromy(fixture)
    assert tool.lattices_equal(m.lattice(), tool.affine_lattice_from_lift(central, m.lift))
    assert tool.validate(m, enumerate_first_resonance(central), fixture.special) == []


def test_a_vertical_line_is_refused():
    # the plane x is the chart line u = 0, vertical when the sweep is u itself
    with pytest.raises(ValueError, match="vertical"):
        tool.monodromy(replace(tool.diamond_fixture(), shear=Fraction(0)))


def test_validate_rejects_a_dropped_conjugator():
    m = load_monodromy("diamond_monodromy")
    gens = tuple(MonodromyGen(g.X, ()) if g.X == (2, 4, 6) else g for g in m.generators)
    assert gens != m.generators
    broken = MonodromyInput(m.n, gens, m.lift)
    census = enumerate_first_resonance(lattice_from_central3(gen_family("diamond")))
    failures = tool.validate(broken, census, tool.diamond_fixture().special)
    assert len(failures) == 5, failures
