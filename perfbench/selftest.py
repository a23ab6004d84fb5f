"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's default test run:
the determinism test makes two traced benchmark runs of every workload,
which takes about two minutes.
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from spans import MODULES, Tracer, layer_units  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

# per-layer metrics that are counts or ratios of counts, so they repeat
# exactly: partitions, tangent calls, rank calls by field, direct-rank
# calls per query, and the rest
COUNT_METRICS = sorted(
    name for name, unit in layer_units().items() if unit in ("count", "degree")
) + ["components.kept_ratio", "osres.direct_rank_per_query"]


def _traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    return {name: result["metrics"][name]["value"] for name in COUNT_METRICS}


# counts each workload exists to exercise
EXERCISED = {
    "census": ("components.partitions", "components.tangent_calls",
               "exactalg.nullspace_calls", "osres.sampler_rank_calls"),
    "resonance": ("osres.direct_rank_calls", "exactalg.rank_calls.rational"),
    "member-rational": ("alexander.queries", "exactalg.rank_calls.rational"),
    "member-torus": ("alexander.queries", "exactalg.rank_calls.cyclotomic"),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_a_fixed_seed(workload):
    first = _traced_run(workload, 5)
    second = _traced_run(workload, 5)
    assert first == second
    for name in EXERCISED[workload]:
        assert first[name] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_the_inputs(workload, tmp_path):
    one = build(workload, 1, tmp_path / "one")
    same = build(workload, 1, tmp_path / "same")
    other = build(workload, 2, tmp_path / "other")
    assert one.inputs_digest == same.inputs_digest
    assert one.inputs_digest != other.inputs_digest


def test_uninstall_restores_the_library():
    def snapshot():
        out = {}
        for name in MODULES:
            mod = importlib.import_module(f"charvar.{name}")
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
                if isinstance(value, type):
                    for key, member in vars(value).items():
                        out[(name, attr, key)] = member
        return out

    before = snapshot()
    tracer = Tracer()
    tracer.install()
    assert snapshot() != before
    tracer.uninstall()
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
