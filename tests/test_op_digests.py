"""Smoke test of `tools/op_digests.py` on the `resonance` workload: one
digest per op, in batch order, the same on a second run; and the `member`
workloads' op digests pinned to `member_op_digests.txt`."""

from __future__ import annotations

import importlib.util
import re
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "op_digests.py"
PINNED = Path(__file__).resolve().parent / "member_op_digests.txt"


def _load_tool():
    spec = importlib.util.spec_from_file_location("op_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_resonance_digests_name_every_op_and_repeat(capsys, tmp_path):
    tool = _load_tool()
    assert tool.main(["--workload", "resonance", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    from workloads import build  # importable once the tool has run

    labels = [op.label for op in build("resonance", 1, tmp_path).ops]
    assert [line.split("  ", 1)[1] for line in lines] == labels
    assert all(re.fullmatch(r"[0-9a-f]{64}", line.split("  ", 1)[0]) for line in lines)
    assert tool.op_digests("resonance", 1) == [
        (label, line.split("  ", 1)[0]) for line, label in zip(lines, labels)
    ]


def test_member_outputs_keep_their_pinned_digests():
    """Every op output of `member-rational` and `member-torus` at seeds 1
    and 7919, certificates included, is byte-identical to the recorded one:
    each line of the pinned file is `<workload> <seed> <digest>  <label>`."""
    pinned = {}
    for line in PINNED.read_text().splitlines():
        workload, seed, digest, label = line.split(" ", 3)
        pinned.setdefault((workload, int(seed)), []).append((label.lstrip(), digest))
    assert sorted(pinned) == [
        ("member-rational", 1), ("member-rational", 7919),
        ("member-torus", 1), ("member-torus", 7919),
    ]
    tool = _load_tool()
    for (workload, seed), want in pinned.items():
        assert tool.op_digests(workload, seed) == want, (workload, seed)
