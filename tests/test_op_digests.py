"""Smoke test of `tools/op_digests.py` on the `resonance` workload: one
digest per op, in batch order, the same on a second run, and `--against`
naming only the ops that differ from another checkout's; and the `member`
workloads' op digests pinned to `member_op_digests.txt`, their verdicts
without certificates to `member_verdict_digests.txt`."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import re
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "op_digests.py"
PINNED = Path(__file__).resolve().parent / "member_op_digests.txt"
PINNED_VERDICTS = Path(__file__).resolve().parent / "member_verdict_digests.txt"
MEMBER_RUNS = [
    ("member-rational", 1), ("member-rational", 7919),
    ("member-torus", 1), ("member-torus", 7919),
]


def _load_tool():
    spec = importlib.util.spec_from_file_location("op_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _pins(path: Path) -> dict[tuple[str, int], list[tuple[str, str]]]:
    """The lines `<workload> <seed> <digest>  <label>` of a pinned file,
    as (label, digest) lists keyed by (workload, seed)."""
    pinned = {}
    for line in path.read_text().splitlines():
        workload, seed, digest, label = line.split(" ", 3)
        pinned.setdefault((workload, int(seed)), []).append((label.lstrip(), digest))
    return pinned


def verdict_digests(tool, workload: str, seed: int) -> list[tuple[str, str]]:
    """(label, sha256 hex digest) of each op's exit code, JSON output with
    its `certificate` removed, and standard error."""
    out = []
    for label, rc, stdout, stderr in tool.op_outputs(workload, seed):
        verdict = json.loads(stdout) if stdout else None
        if isinstance(verdict, dict):
            verdict.pop("certificate", None)
        text = f"{rc}\n{json.dumps(verdict, sort_keys=True)}\n{stderr}"
        out.append((label, hashlib.sha256(text.encode()).hexdigest()))
    return out


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


def test_against_a_checkout_prints_only_the_labels_whose_digests_differ(capsys, tmp_path):
    """`--against CHECKOUT` runs the checkout's own tool in a subprocess.
    Against this checkout no label is printed and the exit code is 0;
    against one whose tool prints the same lines but with one digest
    changed and the last op missing, just those two labels are printed,
    in batch order, and the exit code is 1."""
    tool = _load_tool()
    args = ["--workload", "resonance", "--seed", "1", "--against"]
    assert tool.main(args + [str(TOOL.parent.parent)]) == 0
    assert capsys.readouterr().out == ""
    ours = tool.op_digests("resonance", 1)
    lines = [f"{digest}  {label}" for label, digest in ours]
    lines[2] = f"{'0' * 64}  {ours[2][0]}"
    other = tmp_path / "other"
    (other / "tools").mkdir(parents=True)
    (other / "tools" / "op_digests.py").write_text(f"print({chr(10).join(lines[:-1])!r})\n")
    assert tool.main(args + [str(other)]) == 1
    assert capsys.readouterr().out.splitlines() == [ours[2][0], ours[-1][0]]


def test_member_outputs_keep_their_pinned_digests():
    """Every op output of `member-rational` and `member-torus` at seeds 1
    and 7919, certificates included, is byte-identical to the recorded one:
    each line of the pinned file is `<workload> <seed> <digest>  <label>`."""
    pinned = _pins(PINNED)
    assert sorted(pinned) == MEMBER_RUNS
    tool = _load_tool()
    for (workload, seed), want in pinned.items():
        assert tool.op_digests(workload, seed) == want, (workload, seed)


def test_member_verdicts_keep_their_pinned_digests():
    """Every verdict of `member-rational` and `member-torus` at seeds 1 and
    7919, the JSON output without its `certificate` (`in_Vk`, `rank`,
    `criteria`, `consistent`, `lifted`, ...), equals the recorded one.  The
    pins were recorded when both criteria still ran their own certified
    walks, so a change of certificates alone leaves them unchanged."""
    pinned = _pins(PINNED_VERDICTS)
    assert sorted(pinned) == MEMBER_RUNS
    tool = _load_tool()
    for (workload, seed), want in pinned.items():
        assert verdict_digests(tool, workload, seed) == want, (workload, seed)
