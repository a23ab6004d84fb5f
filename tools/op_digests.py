"""Print one sha256 per op output of a benchmark workload.

The ops are those of `perfbench/workloads.py` (imported, not changed) for
one workload and seed: each is one in-process call of `charvar.cli.main`,
and its digest covers the exit code and everything it wrote to standard
output and standard error.  Two source trees give the same lines exactly
when every op output is byte-identical, so comparing the lines of two
trees checks that a change keeps every output:

    python3 tools/op_digests.py --workload member-rational --seed 1

With `--against CHECKOUT` the same workload and seed also run under the
other checkout's own `tools/op_digests.py`, in a subprocess; only the labels
whose digests differ are printed, and the exit code is 1 when any differs
(0 when none does), so one command checks a change against its parent:

    python3 tools/op_digests.py --workload member-torus --seed 1 --against ../parent

Run from the repository root; the sources under `src/` and the workloads
under `perfbench/` of the checkout holding this file are the ones used.
Input files are written to a temporary directory, whose path appears in no
output.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def op_outputs(workload: str, seed: int) -> list[tuple[str, int, str, str]]:
    """(label, exit code, stdout, stderr) of each op of the workload's batch."""
    for path in (str(ROOT / "src"), str(ROOT / "perfbench")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from charvar.cli import main as cli_main
    from workloads import build

    out = []
    with tempfile.TemporaryDirectory() as workdir:
        batch = build(workload, seed, Path(workdir))
        for op in batch.ops:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = cli_main(op.argv)
            out.append((op.label, rc, stdout.getvalue(), stderr.getvalue()))
    return out


def op_digests(workload: str, seed: int) -> list[tuple[str, str]]:
    """(label, sha256 hex digest) of each op of the workload's batch."""
    return [
        (label, hashlib.sha256(f"{rc}\n{stdout}\n{stderr}".encode()).hexdigest())
        for label, rc, stdout, stderr in op_outputs(workload, seed)
    ]


def checkout_digests(checkout: Path, workload: str, seed: int) -> list[tuple[str, str]]:
    """(label, digest) of each op as the other checkout's own tool prints
    them, run in a subprocess from that checkout's root."""
    tool = checkout / "tools" / "op_digests.py"
    if not tool.is_file():
        raise SystemExit(f"error: {checkout} has no tools/op_digests.py")
    done = subprocess.run(
        [sys.executable, str(tool), "--workload", workload, "--seed", str(seed)],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"error: {tool} exited {done.returncode}\n{done.stderr}")
    return [
        (label, digest)
        for digest, label in (line.split("  ", 1) for line in done.stdout.splitlines())
    ]


def differing_labels(ours, theirs) -> list[str]:
    """The labels, in batch order, at which two (label, digest) lists
    differ; an op that only one list holds counts as differing."""
    return [
        (mine or other)[0]
        for mine, other in itertools.zip_longest(ours, theirs)
        if mine != other
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--against", type=Path, metavar="CHECKOUT",
        help="print only the labels whose digests differ from CHECKOUT's; exit 1 if any",
    )
    args = parser.parse_args(argv)
    ours = op_digests(args.workload, args.seed)
    if args.against is not None:
        theirs = checkout_digests(args.against.resolve(), args.workload, args.seed)
        differing = differing_labels(ours, theirs)
        for label in differing:
            print(label)
        return 1 if differing else 0
    for label, digest in ours:
        print(f"{digest}  {label}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
