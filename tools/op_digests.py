"""Print one sha256 per op output of a benchmark workload.

The ops are those of `perfbench/workloads.py` (imported, not changed) for
one workload and seed: each is one in-process call of `charvar.cli.main`,
and its digest covers the exit code and everything it wrote to standard
output and standard error.  Two source trees give the same lines exactly
when every op output is byte-identical, so comparing the lines of two
trees checks that a change keeps every output:

    python3 tools/op_digests.py --workload member-rational --seed 1

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
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def op_digests(workload: str, seed: int) -> list[tuple[str, str]]:
    """(label, sha256 hex digest) of each op of the workload's batch."""
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
            text = f"{rc}\n{stdout.getvalue()}\n{stderr.getvalue()}"
            out.append((op.label, hashlib.sha256(text.encode()).hexdigest()))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    for label, digest in op_digests(args.workload, args.seed):
        print(f"{digest}  {label}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
