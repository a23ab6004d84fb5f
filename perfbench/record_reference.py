"""Record the reference censuses the census workload checks against.

For the four fixed census inputs and every subarrangement of the hessian and
monomial(4,3) arrangements with one or two planes deleted, run
`charvar components --format json` and store the order-free census key
(`workloads.census_key`).  Run from the repository root:

    python3 perfbench/record_reference.py

It rewrites `perfbench/reference.json`; a change to that file is a change in
what the benchmark accepts as correct, so re-record only from a commit whose
censuses are trusted.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from charvar.cli import main as cli_main  # noqa: E402
from workloads import CENSUS_FIXED, census_key, subarrangement  # noqa: E402


def _census(path: Path) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli_main(["components", str(path), "--format", "json"])
    if rc != 0:
        raise RuntimeError(f"components {path} exited with {rc}")
    return census_key(json.loads(out.getvalue()))


def main() -> None:
    reference = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        work = Path(tmp)
        sources = {}
        for label, (args, *_rest) in CENSUS_FIXED.items():
            sources[label] = work / f"{label}.json"
            cli_main(["gen", *args, "-o", str(sources[label])])
            reference[label] = _census(sources[label])
        sources["monomial43"] = work / "monomial43.json"
        cli_main(["gen", "--family", "monomial", "--r", "4", "-o", str(sources["monomial43"])])
        for parent in ("hessian", "monomial43"):
            for count in (1, 2):
                for deleted in itertools.combinations(range(1, 13), count):
                    label = f"{parent}-" + ",".join(map(str, deleted))
                    path = subarrangement(sources[parent], deleted, work / "sub.json")
                    reference[label] = _census(path)
                    print(label, reference[label]["census"]["total"], file=sys.stderr)
    (HERE / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    main()
