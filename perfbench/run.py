"""Benchmark for the `charvar` commands, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload census --seed 1 --seconds 25 --trace 0

`--workload all` runs every workload, each in a fresh process, in turn.

One process runs one workload as a closed loop: a single thread calls
`charvar.cli.main` in-process, and each op starts when the previous one has
returned.  The batch of ops (see `workloads.py`) repeats for about
`--seconds`, and every output is checked after the timed phase.

With `--trace 0` the result holds the end-to-end metrics.  Their times are
normalized to a reference machine speed: a short calibration kernel runs
before every op, and each latency is scaled by REFERENCE_KERNEL_S over the
kernel's time around it, which cancels most of the slow-down other tenants
of a shared machine cause; set-up time is scaled by REFERENCE_KERNEL_S over
the median kernel time around its steps.  The measured figures are printed
beside them.  With `--trace 1` untraced and traced batches alternate, and
the result holds the per-layer metrics of the traced batches (medians over
batches) plus the tracing overhead, from normalized batch times; the spans
of the first traced batch are written to
`.perfbench/trace-<workload>-<seed>.jsonl.gz`.  Human-readable lines come
first; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
REFERENCE_KERNEL_S = 0.005  # calibration kernel time at the reference speed

UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mib": "MiB",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def calibration_kernel() -> float:
    """Time a fixed piece of exact arithmetic of the kind the library does:
    fraction elimination on a seeded 12 x 12 integer matrix."""
    start = time.perf_counter()
    rng = random.Random(0)
    rows = [[Fraction(rng.randint(-9, 9)) for _ in range(12)] for _ in range(12)]
    for col in range(12):
        pivot = next((r for r in range(col, 12) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(col + 1, 12):
            factor = rows[r][col] / rows[col][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return time.perf_counter() - start


class Runner:
    """Runs ops of one workload and keeps every raw result for checking.

    With `calibrate` set, the calibration kernel runs before every op, so
    each op's latency can be scaled by the machine's speed around it."""

    def __init__(self, workload, cli_main, calibrate: bool = False):
        self.workload = workload
        self.cli_main = cli_main
        self.calibrate = calibrate
        self.latencies: list[float] = []
        self.kernel: list[float] = []
        self.results: list[tuple[int, object, str, str]] = []

    def normalized(self) -> list[float]:
        """Latencies at the reference speed: each scaled by
        REFERENCE_KERNEL_S over the mean kernel time just before and just
        after the op."""
        kernel = self.kernel + [calibration_kernel()]
        return [
            latency * 2 * REFERENCE_KERNEL_S / (kernel[i] + kernel[i + 1])
            for i, latency in enumerate(self.latencies)
        ]

    def run_op(self, idx: int, tracer=None) -> None:
        op = self.workload.ops[idx]
        if self.calibrate:
            self.kernel.append(calibration_kernel())
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    rc = self.cli_main(op.argv)
                else:
                    rc = tracer.op(self.cli_main, op.argv)
        except Exception as exc:  # an op that raises is a failed op
            rc = f"{type(exc).__name__}: {exc}"
        self.latencies.append(time.perf_counter() - start)
        self.results.append((idx, rc, out.getvalue(), err.getvalue()))

    def run_batch(self, tracer=None) -> float:
        start = time.perf_counter()
        for idx in range(len(self.workload.ops)):
            self.run_op(idx, tracer)
        return time.perf_counter() - start

    def failures(self) -> list[str]:
        """Check every recorded output; one message per failed op."""
        seen: dict[tuple[int, object, str], str | None] = {}
        failed = []
        for idx, rc, out, err in self.results:
            key = (idx, rc, out)
            if key not in seen:
                seen[key] = self._check(idx, rc, out, err)
            if seen[key] is not None:
                failed.append(seen[key])
        return failed

    def _check(self, idx, rc, out, err) -> str | None:
        op = self.workload.ops[idx]
        if rc != 0:
            return f"{op.label}: exit {rc} {err.strip()}"
        try:
            payload = json.loads(out)
        except json.JSONDecodeError as exc:
            return f"{op.label}: output is not JSON: {exc}"
        try:
            return self.workload.check(op, payload)
        except Exception as exc:  # output the check cannot read is a failure
            return f"{op.label}: unreadable output: {type(exc).__name__}: {exc}"


def batch_walls(latencies: list[float], size: int) -> list[float]:
    """Wall time of each batch of `size` ops, from the ops' latencies."""
    return [sum(latencies[start:start + size]) for start in range(0, len(latencies), size)]


def _setup(name: str, seed: int, cli_main, build, kernel: list[float]):
    """Build the inputs and warm up; repeated, returning the median time.
    A calibration kernel time is appended to `kernel` after each repeat."""
    workdir = ROOT / ".perfbench" / f"{name}-{seed}"
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload = build(name, seed, workdir)
        Runner(workload, cli_main).run_op(0)
        times.append(time.perf_counter() - start)
        kernel.append(calibration_kernel())
    return workload, statistics.median(times)


def _more(start: float, seconds: float, last: float) -> bool:
    """Start another round when it should end by `seconds`, give or take
    half a round, so a run lasts about `seconds` whatever the batch size."""
    return time.perf_counter() - start + last / 2 <= seconds


def _timed(runner: Runner, seconds: float) -> tuple[list[float], float]:
    """Untraced closed loop of whole batches, at least one, for about
    `seconds`.  Returns the wall time of each batch and of the phase."""
    walls = []
    start = time.perf_counter()
    while not walls or _more(start, seconds, walls[-1]):
        walls.append(runner.run_batch())
    return walls, time.perf_counter() - start


def _traced(runner: Runner, seconds: float, spans_path: Path) -> dict:
    """Alternate untraced and traced batches, at least one of each, for
    about `seconds`."""
    from spans import Tracer, dump_spans, layer_metrics

    rounds, traced, per_batch = [], [], []
    start = time.perf_counter()
    while not rounds or _more(start, seconds, rounds[-1]):
        plain_s = runner.run_batch()
        tracer = Tracer()
        tracer.install()
        try:
            traced.append(runner.run_batch(tracer))
        finally:
            tracer.uninstall()
        rounds.append(plain_s + traced[-1])
        per_batch.append(layer_metrics(tracer))
        if len(per_batch) == 1:
            dump_spans(tracer, spans_path)
    metrics = {
        name: statistics.median_low(batch[name] for batch in per_batch)
        for name in per_batch[0]
    }
    # the overhead compares normalized batch times, so a slow-down of the
    # machine between a plain batch and a traced one does not show in it
    walls = batch_walls(runner.normalized(), len(runner.workload.ops))
    metrics["trace.overhead"] = statistics.median(walls[1::2]) / statistics.median(walls[0::2])
    metrics["trace.batch_s"] = statistics.median_low(traced)
    return metrics


def _run_all(args, workloads) -> int:
    """Run every workload in a fresh process, one after another, and print
    one JSON result over all of them, its metrics named `<workload>.<metric>`."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "charvar" / "cli.py").is_file():
        print(f"error: no charvar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    kernel = [calibration_kernel()]
    import_start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from charvar.cli import main as cli_main
    from workloads import WORKLOADS, build

    import_s = time.perf_counter() - import_start
    kernel.append(calibration_kernel())
    if args.workload == "all":
        return _run_all(args, WORKLOADS)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2

    workload, build_s = _setup(args.workload, args.seed, cli_main, build, kernel)
    measured_setup_s = import_s + build_s
    setup_s = measured_setup_s * REFERENCE_KERNEL_S / statistics.median(kernel)
    if workload.resolve is not None:
        workload.resolve()
    runner = Runner(workload, cli_main, calibrate=True)
    gc.collect()

    if args.trace:
        spans_path = ROOT / ".perfbench" / f"trace-{args.workload}-{args.seed}.jsonl.gz"
        from spans import MODULES, layer_units

        values = _traced(runner, args.seconds, spans_path)
        units = layer_units()
        units.update({"trace.overhead": "ratio", "trace.batch_s": "s"})
    else:
        walls, elapsed = _timed(runner, args.seconds)
        size = len(workload.ops)
        norm = runner.normalized()
        batch = statistics.median(batch_walls(norm, size))
        values = {
            "setup_s": setup_s,
            "wall_s": batch,
            "ops_per_s": size / batch,
            "op_p50_ms": statistics.median(norm) * 1000,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = UNITS
        norm_ms = sorted(v * 1000 for v in norm)

    failed = runner.failures()
    attempted = len(runner.results)
    for message in failed[:10]:
        print(f"FAILED {message}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"batch {len(workload.ops)} ops  inputs {workload.inputs_digest[:12]}")
    for name, value in values.items():
        print(f"  {name:<36} {value:>14.6g} {units[name]}")
    print(f"  {'error_rate':<36} {len(failed) / attempted:>14.6g} ratio "
          f"({len(failed)} of {attempted} ops)")
    if args.trace:
        total = sum(values[f"{mod}.self_s"] for mod in MODULES)
        shares = ", ".join(
            f"{mod} {values[f'{mod}.self_s'] / total:.1%}" for mod in MODULES
        )
        print(f"  self-time shares: {shares}")
    else:
        if attempted >= 100:
            p90 = statistics.quantiles(norm_ms, n=10)[-1]
            print(f"  {'op_p90_ms':<36} {p90:>14.6g} ms ({attempted} samples)")
        raw_walls = batch_walls(runner.latencies, size)
        print(f"  measured: set-up {measured_setup_s:.6g} s; {len(walls)} batches in "
              f"{elapsed:.3g} s with calibration, batch wall median "
              f"{statistics.median(raw_walls):.6g} s, op latency p50 "
              f"{statistics.median(runner.latencies) * 1000:.6g} ms")
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in values.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
