"""Span tracing installed from outside the library, for traced runs only.

A `Tracer` wraps the public functions and methods of each `charvar` module
in timing spans.  Every wrapper is bound wherever the caller looks the name
up: a function is replaced in every `charvar` module namespace that holds
it (so `charvar.components.nullspace` is patched as well as
`charvar.exactalg.nullspace`), and a method is replaced on its class.
`uninstall` restores the originals, so untraced batches run the unmodified
library.

Spans stay in memory as lists `[name, start, end, parent, op, outermost]`
and are turned into per-layer metrics by `layer_metrics` after the batch.
A span's self time is its duration minus the durations of its children;
a module's self time is the sum over the spans it owns, so the six module
self times add up to the traced wall time of the ops.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import math
import time
from collections import Counter

MODULES = ("cli", "arrangement", "components", "osres", "alexander", "exactalg")

# (defining module, function, span name)
FUNCTIONS = (
    ("arrangement", "lattice_from_central3", "arrangement.lattice"),
    ("components", "enumerate_first_resonance", "components.enumerate"),
    ("components", "partition_tangent_space", "components.tangent"),
    ("osres", "resonance_rank", "osres.direct_rank"),
    ("osres", "in_resonance", "osres.in_resonance"),
    ("alexander", "load_monodromy", "alexander.load"),
    ("alexander", "presentation_rank", "alexander.presentation_rank"),
    ("alexander", "presentation_matrix", "alexander.presentation_build"),
    ("alexander", "relator_rank", "alexander.relator_rank"),
    ("alexander", "relator_jacobian", "alexander.relator_build"),
    ("alexander", "lift_point", "alexander.lift"),
    ("exactalg", "nullspace", "exactalg.nullspace"),
    ("exactalg", "rational_rref", "exactalg.rref"),
    ("exactalg", "integer_kernel", "exactalg.lattice"),
    ("exactalg", "hermite_normal_form", "exactalg.lattice"),
)

GENERATORS = (
    ("components", "neighborly_partitions", "components.partition_search"),
)

# (defining module, class, method, span name)
METHODS = (
    ("arrangement", "Lattice2", "restrict", "arrangement.restrict"),
    ("arrangement", "Lattice2", "from_json", "arrangement.lattice"),
    ("arrangement", "Arrangement", "from_json", "arrangement.parse"),
    ("alexander", "MonodromyInput", "from_json", "alexander.load"),
    ("osres", "ResonanceSampler", "__init__", "osres.sampler_build"),
    ("osres", "ResonanceSampler", "rank_at", "osres.sampler_rank"),
    ("exactalg", "IntEchelon", "add_row", "exactalg.echelon"),
)

NAME, START, END, PARENT, OP, OUTERMOST = range(6)


def _module(name: str):
    return importlib.import_module(f"charvar.{name}")


def _totient(m: int) -> int:
    return sum(1 for a in range(1, m + 1) if math.gcd(a, m) == 1)


class Tracer:
    """In-memory span recorder plus the counters measured at the same
    boundaries (partitions yielded, kept and flagged components, matrix
    shapes and field degrees of rank calls)."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.degree_max = 0
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._op = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            [name, time.perf_counter(), 0.0, parent, self._op, self._depth[name] == 0]
        )
        self._depth[name] += 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        self._depth[span[NAME]] -= 1
        self._stack.pop()

    def op(self, fn, *args):
        """Run one benchmark op as the root span `cli.main`."""
        self._op += 1
        idx = self._open("cli.main")
        try:
            return fn(*args)
        finally:
            self._close(idx)

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def _wrap_generator(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            gen = fn(*args, **kwargs)
            try:
                while True:
                    idx = self._open(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    self.counts[name + ".yields"] += 1
                    yield item
            finally:
                gen.close()

        return wrapper

    def _wrap_enumerate(self, fn, name: str):
        inner = self._wrap(fn, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = inner(*args, **kwargs)
            self.counts["components.kept"] += len(result.components)
            self.counts["components.flagged"] += len(result.flagged)
            return result

        return wrapper

    def _wrap_rank(self, fn):
        @functools.wraps(fn)
        def wrapper(matrix):
            order = 1
            for row in matrix.entries:
                for entry in row:
                    order = math.lcm(order, entry.order)
            field = "rational" if order == 1 else "cyclotomic"
            if field == "cyclotomic":
                self.counts["exactalg.rank_entries.cyclotomic"] += (
                    matrix.nrows * matrix.ncols
                )
            self.degree_max = max(self.degree_max, _totient(order))
            idx = self._open(f"exactalg.rank.{field}")
            try:
                return fn(matrix)
            finally:
                self._close(idx)

        return wrapper

    # -- installation -----------------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        for mod_name in MODULES:
            mod = _module(mod_name)
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        for mod_name, func, name in FUNCTIONS:
            original = getattr(_module(mod_name), func)
            if func == "enumerate_first_resonance":
                wrapper = self._wrap_enumerate(original, name)
            else:
                wrapper = self._wrap(original, name)
            self._rebind(original, wrapper)
        for mod_name, func, name in GENERATORS:
            original = getattr(_module(mod_name), func)
            self._rebind(original, self._wrap_generator(original, name))
        for mod_name, cls_name, method, name in METHODS:
            cls = getattr(_module(mod_name), cls_name)
            raw = cls.__dict__[method]
            self._saved.append((cls, method, raw))
            if isinstance(raw, classmethod):
                setattr(cls, method, classmethod(self._wrap(raw.__func__, name)))
            else:
                setattr(cls, method, self._wrap(raw, name))
        matrix_cls = _module("exactalg").ExactMatrix
        raw = matrix_cls.__dict__["rank"]
        self._saved.append((matrix_cls, "rank", raw))
        matrix_cls.rank = self._wrap_rank(raw)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and times for one traced batch."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    calls: Counter = Counter()
    inclusive: Counter = Counter()
    self_time: Counter = Counter()
    module_self: Counter = Counter({m: 0.0 for m in MODULES})
    for idx, span in enumerate(spans):
        name = span[NAME]
        duration = span[END] - span[START]
        own = duration - child_time[idx]
        calls[name] += 1
        self_time[name] += own
        if span[OUTERMOST]:
            inclusive[name] += duration
        module_self[name.split(".", 1)[0]] += own
    counts = tracer.counts
    partitions = counts["components.partition_search.yields"]
    queries = calls["alexander.presentation_rank"]
    resonance_queries = calls["osres.in_resonance"]
    out = {
        "arrangement.restrict_calls": calls["arrangement.restrict"],
        "arrangement.restrict_s": inclusive["arrangement.restrict"],
        "arrangement.lattice_s": inclusive["arrangement.lattice"],
        "components.partition_calls": counts["components.partition_search.calls"],
        "components.partitions": partitions,
        "components.partition_search_s": inclusive["components.partition_search"],
        "components.tangent_calls": calls["components.tangent"],
        "components.tangent_self_s": self_time["components.tangent"],
        "components.kept_ratio": (
            counts["components.kept"] / partitions if partitions else 0.0
        ),
        "components.flagged": counts["components.flagged"],
        "osres.direct_rank_calls": calls["osres.direct_rank"],
        "osres.direct_rank_s": inclusive["osres.direct_rank"],
        "osres.direct_rank_per_query": (
            calls["osres.direct_rank"] / resonance_queries if resonance_queries else 0.0
        ),
        "osres.sampler_build_s": inclusive["osres.sampler_build"],
        "osres.sampler_rank_calls": calls["osres.sampler_rank"],
        "osres.sampler_rank_s": inclusive["osres.sampler_rank"],
        "alexander.load_s": inclusive["alexander.load"],
        "alexander.presentation_build_s": inclusive["alexander.presentation_build"],
        "alexander.relator_build_s": inclusive["alexander.relator_build"],
        "alexander.queries": queries,
        "alexander.relator_skipped": queries - calls["alexander.relator_rank"],
        "exactalg.rank_calls.rational": calls["exactalg.rank.rational"],
        "exactalg.rank_s.rational": inclusive["exactalg.rank.rational"],
        "exactalg.rank_calls.cyclotomic": calls["exactalg.rank.cyclotomic"],
        "exactalg.rank_s.cyclotomic": inclusive["exactalg.rank.cyclotomic"],
        "exactalg.rank_entries.cyclotomic": counts["exactalg.rank_entries.cyclotomic"],
        "exactalg.field_degree_max": tracer.degree_max,
        "exactalg.nullspace_calls": calls["exactalg.nullspace"],
        "exactalg.nullspace_s": inclusive["exactalg.nullspace"],
        "exactalg.rref_s": inclusive["exactalg.rref"],
        "exactalg.lattice_s": inclusive["exactalg.lattice"],
        "exactalg.echelon_rows": calls["exactalg.echelon"],
        "exactalg.echelon_s": inclusive["exactalg.echelon"],
    }
    for mod in MODULES:
        out[f"{mod}.self_s"] = module_self[mod]
    return out


def layer_units() -> dict[str, str]:
    """Unit of every per-layer metric, keyed like `layer_metrics`."""
    units = {}
    for name in layer_metrics(Tracer()):
        if name.endswith("_s") or "_s." in name:
            units[name] = "s"
        elif name.endswith(("ratio", "per_query")):
            units[name] = "ratio"
        else:
            units[name] = "count"
    units["exactalg.field_degree_max"] = "degree"
    return units


def dump_spans(tracer: Tracer, path) -> None:
    """Write the recorded spans as gzipped JSON lines of
    [name, start_s, end_s, parent, op], times relative to the first span."""
    origin = tracer.spans[0][START] if tracer.spans else 0.0
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        for name, start, end, parent, op, _outer in tracer.spans:
            handle.write(
                json.dumps(
                    [name, round(start - origin, 7), round(end - origin, 7), parent, op]
                )
                + "\n"
            )
