"""The traced benchmark (perfbench/spans.py) wraps library functions and
methods that it looks up by name from outside the library.  A rename or a
deletion in `charvar` must not leave one of those names dangling, or the
traced run would fail before its first op."""

import importlib
import types
from pathlib import Path

from charvar import exactalg

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans() -> types.ModuleType:
    # executed from the source text, so nothing is written beside the file
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    code = compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec")
    exec(code, module.__dict__)
    return module


def _bound(spans) -> dict:
    """Every name the tracer replaces, mapped to the object bound now."""
    out = {}
    for mod, name, _span in spans.FUNCTIONS + spans.GENERATORS:
        out[(mod, name)] = getattr(importlib.import_module(f"charvar.{mod}"), name)
    for mod, cls_name, method, _span in spans.METHODS:
        cls = getattr(importlib.import_module(f"charvar.{mod}"), cls_name)
        out[(mod, cls_name, method)] = vars(cls)[method]
    out["ExactMatrix.rank"] = vars(exactalg.ExactMatrix)["rank"]
    return out


def test_traced_benchmark_bindings_resolve_and_restore():
    spans = _load_spans()
    before = _bound(spans)
    assert all(callable(getattr(v, "__func__", v)) for v in before.values())
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = _bound(spans)
        assert all(wrapped[key] is not before[key] for key in before)
        matrix = exactalg.ExactMatrix([[1, 2], [2, 4]])
        assert matrix.rank() == 1
        assert exactalg.nullspace(matrix) == [[2, -1]]
    finally:
        tracer.uninstall()
    after = _bound(spans)
    assert all(after[key] is before[key] for key in before)
    metrics = spans.layer_metrics(tracer)
    assert metrics["exactalg.rank_calls.rational"] == 1
    assert metrics["exactalg.nullspace_calls"] == 1
    assert metrics["exactalg.echelon_rows"] == 2  # one add_row per matrix row
