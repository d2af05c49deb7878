"""The benchmark's tracer, `perfbench/spans.py`, wraps `bergman` functions and
methods by name and `TwoPointState.__init__` by its (self, ctx, terms)
signature.  This runs it on a tiny build, so a rename in `bergman` that would
break a traced benchmark run fails here too."""

import importlib.util
import sys
from pathlib import Path

# cli imports every module the tracer wraps
from bergman import cli, exterior, oscillator, scalars, series  # noqa: F401

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_bergman_and_restores_it():
    spans = _load_spans()
    owners = [scalars.ExactScalar, series.Series, exterior.ExteriorAlgebra,
              exterior.ExteriorEndo, oscillator.TwoPointState,
              *(m for name, m in sorted(sys.modules.items()) if name.startswith("bergman"))]
    before = [dict(vars(owner)) for owner in owners]
    rec = spans.Recorder()
    inst = spans.instrument(rec)
    try:
        oscillator.OscillatorContext(1, 0).vacuum()
    finally:
        inst.remove()
    assert rec.counts["TwoPointState.__init__"] == 1
    assert rec.calls["ExteriorAlgebra.__init__"] == 1
    assert [dict(vars(owner)) for owner in owners] == before
