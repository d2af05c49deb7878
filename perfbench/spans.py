"""Span recorder and the wrappers that measure `bergman` layers from outside.

Nothing here edits the library: `instrument` replaces public functions and
methods of `bergman.*` modules with wrappers for the duration of a traced
run, and `Instrumentation.remove` puts the originals back.

Three kinds of wrapper:

* spans: a record (name, start, end, parent span, op id) kept in memory
  and written out at the end of the run.  Used on the public entry points,
  which run a few to a few hundred times per op.
* aggregated spans: timed and nested exactly like spans, but summed per
  name instead of stored, because they run up to ~10^5 times per op
  (`Series.__mul__`, `ExteriorEndo.__matmul__`, the algebra builders).
* counters: count calls only.  Used on scalar and state arithmetic, which
  runs ~10^6 times per op, where timing each call would swamp the call.

A frame's self time is its duration minus the durations of the frames
(stored or aggregated) directly nested in it.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

_clock = time.perf_counter


class Recorder:
    """Everything one traced run measures, kept in memory."""

    def __init__(self) -> None:
        self.op: int | None = None
        self.spans: list[tuple[str, float, float, int | None, int | None]] = []
        self.stack: list[list] = []  # frames: [start, child_time, span_id, kept_parent]
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)  # outermost frames of each name
        self.group_total: defaultdict = defaultdict(float)  # outermost frames of each group
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self._depth: Counter = Counter()

    def enter(self, keep: bool) -> list:
        stack = self.stack
        kept_parent = None
        if stack:
            top = stack[-1]
            kept_parent = top[2] if top[2] is not None else top[3]
        frame = [0.0, 0.0, None, kept_parent]
        if keep:
            frame[2] = len(self.spans)
            self.spans.append(None)  # placeholder, filled on exit
        stack.append(frame)
        frame[0] = _clock()
        return frame

    def leave(self, frame: list, name: str, group: str) -> None:
        end = _clock()
        stack = self.stack
        stack.pop()
        dur = end - frame[0]
        if stack:
            stack[-1][1] += dur
        self.calls[name] += 1
        self.self_time[name] += dur - frame[1]
        if self._depth[name] == 0:
            self.total[name] += dur
        if self._depth[group] == 0:
            self.group_total[group] += dur
        if frame[2] is not None:
            self.spans[frame[2]] = (name, frame[0], end, frame[3], self.op)

    def write(self, path: str) -> None:
        rows = [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "op": s[4]}
                for s in self.spans if s is not None]
        with open(path, "w") as fh:
            json.dump({"spans": rows}, fh)


def _timed(rec: Recorder, name: str, group: str, fn, keep: bool):
    depth = rec._depth

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = rec.enter(keep)
        depth[name] += 1
        depth[group] += 1
        try:
            return fn(*args, **kwargs)
        finally:
            depth[name] -= 1
            depth[group] -= 1
            rec.leave(frame, name, group)

    return wrapper


def _counted(rec: Recorder, key: str, fn):
    counts = rec.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


class Instrumentation:
    """The set of replaced attributes; `remove` restores every original."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function(self, modules, home, attr: str, make) -> None:
        """Replace `home.attr` and every `bergman` module's reference to it."""
        original = getattr(home, attr)
        wrapped = make(original)
        for mod in modules:
            if mod.__dict__.get(attr) is original:
                self._set(mod, attr, wrapped)

    def method(self, cls, attr: str, make) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(make(raw.__func__)))
        else:
            self._set(cls, attr, make(raw))

    def remove(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


_ALGEBRA_BUILDERS = (
    "__init__", "zero_endo", "identity", "scalar_endo", "endo_from_aux_matrix",
    "wedge", "contract", "omega_d", "project_det", "project_degree",
    "clifford_factor", "clifford_vector", "clifford_pair", "clifford_of_form",
    "action_two_form",
)


def instrument(rec: Recorder) -> Instrumentation:
    """Wrap the layers of an imported `bergman` package; returns the undo handle."""
    from bergman import (
        cli, closed_form, exterior, geometry, jet_checks, oscillator, perturbation,
        scalars, series,
    )

    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "bergman" or name.startswith("bergman."))]
    inst = Instrumentation()

    def span(name, group):
        return lambda fn: _timed(rec, name, group, fn, keep=True)

    def agg(name, group):
        return lambda fn: _timed(rec, name, group, fn, keep=False)

    # scalars: counts only
    for attr in ("__mul__", "__add__", "__sub__", "__neg__", "scale"):
        inst.method(scalars.ExactScalar, attr,
                    lambda fn, attr=attr: _counted(rec, f"ExactScalar.{attr}", fn))

    # series
    def series_mul(fn):
        timed = _timed(rec, "Series.__mul__", "series", fn, keep=False)
        counts = rec.counts

        def wrapper(self, other):
            out = timed(self, other)
            counts["Series.out_terms"] += len(out.terms)
            return out

        return wrapper

    inst.method(series.Series, "__mul__", series_mul)
    inst.method(series.Series, "compose", agg("Series.compose", "series"))
    for attr in ("mat_sqrt", "mat_inverse"):
        inst.function(modules, series, attr, span(f"series.{attr}", "series"))

    # geometry and jet checks
    for attr in ("parse_potential", "jet_from_potential"):
        inst.function(modules, geometry, attr, span(f"geometry.{attr}", "geometry"))
    inst.function(modules, jet_checks, "validate_jet",
                  span("jet_checks.validate_jet", "jet_checks"))

    # exterior algebra
    for attr in _ALGEBRA_BUILDERS:
        inst.method(exterior.ExteriorAlgebra, attr,
                    agg(f"ExteriorAlgebra.{attr}", "exterior.algebra"))
    inst.method(exterior.ExteriorEndo, "__add__",
                lambda fn: _counted(rec, "ExteriorEndo.__add__", fn))

    def endo_matmul(fn):
        timed = _timed(rec, "ExteriorEndo.__matmul__", "exterior.matmul", fn, keep=False)
        counts = rec.counts

        def wrapper(self, other):
            rows = {r for r, _ in other.entries}
            counts["ExteriorEndo.left_entries"] += len(self.entries)
            counts["ExteriorEndo.left_matched"] += sum(mid in rows for _, mid in self.entries)
            return timed(self, other)

        return wrapper

    inst.method(exterior.ExteriorEndo, "__matmul__", endo_matmul)

    # oscillator states
    def state_init(fn):
        counts, maxima = rec.counts, rec.maxima

        def wrapper(self, ctx, terms):
            fn(self, ctx, terms)
            counts["TwoPointState.__init__"] += 1
            maxima["state_terms"] = max(maxima["state_terms"], len(self.terms))
            top = max((sum(map(sum, key)) for key in self.terms), default=0)
            maxima["term_degree"] = max(maxima["term_degree"], top)
            maxima["degree_cap"] = ctx.degree_cap

        return wrapper

    state = oscillator.TwoPointState
    inst.method(state, "__init__", state_init)
    for attr in ("compose", "adjoint", "to_poly", "from_poly", "resolvent_L20",
                 "evaluate_origin"):
        inst.method(state, attr, span(f"oscillator.{attr}", "oscillator"))

    # perturbation: builders, the operators they return, and the engine
    def builder(label):
        def make(fn):
            timed_build = _timed(rec, f"perturbation.build_{label}", "perturbation", fn, True)

            def wrapper(*args, **kwargs):
                op = timed_build(*args, **kwargs)
                return _timed(rec, f"perturbation.apply_{label}", "perturbation", op, True)

            return wrapper

        return make

    inst.function(modules, perturbation, "build_O1", builder("O1"))
    inst.function(modules, perturbation, "build_O2", builder("O2"))
    inst.function(modules, perturbation, "b1_engine",
                  span("perturbation.b1_engine", "perturbation"))

    # closed form
    for attr in ("b1_formula", "b1_trace"):
        inst.function(modules, closed_form, attr, span(f"closed_form.{attr}", "closed_form"))

    # command line
    inst.function(modules, cli, "main", span("cli.main", "cli"))
    inst.function(modules, cli, "cmd_jet_build", span("cli.jet_build", "cli"))
    inst.function(modules, cli, "cmd_b1_crosscheck", span("cli.crosscheck", "cli"))
    return inst


def layer_metrics(rec: Recorder, ops: int) -> dict[str, float]:
    """Per-layer metrics from one traced run: totals per op, maxima as seen."""
    t, calls, c, mx = rec.total, rec.calls, rec.counts, rec.maxima

    def per_op(x) -> float:
        return x / ops

    def self_of(*names) -> float:
        return per_op(sum(rec.self_time[n] for n in names))

    left = c["ExteriorEndo.left_entries"]
    cap = mx["degree_cap"] if mx["degree_cap"] else _default_degree_cap()
    return {
        "scalars.mul_calls": per_op(c["ExactScalar.__mul__"]),
        "scalars.add_calls": per_op(c["ExactScalar.__add__"] + c["ExactScalar.__sub__"]
                                    + c["ExactScalar.__neg__"]),
        "scalars.scale_calls": per_op(c["ExactScalar.scale"]),
        "series.mul_calls": per_op(calls["Series.__mul__"]),
        "series.mul_s": per_op(t["Series.__mul__"]),
        "series.out_terms": per_op(c["Series.out_terms"]),
        "series.compose_s": per_op(t["Series.compose"]),
        "series.mat_sqrt_s": per_op(t["series.mat_sqrt"]),
        "series.mat_inverse_s": per_op(t["series.mat_inverse"]),
        "geometry.parse_potential_s": per_op(t["geometry.parse_potential"]),
        "geometry.jet_from_potential_s": per_op(t["geometry.jet_from_potential"]),
        "geometry.self_s": self_of("geometry.parse_potential", "geometry.jet_from_potential"),
        "jet_checks.validate_jet_s": per_op(t["jet_checks.validate_jet"]),
        "jet_checks.validate_calls": per_op(calls["jet_checks.validate_jet"]),
        "exterior.algebra_build_s": per_op(rec.group_total["exterior.algebra"]),
        "exterior.matmul_calls": per_op(calls["ExteriorEndo.__matmul__"]),
        "exterior.matmul_s": per_op(t["ExteriorEndo.__matmul__"]),
        "exterior.matmul_nonzero_ratio": c["ExteriorEndo.left_matched"] / left if left else 0.0,
        "exterior.add_calls": per_op(c["ExteriorEndo.__add__"]),
        "oscillator.state_inits": per_op(c["TwoPointState.__init__"]),
        "oscillator.compose_calls": per_op(calls["oscillator.compose"]),
        "oscillator.compose_s": per_op(t["oscillator.compose"]),
        "oscillator.adjoint_s": per_op(t["oscillator.adjoint"]),
        "oscillator.to_poly_calls": per_op(calls["oscillator.to_poly"]),
        "oscillator.to_poly_s": per_op(t["oscillator.to_poly"]),
        "oscillator.from_poly_s": per_op(t["oscillator.from_poly"]),
        "oscillator.resolvent_L20_s": per_op(t["oscillator.resolvent_L20"]),
        "oscillator.evaluate_origin_s": per_op(t["oscillator.evaluate_origin"]),
        "oscillator.max_state_terms": float(mx["state_terms"]),
        "oscillator.degree_headroom": float(cap - mx["term_degree"]),
        "perturbation.build_O1_s": per_op(t["perturbation.build_O1"]),
        "perturbation.build_O2_s": per_op(t["perturbation.build_O2"]),
        "perturbation.apply_O1_s": per_op(t["perturbation.apply_O1"]),
        "perturbation.apply_O2_s": per_op(t["perturbation.apply_O2"]),
        "perturbation.b1_engine_s": per_op(t["perturbation.b1_engine"]),
        "perturbation.self_s": self_of("perturbation.b1_engine", "perturbation.build_O1",
                                       "perturbation.build_O2", "perturbation.apply_O1",
                                       "perturbation.apply_O2"),
        "closed_form.b1_formula_s": per_op(t["closed_form.b1_formula"]),
        "closed_form.b1_trace_s": per_op(t["closed_form.b1_trace"]),
        "cli.jet_build_s": per_op(t["cli.jet_build"]),
        "cli.crosscheck_s": per_op(t["cli.crosscheck"]),
        "cli.self_s": self_of("cli.main", "cli.jet_build", "cli.crosscheck"),
    }


def _default_degree_cap() -> int:
    from bergman.oscillator import DEFAULT_DEGREE_CAP
    return DEFAULT_DEGREE_CAP
