"""One run of one workload, in a fresh single-threaded process.

Started by run.py, which pins PYTHONHASHSEED, unsets BERGMAN_DEGREE_CAP and
puts the checkout's `src` first on the path.  Results go to the JSON file
named by --out; progress and failures go to stderr.

Modes:
  --probe           import, generate the inputs, exit (run.py times its CPU)
  (default)         set up, then a closed loop of ops with one client until
                    --seconds of op time have passed, in whole cycles
  --trace           one untraced cycle, then the same cycle traced
  --reference       one op per distinct input, to pin the references
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

_BENCH = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_BENCH), "src")
REFERENCE_FILE = os.path.join(_BENCH, "reference.json")

import bergman  # noqa: E402

if not os.path.abspath(bergman.__file__).startswith(_SRC + os.sep):
    sys.exit(f"imported bergman from {bergman.__file__}, not from {_SRC}")

from workloads import WORKLOADS  # noqa: E402


def _run_op(wl, i: int):
    """Time op i; returns (output or None, wall s, cpu s, error text or None)."""
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        out, err = wl.op(i), None
    except Exception:  # an op that raises counts as failed; the loop goes on
        out, err = None, traceback.format_exc()
    wall = time.perf_counter() - t0
    return out, wall, time.process_time() - c0, err


class Tally:
    """Per-op timings, checks and reference comparison for one run."""

    def __init__(self, wl, reference: list[dict] | None):
        self.wl = wl
        self.reference = reference
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.failures: list[str] = []
        self.facts: list[dict] = []
        self.failed = 0

    def record(self, i: int, out, wall: float, cpu: float, err: str | None) -> None:
        self.walls.append(wall)
        self.cpus.append(cpu)
        if err is None:
            try:
                bad, facts = self.wl.check(i, out)
            except Exception:
                bad, facts = [f"check raised:\n{traceback.format_exc()}"], {}
        else:
            bad, facts = [f"op raised:\n{err}"], {}
        if self.reference is not None:
            want = self.reference[i % len(self.reference)]
            bad += [f"{k} {facts.get(k)} differs from pinned {v}"
                    for k, v in want.items() if facts.get(k) != v]
        self.facts.append(facts)
        if bad:
            self.failed += 1
            for line in bad:
                self.failures.append(f"op {i}: {line}")
                print(f"{self.wl.name} op {i} FAILED: {line}", file=sys.stderr)

    def result(self) -> dict:
        return {"walls": self.walls, "cpus": self.cpus, "failed": self.failed,
                "failures": self.failures, "facts": self.facts}


def closed_loop(wl, tally: Tally, seconds: float) -> None:
    i = 0
    while sum(tally.walls) < seconds:
        for _ in range(wl.cycle):
            tally.record(i, *_run_op(wl, i))
            i += 1


def traced_cycle(wl, tally: Tally, spans_path: str) -> dict:
    """Per-layer metrics of one traced cycle, after the same cycle untraced."""
    import spans

    for i in range(wl.cycle):
        tally.record(i, *_run_op(wl, i))
    plain = sum(tally.walls)
    rec = spans.Recorder()
    inst = spans.instrument(rec)
    outs = []
    try:
        for i in range(wl.cycle):
            rec.op = i
            outs.append(_run_op(wl, i))
    finally:
        inst.remove()
    for i, op in enumerate(outs):
        tally.record(i, *op)
    rec.write(spans_path)
    layers = spans.layer_metrics(rec, wl.cycle)
    layers["trace.overhead_ratio"] = sum(w for _, w, _, _ in outs) / plain
    return layers


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out")
    ap.add_argument("--spans", help="where a traced run writes its spans")
    ap.add_argument("--pinned", action="store_true",
                    help="compare each op with the pinned references")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--inject-fault", action="store_true")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--probe", action="store_true")
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--reference", action="store_true")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed, args.smoke, args.workdir, args.inject_fault)
    if args.probe:
        return 0

    reference = None
    if args.pinned:
        with open(REFERENCE_FILE) as fh:
            reference = json.load(fh)["workloads"].get(args.workload)
    c0 = time.process_time()
    wl.prepare()
    prep_cpu_s = time.process_time() - c0

    tally = Tally(wl, reference)
    result: dict = {}
    if args.trace:
        result["layers"] = traced_cycle(wl, tally, args.spans)
    elif args.reference:
        for i in range(len(wl.inputs)):
            tally.record(i, *_run_op(wl, i))
    else:
        closed_loop(wl, tally, args.seconds)
    result.update(tally.result())
    result["prep_cpu_s"] = prep_cpu_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
