"""Benchmark of the `bergman` library: one workload, one seed, one run.

    python3 perfbench/run.py --workload certify-n3 --seed 1 --seconds 32 --trace 0

Run from the root of a checkout.  The library is imported from the
checkout's `src`, in fresh single-threaded child processes with
PYTHONHASHSEED pinned and BERGMAN_DEGREE_CAP unset.

--trace 0 prints the end-to-end metrics, and for people also the wall-clock
ones, which other tenants of a shared host move too much to gate on.
--trace 1 runs one cycle of the workload untraced and then traced, and
prints the per-layer metrics.  The last line of standard output is one JSON
object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
The exit code is 0 only when every op passed its checks.

With the default seed, every op is also compared with the jet_ids and
engine b_1 digests pinned in reference.json; --write-reference re-pins them.
--smoke runs every workload at n = 2; --inject-fault perturbs one entry of
each engine b_1 after the op, to show that the checks catch a wrong result.
See README.md beside this file for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(BENCH, "worker.py")
OUT = os.path.join(BENCH, "out")
REFERENCE_FILE = os.path.join(BENCH, "reference.json")

WORKLOADS = ("jet-n3", "routes-n3", "certify-n3", "certify-n4")
FAULT_WORKLOADS = ("routes-n3", "certify-n3", "certify-n4")
DEFAULT_SEED = 1
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0  # a run must end within 180 s


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("BERGMAN_DEGREE_CAP", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC
    return env


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _children_cpu_s() -> float:
    use = resource.getrusage(resource.RUSAGE_CHILDREN)
    return use.ru_utime + use.ru_stime


def cold_start_cpu_s(args, workdir: str, env: dict[str, str], deadline: float) -> float:
    """CPU time of a fresh process that imports and generates the inputs: median of several."""
    times = []
    for _ in range(SETUP_PROBES):
        before = _children_cpu_s()
        subprocess.run(
            [sys.executable, WORKER, "--probe", "--workload", args.workload,
             "--seed", str(args.seed), "--workdir", workdir] + (["--smoke"] if args.smoke else []),
            env=env, timeout=max(1.0, deadline - time.monotonic()), check=True)
        times.append(_children_cpu_s() - before)
    return statistics.median(times)


def run_worker(args, workdir: str, env: dict[str, str], deadline: float | None) -> dict:
    out = os.path.join(workdir, "result.json")
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--workdir", workdir, "--out", out]
    if args.trace:
        cmd += ["--trace", "--spans",
                os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")]
    if args.write_reference:
        cmd.append("--reference")
    elif args.seed == DEFAULT_SEED and not args.smoke:
        cmd.append("--pinned")
    if args.smoke:
        cmd.append("--smoke")
    if args.inject_fault:
        cmd.append("--inject-fault")
    timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
    subprocess.run(cmd, env=env, timeout=timeout, check=True)
    with open(out) as fh:
        return json.load(fh)


def end_to_end(res: dict, cold_cpu_s: float) -> dict[str, tuple[float, str]]:
    """The metrics in BENCHMARK.json: CPU time and memory, which other tenants
    of a shared host move far less than wall time."""
    return {
        "setup_s": (cold_cpu_s + res["prep_cpu_s"], "s"),
        "cpu_s_per_op": (sum(res["cpus"]) / len(res["cpus"]), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def wall_clock(res: dict) -> dict[str, tuple[float, str]]:
    """Printed for people, not gated: wall time includes time the host gave to others."""
    walls = res["walls"]
    return {
        "ops_per_s": (len(walls) / sum(walls), "1/s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "fail_ratio": (res["failed"] / len(walls), "ratio"),
    }


def write_reference(workload: str, res: dict) -> None:
    with open(REFERENCE_FILE) as fh:
        ref = json.load(fh)
    ref["seed"] = DEFAULT_SEED
    ref["workloads"][workload] = res["facts"]
    with open(REFERENCE_FILE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=32.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="every workload at n = 2")
    ap.add_argument("--inject-fault", action="store_true",
                    help="perturb one entry of each engine b_1 before it is checked")
    ap.add_argument("--write-reference", action="store_true",
                    help="pin the default seed's jet_ids and b_1 digests")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "bergman", "__init__.py")):
        print(f"error: no bergman package under {SRC}", file=sys.stderr)
        return 2
    if args.inject_fault and args.workload not in FAULT_WORKLOADS:
        print(f"error: {args.workload} computes no b_1 to perturb", file=sys.stderr)
        return 2
    if args.write_reference and (args.seed != DEFAULT_SEED or args.smoke or args.inject_fault):
        print("error: references are pinned for the default seed at full size", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = None if args.write_reference else start + RUN_LIMIT_S
    env = child_env()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        cold_s = 0.0
        if not args.trace and not args.write_reference:
            cold_s = cold_start_cpu_s(args, workdir, env, deadline)
        res = run_worker(args, workdir, env, deadline)
    except subprocess.TimeoutExpired:
        print("error: the run did not finish in time", file=sys.stderr)
        return 3
    except subprocess.CalledProcessError as exc:
        print(f"error: benchmark process failed with exit code {exc.returncode}",
              file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.write_reference:
        write_reference(args.workload, res)

    attempted = len(res["walls"])
    failed = res["failed"]
    if args.trace:
        metrics = {k: (v, unit_of(k)) for k, v in res["layers"].items()}
        shown = metrics
    else:
        metrics = end_to_end(res, cold_s)
        shown = {**metrics, **wall_clock(res)}
    print(f"{args.workload} seed {args.seed}: {attempted} ops, {failed} failed"
          + (f" (trace cycle, spans in {os.path.relpath(OUT, ROOT)})" if args.trace else ""))
    for name, (value, unit) in shown.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
