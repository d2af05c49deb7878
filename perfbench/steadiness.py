"""Run-to-run spread of the end-to-end metrics, over one run per seed.

    python3 perfbench/steadiness.py --seeds 101-110 --out perfbench/steadiness.json

Runs `run.py --trace 0` once per workload and seed, one run at a time, and
records for each metric its values, median, quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the quartile spread as
a share of the median.  A metric is steady when that spread is below a
third of its bound in BENCHMARK.json (setup_s has no spread limit).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("101-110"))
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report: dict = {
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "run_seconds": spec["run_seconds"],
        "seeds": args.seeds,
        "workloads": {},
    }
    steady = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            if not last["correct"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect output\n{proc.stderr}")
            for name in bounds:
                values[name].append(last["metrics"][name]["value"])
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
        summary = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / statistics.median(vals)
            ok = name == "setup_s" or spread < bounds[name] / 3
            steady &= ok
            summary[name] = {"values": vals, "median": statistics.median(vals), "q1": q1,
                             "q3": q3, "spread": spread, "bound": bounds[name], "steady": ok}
            print(f"  {name:14s} median {statistics.median(vals):.5g} spread {spread:.4f}"
                  f" (limit {bounds[name] / 3:.4f}){'' if ok else '  NOT STEADY'}", flush=True)
        report["workloads"][workload] = summary
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
