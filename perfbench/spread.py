"""Repeat the benchmark over seeds and report each metric's spread.

    python3 perfbench/spread.py [--workload NAME ...] [--seeds N]
                                [--first-seed S] [--trace 0|1] [--out FILE]

Runs ``run.py`` once per workload and seed, in sequence, and prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread (quartile distance over median) of every metric, next to the
bound BENCHMARK.json fixes.  ``--out`` also writes the values and the
machine they were measured on as JSON, the form of the baseline record.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def machine() -> dict:
    numpy = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, check=True).stdout.strip()
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy, "platform": platform.platform()}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    record = {"machine": machine(), "run_seconds": args.seconds,
              "trace": args.trace,
              "date": time.strftime("%Y-%m-%d", time.gmtime()),
              "workloads": {}}
    ok = True
    for workload in args.workload or names:
        values: dict[str, list[float]] = {}
        failed = 0
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary = {"failed": failed}
        print(f"{workload}: {args.seeds} seeds, {failed} failed commands")
        ok = ok and failed == 0
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else None
            bound = bounds.get(name)
            summary[name] = {"median": median, "q1": q1, "q3": q3,
                             "spread": spread, "values": vals}
            mark = "" if bound is None else \
                f" bound {bound}" + (" (over a third)" if spread > bound / 3
                                     else "")
            print(f"  {name:40s} median {median:12.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  spread "
                  f"{'n/a' if spread is None else f'{spread:.3f}':>7s}{mark}")
        record["workloads"][workload] = summary
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
