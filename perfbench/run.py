"""Layered end-to-end benchmark for ``aps``.

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Measures the ``apspace`` package in ``src/`` of the checkout that holds
this file; nothing needs installing.  Each workload (see workloads.py)
is a fixed list of ``aps`` commands over an input generated from
``--seed``.  A fresh worker process runs the list over and over for
``--seconds`` and checks every output (worker.py, checks.py).

With ``--trace 0`` the end-to-end metrics are measured: ``setup_s``
(median time for a fresh interpreter to ``import apspace.cli``, with
the import rescaled like a pass),
``run_s`` (median wall time of one pass, rescaled to a reference host
speed by probe.py, because this shared host's speed swings for tens of
seconds at a time) and ``peak_rss_mb`` (of the worker).
``candidates_per_s`` (search workloads), ``error_rate`` and
``wall_run_s`` (the median pass time as measured, probe included) are
printed beside them.  With ``--trace 1`` the per-layer metrics of
tracing.py are measured instead, and the spans are written to
``.perfbench/`` in the checkout.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``, holding the metrics that
BENCHMARK.json names.  ``--workload all`` (the default) runs every
workload and prints the metrics of each, without the JSON line.

The load never uses more threads or processes than ``nproc``: one
worker process at a time, running ``aps`` in one thread.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 9
TIME_LIMIT_S = 170   # a run must end within 180 s


def _env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


# Runs in the fresh interpreter: times ``import apspace.cli`` under the
# host-speed probe and prints the import's measured and rescaled seconds.
SETUP_SCRIPT = """
import sys, time
sys.path.insert(0, {here!r})
import probe
speed = probe.SpeedProbe()
with speed:
    start = time.perf_counter()
    import apspace.cli
    wall = time.perf_counter() - start
print(wall, speed.rescale(wall))
"""


def measure_setup() -> float:
    """Median seconds for a fresh interpreter to import ``apspace.cli``.

    The interpreter's start and exit count as measured; the import itself
    is rescaled to the reference speed (probe.py).  One untimed import
    first writes the bytecode cache, as an installed package would have it.
    """
    command = [sys.executable, "-c", SETUP_SCRIPT.format(here=str(HERE))]
    times = []
    for i in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        out = subprocess.run(command, cwd=ROOT, env=_env(), check=True,
                             stdout=subprocess.PIPE, text=True, timeout=60)
        total = time.perf_counter() - start
        wall, rescaled = map(float, out.stdout.split())
        if i:
            times.append(total - wall + rescaled)
    return statistics.median(times)


def run_worker(workload: str, seed: int | None, seconds: float, trace: int,
               workdir: Path, timeout: float) -> dict:
    workdir.mkdir(parents=True)
    proc = subprocess.run(
        [sys.executable, "-B", str(HERE / "worker.py"),
         "--workload", workload, "--seconds", str(seconds),
         "--trace", str(trace), "--workdir", str(workdir),
         *(["--seed", str(seed)] if seed is not None else [])],
        cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True,
        timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited with "
                           f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int | None, seconds: float, trace: int,
            deadline: float) -> tuple[dict, dict]:
    """Run one workload; return (metrics by name, worker result)."""
    metrics = {}
    if not trace:
        metrics["setup_s"] = measure_setup()
    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    try:
        result = run_worker(workload, seed, seconds, trace, workdir,
                            deadline - time.monotonic())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if trace:
        metrics.update(result["layers"])
        spans = ROOT / ".perfbench" / f"spans-{workload}-seed{result['seed']}.json"
        spans.write_text(json.dumps(result.pop("spans")))
    else:
        metrics["run_s"] = statistics.median(result["pass_s"])
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
        metrics["candidates_per_s"] = (
            result["candidates"] / metrics["run_s"]
            if result["candidates"] else None)
        metrics["error_rate"] = result["failed"] / result["attempted"]
        metrics["wall_run_s"] = statistics.median(result["wall_s"])
    return metrics, result


def report(result: dict, metrics: dict, units: dict[str, str]) -> None:
    passes = result["passes"] + result.get("traced_passes", 0)
    print(f"{result['workload']}: seed {result['seed']}, {passes} timed "
          f"passes after 1 warm-up, {result['attempted']} commands, "
          f"{result['failed']} failed")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")
    for name, value in metrics.items():
        if value is None:
            print(f"  {name:40s} {'n/a':>14s} (not every command searches)")
        else:
            print(f"  {name:40s} {value:14.6g} {units.get(name, '')}")


def main(argv=None) -> int:
    if not (SRC / "apspace" / "cli.py").is_file():
        print(f"error: no apspace package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="Layered end-to-end benchmark for aps.")
    parser.add_argument("--workload", choices=[*names, "all"], default="all")
    parser.add_argument("--seed", type=int,
                        help="input seed (default: the workloads' own)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]
             + spec["per_layer"]}
    units.update(candidates_per_s="1/s", error_rate="ratio", wall_run_s="s")
    correct = True
    for workload in (names if args.workload == "all" else [args.workload]):
        metrics, result = measure(workload, args.seed, args.seconds,
                                  args.trace,
                                  time.monotonic() + TIME_LIMIT_S)
        report(result, metrics, units)
        correct = correct and result["failed"] == 0
        missing = [m["name"] for m in declared if m["name"] not in metrics]
        if missing:
            raise RuntimeError(f"metrics not measured: {missing}")
    if args.workload == "all":
        return 0 if correct else 1
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
