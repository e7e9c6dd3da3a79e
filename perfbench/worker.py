"""Run one workload's passes in a fresh process; print the result as JSON.

``run.py`` starts this process so that its peak RSS belongs to the
workload alone.  It is the benchmark's one closed-loop client: one
process, one thread, ``aps`` at its default ``--workers``.  A pass runs
the workload's commands once through ``apspace.cli.run`` and then checks
every output; a nonzero exit or a failed check fails that command.  A
warm-up pass is checked but not timed.  With ``--trace 0`` every pass
runs under the host-speed probe (probe.py), and its time is reported
both as measured and rescaled to the reference speed.  With ``--trace
1``, untraced and traced passes alternate without the probe, so the
tracing overhead is measured under the same conditions as the pass it is
compared with.
"""

import argparse
import gc
import io
import json
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

import apspace.cli  # noqa: E402  (run.py puts ROOT/src on PYTHONPATH)

import checks  # noqa: E402
import probe  # noqa: E402
import tracing  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

MIN_PASSES = 3   # timed passes of each kind, however long they take


def run_pass(workload, inputs, outdir: Path, checker, tracer, speed,
             number: int):
    """One pass: every command, then every check.  Returns the timed
    seconds (rescaled when ``speed`` probes the pass), the measured
    seconds, the failed command indices with reasons, and the counts of
    the files the pass wrote."""
    shutil.rmtree(outdir, ignore_errors=True)
    gc.collect()
    codes, stdouts, stderrs = [], [], []
    with tracer.installed() if tracer else nullcontext(), \
            speed or nullcontext():
        start = time.perf_counter()
        for index, command in enumerate(workload.commands):
            if tracer:
                tracer.request = (number, index)
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                codes.append(apspace.cli.run(
                    [*command, "-i", str(inputs.csv_path),
                     "-o", str(outdir)]))
            stdouts.append(out.getvalue())
            stderrs.append(err.getvalue())
        wall = time.perf_counter() - start
    seconds = speed.rescale(wall) if speed else wall
    problems = [(i, f"exit {code}: {stderrs[i].strip()[-300:]}")
                for i, code in enumerate(codes) if code != 0]
    problems += checker(outdir, stdouts)
    files = [p for p in outdir.iterdir()] if outdir.is_dir() else []
    written = {"cli.files_written": len(files),
               "cli.bytes_written": sum(p.stat().st_size for p in files)}
    return seconds, wall, problems, written


def measure(name: str, seed: int, seconds: float, trace: bool,
            workdir: Path, pins: dict | None):
    """Run the passes; ``pins`` is None only while pins are being made."""
    workload = WORKLOADS[name]
    inputs = workload.make(seed, workdir)
    default_seed = seed == DEFAULT_SEED and pins is not None
    pins = pins or {"outputs": {}, "counters": {}}
    if default_seed and checks.sha256(inputs.csv_path) != pins["input"]:
        raise SystemExit(f"{name}: the generated input differs from the "
                         "pinned one; the seeded generator changed")
    checker = workload.checker(inputs, pins["outputs"], default_seed)
    tracer = tracing.Tracer() if trace else None
    speed = None if trace else probe.SpeedProbe()
    last = len(workload.commands) - 1
    attempted, failed, messages = 0, 0, []
    plain, plain_wall, traced, layers = [], [], [], []
    first_counts = {}
    deadline = None
    number = 0
    while True:
        use_tracer = tracer if number % 2 == 1 else None
        spans_before = len(tracer.spans) if tracer else 0
        problems_before = len(tracer.problems) if tracer else 0
        pass_s, wall_s, problems, counts = run_pass(
            workload, inputs, workdir / "out", checker, use_tracer, speed,
            number)
        if use_tracer:
            layer = tracing.summarize(tracer.spans[spans_before:]) | counts
            counts = {k: v for k, v in layer.items() if tracing.is_count(k)}
            layers.append(layer)
            problems += [(request[1], message) for request, message
                         in tracer.problems[problems_before:]]
        kind = "traced" if use_tracer else "plain"
        for key, value in counts.items():
            # counters repeat exactly: across passes, and on the default
            # seed across runs
            want = first_counts.setdefault((kind, key), value)
            if default_seed:
                want = pins["counters"].get(key, want)
            if value != want:
                problems.append((last, f"counter {key} = {value}, "
                                       f"expected {want}"))
        attempted += len(workload.commands)
        failed += len({index for index, _ in problems})
        messages += [f"pass {number} command {index}: {message}"
                     for index, message in problems]
        if deadline is None:  # the warm-up pass is checked, not timed
            deadline = time.perf_counter() + seconds
        elif use_tracer:
            traced.append(pass_s)
        else:
            plain.append(pass_s)
            plain_wall.append(wall_s)
        number += 1
        if time.perf_counter() >= deadline and len(plain) >= MIN_PASSES \
                and (tracer is None or len(traced) >= MIN_PASSES):
            break
    result = {
        "workload": name, "seed": seed,
        "attempted": attempted, "failed": failed, "problems": messages[:20],
        "passes": len(plain), "pass_s": plain, "wall_s": plain_wall,
        "candidates": workload.candidates and workload.candidates(inputs),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "counters": {k: v for (kind, k), v in first_counts.items()
                     if kind == ("traced" if trace else "plain")},
        "outputs": {p.name: checks.sha256(p)
                    for p in sorted((workdir / "out").iterdir())},
        "input": checks.sha256(inputs.csv_path),
    }
    if tracer:
        result["traced_passes"] = len(traced)
        result["layers"] = {
            key: statistics.median(layer[key] for layer in layers)
            for key in layers[0]}
        result["layers"]["trace.overhead_s"] = \
            statistics.median(traced) - statistics.median(plain)
        result["spans"] = tracer.dump()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)
    src = (ROOT / "src").resolve()
    if src not in Path(apspace.cli.__file__).resolve().parents:
        raise SystemExit(f"apspace was imported from {apspace.cli.__file__}, "
                         f"not from {src}")
    pins = json.loads((Path(__file__).parent / "pins.json").read_text())
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.workdir, pins[args.workload])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
