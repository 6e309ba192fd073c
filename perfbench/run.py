"""torrigid benchmark: one workload, one seed, a fixed time budget.

    python3 perfbench/run.py --workload surface_t1 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Every repetition runs ``worker.py`` in a
fresh single-threaded interpreter, one process at a time, and solves the
workload's whole seeded instance list.  Repetitions continue while the next
one is expected to finish inside ``--seconds`` (at least one always runs).

Timings are in reference seconds: every interval is scaled by a
calibration loop timed next to it (``worker.calibrate``), so that the host's
changes of speed drop out.  ``--trace 0`` reports the end-to-end metrics
(see ``end_to_end`` for how repetitions are combined); ``setup_s`` is a
median that also counts a few set-up-only processes.  ``--trace 1``
alternates untraced and traced repetitions and reports the per-layer metrics
of the traced ones, plus ``trace_overhead_frac``.  Spans of the last traced
repetition are written to ``.perfbench_work/spans-<workload>.bin``.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/METRICS.md`` for every metric, its unit and what should move it.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from worker import REFERENCE_S, calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORK = os.path.join(ROOT, ".perfbench_work")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

SETUP_ONLY_RUNS = 5
DEADLINE_S = 150  # workers still running this long after the start are killed
TAIL_ABOVE = 10  # the tail percentile keeps this many instances above it


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_ABOVE values above it.

    Lists of at most TAIL_ABOVE values fall back to the median."""
    ordered = sorted(values)
    below = len(ordered) - TAIL_ABOVE
    if below < 1:
        return statistics.median(ordered), 50.0
    return ordered[below - 1], 100.0 * below / len(ordered)


class Worker:
    """Runs worker.py processes for one workload and seed."""

    def __init__(self, workload: str, seed: int, deadline: float) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        # a fixed hash seed makes set iteration, and so the work done, the
        # same in every process
        self.env = dict(os.environ, PYTHONHASHSEED="0")

    def run(self, *extra: str) -> tuple[dict | None, float]:
        """(result or None if the process failed, scaled set-up seconds)."""
        argv = [sys.executable, WORKER, "--workload", self.workload, "--seed", str(self.seed), *extra]
        spawn_calib = calibrate()
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=self.env, cwd=ROOT, text=True)
        try:
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - spawned))
        except subprocess.TimeoutExpired:
            out = ""
        finally:  # also on SIGTERM or Ctrl-C: no worker outlives the run
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(f"worker {' '.join(extra)} exited {proc.returncode}\n")
            return None, 0.0
        result = json.loads(lines[-1])
        scale = 2 * REFERENCE_S / (spawn_calib + result["ready_calib"])
        return result, (result["ready"] - spawned) * scale


def repeat(seconds: float, started: float, modes: list[list[str]], worker: Worker):
    """Cycle through ``modes`` (argument lists), one process each, while the
    next cycle is expected to end inside the budget."""
    reps: dict[int, list] = {k: [] for k in range(len(modes))}
    cycle_walls: list[float] = []
    while True:
        cycle_start = time.monotonic()
        for k, mode in enumerate(modes):
            reps[k].append(worker.run(*mode))
        cycle_walls.append(time.monotonic() - cycle_start)
        if time.monotonic() - started + max(cycle_walls) > seconds:
            return [reps[k] for k in range(len(modes))]


def count_failures(reps, attempted_per_rep: int) -> tuple[int, int, list]:
    attempted = failed = 0
    reasons = []
    for result, _ in reps:
        attempted += attempted_per_rep
        if result is None:
            failed += attempted_per_rep
            reasons.append("worker process failed")
            continue
        failed += len(result["failures"])
        reasons.extend(f"instance {k}: {why}" for k, why in result["failures"])
    return attempted, failed, reasons


def end_to_end(reps, setups: list[float]) -> tuple[dict, str]:
    """End-to-end metrics of one run: medians over repetitions of scaled times.

    ``instance_p50_ms`` and ``instance_tail_ms`` are taken over each
    instance's median time across the repetitions.
    """
    ok = [r for r, _ in reps if r is not None]
    typical = [statistics.median(times) for times in zip(*(r["instance_s"] for r in ok))]
    tail_value, tail_pct = tail(typical)
    values = {
        "setup_s": statistics.median(setups),
        "solve_s": statistics.median(r["solve_s"] for r in ok),
        "instance_p50_ms": 1000 * statistics.median(typical),
        "instance_tail_ms": 1000 * tail_value,
        "peak_rss_mb": max(r["peak_rss_kb"] for r in ok) / 1024,
    }
    note = f"p{tail_pct:.1f} of {len(typical)} instances, {TAIL_ABOVE} above"
    print("solve_s per repetition, scaled: " + " ".join(f"{r['solve_s']:.3f}" for r in ok))
    print("solve_s per repetition, raw:    " + " ".join(f"{r['raw_solve_s']:.3f}" for r in ok))
    return values, note


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="torrigid benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "torrigid", "__init__.py")):
        sys.stderr.write(f"error: no torrigid sources under {os.path.join(ROOT, 'src')}\n")
        return 2
    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.stderr.write(f"error: unknown workload {args.workload!r}\n")
        return 2
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # Workers import from bytecode, as from an installed package; with
    # PYTHONDONTWRITEBYTECODE set they would otherwise compile torrigid from
    # source inside setup_s.
    for path in (os.path.join(ROOT, "src"), HERE):
        compileall.compile_dir(path, quiet=1)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    per_rep = len(WORKLOADS[args.workload].generate(args.seed)["instances"])
    os.makedirs(WORK, exist_ok=True)
    started = time.monotonic()
    worker = Worker(args.workload, args.seed, started + DEADLINE_S)

    if args.trace:
        spans = os.path.join(WORK, f"spans-{args.workload}.bin")
        plain, traced = repeat(
            args.seconds, started, [["--trace", "0"], ["--trace", "1", "--spans", spans]], worker
        )
        attempted, failed, reasons = count_failures(plain + traced, per_rep)
        ok_plain = [r for r, _ in plain if r is not None]
        ok_traced = [r for r, _ in traced if r is not None]
        metrics = {}
        if ok_plain and ok_traced:
            for name in ok_traced[0]["layers"]:
                metrics[name] = statistics.median_low(r["layers"][name] for r in ok_traced)
            metrics["trace_overhead_frac"] = (
                statistics.median(r["solve_s"] for r in ok_traced)
                / statistics.median(r["solve_s"] for r in ok_plain)
                - 1
            )
        specs = spec["per_layer"]
        note = ""
    else:
        setups = []
        for _ in range(SETUP_ONLY_RUNS):
            result, setup_s = worker.run("--setup-only")
            if result is not None:
                setups.append(setup_s)
        (reps,) = repeat(args.seconds, started, [["--trace", "0"]], worker)
        attempted, failed, reasons = count_failures(reps, per_rep)
        setups.extend(setup_s for r, setup_s in reps if r is not None)
        metrics, note = end_to_end(reps, setups) if any(r for r, _ in reps) else ({}, "")
        specs = spec["end_to_end"]

    for why in reasons[:20]:
        print(f"FAILED {why}")
    out = {}
    for m in specs:
        value = metrics.get(m["name"])
        if value is None:  # every worker process failed
            value, failed = 0.0, max(failed, 1)
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        extra = f"  ({note})" if m["name"] == "instance_tail_ms" else ""
        print(f"{m['name']:<44} {value:>14.6g} {m['unit']}{extra}")
    frac = failed / attempted if attempted else 1.0
    print(f"{'failed_frac':<44} {frac:>14.6g} ratio  ({failed} of {attempted} instances)")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
