"""One benchmark process: set up, solve one workload's instance list, check.

Run by ``run.py`` in a fresh interpreter per repetition, so every repetition
pays interpreter start, ``import torrigid`` and cold caches, as a command-line
user does.  Caches are never cleared between instances, so later instances
see what earlier ones cached, as in a library sweep.

Timings are reported in reference seconds (see ``calibrate``): a calibration
loop runs before the first instance and after each one, outside the timed
intervals, and each instance's time is scaled by ``REFERENCE_S`` over the mean
of the calibrations on either side of it.

Prints one JSON object on its last line:
``ready`` (CLOCK_MONOTONIC when the first instance was ready), ``ready_calib``
(the calibration right after that), ``solve_s`` and ``instance_s`` (scaled),
``raw_solve_s`` (unscaled), ``peak_rss_kb``, ``attempted``, ``failures``
(instance id and reason) and, when traced, ``layers`` (self times scaled by
the repetition's ``solve_s / raw_solve_s``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback
import types
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

# What ``calibrate`` returns on the reference host; scaled timings are the
# seconds the work would take there.
REFERENCE_S = 0.001


def calibrate() -> float:
    """Fastest of three runs of a fixed pure-Python ``Fraction`` loop, in seconds.

    The 2-vCPU host this benchmark was tuned on changes speed by up to 1.8x
    for stretches of one to thirty seconds, so one 30-second run can sit
    wholly in its slow state.  The loop does torrigid's kind of work (big
    integer gcds, short-lived objects) and slows by the same factor, so a
    time divided by the calibration next to it no longer depends on the
    host's state.  On one seed of ``cli_mix`` this cut the quartile spread of
    the median solve time over 30-second windows from 35% to 4%.
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        total = Fraction(0)
        for k in range(1, 300):
            total += Fraction(1, k)
        best = min(best, time.perf_counter() - t0)
    return best


def scaled(raw_s: list[float], calib: list[float]) -> list[float]:
    """Each raw time times REFERENCE_S over the mean of the calibrations on
    either side of it (``calib`` holds one more entry than ``raw_s``)."""
    return [t * 2 * REFERENCE_S / (calib[k] + calib[k + 1]) for k, t in enumerate(raw_s)]


def import_torrigid() -> types.SimpleNamespace:
    """Import torrigid from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, SRC)
    import torrigid
    import torrigid.cli

    origin = os.path.dirname(os.path.abspath(torrigid.__file__))
    if origin != os.path.join(SRC, "torrigid"):
        raise ImportError(f"torrigid imported from {origin}, not from {SRC}")
    return types.SimpleNamespace(
        **{name: sys.modules[f"torrigid.{name}"] for name in ("lattice", "ideals", "toric", "localcoh", "rigidity", "t1", "cli")}
    )


def cache_counts(module) -> tuple[int, int]:
    """Summed (hits, misses) over the module's lru_caches."""
    hits = misses = 0
    for value in vars(module).values():
        info = getattr(value, "cache_info", None)
        if callable(info):
            stats = info()
            hits += stats.hits
            misses += stats.misses
    return hits, misses


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="file for the traced spans")
    args = parser.parse_args(argv)

    tr = import_torrigid()
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    data = workload.generate(args.seed)
    workdir = os.path.join(WORK, f"inputs-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload.prepare(data, workdir)
        ready = time.monotonic()
        ready_calib = calibrate()
        if args.setup_only:
            print(json.dumps({"ready": ready, "ready_calib": ready_calib}))
            return 0
        return run(tr, workload, data["instances"], workdir, ready, ready_calib, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(tr, workload, instances, workdir, ready, ready_calib, args) -> int:
    tracer = None
    if args.trace:
        from tracer import INSTANCE_SPAN, Tracer, layer_metrics

        tracer = Tracer()
        hits0, misses0 = cache_counts(tr.localcoh)
        tracer.install()
    outputs: list = [None] * len(instances)
    errors: dict[int, str] = {}
    raw_s = []
    calib = [ready_calib]
    try:
        for k, inst in enumerate(instances):
            if tracer:
                tracer.instance = k
                span = tracer.begin(INSTANCE_SPAN)
            t0 = time.perf_counter()
            try:
                outputs[k] = workload.solve(tr, inst, workdir)
            except Exception:  # a raising instance fails; the run goes on
                errors[k] = traceback.format_exc(limit=-3)
            raw_s.append(time.perf_counter() - t0)
            if tracer:
                tracer.finish(span)
            calib.append(calibrate())
    finally:
        if tracer:
            tracer.restore()
    raw_solve_s = sum(raw_s)
    instance_s = scaled(raw_s, calib)
    solve_s = sum(instance_s)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    for k, inst in enumerate(instances):
        if k not in errors:
            try:
                reason = workload.check(inst, outputs[k], outputs)
            except Exception:  # e.g. a report that is not JSON: the instance fails
                reason = traceback.format_exc(limit=-3)
            if reason:
                errors[k] = reason
    result = {
        "ready": ready,
        "ready_calib": ready_calib,
        "solve_s": solve_s,
        "raw_solve_s": raw_solve_s,
        "instance_s": instance_s,
        "peak_rss_kb": peak_rss_kb,
        "attempted": len(instances),
        "failures": sorted(errors.items()),
    }
    if tracer:
        hits1, misses1 = cache_counts(tr.localcoh)
        lookups = hits1 - hits0 + misses1 - misses0
        layers = layer_metrics(tracer, raw_solve_s)
        scale = solve_s / raw_solve_s if raw_solve_s > 0 else 1.0
        for name in layers:
            if name.endswith(".self_s"):
                layers[name] *= scale
        layers["localcoh.cache_hit_ratio"] = (hits1 - hits0) / lookups if lookups else 0.0
        result["layers"] = layers
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
