"""randflight benchmark: one workload per run, closed loop, one process.

    python3 perfbench/run.py --workload planar-deep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The run repeats cycles of ops (one op per case of the workload) until
``--seconds`` is used up, rounding to the nearest whole cycle, at least
two.  Every op is checked against an exact oracle.  With ``--trace 0``
the last stdout line is the JSON result with the end-to-end metrics;
with ``--trace 1`` the ops run once plain and once under the tracer,
followed by a traced per-turn walk, and the result carries the
per-layer metrics.  Spans go to ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # setup probes time everything from here on

import argparse
import json
import os
import resource
import subprocess
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from statistics import median

# numpy's OpenBLAS runs one thread, here and in the set-up probes.  With
# two threads on a 2-vCPU host, the small matrix products of
# spectral-check waited on the other vCPU: its ops took about 2.0 s
# instead of 1.5 s, and their times followed the host's load.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

from gates import METRIC_TOL  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 11
# typical calibration_seconds() on the 2-vCPU Xeon VM of the baseline; set-up
# and op times and flight rates are reported at this reference machine speed
CALIBRATION_REF_S = 0.16

# name -> unit.  Over a run's ops: errors are maxima, flight rates are
# pooled, op times are medians (see tail for op_s_tail).
END_TO_END = {
    "setup_s": "s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "flights_per_s": "1/s",
    "flights_per_s_par": "1/s",
    "max_rel_err": "1",
    "mass_defect": "1",
    "residual": "1",
    "cf_abs_err": "1",
    "laplace_rel_err": "1",
    "ok_rate": "1",
    "peak_rss_mb": "MB",
}
MAXED = ("max_rel_err", "mass_defect", "residual", "cf_abs_err", "laplace_rel_err")
# rates of equal-sized calls: the harmonic mean is total work over total time
POOLED = ("flights_per_s", "flights_per_s_par")
# a metric a workload does not measure is reported as this constant
NOT_MEASURED = 1.0


def use_source_tree() -> None:
    """Import randflight from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "randflight", "__init__.py")):
        raise SystemExit(f"error: no randflight package under {SRC}")
    sys.path.insert(0, SRC)
    import randflight
    if not os.path.abspath(randflight.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: randflight imported from {randflight.__file__}")


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)


def attempt(tally: Tally, op, run, check):
    """Run one op, time it and check it; an op that raises or fails a
    gate counts as failed.  Returns (output, seconds, measures), with
    output None and seconds None when the op raised."""
    tally.attempted += 1
    out = seconds = None
    measures = {}
    try:
        t0 = time.perf_counter()
        out = run(op)
        seconds = time.perf_counter() - t0
        measures, failures = check(op, out)
    except Exception as exc:  # the run goes on; the op is counted failed
        traceback.print_exc(file=sys.stderr)
        failures = [f"{type(exc).__name__}: {exc}"]
    if failures:
        tally.failed += 1
        tally.failures.append(f"{op.key}: " + "; ".join(failures))
    return out, seconds, measures


def run_cycles(workload, rng, seconds: float, do_op) -> None:
    """Whole cycles until ``seconds`` is used up, to the nearest cycle; at
    least two, so that every case has more than one sample."""
    start = time.perf_counter()
    cycles = []
    while len(cycles) < 2 or (time.perf_counter() - start
                              + 0.5 * median(cycles)) < seconds:
        c0 = time.perf_counter()
        for op in workload.cycle(rng):
            do_op(op)
        cycles.append(time.perf_counter() - c0)


def tail(values: list, keys: list) -> tuple[float, str]:
    """Highest order statistic with at least ten samples beyond it.  With
    fewer than 21 ops no such statistic lies above the median; the tail
    is then the median op time of the slowest case, which a single slow
    op cannot move."""
    n = len(values)
    if n >= 21:
        return sorted(values)[n - 11], f"p{100.0 * (n - 10) / n:.0f}"
    by_case = defaultdict(list)
    for key, v in zip(keys, values):
        by_case[key].append(v)
    case = max(by_case, key=lambda k: median(by_case[k]))
    return median(by_case[case]), f"median of the slowest case ({case})"


def setup_seconds(workload: str, seed: int) -> float:
    """Import plus workload set-up in a fresh process, at the reference
    machine speed: each probe times its set-up, then the calibration
    kernel, and the set-up time is divided by the probe's slowness.  The
    median over SETUP_PROBES probes."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              check=True)
        setup_s, calib_s = map(float, done.stdout.split()[-2:])
        times.append(setup_s * CALIBRATION_REF_S / calib_s)
    return median(times)


def calibration_seconds() -> float:
    """Wall time of a fixed mix of numpy and interpreter work.  Timed
    before and after every op, it tracks how fast a shared machine runs
    at that moment; it calls no randflight code, so changes to the
    package do not move it."""
    x = np.linspace(0.0, 1.0, 4096)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(300):
        y = np.exp(np.sqrt(x + i) * np.cos(x))
        idx = np.searchsorted(x, y - np.floor(y))
        acc += float(np.sum(y[np.minimum(idx, x.size - 1)]))
    return time.perf_counter() - t0


def slowness_since(calib: list) -> float:
    """Time the calibration kernel again and return the machine's slowness
    since the last calibration in ``calib``: the mean of the two, over
    CALIBRATION_REF_S.  Dividing a wall time by it gives the time at the
    reference speed."""
    calib.append(calibration_seconds())
    return 0.5 * (calib[-2] + calib[-1]) / CALIBRATION_REF_S


def plain_run(workload, rng, seconds: float, setup_s: float):
    """End-to-end metrics.  Each op's wall time is divided by the machine's
    slowness around it (mean of the calibrations before and after, over
    CALIBRATION_REF_S), and each flight rate multiplied by it, so that a
    run measures the program rather than the load on a shared host."""
    tally = Tally()
    calib = [calibration_seconds()]
    keys, wall, ref = [], [], []
    measures = defaultdict(list)
    worst = defaultdict(dict)  # case -> accuracy metric -> maximum

    def do_op(op):
        _, op_s, found = attempt(tally, op, workload.run, workload.check)
        slowness = slowness_since(calib)
        if op_s is not None:
            keys.append(op.key)
            wall.append(op_s)
            ref.append(op_s / slowness)
        for name, value in found.items():
            measures[name].append(value * slowness if name in POOLED else value)
            if name in MAXED:
                worst[op.key][name] = max(value, worst[op.key].get(name, value))

    run_cycles(workload, rng, seconds, do_op)
    metrics = dict.fromkeys(END_TO_END, NOT_MEASURED)
    if ref:
        tail_s, tail_at = tail(ref, keys)
        metrics.update(op_s_p50=median(ref), op_s_tail=tail_s)
    else:
        tail_at = "-"
    metrics.update(
        setup_s=setup_s,
        ok_rate=1.0 - tally.failed / max(tally.attempted, 1),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    for name, values in measures.items():
        metrics[name] = (max(values) if name in MAXED
                         else len(values) / sum(1.0 / v for v in values))
    notes = [f"ops {len(ref)}, op_s_tail is the {tail_at}",
             f"op times and flight rates at reference speed "
             f"(calibration {CALIBRATION_REF_S} s); this run: calibration "
             f"median {median(calib):.4g} s, wall op_s_p50 "
             f"{median(wall) if wall else 0.0:.4g} s",
             f"error_rate {tally.failed / max(tally.attempted, 1):.4g}",
             "not measured on this workload (reported as 1): "
             + ", ".join(sorted(set(MAXED + POOLED) - set(measures)))]
    # how far each case stays under its gates
    notes += [f"case {key}: " + ", ".join(
        f"{name} {v:.3g} ({v / METRIC_TOL[name]:.2g} of gate {METRIC_TOL[name]:g})"
        for name, v in sorted(worst[key].items())) for key in sorted(worst)]
    return tally, metrics, END_TO_END, notes


def traced_run(workload, rng, seconds: float, seed: int):
    from spans import Tracer
    import layers
    from workloads import layer_mismatch

    tracer = Tracer()
    layers.install(tracer)
    tally = Tally()
    ops, walks, overheads = [], [], []
    calib = [calibration_seconds()]

    def under(op_id, fn):
        def run(op):
            tracer.begin_op(op_id)
            try:
                return fn(op)
            finally:
                tracer.end_op()
        return run

    def do_op(op):
        for law in op.laws:
            layers.install_law(tracer, law)
        op_id = f"{len(ops)}:{op.key}"
        ops.append(op_id)
        # the op runs plain and traced, the two taking turns to go first,
        # each timed at the reference speed; the overhead is their difference
        runs = [("plain", workload.run), ("traced", under(op_id, workload.run))]
        if len(ops) % 2 == 0:
            runs.reverse()
        done = {}
        for kind, fn in runs:
            out, op_s, _ = attempt(tally, op, fn, workload.check)
            slowness = slowness_since(calib)
            done[kind] = (out, None if op_s is None else op_s / slowness)
        out, traced_s = done["traced"]
        plain_s = done["plain"][1]
        if traced_s is not None and plain_s is not None:
            overheads.append(traced_s - plain_s)
        if out is not None and hasattr(workload, "walk"):
            walks.append(op_id + ":walk")
            attempt(tally, op, under(walks[-1], workload.walk),
                    lambda op, walk: ({}, layer_mismatch(out["field"], walk)))

    try:
        run_cycles(workload, rng, seconds, do_op)
    finally:
        tracer.restore()
    out_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"spans-{workload.name}-{seed}.json"),
              "w") as fh:
        json.dump([s._asdict() for s in tracer.spans], fh)
    metrics = layers.layer_metrics(tracer, ops, walks, overheads)
    notes = [f"traced ops {len(ops)}, walks {len(walks)}, spans {len(tracer.spans)}"]
    return tally, metrics, dict(layers.PER_LAYER), notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    use_source_tree()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    rng = np.random.default_rng(args.seed)
    if args.setup_probe:
        workload.cycle(rng)
        print(time.perf_counter() - T0, calibration_seconds())
        return 0

    if args.trace:
        tally, metrics, units, notes = traced_run(workload, rng, args.seconds,
                                                  args.seed)
    else:
        setup_s = setup_seconds(args.workload, args.seed)
        tally, metrics, units, notes = plain_run(workload, rng, args.seconds,
                                                 setup_s)
    for name, value in metrics.items():
        print(f"{args.workload:16s} {name:36s} {value:.6g} {units[name]}")
    for line in notes + tally.failures:
        print(f"{args.workload:16s} {line}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
