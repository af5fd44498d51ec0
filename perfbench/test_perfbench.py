"""Negative controls for the benchmark's gates, and tracer arithmetic.

    python3 -m pytest perfbench/test_perfbench.py -q

A gate that never trips would let a wrong result count as a fast one.
These tests feed real op outputs through the same accounting the
benchmark uses, then perturb them and check that the op is counted
failed.
"""

import dataclasses
import os
import sys
import threading
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import numpy as np  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer  # noqa: E402


def first_op(workload, seed=0):
    return workload.cycle(np.random.default_rng(seed))[0]


def test_closed_form_gate_trips_on_scaled_field():
    wl = workloads.PlanarDeep()
    op = first_op(wl)
    out = wl.run(op)
    tally = run.Tally()
    run.attempt(tally, op, lambda op: out, wl.check)
    assert (tally.attempted, tally.failed) == (1, 0), tally.failures
    scaled = dict(out, values=out["values"] * (1 + 1e-2))
    run.attempt(tally, op, lambda op: scaled, wl.check)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "closed-form" in tally.failures[0]


def test_histogram_gate_trips_on_shifted_bin():
    wl = workloads.MCHistogram()
    wl.flights = wl.cg_flights = 200_000
    op = first_op(wl, seed=1)
    out = wl.run(op)
    tally = run.Tally()
    run.attempt(tally, op, lambda op: out, wl.check)
    assert (tally.attempted, tally.failed) == (1, 0), tally.failures

    est = out["serial"]
    values = est.values.copy()
    values[20] += 10 * est.standard_errors[20]
    shifted = dataclasses.replace(est, values=values)
    bad = dict(out, serial=shifted, parallel=shifted)
    run.attempt(tally, op, lambda op: bad, wl.check)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "histogram |z|" in tally.failures[0]


def test_raising_op_counts_as_failed():
    tally = run.Tally()

    def boom(op):
        raise FloatingPointError("overflow")

    run.attempt(tally, SimpleNamespace(key="x"), boom, None)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_walk_mismatch_is_reported():
    a = SimpleNamespace(n=1, values=np.ones(3))
    b = SimpleNamespace(n=2, values=np.ones(3))
    b_off = SimpleNamespace(n=2, values=np.ones(3) * (1 + 1e-15))
    field_obj = SimpleNamespace(layers=(a, b))
    assert workloads.layer_mismatch(field_obj, [a, b]) == []
    assert len(workloads.layer_mismatch(field_obj, [a, b_off])) == 1
    assert len(workloads.layer_mismatch(field_obj, [a])) == 1


def test_self_time_subtracts_covered_child_time():
    tracer = Tracer()
    tracer.spans = [Span(0, "parent", 0.0, 10.0, None, "op"),
                    Span(1, "child", 1.0, 3.0, 0, "op"),
                    Span(2, "child", 2.0, 5.0, 0, "op"),   # overlaps: threads
                    Span(3, "child", 8.0, 12.0, 0, "op")]  # runs past parent
    assert tracer.self_times()[0] == 10.0 - 4.0 - 2.0


def test_wrap_records_spans_and_counts_then_restores():
    holder = SimpleNamespace(f=lambda x, n=3: x * n)
    orig = holder.f
    tracer = Tracer()
    tracer.wrap(holder, "f", "f", counters={"f.n": lambda a, r: a["n"]})
    assert holder.f(2) == 6 and tracer.spans == []  # no op: not recorded
    tracer.begin_op("op")
    assert holder.f(2) == 6
    tracer.end_op()
    assert [s.name for s in tracer.spans] == ["f"]
    assert tracer.counts[("op", "f.n")] == 3
    tracer.restore()
    assert holder.f is orig


def test_wrap_counts_every_call_from_many_threads():
    holder = SimpleNamespace(f=lambda size: size)
    tracer = Tracer()
    tracer.wrap(holder, "f", "f", counters={"f.size": lambda a, r: a["size"]})
    tracer.begin_op("op")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=lambda: [holder.f(2) for _ in range(500)])
                   for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
        tracer.end_op()
    assert not any(w.is_alive() for w in workers)
    assert len(tracer.spans) == 8 * 500
    assert tracer.counts[("op", "f.size")] == 2 * 8 * 500
    assert len({s.sid for s in tracer.spans}) == 8 * 500
