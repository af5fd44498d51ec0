"""What the traced run wraps, and the per-layer metrics it derives.

Layers are the modules of randflight.  ``core``, ``analytic`` and
``cli`` do under 1% of any op and get no timing of their own.
Unless noted, a ``_s`` metric is the median over traced ops of the
seconds an op spends in that function, and a count is the median over
ops of its per-op total.  A metric of a layer that a workload does not
run reads 0.
"""

from __future__ import annotations

from statistics import median

import numpy as np

from randflight import cf, sampler
from randflight import convolution as conv

from workloads import PlanarDeep

K_MAX = PlanarDeep.K  # deepest per-turn step reported

PER_LAYER = (
    [("convolution.transition_density_s", "s"),
     ("convolution.seed_layer_s", "s"),
     ("convolution.seed_step_s", "s"),
     ("convolution.step_s", "s")]
    + [(f"convolution.step_s.n{n}", "s") for n in range(3, K_MAX + 1)]
    + [("convolution.ac_profile_s", "s"),
       ("convolution.residual_check_s", "s"),
       ("dissipation.chi_evals", "count"),
       ("dissipation.chi_s", "s"),
       ("dissipation.sample_draws", "count"),
       ("dissipation.sample_s", "s"),
       ("sampler.estimate_density_s", "s"),
       ("sampler.simulate_batch_s", "s"),
       ("sampler.bin_s", "s"),
       ("sampler.kept_ratio", "ratio"),
       ("sampler.par_speedup", "ratio"),
       ("cf.volterra_cf_s", "s"),
       ("cf.volterra_nodes", "count"),
       ("cf.laplace_identity_error_s", "s"),
       ("cf.layer_fourier_s", "s"),
       ("cf.sphere_cf_s", "s"),
       ("specfun.bessel_j0_calls", "count"),
       ("specfun.gauss_2f1_calls", "count"),
       ("trace.overhead_s", "s")])


def install(tracer) -> None:
    """Wrap the module-level entry points of every timed layer."""
    for fn in ("transition_density", "seed_layer", "next_layer", "ac_profile",
               "residual_check"):
        tracer.wrap(conv, fn, f"convolution.{fn}")
    tracer.wrap(sampler, "estimate_density", "sampler.estimate_density",
                counters={"sampler.flights": lambda a, r: a["n_samples"],
                          "sampler.kept": lambda a, r: r.n_conditioned})
    tracer.wrap(sampler, "simulate_batch", "sampler.simulate_batch")
    tracer.wrap(cf, "volterra_cf", "cf.volterra_cf",
                counters={"cf.volterra_nodes": lambda a, r: a["steps"]})
    for fn in ("sphere_cf", "layer_fourier", "laplace_identity_error"):
        tracer.wrap(cf, fn, f"cf.{fn}")
    # scalar special functions: call counts only, a span each would
    # cost more than the call
    tracer.wrap(cf, "bessel_j0", "specfun.bessel_j0_calls", span=False)
    tracer.wrap(conv, "gauss_2f1", "specfun.gauss_2f1_calls", span=False)


def install_law(tracer, law) -> None:
    """Wrap the methods of one law instance the benchmark built."""
    tracer.wrap(law, "density_from_axis_cos", "dissipation.chi",
                counters={"dissipation.chi_evals": lambda a, r: np.size(a["ux"])})
    tracer.wrap(law, "sample", "dissipation.sample",
                counters={"dissipation.sample_draws": lambda a, r: a["size"]})


def _med(values) -> float:
    values = list(values)
    return float(median(values)) if values else 0.0


def layer_metrics(tracer, ops: list, walks: list, overheads: list) -> dict:
    """Per-layer metrics from the spans of ``ops`` (traced ops) and
    ``walks`` (their per-turn walks).  ``overheads`` holds, per op, its
    traced minus its plain time, both at the reference machine speed."""
    selfs = tracer.self_times()

    def spent(name, ids=ops, own=False):
        groups = tracer.by_op(name)
        return _med(sum(selfs[s.sid] if own else s.end - s.start
                        for s in groups.get(o, ())) for o in ids)

    def count(name):
        return _med(tracer.counts.get((o, name), 0.0) for o in ops)

    nexts = tracer.by_op("convolution.next_layer")
    steps = [[s.end - s.start for s in nexts.get(w, ())] for w in walks]
    est = tracer.by_op("sampler.estimate_density")
    est_calls = [s.end - s.start for o in ops for s in est.get(o, ())]
    flights = sum(tracer.counts.get((o, "sampler.flights"), 0.0) for o in ops)
    kept = sum(tracer.counts.get((o, "sampler.kept"), 0.0) for o in ops)
    m = {
        "convolution.transition_density_s": spent("convolution.transition_density"),
        "convolution.seed_layer_s": spent("convolution.seed_layer", walks),
        # the next_layer call for 1 -> 2 consumes the graded seed ladder
        "convolution.seed_step_s": _med(st[0] for st in steps if st),
        "convolution.step_s": _med(x for st in steps for x in st[1:]),
    }
    for n in range(3, K_MAX + 1):  # next_layer call n - 2 makes layer n
        m[f"convolution.step_s.n{n}"] = _med(st[n - 2] for st in steps
                                             if len(st) > n - 2)
    m.update({
        "convolution.ac_profile_s": spent("convolution.ac_profile"),
        "convolution.residual_check_s": spent("convolution.residual_check"),
        "dissipation.chi_evals": count("dissipation.chi_evals"),
        "dissipation.chi_s": spent("dissipation.chi"),
        "dissipation.sample_draws": count("dissipation.sample_draws"),
        "dissipation.sample_s": spent("dissipation.sample"),
        "sampler.estimate_density_s": _med(est_calls),
        "sampler.simulate_batch_s": spent("sampler.simulate_batch"),
        # self time of estimate_density: binning and merging
        "sampler.bin_s": spent("sampler.estimate_density", own=True),
        "sampler.kept_ratio": kept / flights if flights else 0.0,
        # an mc-histogram op makes the same estimate at 1 thread, then at nproc
        "sampler.par_speedup": _med(
            (c[0].end - c[0].start) / (c[1].end - c[1].start)
            for c in (est.get(o, ()) for o in ops) if len(c) >= 2),
        "cf.volterra_cf_s": spent("cf.volterra_cf"),
        "cf.volterra_nodes": count("cf.volterra_nodes"),
        "cf.laplace_identity_error_s": spent("cf.laplace_identity_error"),
        "cf.layer_fourier_s": spent("cf.layer_fourier"),
        "cf.sphere_cf_s": spent("cf.sphere_cf"),
        "specfun.bessel_j0_calls": count("specfun.bessel_j0_calls"),
        "specfun.gauss_2f1_calls": count("specfun.gauss_2f1_calls"),
        "trace.overhead_s": _med(overheads),
    })
    return m
