"""The benchmark's tracer must still find everything it wraps.

``perfbench/layers.py`` replaces module globals of randflight (and
methods of the law instances the benchmark builds) with recording
wrappers, binding some of their argument names.  A rename in the
library would otherwise only show when a traced benchmark run breaks.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

from randflight import cf, sampler
from randflight import convolution as conv
from randflight.convolution import StepConfig
from randflight.core import FlightParams, PolarGrid, RadialGrid
from randflight.dissipation import CircularGaussianLaw, UniformLaw

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

SPANS = ("convolution.transition_density", "convolution.seed_layer",
         "convolution.next_layer", "convolution.ac_profile",
         "convolution.residual_check", "sampler.estimate_density",
         "sampler.simulate_batch", "cf.volterra_cf", "cf.sphere_cf",
         "cf.layer_fourier", "cf.laplace_identity_error", "dissipation.chi",
         "dissipation.sample")
# specfun.gauss_2f1_calls reads 0: no engine path evaluates the series
COUNTERS = ("sampler.flights", "sampler.kept", "cf.volterra_nodes",
            "specfun.bessel_j0_calls", "dissipation.chi_evals",
            "dissipation.sample_draws")


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return (importlib.import_module("layers"),
            importlib.import_module("spans"))


def test_tracer_wraps_every_entry_point(bench):
    layers, spans = bench
    p2 = FlightParams(2, 1.0, 1.0)
    uni, cg = UniformLaw(p2), CircularGaussianLaw(p2, 1.0)
    originals = {name: getattr(conv, name) for name in
                 ("transition_density", "seed_layer", "next_layer",
                  "gauss_2f1")}
    cfg = StepConfig(ladder_slots=8, n_sigma=9, time_order=4, arc_order=4)
    grid = RadialGrid.build(p2, 1.0, 8)
    pgrid = PolarGrid.build(p2, 1.0, 4, 8)

    tracer = spans.Tracer()
    layers.install(tracer)
    for law in (uni, cg):
        layers.install_law(tracer, law)
    try:
        tracer.begin_op("op")
        field = conv.transition_density(p2, uni, 1.0, 2, grid, cfg)
        conv.ac_profile(field, grid.nodes)
        conv.residual_check(field, cfg)
        conv.next_layer(p2, cg, conv.seed_layer(p2, cg, 1.0, pgrid, cfg),
                        config=cfg)
        sampler.estimate_density(p2, uni, 1.0, 10_000, grid, seed=1)
        sampler.estimate_density(p2, cg, 1.0, 10_000, pgrid, seed=2)
        cf.volterra_cf(p2, uni, np.array([1.0, 0.0]), 1.0, 64)
        cf.sphere_cf(p2, uni, np.array([1.0, 0.0]), 1.0)
        cf.layer_fourier(field.layers[1], p2, np.array([1.0, 0.0]))
        cf.laplace_identity_error(p2, uni, np.array([1.0, 0.0]), [2.0],
                                  t_max=8.0, steps=128)
        tracer.end_op()
        for law in (uni, cg):
            assert {"density_from_axis_cos", "sample"} <= set(vars(law))
    finally:
        tracer.restore()

    missing = [name for name in SPANS if not tracer.by_op(name).get("op")]
    assert not missing, f"no span recorded for {missing}"
    zero = [name for name in COUNTERS if not tracer.counts.get(("op", name))]
    assert not zero, f"counters stayed zero: {zero}"
    for name, fn in originals.items():
        assert getattr(conv, name) is fn
    for law in (uni, cg):
        assert not {"density_from_axis_cos", "sample"} & set(vars(law))
