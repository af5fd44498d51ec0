"""Batch command-line interface.

Subcommands: ``simulate`` (Monte Carlo histograms), ``layers`` (the
turn-count layers), ``density`` (the assembled transition density),
``cf`` (spectral cross-check), ``validate`` (cross-route checks).  Every
run but ``validate`` writes the requested CSV artifact plus a JSON
metadata sidecar with the resolved configuration of the fields its
command reads, the seed where it draws one, package version, wall time
and the mass accounting.  Outputs are byte-identical for identical
(configuration, seed, worker count).

Exit codes: 0 success, 1 a ``validate`` check failed, 2 configuration/usage
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .cf import layer_fourier, sphere_cf, volterra_cf
from .convolution import ac_profile, transition_density
from .core import FlightParams, PolarGrid, RadialGrid, poisson_weight
from .dissipation import CircularGaussianLaw, law_from_config
from .errors import DomainError, EstimationError, NumericError
from .sampler import estimate_density, simulate_batch

SCHEMA_VERSION = 1


@dataclass
class RunConfig:
    """Resolved configuration of one CLI run."""

    command: str
    m: int = 2
    law: dict = field(default_factory=lambda: {"kind": "uniform"})
    lam: float = 1.0
    c: float = 1.0
    t: float = 1.0
    K: int = 8
    nr: int = 64
    ntheta: int = 16
    n_samples: int = 1_000_000
    seed: int = 0
    conditioning: str | int = "all"
    out: str = "out.csv"
    fmt: str = "csv"
    threads: int | None = None
    alphas: tuple = (0.5, 1.0, 2.0)

    def params(self) -> FlightParams:
        return FlightParams(self.m, self.c, self.lam)

    def to_dict(self) -> dict:
        """The command, the fields it reads and the schema: a config file
        that replays the run."""
        return {"command": self.command,
                **{k: getattr(self, k) for k in _FIELDS[self.command]},
                "schema": SCHEMA_VERSION}


# the fields each command reads, on top of the flight (m, lam, c, t) and
# the law; a config file may hold no other, and a sidecar records these
_FLIGHT = ("m", "law", "lam", "c", "t")
_FIELDS = {
    "simulate": (*_FLIGHT, "nr", "ntheta", "n_samples", "seed", "conditioning",
                 "out", "fmt", "threads"),
    "layers": (*_FLIGHT, "K", "nr", "ntheta", "out", "fmt"),
    "density": (*_FLIGHT, "K", "nr", "ntheta", "out", "fmt"),
    "cf": (*_FLIGHT, "K", "nr", "ntheta", "alphas", "out", "fmt"),
    "validate": (*_FLIGHT, "K", "seed"),
}

_HELP = {
    "simulate": "Monte Carlo density histogram",
    "layers": "turn-count layers 1..K",
    "density": "assembled transition density",
    "cf": "characteristic-function cross-check",
    "validate": "cross-check Monte Carlo and the recurrence against the "
                "Poisson weights",
}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="randflight",
                                description="random-flight density engine")
    sub = p.add_subparsers(dest="command", required=True)
    kwargs = {
        "m": dict(type=int), "lam": dict(type=float), "c": dict(type=float),
        "t": dict(type=float), "K": dict(type=int),
        "nr": dict(type=int, help="radial grid nodes"),
        "ntheta": dict(type=int, help="angular grid nodes"),
        "n_samples": dict(type=int), "seed": dict(type=int),
        "conditioning": dict(type=_conditioning, help="'all' or an event count"),
        "alphas": dict(type=_alphas, help="comma-separated inversion magnitudes"),
        "out": dict(help="output CSV path"), "fmt": dict(choices=["csv", "json"]),
        "threads": dict(type=int, help="worker count (default $RANDFLIGHT_THREADS)"),
    }
    flag = {"lam": "--lambda", "n_samples": "--n", "fmt": "--format"}  # else --<field>
    for command, fields in _FIELDS.items():
        sp = sub.add_parser(command, help=_HELP[command])
        sp.add_argument("--config", help="JSON config file; flags override it")
        sp.add_argument("--law", choices=["uniform", "circular_gaussian"])
        sp.add_argument("--k", type=float, help="circular Gaussian concentration")
        for name in fields:
            if name in kwargs:
                sp.add_argument(flag.get(name, "--" + name), dest=name,
                                **kwargs[name])
    return p


def _conditioning(s: str) -> str | int:
    return s if s == "all" else int(s)


def _alphas(s: str) -> list[float]:
    return [float(a) for a in s.split(",")]


def _is_number(v, kinds=(int, float)) -> bool:
    return isinstance(v, kinds) and not isinstance(v, bool)  # bool is an int


def _integer(lo: int):
    return lambda v: _is_number(v, int) and v >= lo, f"an integer >= {lo}"


# the one rule for each `RunConfig` field but ``command``, whatever its source
_RULES = {
    "m": _integer(2), "K": _integer(1), "nr": _integer(2),
    "n_samples": _integer(10_000), "seed": _integer(0),
    "ntheta": (lambda v: _is_number(v, int) and v >= 8 and v % 2 == 0,
               "an even integer >= 8"),  # PolarGrid's rule, for every law
    **dict.fromkeys(("lam", "c", "t"),
                    (lambda v: _is_number(v) and 0 < v < math.inf,
                     "a finite number > 0")),
    "out": (lambda v: isinstance(v, str), "a string"),
    "fmt": (lambda v: v in ("csv", "json"), '"csv" or "json"'),
    "threads": (lambda v: v is None or _is_number(v, int) and v >= 1,
                "null or an integer >= 1"),
    "conditioning": (lambda v: v == "all" or _is_number(v, int) and v >= 0,
                     '"all" or an integer >= 0'),
    "law": (lambda v: isinstance(v, dict), "an object (see law_from_config)"),
    "alphas": (lambda v: isinstance(v, (list, tuple)) and all(map(_is_number, v)),
               "a list of numbers"),
}


def load_config(args: argparse.Namespace) -> RunConfig:
    """Resolve a run from the defaults, $RANDFLIGHT_THREADS, the --config
    file and the flags, each overriding the ones before; a null is "not
    given" in every source, and --law/--k fold into the law object.  The
    file is a JSON object of the command's `_FIELDS` and ``schema``, as a
    sidecar's ``config`` is.  The merged values are checked once against
    `_RULES`, the law by `law_from_config`, and ``out`` must name a file
    in an existing directory; any other key, a value that breaks its
    rule, or an ``out`` that cannot be written so raises `DomainError`,
    before any work is done."""
    fields = _FIELDS[args.command]
    file: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                file = json.load(fh)
        except (OSError, ValueError) as exc:
            raise DomainError(f"cannot read config: {exc}") from None
        if not isinstance(file, dict):
            raise DomainError("config must be a JSON object, "
                              f"got a {type(file).__name__}")
        schema = file.pop("schema", SCHEMA_VERSION)
        if schema != SCHEMA_VERSION:
            raise DomainError(f"unsupported config schema {schema}")
        if file.pop("command", args.command) != args.command:
            raise DomainError(f"config is not for command {args.command!r}")
        if set(file) - set(fields):
            raise DomainError(f"config keys {sorted(set(file) - set(fields))} "
                              f"are not read by {args.command!r}")
    flags = {k: v for k, v in vars(args).items() if k in fields}
    flags["law"] = args.law and {"kind": args.law}
    merged = vars(RunConfig(args.command))
    if "threads" in fields:
        env = os.environ.get("RANDFLIGHT_THREADS") or None  # a non-integer fails the rule
        merged["threads"] = int(env) if env and env.isdecimal() else env
    for source in (file, flags):
        merged.update((k, v) for k, v in source.items() if v is not None)
    for key in fields:
        ok, rule = _RULES[key]
        if not ok(merged[key]):
            raise DomainError(f"{key} must be {rule}, got {merged[key]!r}")
    if args.k is not None:
        merged["law"] = {**merged["law"], "k": args.k}
    cfg = RunConfig(**{**merged, "alphas": tuple(map(float, merged["alphas"]))})
    law_from_config(cfg.law, cfg.params())
    if "out" in fields and (os.path.isdir(cfg.out) or
                            not os.path.isdir(os.path.dirname(cfg.out) or ".")):
        raise DomainError(f"out {cfg.out!r} is not a file in an existing directory")
    return cfg


def _write_rows(path: str, fmt: str, header: list[str], rows: list) -> None:
    if fmt == "json":
        with open(path, "w") as fh:
            json.dump({"columns": header,
                       "rows": [[_num(v) for v in row] for row in rows]},
                      fh, indent=1)
            fh.write("\n")
        return
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt_num(v) for v in row])


def _num(v):
    return int(v) if isinstance(v, (int, np.integer)) else float(v)


def _fmt_num(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".12g")


def _sidecar(path: str, cfg: RunConfig, started: float, extra: dict) -> None:
    meta = {
        "config": cfg.to_dict(),
        "version": __version__,
        **({"seed": cfg.seed} if "seed" in _FIELDS[cfg.command] else {}),
        "wall_time_s": time.time() - started,
    }
    meta.update(extra)
    with open(path + ".meta.json", "w") as fh:
        json.dump(meta, fh, indent=1, default=float)
        fh.write("\n")


def _grid(cfg: RunConfig, params: FlightParams, law, uniform_bins=False):
    if isinstance(law, CircularGaussianLaw):
        return PolarGrid.build(params, cfg.t, cfg.nr, cfg.ntheta)
    if uniform_bins:
        return RadialGrid.build_uniform(params, cfg.t, cfg.nr)
    return RadialGrid.build(params, cfg.t, cfg.nr)


def _field(cfg: RunConfig):
    """The run's assembled transition density and its grid."""
    params = cfg.params()
    law = law_from_config(cfg.law, params)
    grid = _grid(cfg, params, law)
    return transition_density(params, law, cfg.t, cfg.K, grid), grid


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def _cmd_simulate(cfg: RunConfig) -> dict:
    params = cfg.params()
    law = law_from_config(cfg.law, params)
    grid = _grid(cfg, params, law, uniform_bins=True)
    est = estimate_density(params, law, cfg.t, cfg.n_samples, grid,
                           conditioning=cfg.conditioning, seed=cfg.seed,
                           threads=cfg.threads)
    _write_rows(cfg.out, cfg.fmt, *_node_table(grid, ["density", "stderr"],
                                               est.values, est.standard_errors))
    return {"estimate": {
        "n_samples": est.n_samples,
        "n_conditioned": est.n_conditioned,
        "boundary_fraction": est.boundary_fraction,
        "zero_event_weight": math.exp(-params.lam * cfg.t),
    }}


def _node_table(grid, names: list[str], *columns, lead=()) -> tuple[list, list]:
    """Header and rows ``[*lead, r, theta (polar grids only), *columns]``
    over the grid's nodes, radius-major; each column has the grid's shape."""
    if isinstance(grid, PolarGrid):
        return ["r", "theta", *names], [
            [*lead, r, th, *(col[i, j] for col in columns)]
            for i, r in enumerate(grid.nodes) for j, th in enumerate(grid.thetas)]
    return ["r", *names], [[*lead, r, *(col[i] for col in columns)]
                           for i, r in enumerate(grid.nodes)]


def _cmd_layers(cfg: RunConfig) -> dict:
    field_obj, grid = _field(cfg)
    rows = []
    for layer in field_obj.layers:
        header, part = _node_table(grid, ["value"], layer.values, lead=(layer.n,))
        rows += part
    _write_rows(cfg.out, cfg.fmt, ["n", *header], rows)
    return {"mass_accounting": _mass_accounting(field_obj)}


def _mass_accounting(field_obj) -> dict:
    return {
        "singular_weight": field_obj.singular_weight,
        "layer_masses": list(field_obj.layer_masses),
        "tail_mass": field_obj.tail,
        "total": field_obj.total_mass(),
    }


def _cmd_density(cfg: RunConfig) -> dict:
    field_obj, grid = _field(cfg)
    if isinstance(grid, PolarGrid):  # angle-major
        header = ["r", "theta", "p_ac"]
        rows = [[r, th, v] for th in grid.thetas
                for r, v in zip(grid.nodes, ac_profile(field_obj, grid.nodes, th))]
    else:
        header, rows = _node_table(grid, ["p_ac"], ac_profile(field_obj, grid.nodes))
    _write_rows(cfg.out, cfg.fmt, header, rows)
    return {"mass_accounting": _mass_accounting(field_obj)}


def _cmd_cf(cfg: RunConfig) -> dict:
    field_obj, _ = _field(cfg)
    params, law = field_obj.params, field_obj.law
    sing_w = field_obj.singular_weight
    rows = []
    header = ["alpha", "volterra", "layer_sum", "abs_diff"]
    for a in cfg.alphas:
        alpha = np.zeros(params.m)
        alpha[0] = a
        G = volterra_cf(params, law, alpha, cfg.t, 2048).values[-1]
        total = sing_w * sphere_cf(params, law, alpha, cfg.t).real
        for layer in field_obj.layers:
            total += layer_fourier(layer, params, alpha)
        rows.append([a, G.real, total, abs(G.real - total)])
    _write_rows(cfg.out, cfg.fmt, header, rows)
    worst = max(row[3] for row in rows)
    return {"max_abs_diff": worst,
            "tail_mass": field_obj.tail,
            "mass_accounting": _mass_accounting(field_obj)}


def _cmd_validate(cfg: RunConfig) -> dict:
    checks = _validation_checks(cfg)
    width = max(len(name) for name, _, _ in checks)
    failures = 0
    results = []
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        failures += not ok
        print(f"{name:<{width}}  {status}  {detail}")
        results.append({"check": name, "pass": bool(ok), "detail": detail})
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return {"checks": results, "failures": failures}


def _validation_checks(cfg: RunConfig) -> list[tuple[str, bool, str]]:
    """The Monte Carlo zero-turn fraction, and the recurrence's field mass
    and layer-mass ratios, against the Poisson weights."""
    params = cfg.params()
    law = law_from_config(cfg.law, params)
    n, rng = 200_000, np.random.default_rng(cfg.seed)
    # the sizes are drawn first; only the zero-turn group is positioned
    _, sizes = simulate_batch(params, law, cfg.t, n, rng, conditioning=0)
    p0 = sizes[0] / n
    target = math.exp(-params.lam * cfg.t)
    se = math.sqrt(target * (1 - target) / n)
    checks = [("zero-event-fraction", abs(p0 - target) < 4 * se,
               f"{p0:.5f} vs {target:.5f} (4se {4 * se:.5f})")]

    if params.m in (2, 3) and not isinstance(law, CircularGaussianLaw):
        grid = RadialGrid.build(params, cfg.t, 33)
        # two layers at least, so that there is a cascade to check
        field_obj = transition_density(params, law, cfg.t,
                                       min(max(cfg.K, 2), 5), grid)
        defect = abs(field_obj.total_mass() - 1.0)
        checks.append(("field-mass", defect < 2e-3, f"defect {defect:.2e}"))
        lm = field_obj.layer_masses
        worst = max(abs(lm[n] / lm[n - 1] - poisson_weight(n + 1, params, cfg.t)
                        / poisson_weight(n, params, cfg.t))
                    for n in range(1, len(lm)))
        checks.append(("mass-cascade", worst < 1e-2, f"worst ratio defect {worst:.2e}"))
    return checks


_COMMANDS = {
    "simulate": _cmd_simulate,
    "layers": _cmd_layers,
    "density": _cmd_density,
    "cf": _cmd_cf,
    "validate": _cmd_validate,
}


def run(cfg: RunConfig) -> int:
    started = time.time()
    extra = _COMMANDS[cfg.command](cfg)
    if cfg.command == "validate":
        return 0 if extra["failures"] == 0 else 1
    _sidecar(cfg.out, cfg, started, extra)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return run(load_config(args))
    except (NumericError, EstimationError) as exc:
        print(f"randflight: numerical failure: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"randflight: invalid configuration: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
