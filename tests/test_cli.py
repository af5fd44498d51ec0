import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from randflight import cli
from randflight.cli import _build_parser, load_config, main


def run_cli(args):
    return main(args)


def rejected(capsys, args) -> str:
    """Run the CLI on ``args``, which it must refuse with exit code 2,
    by return or, for argparse's own errors, by SystemExit, naming the
    reason on stderr without a traceback; return that stderr."""
    try:
        code = main(args)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert re.search(r"^randflight[a-z ]*: ", err, re.M), err
    assert "Traceback" not in err
    return err


def test_density_command_writes_csv_and_sidecar(tmp_path):
    out = tmp_path / "d.csv"
    code = run_cli(["density", "--m", "2", "--law", "uniform", "--lambda",
                    "1", "--c", "1", "--t", "1", "--K", "4", "--nr", "24",
                    "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "r,p_ac"
    assert len(lines) == 25
    meta = json.loads((tmp_path / "d.csv.meta.json").read_text())
    assert meta["mass_accounting"]["singular_weight"] == \
        pytest.approx(math.exp(-1), rel=1e-12)
    assert meta["mass_accounting"]["total"] == pytest.approx(1.0, abs=2e-3)
    assert meta["config"]["schema"] == 1
    assert "wall_time_s" in meta and "version" in meta


def test_layers_command_header(tmp_path):
    out = tmp_path / "layers.csv"
    code = run_cli(["layers", "--m", "2", "--law", "uniform", "--t", "1",
                    "--K", "2", "--nr", "16", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,r,value"
    assert len(lines) == 1 + 2 * 16


def test_simulate_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--m", "3", "--law", "uniform", "--t", "1",
            "--n", "50000", "--seed", "7", "--nr", "16"]
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
    assert meta["estimate"]["n_samples"] == 50000
    assert meta["seed"] == 7


def test_simulate_thread_count_does_not_change_artifact(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--m", "2", "--law", "uniform", "--t", "1",
            "--n", "50000", "--seed", "3", "--nr", "12"]
    assert run_cli(args + ["--threads", "1", "--out", str(a)]) == 0
    assert run_cli(args + ["--threads", "4", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_file_with_flag_override(tmp_path):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({
        "schema": 1, "m": 2, "law": {"kind": "uniform"}, "lam": 1.0,
        "c": 1.0, "t": 1.0, "K": 2, "nr": 12, "out": "ignored.csv"}))
    out = tmp_path / "o.csv"
    code = run_cli(["density", "--config", str(cfgfile), "--out", str(out),
                    "--K", "3"])
    assert code == 0
    meta = json.loads((tmp_path / "o.csv.meta.json").read_text())
    assert meta["config"]["K"] == 3  # flag wins over file
    assert len(meta["mass_accounting"]["layer_masses"]) == 3


def test_config_resolution_file_then_flags(tmp_path):
    # every key of the config file lands in its field; flags win over it
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({
        "schema": 1, "m": 3, "law": {"kind": "uniform"}, "lam": 2.0,
        "c": 0.5, "t": 1.5, "K": 4, "nr": 12, "ntheta": 10,
        "out": "file.csv", "fmt": "json", "alphas": [1, 2]}))
    args = _build_parser().parse_args(
        ["cf", "--config", str(cfgfile), "--nr", "20",
         "--alphas", "0.5,3", "--law", "circular_gaussian", "--k", "1.5",
         "--m", "2"])
    cfg = load_config(args)
    assert (cfg.m, cfg.lam, cfg.c, cfg.t, cfg.K) == (2, 2.0, 0.5, 1.5, 4)
    assert cfg.law == {"kind": "circular_gaussian", "k": 1.5}
    assert cfg.nr == 20 and cfg.ntheta == 10
    assert isinstance(cfg.ntheta, int)
    assert (cfg.out, cfg.fmt) == ("file.csv", "json")
    assert cfg.alphas == (0.5, 3.0)
    # the sampler's fields, through the one command that reads them
    cfgfile.write_text(json.dumps({
        "n_samples": 30000, "seed": 11, "threads": 3, "conditioning": 2}))
    cfg = load_config(_build_parser().parse_args(
        ["simulate", "--config", str(cfgfile), "--seed", "4",
         "--threads", "1"]))
    assert (cfg.n_samples, cfg.seed, cfg.threads, cfg.conditioning) == \
        (30000, 4, 1, 2)


def test_config_file_beats_defaults_and_env(tmp_path, monkeypatch, capsys):
    # defaults, then RANDFLIGHT_THREADS, then the file, then the flags
    monkeypatch.setenv("RANDFLIGHT_THREADS", "2")
    cfgfile = tmp_path / "run.json"
    # K = 1 once left validate's mass cascade empty and crashed it
    cfgfile.write_text(json.dumps({"seed": 5, "K": 1}))
    assert run_cli(["validate", "--config", str(cfgfile)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "3/3 checks passed"
    parser = _build_parser()
    cfgfile.write_text(json.dumps({"seed": 5, "threads": 1}))
    cfg = load_config(parser.parse_args(["simulate", "--config", str(cfgfile)]))
    assert (cfg.seed, cfg.threads) == (5, 1)
    cfg = load_config(parser.parse_args(
        ["simulate", "--config", str(cfgfile), "--threads", "3",
         "--seed", "6"]))
    assert (cfg.seed, cfg.threads) == (6, 3)
    cfg = load_config(parser.parse_args(["simulate"]))
    assert (cfg.seed, cfg.threads) == (0, 2)


def test_circular_gaussian_cli(tmp_path):
    out = tmp_path / "cg.csv"
    code = run_cli(["density", "--m", "2", "--law", "circular_gaussian",
                    "--k", "1.0", "--t", "1", "--K", "2", "--nr", "12",
                    "--ntheta", "8", "--out", str(out)])
    assert code == 0
    assert out.read_text().splitlines()[0] == "r,theta,p_ac"


def test_invalid_config_exits_2(tmp_path, capsys):
    rejected(capsys, ["density", "--m", "1",
                      "--out", str(tmp_path / "x.csv")])
    rejected(capsys, ["density", "--law", "circular_gaussian",
                      "--out", str(tmp_path / "x.csv")])
    rejected(capsys, ["simulate", "--seed", "-1", "--n", "20000",
                      "--out", str(tmp_path / "x.csv")])
    # validate once ended in numpy's ValueError and exit 1, a failed check
    rejected(capsys, ["validate", "--seed", "-1"])
    # threads 0 once ran on one thread, and its sidecar could not replay
    rejected(capsys, ["simulate", "--threads", "0", "--n", "20000",
                      "--out", str(tmp_path / "x.csv")])
    bad = tmp_path / "bad.json"
    bad.write_text("{\"schema\": 99}")
    rejected(capsys, ["density", "--config", str(bad),
                      "--out", str(tmp_path / "x.csv")])


@pytest.mark.parametrize("k", ["nan", "inf"])
def test_a_non_finite_k_exits_2(tmp_path, capsys, k):
    # --k nan once ran and exited 3, "layer 1 leaves the float range", and
    # --k inf exited 3 as an I0 overflow
    out = tmp_path / "x.csv"
    rejected(capsys, ["density", "--law", "circular_gaussian", "--k", k,
                      "--out", str(out)])
    assert not out.exists()


def test_sidecar_config_replays_the_run(tmp_path):
    # the sidecar once wrote n_r/n_theta, which load_config ignored: a
    # --nr 12 run replayed from its own config wrote 64 rows
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(["density", "--m", "2", "--law", "circular_gaussian",
                    "--k", "1.0", "--t", "1", "--K", "2", "--nr", "12",
                    "--ntheta", "8", "--out", str(a)]) == 0
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps(
        json.loads((tmp_path / "a.csv.meta.json").read_text())["config"]))
    assert run_cli(["density", "--config", str(replay),
                    "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_text().splitlines()) == 1 + 12 * 8


@pytest.mark.parametrize("body", [{"lambda": 5, "nR": 3}, {"n_r": 12},
                                  {"command": "simulate"},
                                  {"s_values": [0.5, 1.0, 2.0]},
                                  {"suite": "core"}],
                         ids=["unknown", "old-name", "other-command",
                              "retired-key", "retired-suite"])
def test_config_rejects_keys_it_would_ignore(tmp_path, capsys, body):
    # unknown keys were once skipped: {"lambda": 5, "nR": 3} ran with
    # the defaults
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(body))
    rejected(capsys, ["density", "--config", str(bad),
                      "--out", str(tmp_path / "x.csv")])
    assert not (tmp_path / "x.csv").exists()


def test_density_json_format_matches_csv(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.json"
    args = ["density", "--m", "3", "--law", "uniform", "--t", "1",
            "--K", "2", "--nr", "10"]
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--format", "json", "--out", str(b)]) == 0
    doc = json.loads(b.read_text())
    assert set(doc) == {"columns", "rows"}
    with open(a, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert doc["columns"] == header == ["r", "p_ac"]
    assert [[format(v, ".12g") for v in row] for row in doc["rows"]] == rows


def test_cf_command(tmp_path):
    out = tmp_path / "cf.csv"
    code = run_cli(["cf", "--m", "2", "--law", "uniform", "--t", "1",
                    "--K", "5", "--nr", "33", "--alphas", "0.5,1.0",
                    "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "alpha,volterra,layer_sum,abs_diff"
    meta = json.loads((tmp_path / "cf.csv.meta.json").read_text())
    assert meta["max_abs_diff"] < 1e-3 + meta["tail_mass"]


def test_validate_command(capsys):
    code = run_cli(["validate", "--m", "2"])
    captured = capsys.readouterr()
    assert code == 0
    assert "PASS" in captured.out
    assert "FAIL" not in captured.out
    # validate has no --suite option
    rejected(capsys, ["validate", "--suite", "all"])


def test_validate_positions_only_the_zero_turn_flights(monkeypatch, capsys):
    # validate counts zero-turn flights only; it once positioned all
    # 200,000.  The sizes are drawn first, so the line stays as it was
    calls, simulate = [], cli.simulate_batch

    def recording(*args, **kwargs):
        calls.append(kwargs.get("conditioning"))
        return simulate(*args, **kwargs)

    monkeypatch.setattr(cli, "simulate_batch", recording)
    assert run_cli(["validate", "--m", "2"]) == 0
    assert calls == [0]
    assert capsys.readouterr().out.splitlines()[0] == \
        "zero-event-fraction  PASS  0.36923 vs 0.36788 (4se 0.00431)"


def test_validate_fails_on_a_wrong_zero_turn_count(monkeypatch, capsys):
    # a sampler that puts every flight in the one-turn group
    def no_zero_turn(params, law, t, n_samples, rng, conditioning=None):
        return np.zeros((0, params.m)), [0, n_samples]

    monkeypatch.setattr(cli, "simulate_batch", no_zero_turn)
    assert main(["validate"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "FAIL" in next(ln for ln in lines if ln.startswith("zero-event-fraction"))
    assert lines[-1] == "2/3 checks passed"


def test_env_threads_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("RANDFLIGHT_THREADS", "2")
    out = tmp_path / "e.csv"
    code = run_cli(["simulate", "--m", "2", "--law", "uniform", "--t", "1",
                    "--n", "20000", "--seed", "1", "--nr", "8",
                    "--out", str(out)])
    assert code == 0
    meta = json.loads((tmp_path / "e.csv.meta.json").read_text())
    assert meta["config"]["threads"] == 2


@pytest.mark.parametrize("args", [
    ["density", "--m", "2", "--k", "2.5", "--K", "1", "--nr", "8"],
    ["density", "--law", "uniform", "--k", "1.0", "--K", "1", "--nr", "8"],
    ["layers", "--m", "2", "--ntheta", "5"],
    ["layers", "--m", "2", "--ntheta", "0"],
], ids=["k-default-law", "k-uniform-law", "ntheta-odd", "ntheta-zero"])
def test_config_rejects_flags_it_would_ignore(tmp_path, capsys, args):
    # --k with the uniform law, and an ntheta that PolarGrid refuses, once
    # ran and wrote the ignored value into the sidecar
    out = tmp_path / "x.csv"
    rejected(capsys, args + ["--out", str(out)])
    assert not out.exists()


def test_simulate_rejects_a_fractional_conditioning(tmp_path, capsys):
    # a config file's 1.5 once ran as conditioning 1
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({"conditioning": 1.5, "n_samples": 20000}))
    out = tmp_path / "x.csv"
    rejected(capsys, ["simulate", "--config", str(cfgfile), "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("command,body", [
    ("density", {"K": 2.5}), ("density", {"m": 2.0}), ("cf", {"m": 2.0}),
    ("simulate", {"n_samples": 20000.0}), ("density", {"lam": "1"}),
    ("density", {"law": "uniform"}),
    ("density", {"law": {"kind": "circular_gaussian", "k": "x"}}),
    ("density", {"nr": 12.7}), ("density", {"K": True}),
    ("simulate", {"threads": 0, "n_samples": 20000}),
    ("cf", {"alphas": [1.0, "2"]}), ("density", [1, 2]),
    ("density", {"law": {"kind": "uniform", "k": 3.0}}),
    ("density", {"seed": -1}), ("density", {"lam": math.inf}),
    ("density", {"law": {"kind": "circular_gaussian", "k": math.nan}}),
    ("simulate", {"law": {"kind": "circular_gaussian", "k": math.nan}}),
    ("simulate", {"n_samples": 5000})],
    ids=["K-float", "m-float", "cf-m-float", "n-float", "lam-string",
         "law-string", "k-string", "nr-float", "K-bool", "threads-zero",
         "alphas-string", "not-an-object", "k-uniform-law", "seed-negative",
         "lam-inf", "k-nan", "simulate-k-nan", "n-below-1e4"])
def test_config_rejects_a_value_of_the_wrong_type(tmp_path, capsys, command,
                                                  body):
    # these crashed with a traceback and exit 1, which means a failed
    # validate check, or ran coerced: nr 12.7 as 12 and K true as 1; a
    # uniform law's k and a seed of -1 ran and were written to the sidecar,
    # and an infinite lam failed in the Poisson weights
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps(body))
    out = tmp_path / "x.csv"
    rejected(capsys, [command, "--config", str(cfgfile), "--out", str(out)])
    assert not out.exists()


def test_n_samples_rule_is_the_estimators(tmp_path, capsys):
    # the rule once said >= 1, so --n 5000 passed it and exited 2 only
    # from inside estimate_density, with the library's own message
    out = tmp_path / "x.csv"
    assert "n_samples must be an integer >= 10000, got 5000" \
        in rejected(capsys, ["simulate", "--n", "5000", "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["simulate", "--conditioning", "1.5", "--n", "20000"],
    ["cf", "--alphas", "1,x"]], ids=["conditioning-fraction", "alphas-word"])
def test_flags_are_converted_where_they_are_parsed(tmp_path, capsys, args):
    out = tmp_path / "x.csv"
    rejected(capsys, args + ["--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5"])
def test_env_threads_must_be_a_positive_integer(tmp_path, monkeypatch, capsys,
                                               value):
    monkeypatch.setenv("RANDFLIGHT_THREADS", value)
    out = tmp_path / "x.csv"
    rejected(capsys, ["simulate", "--n", "20000", "--out", str(out)])
    assert not out.exists()


def test_k_overrides_a_config_file_circular_gaussian(tmp_path):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({"law": {"kind": "circular_gaussian",
                                           "k": 0.5}}))
    cfg = load_config(_build_parser().parse_args(
        ["density", "--config", str(cfgfile), "--k", "2.0"]))
    assert cfg.law == {"kind": "circular_gaussian", "k": 2.0}


@pytest.mark.parametrize("out", ["nodir/x.csv", "."],
                         ids=["missing-directory", "a-directory"])
def test_out_directory_must_exist(tmp_path, monkeypatch, capsys, out):
    # these were once found only after the whole run, as a FileNotFoundError
    # or IsADirectoryError traceback and exit 1, a failed validate check
    monkeypatch.chdir(tmp_path)
    rejected(capsys, ["density", "--K", "1", "--nr", "8", "--out", out])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command,body", [
    ("density", {"n_samples": 5, "conditioning": 3, "alphas": [9]}),
    ("cf", {"seed": 1}), ("layers", {"threads": 2}),
    ("validate", {"out": "v.csv"}), ("validate", {"nr": 12}),
    ("simulate", {"K": 3})],
    ids=["density-sampler-fields", "cf-seed", "layers-threads",
         "validate-out", "validate-nr", "simulate-K"])
def test_config_rejects_fields_the_command_does_not_read(tmp_path, capsys,
                                                         command, body):
    # these ran and were written to the sidecar as if they had been used
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps(body))
    out = tmp_path / "x.csv"
    rejected(capsys, [command, "--config", str(cfgfile), "--out", str(out)]
                     if command != "validate" else
                     [command, "--config", str(cfgfile)])
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["density", "--seed", "3"], ["density", "--threads", "2"],
    ["layers", "--n", "20000"], ["cf", "--conditioning", "1"],
    ["validate", "--out", "v.csv"], ["simulate", "--K", "3"]],
    ids=["density-seed", "density-threads", "layers-n", "cf-conditioning",
         "validate-out", "simulate-K"])
def test_commands_take_only_the_flags_they_read(tmp_path, capsys, args):
    out = tmp_path / "x.csv"
    rejected(capsys, args + ["--out", str(out)] if "--out" not in args else args)
    assert not out.exists()


def test_sidecar_records_the_fields_its_command_reads(tmp_path):
    out = tmp_path / "d.csv"
    assert run_cli(["density", "--K", "1", "--nr", "8", "--out", str(out)]) == 0
    meta = json.loads((tmp_path / "d.csv.meta.json").read_text())
    assert set(meta["config"]) == {"command", "schema", "m", "law", "lam",
                                   "c", "t", "K", "nr", "ntheta", "out", "fmt"}
    assert "seed" not in meta  # density draws nothing


def test_python_dash_m_runs_the_cli(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "d.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "randflight", "density", "--m", "2", "--K", "1",
         "--nr", "8", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().splitlines()[0] == "r,p_ac"
