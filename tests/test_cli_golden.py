"""The CLI's CSV artifacts against checked-in golden files.

Each case reruns one command through `randflight.cli.main` and compares
its CSV with ``tests/data/cli/<case>.csv``: the same header and row
count, and every value within 1e-11 of the largest magnitude in its
golden column.  That absorbs last-digit differences between CPUs and
catches any change of the arithmetic; the recurrence's deliberate moves
have been 1e-8 and more.

Regenerating the golden files is a deliberate step, to be logged with
its reason:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import csv
import sys
from pathlib import Path

import numpy as np
import pytest

from randflight.cli import main

DATA = Path(__file__).resolve().parent / "data" / "cli"
RTOL = 1e-11

_SMALL = ["--K", "4", "--nr", "12"]
_CG = ["--m", "2", "--law", "circular_gaussian", "--k", "1.5", "--ntheta", "8"]
CASES = {
    "density_uniform_m2": ["density", "--m", "2", *_SMALL],
    "layers_uniform_m2": ["layers", "--m", "2", *_SMALL],
    "density_uniform_m3": ["density", "--m", "3", *_SMALL],
    "layers_uniform_m3": ["layers", "--m", "3", *_SMALL],
    "density_cg1.5": ["density", *_CG, *_SMALL],
    "layers_cg1.5": ["layers", *_CG, *_SMALL],
    "layers_cg1.5_lam1.3_c0.9_t1.1": ["layers", *_CG, *_SMALL, "--lambda",
                                       "1.3", "--c", "0.9", "--t", "1.1"],
}


def _read(path: Path) -> tuple[list, np.ndarray]:
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return header, np.array(rows, dtype=float)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_csv_matches_the_golden_file(tmp_path, case):
    out = tmp_path / f"{case}.csv"
    assert main(CASES[case] + ["--out", str(out)]) == 0
    want_header, want = _read(DATA / f"{case}.csv")
    header, got = _read(out)
    assert header == want_header
    assert got.shape == want.shape
    scale = np.max(np.abs(want), axis=0)
    worst = np.max(np.abs(got - want), axis=0)
    assert np.all(worst <= RTOL * scale), dict(zip(header, zip(worst, scale)))


if __name__ == "__main__":
    DATA.mkdir(parents=True, exist_ok=True)
    for name, args in CASES.items():
        if main(args + ["--out", str(DATA / f"{name}.csv")]) != 0:
            sys.exit(f"{name} failed")
        (DATA / f"{name}.csv.meta.json").unlink()
