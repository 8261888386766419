"""Pinned traces of the default ridge and softmax configs and of a ridge
run with churn.

The files in ``golden/`` were written by ``gossipsim run`` at seeds 0 and
3 on the configs in :data:`CONFIGS`: the default (``{}``), softmax, and a
ridge run whose nodes drop out (``dropout_p`` 0.2, ``lambda`` 0.5) and
rejoin de-emphasised (0.5), the only one that exercises the churn stream.
A change to how a sum is taken may move a value in its last digits;
a change to the model, the RNG draw order or a formula moves it further
and fails here.  A change that means to alter the numbers re-blesses the
files on purpose and says why.
"""

from __future__ import annotations

import json
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from gossipsim.cli import EXIT_OK, main
from gossipsim.diagnostics import TRACE_COLUMNS, read_trace_csv

GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIGS = {
    "ridge": {},
    "softmax": {"suite": {"kind": "softmax"}},
    "ridge-churn": {"churn": {"dropout_p": 0.2, "lambda": 0.5}, "deemphasis": 0.5},
}
RTOL = 1e-9
ATOL = 1e-12


def _columns(path) -> np.ndarray:
    return np.array([astuple(row) for row in read_trace_csv(path)], dtype=float)


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_trace_matches_golden(tmp_path, kind, seed):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(CONFIGS[kind]))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--seed", str(seed)]) == EXIT_OK
    got = _columns(out / "trace.csv")
    want = _columns(GOLDEN / f"{kind}-seed{seed}.csv")
    assert got.shape == want.shape
    for j, name in enumerate(TRACE_COLUMNS):
        close = np.isclose(got[:, j], want[:, j], rtol=RTOL, atol=ATOL, equal_nan=True)
        assert close.all(), (
            f"column {name} differs from the golden trace at rounds "
            f"{np.flatnonzero(~close).tolist()}"
        )
