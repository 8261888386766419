from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import subprocess
import sys
import warnings

import pytest

from gossipsim.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main, pool_size
from gossipsim.config import ConfigError, run_config_from_dict, run_config_to_dict, spawn_seeded
from gossipsim.diagnostics import TRACE_COLUMNS, read_trace_csv

SMALL = {
    "n": 4,
    "rounds": 5,
    "seed": 7,
    "churn": {"dropout_p": 0.2, "lambda": 1.0},
    "partition": {"alpha": 1.0},
    "suite": {"classes": 3, "dim": 4, "total": 40},
}


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_run_default_config_produces_fifty_rows(tmp_path):
    cfg = _write_config(tmp_path, {})
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = read_trace_csv(out / "trace.csv")
    assert len(rows) == 50
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["n"] == 14
    assert manifest["seeds"] == [0]
    assert len(manifest["suite_sha256"]) == 64


def test_run_rejects_zero_eta_naming_field(tmp_path, capsys):
    cfg = _write_config(tmp_path, dict(SMALL, eta={"eta0": 0.0}))
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert "field 'eta': eta must be positive" in capsys.readouterr().err


def test_run_rejects_a_rate_above_one(tmp_path, capsys):
    # with eta > 1 the factor (1 - eta) turned gap_term negative, and
    # check failed the run's trace on nonnegative distances
    cfg = _write_config(tmp_path, {"n": 4, "rounds": 6, "eta": {"kind": "constant", "eta0": 1.5},
                                   "churn": {"dropout_p": 0.5}})
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert "field 'eta': eta must be at most 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_rejects_unknown_field(tmp_path, capsys):
    cfg = _write_config(tmp_path, dict(SMALL, learning_rate=0.1))
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert "learning_rate" in capsys.readouterr().err


@pytest.mark.parametrize("patch, message", [
    ({"wtilde_mode": "literal"}, "unknown field 'wtilde_mode'"),
    ({"partition": {"scheme": "iid", "alpha": "inf"}}, "unknown field 'partition.scheme'"),
    ({"suite": {"gamma_weights": "uniform"}}, "unknown field 'suite.gamma_weights'"),
    ({"eta": 0.05}, "field 'eta' must be an object"),
    # per_node sized the i.i.d. split only, and a Dirichlet split ignored it
    ({"partition": {"alpha": 1.0, "per_node": 500}}, "unknown field 'partition.per_node'"),
    ({"partition": {"alpha": "inf", "per_node": 10}}, "unknown field 'partition.per_node'"),
    ({"mobility": {"step": 1.0}}, "unknown field 'mobility.step'"),
], ids=["wtilde_mode", "partition.scheme", "suite.gamma_weights", "bare eta",
        "per_node, finite alpha", "per_node, infinite alpha", "mobility.step"])
def test_run_rejects_a_removed_config_form(tmp_path, capsys, patch, message):
    cfg = _write_config(tmp_path, dict(SMALL, **patch))
    out = tmp_path / "out"
    for argv in (["run"], ["sweep", "--axis", "alpha", "--values", "inf,1", "--seeds", "1"]):
        assert main(argv + ["--config", cfg, "--out", str(out)]) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_run_rejects_malformed_json_with_line_info(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 4,,}')
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert "line" in capsys.readouterr().err


@pytest.mark.parametrize("patch, field", [
    ({"churn": {"lambda": math.nan}}, "churn.lambda"),
    ({"eta": {"eta0": math.nan}}, "eta"),
    ({"eta": {"kind": "constant", "eta0": math.inf}}, "eta.eta0"),
    ({"mobility": {"radius": -math.inf}}, "mobility.radius"),
    ({"init_scale": math.nan}, "init_scale"),
    ({"suite": {"target_curvature": math.inf}}, "suite.target_curvature"),
    ({"partition": {"alpha": math.nan}}, "partition.alpha"),
])
def test_run_rejects_non_finite_numbers(tmp_path, capsys, patch, field):
    cfg = _write_config(tmp_path, dict(SMALL, **patch))  # json writes NaN/Infinity literals
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert field in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("patch, field", [
    ({"init_scale": "0.5"}, "init_scale"),
    ({"eta": {"eta0": "0.05"}}, "eta.eta0"),
    ({"churn": {"lambda": "nan"}}, "churn.lambda"),
    ({"suite": {"target_curvature": "inf"}}, "suite.target_curvature"),
    ({"partition": {"alpha": "1.0"}}, "partition.alpha"),
])
def test_config_numbers_are_json_numbers(patch, field):
    # a number written as a string is not a second spelling of it
    with pytest.raises(ConfigError, match=f"field '{field}': expected a number"):
        run_config_from_dict(patch)


@pytest.mark.parametrize("alpha", [math.inf, "inf", "Infinity"])
def test_config_alpha_alone_may_be_infinite(alpha):
    assert run_config_from_dict({"partition": {"alpha": alpha}}).partition.alpha == math.inf
    with pytest.raises(ConfigError):
        run_config_from_dict({"deemphasis": alpha})


ECHO_KEYS = {
    "n", "rounds", "eta", "local_epochs", "batch_size", "mobility", "churn", "seed",
    "offline_training", "deemphasis", "init_scale", "partition", "suite",
}
ECHO_SECTION_KEYS = {
    "eta": {"kind", "eta0"},
    "mobility": {"area_width", "area_height", "speed_min", "speed_max", "pause", "radius"},
    "churn": {"dropout_p", "lambda"},
    "partition": {"alpha"},
    "suite": {"kind", "classes", "dim", "total", "separation", "reg", "target_curvature"},
}


@pytest.mark.parametrize("raw", [
    {},
    {"partition": {"alpha": "inf"}},
    {"suite": {"target_curvature": None}},
    {"eta": {"kind": "decay", "eta0": 0.05}},
    {"churn": {"lambda": 2.0}},
])
def test_config_echo_round_trips(raw):
    config = run_config_from_dict(raw)
    echo = run_config_to_dict(config)
    assert run_config_from_dict(echo) == config
    assert set(echo) == ECHO_KEYS
    assert {k: set(echo[k]) for k in ECHO_SECTION_KEYS} == ECHO_SECTION_KEYS
    json.dumps(echo, allow_nan=False)  # plain JSON: an infinite alpha is the string "inf"


def test_spawn_seeded_keeps_every_other_field():
    base = run_config_from_dict({
        "n": 5, "rounds": 7, "eta": {"kind": "decay", "eta0": 0.3}, "local_epochs": 3,
        "batch_size": 9, "seed": 1, "offline_training": False, "deemphasis": 0.5,
        "init_scale": 0.2, "churn": {"lambda": 2.0},
    })
    spawned = spawn_seeded(base, 11)
    assert spawned.sim.seed == 11
    for f in dataclasses.fields(base.sim):
        if f.name != "seed":
            assert getattr(spawned.sim, f.name) == getattr(base.sim, f.name), f.name
    assert (spawned.partition, spawned.suite) == (base.partition, base.suite)


def test_run_same_seed_twice_identical_sha(tmp_path):
    cfg = _write_config(tmp_path, SMALL)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", "--config", cfg, "--out", str(out1)]) == EXIT_OK
    assert main(["run", "--config", cfg, "--out", str(out2)]) == EXIT_OK
    assert _sha(out1 / "trace.csv") == _sha(out2 / "trace.csv")
    assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()


def test_run_seed_flag_overrides(tmp_path):
    cfg = _write_config(tmp_path, SMALL)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", "--config", cfg, "--out", str(out1), "--seed", "8"]) == EXIT_OK
    assert main(["run", "--config", cfg, "--out", str(out2)]) == EXIT_OK
    assert _sha(out1 / "trace.csv") != _sha(out2 / "trace.csv")
    assert json.loads((out1 / "manifest.json").read_text())["seeds"] == [8]


def test_run_with_an_absence_past_int64_exits_zero_and_checks(tmp_path, capsys):
    # every node drops at t=0 for about 1e300 rounds: it never rejoins
    cfg = _write_config(tmp_path, {"n": 4, "rounds": 2,
                                   "churn": {"dropout_p": 1, "lambda": 1e-300}})
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert [r.n1 for r in read_trace_csv(out / "trace.csv")] == [0, 0]
    assert main(["check", "--out", str(out)]) == EXIT_OK
    assert "FAIL" not in capsys.readouterr().out


# configs whose runs overflow: the trace's first non-finite (round, column),
# or None where the suite cannot be built and nothing is written
OVERFLOWING = [
    ({"n": 4, "rounds": 2, "init_scale": 1e200}, "t=0 column dist_wbar_sq"),
    ({"n": 4, "rounds": 2, "churn": {"dropout_p": 1, "lambda": 5e-324}}, "t=0 column beta_t"),
    ({"n": 4, "rounds": 80, "eta": {"eta0": 1.0}, "suite": {"target_curvature": 50}},
     "t=45 column dist_wbar_sq"),
    ({"n": 4, "rounds": 2, "suite": {"separation": 1e200}}, None),
    ({"n": 4, "rounds": 2, "eta": {"eta0": 1.0}, "suite": {"target_curvature": 1e120}},
     "t=0 column dist_wbar_sq"),
    ({"n": 4, "rounds": 2, "suite": {"reg": 1e160}}, "t=0 column dist_wbar_sq"),
]


@pytest.mark.parametrize("payload, first_bad", OVERFLOWING)
def test_an_overflowing_run_exits_one_with_one_stderr_line(tmp_path, capsys, child_env,
                                                           payload, first_bad):
    cfg = _write_config(tmp_path, payload)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "gossipsim", "run", "--config", cfg, "--out", str(out)],
        env=child_env, capture_output=True, text=True,
    )
    assert proc.returncode == EXIT_RUNTIME
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("run failed: ")
    if first_bad is None:
        assert not out.exists()
        return
    message = f"non-finite value in {out / 'trace.csv'} {first_bad}"
    assert proc.stderr == f"run failed: {message}\n"
    assert (out / "manifest.json").exists()
    assert main(["check", "--out", str(out)]) == EXIT_RUNTIME
    assert f"FAIL  finite values: {message}\n" in capsys.readouterr().out


@pytest.mark.parametrize("payload, first_bad", OVERFLOWING)
def test_an_overflowing_sweep_exits_one_with_one_stderr_line(tmp_path, capsys, payload, first_bad):
    cfg = _write_config(tmp_path, payload)
    out = tmp_path / "sweep"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["sweep", "--config", cfg, "--axis", "deemphasis", "--values", "1",
                     "--seeds", "0", "--out", str(out)])
    assert code == EXIT_RUNTIME
    assert caught == []
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("sweep failed: ")
    if first_bad is not None:
        assert err.endswith(f"deemphasis=1/seed=0/trace.csv {first_bad}\n")


def test_sweep_layout_and_summary(tmp_path):
    cfg = _write_config(tmp_path, SMALL)
    out = tmp_path / "sweep"
    code = main([
        "sweep", "--config", cfg, "--axis", "dropout_p",
        "--values", "0,0.1,0.2", "--seeds", "1,2", "--out", str(out),
    ])
    assert code == EXIT_OK
    traces = sorted(out.glob("runs/*/*/trace.csv"))
    assert len(traces) == 6
    lines = (out / "summary.csv").read_text().splitlines()
    assert len(lines) == 4  # header + one row per value
    assert lines[0].startswith("axis,value,runs,")
    assert all(line.split(",")[2] == "2" for line in lines[1:])


def test_sweep_summary_matches_recomputation(tmp_path):
    import numpy as np

    cfg = _write_config(tmp_path, SMALL)
    out = tmp_path / "sweep"
    main(["sweep", "--config", cfg, "--axis", "lambda",
          "--values", "0.5,1", "--seeds", "1,2,3", "--out", str(out)])
    lines = (out / "summary.csv").read_text().splitlines()[1:]
    for line in lines:
        cells = line.split(",")
        label = cells[1]
        finals = [
            read_trace_csv(p)[-1].dist_wtilde_sq
            for p in sorted(out.glob(f"runs/lambda={label}/seed=*/trace.csv"))
        ]
        assert float(cells[3]) == pytest.approx(np.mean(finals), rel=1e-10)
        assert float(cells[4]) == pytest.approx(np.std(finals, ddof=1), rel=1e-10)


def test_sweep_alpha_axis_accepts_inf(tmp_path):
    cfg = _write_config(tmp_path, SMALL)
    for spelling in ("inf", "INF", " Infinity"):  # float() reads every case and spacing
        out = tmp_path / f"sweep-{spelling.strip()}"
        code = main(["sweep", "--config", cfg, "--axis", "alpha",
                     "--values", f"1,{spelling}", "--seeds", "1", "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "runs" / "alpha=inf" / "seed=1" / "trace.csv").exists()


def test_sweep_unknown_axis_exits_two(tmp_path, capsys):
    cfg = _write_config(tmp_path, SMALL)
    code = main(["sweep", "--config", cfg, "--axis", "gravity",
                 "--values", "1", "--seeds", "1", "--out", str(tmp_path / "s")])
    assert code == EXIT_USAGE
    assert "axis" in capsys.readouterr().err


def test_sweep_empty_values_exits_two(tmp_path):
    cfg = _write_config(tmp_path, SMALL)
    code = main(["sweep", "--config", cfg, "--axis", "dropout_p",
                 "--values", "", "--seeds", "1", "--out", str(tmp_path / "s")])
    assert code == EXIT_USAGE


def test_check_passes_on_fresh_sweep_and_is_stable(tmp_path, capsys):
    cfg = _write_config(tmp_path, SMALL)
    out = tmp_path / "sweep"
    main(["sweep", "--config", cfg, "--axis", "dropout_p",
          "--values", "0,0.2", "--seeds", "1,2", "--out", str(out)])
    assert main(["check", "--out", str(out)]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["check", "--out", str(out)]) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second
    assert "PASS" in first and "FAIL" not in first


def test_check_flags_tampered_trace(tmp_path, capsys):
    cfg = _write_config(tmp_path, SMALL)
    out = tmp_path / "run"
    main(["run", "--config", cfg, "--out", str(out)])
    trace = out / "trace.csv"
    lines = trace.read_text().splitlines()
    cells = lines[1].split(",")
    cells[3] = "-1.0"  # negative dist_wbar_sq
    lines[1] = ",".join(cells)
    trace.write_text("\n".join(lines) + "\n")
    assert main(["check", "--out", str(out)]) == EXIT_RUNTIME
    assert "nonnegative distances" in capsys.readouterr().out


@pytest.mark.parametrize("column", ["beta_t", "div_lhs", "mean_loss"])
def test_check_flags_non_finite_column(tmp_path, capsys, column):
    cfg = _write_config(tmp_path, SMALL)
    out = tmp_path / "run"
    main(["run", "--config", cfg, "--out", str(out)])
    trace = out / "trace.csv"
    lines = trace.read_text().splitlines()
    cells = lines[2].split(",")
    cells[TRACE_COLUMNS.index(column)] = "nan"
    lines[2] = ",".join(cells)
    trace.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["check", "--out", str(out)]) == EXIT_RUNTIME
    assert "FAIL  finite values" in capsys.readouterr().out


def test_check_names_the_first_failing_row_of_each_check(tmp_path, capsys):
    cfg = _write_config(tmp_path, SMALL)
    out = tmp_path / "run"
    main(["run", "--config", cfg, "--out", str(out)])
    trace = out / "trace.csv"
    lines = trace.read_text().splitlines()
    # rows t=1 and t=2 each break all five row checks; t=1 must be named
    for line, non_finite in ((2, "beta_t"), (3, "mean_loss")):
        cells = dict(zip(TRACE_COLUMNS, lines[line].split(",")))
        cells.update({non_finite: "nan", "dist_wbar_sq": "-1.0", "n1": "0", "n2": "0",
                      "div_lhs": "1.0", "div_rhs_main": "1e9"})
        lines[line] = ",".join(cells[c] for c in TRACE_COLUMNS)
    trace.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["check", "--out", str(out)]) == EXIT_RUNTIME
    report = capsys.readouterr().out
    for name in ("node counts", "bound constant ordering", "zero gap at full participation"):
        line = next(line for line in report.splitlines() if f"FAIL  {name}:" in line)
        assert line.endswith(f"{trace} t=1"), line
    assert (f"FAIL  nonnegative distances: negative value in {trace} t=1 column dist_wbar_sq"
            in report)
    assert f"FAIL  finite values: non-finite value in {trace} t=1 column beta_t" in report


def test_a_skewed_split_of_flat_features_has_a_positive_gap_and_checks(tmp_path, capsys):
    # shard sizes 2-56: weighing the nodes by data share made this gap
    # -0.0969, and check failed the trace on column gamma
    cfg = _write_config(tmp_path, {"seed": 1, "partition": {"alpha": 0.1},
                                   "suite": {"target_curvature": 0.001}})
    out = tmp_path / "run"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert all(row.gamma > 0 for row in read_trace_csv(out / "trace.csv"))
    capsys.readouterr()
    assert main(["check", "--out", str(out)]) == EXIT_OK
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("keep", [0, 2])
def test_check_fails_on_missing_rows_without_crashing(tmp_path, capsys, keep):
    cfg = _write_config(tmp_path, SMALL)
    out = tmp_path / "run"
    main(["run", "--config", cfg, "--out", str(out)])
    trace = out / "trace.csv"
    trace.write_text("\n".join(trace.read_text().splitlines()[: 1 + keep]) + "\n")
    capsys.readouterr()
    assert main(["check", "--out", str(out)]) == EXIT_RUNTIME
    assert "FAIL  row count" in capsys.readouterr().out


@pytest.mark.parametrize("order, row, t", [("zeros", 1, 0), ("swapped", 1, 2)])
def test_check_fails_on_rounds_out_of_order(tmp_path, capsys, order, row, t):
    cfg = _write_config(tmp_path, SMALL)
    out = tmp_path / "run"
    main(["run", "--config", cfg, "--out", str(out)])
    trace = out / "trace.csv"
    header, *lines = trace.read_text().splitlines()
    if order == "zeros":
        lines = ["0" + line[line.index(","):] for line in lines]
    else:
        lines[1], lines[2] = lines[2], lines[1]
    trace.write_text("\n".join([header, *lines]) + "\n")
    capsys.readouterr()
    assert main(["check", "--out", str(out)]) == EXIT_RUNTIME
    assert (f"FAIL  row count: wrong rows in {trace} row {row} (t={t})"
            in capsys.readouterr().out)


def _cut_row(run):
    trace = run / "trace.csv"
    lines = trace.read_text().splitlines()
    lines[2] = ",".join(lines[2].split(",")[:12])
    trace.write_text("\n".join(lines) + "\n")
    return trace, "line 3 has 12 cells"


def _bad_header(run):
    trace = run / "trace.csv"
    trace.write_text(trace.read_text().replace("dist_wbar_sq", "dist_wbar", 1))
    return trace, "unexpected trace header"


def _edit_manifest(run, edit):
    manifest = run / "manifest.json"
    payload = json.loads(manifest.read_text())
    edit(payload)
    manifest.write_text(json.dumps(payload))
    return manifest


def _manifest_not_json(run):
    (run / "manifest.json").write_text("{not json")
    return run / "manifest.json", "Expecting property name"


def _manifest_without_config(run):
    return _edit_manifest(run, lambda m: m.pop("config")), "missing field 'config'"


def _unknown_eta_kind(run):
    manifest = _edit_manifest(run, lambda m: m["config"]["eta"].update(kind="linear"))
    return manifest, "unknown eta schedule 'linear'"


@pytest.mark.parametrize("damage", [
    _manifest_not_json, _manifest_without_config, _bad_header, _cut_row, _unknown_eta_kind,
])
def test_check_reports_malformed_outputs_in_one_line(tmp_path, capsys, damage):
    cfg = _write_config(tmp_path, SMALL)
    out = tmp_path / "run"
    main(["run", "--config", cfg, "--out", str(out)])
    path, reason = damage(out)
    capsys.readouterr()
    assert main(["check", "--out", str(out)]) == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"check error: {path}: ")
    assert reason in captured.err
    assert captured.err.count("\n") == 1


def _edit_summary(sweep, edit):
    summary = sweep / "summary.csv"
    rows = [line.split(",") for line in summary.read_text().splitlines()]
    edit(rows)
    summary.write_text("\n".join(",".join(cells) for cells in rows) + "\n")
    return summary


def _runs_not_a_number(sweep):
    return _edit_summary(sweep, lambda rows: rows[1].__setitem__(2, "two")), "runs is not a number"


def _statistic_not_a_number(sweep):
    summary = _edit_summary(sweep, lambda rows: rows[2].__setitem__(5, "abc"))
    return summary, "final_mean_loss_mean is not a number"


def _missing_column(sweep):
    def drop_last(rows):
        for cells in rows:
            cells.pop()

    return _edit_summary(sweep, drop_last), "missing column 'final_mean_loss_std'"


def _short_summary_row(sweep):
    return _edit_summary(sweep, lambda rows: rows[1].pop()), "line 2 has 6 cells"


@pytest.mark.parametrize("damage", [
    _runs_not_a_number, _statistic_not_a_number, _missing_column, _short_summary_row,
])
def test_check_reports_a_malformed_summary_in_one_line(tmp_path, capsys, damage):
    cfg = _write_config(tmp_path, SMALL)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--axis", "dropout_p",
                 "--values", "0,0.2", "--seeds", "1", "--out", str(out)]) == EXIT_OK
    path, reason = damage(out)
    capsys.readouterr()
    assert main(["check", "--out", str(out)]) == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"check error: {path}: ")
    assert reason in captured.err
    assert captured.err.count("\n") == 1


def test_check_fails_a_nan_summary_statistic(tmp_path, capsys):
    cfg = _write_config(tmp_path, SMALL)
    out = tmp_path / "sweep"
    main(["sweep", "--config", cfg, "--axis", "dropout_p",
          "--values", "0", "--seeds", "1,2", "--out", str(out)])
    _edit_summary(out, lambda rows: rows[1].__setitem__(3, "nan"))
    assert main(["check", "--out", str(out)]) == EXIT_RUNTIME
    assert "FAIL  summary consistency: final_dist_wtilde_sq_mean mismatch" in capsys.readouterr().out


def test_check_missing_outputs_exits_two(tmp_path):
    assert main(["check", "--out", str(tmp_path / "nothing")]) == EXIT_USAGE
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["check", "--out", str(empty)]) == EXIT_USAGE


def test_sweep_parallel_jobs_match_serial(tmp_path):
    cfg = _write_config(tmp_path, SMALL)
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    args = ["sweep", "--config", cfg, "--axis", "dropout_p",
            "--values", "0,0.2", "--seeds", "1,2"]
    assert main(args + ["--out", str(serial)]) == EXIT_OK
    assert main(args + ["--out", str(parallel), "--jobs", "2"]) == EXIT_OK
    assert (serial / "summary.csv").read_bytes() == (parallel / "summary.csv").read_bytes()
    for trace in serial.glob("runs/*/*/trace.csv"):
        twin = parallel / trace.relative_to(serial)
        assert trace.read_bytes() == twin.read_bytes()


def test_sweep_reads_no_environment_variable(tmp_path, monkeypatch):
    # GOSSIPSIM_JOBS once overrode --jobs, and a non-integer value exited 2
    cfg = _write_config(tmp_path, SMALL)
    monkeypatch.setenv("GOSSIPSIM_JOBS", "abc")
    assert main(["sweep", "--config", cfg, "--axis", "dropout_p",
                 "--values", "0", "--seeds", "1", "--out", str(tmp_path / "s")]) == EXIT_OK
    assert (tmp_path / "s" / "summary.csv").exists()


@pytest.mark.parametrize("flag, env", [("-2", None), ("0", None), ("0", "4")])
def test_sweep_jobs_below_one_is_a_config_error(tmp_path, capsys, monkeypatch, flag, env):
    # env: a GOSSIPSIM_JOBS value set alongside, which must not override the flag
    cfg = _write_config(tmp_path, SMALL)
    if env is not None:
        monkeypatch.setenv("GOSSIPSIM_JOBS", env)
    args = ["sweep", "--config", cfg, "--axis", "dropout_p",
            "--values", "0", "--seeds", "1", "--out", str(tmp_path / "s")]
    assert main(args + ["--jobs", flag]) == EXIT_USAGE
    assert "config error: --jobs must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("jobs, tasks, cpus, workers", [
    (2, 12, 2, 2),
    (8, 12, 2, 2),  # no more workers than CPUs
    (8, 3, 16, 3),  # no more workers than tasks
    (1, 12, 16, 1),
    (64, 12, None, 1),  # an unknown CPU count counts as one
])
def test_pool_size_is_clamped_to_tasks_and_cpus(jobs, tasks, cpus, workers):
    assert pool_size(jobs, tasks, cpus) == workers


@pytest.mark.parametrize("axis, values", [
    ("lambda", "nan"), ("eta", "inf"), ("alpha", "1,-inf"), ("dropout_p", "0,2"),
])
def test_sweep_rejects_bad_axis_values(tmp_path, capsys, axis, values):
    cfg = _write_config(tmp_path, SMALL)
    code = main(["sweep", "--config", cfg, "--axis", axis,
                 "--values", values, "--seeds", "1", "--out", str(tmp_path / "s")])
    assert code == EXIT_USAGE
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_module_entrypoint_runs(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "gossipsim", "--version"],
        env=child_env, capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "gossipsim" in proc.stdout


@pytest.mark.parametrize("values, seeds", [
    ("0.1,0.10", "1"),  # one value written twice
    ("0.1", "1,1"),  # one seed given twice
    ("0.1,0.1000001", "1"),  # distinct values that share the label 0.1
])
def test_sweep_rejects_duplicate_runs(tmp_path, capsys, values, seeds):
    cfg = _write_config(tmp_path, SMALL)
    code = main(["sweep", "--config", cfg, "--axis", "dropout_p", "--values", values,
                 "--seeds", seeds, "--jobs", "2", "--out", str(tmp_path / "s")])
    assert code == EXIT_USAGE
    assert "must be distinct" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("argv, patch", [
    (["run", "--seed", "-1"], {}),
    (["run"], {"seed": -1}),
    (["sweep", "--axis", "dropout_p", "--values", "0", "--seeds", "-1"], {}),
])
def test_negative_seed_is_a_config_error(tmp_path, capsys, argv, patch):
    cfg = _write_config(tmp_path, dict(SMALL, **patch))
    code = main(argv + ["--config", cfg, "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert "seed must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("patch, key", [
    ({"kind": "svm"}, "kind"),
    ({"reg": -1}, "reg"),
    ({"classes": 1}, "classes"),
    ({"reg": 0}, "reg"),
    ({"total": 2}, "total"),
    ({"dim": 0}, "dim"),
    ({"separation": 0}, "separation"),
    ({"target_curvature": -1}, "target_curvature"),
])
def test_run_rejects_a_bad_suite_section(tmp_path, capsys, patch, key):
    cfg = _write_config(tmp_path, dict(SMALL, suite=dict(SMALL["suite"], **patch)))
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "field 'suite'" in err and key in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("axis, values, field", [
    ("lambda", "nan", "churn.lambda"),
    ("eta", "inf", "eta.eta0"),
    ("alpha", "1,-inf", "partition.alpha"),
    ("dropout_p", "0,2", "field 'churn': dropout_p"),
    ("deemphasis", "1.5", "deemphasis must lie in [0, 1]"),
    ("eta", "1.5", "field 'eta': eta must be at most 1"),
])
def test_sweep_values_are_validated_like_file_values(tmp_path, capsys, axis, values, field):
    cfg = _write_config(tmp_path, SMALL)
    code = main(["sweep", "--config", cfg, "--axis", axis,
                 "--values", values, "--seeds", "1", "--out", str(tmp_path / "s")])
    assert code == EXIT_USAGE
    assert field in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def _drop_churn_lambda(config):
    del config["churn"]["lambda"]


def _zero_nodes(config):
    config["n"] = 0


def _echo_a_shard_size(config):
    config["partition"]["per_node"] = 0


def _echo_a_step_length(config):
    config["mobility"]["step"] = 1.0


@pytest.mark.parametrize("edit, reason", [
    (_drop_churn_lambda, "not a canonical echo"),
    (_zero_nodes, "n must be at least 1"),
    # what a manifest echoed before partition.per_node and mobility.step went
    (_echo_a_shard_size, "unknown field 'partition.per_node'"),
    (_echo_a_step_length, "unknown field 'mobility.step'"),
])
def test_check_parses_the_manifest_config_like_a_config_file(tmp_path, capsys, edit, reason):
    cfg = _write_config(tmp_path, SMALL)
    out = tmp_path / "run"
    main(["run", "--config", cfg, "--out", str(out)])
    manifest = _edit_manifest(out, lambda m: edit(m["config"]))
    capsys.readouterr()
    assert main(["check", "--out", str(out)]) == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"check error: {manifest}: ")
    assert reason in captured.err


@pytest.mark.parametrize("patch, code, message", [
    ({"suite": {"total": 13}}, EXIT_USAGE, "suite.total 13 is too small: 14 nodes"),
    ({"partition": {"alpha": "inf"}, "suite": {"total": 13}}, EXIT_USAGE,
     "14 nodes need at least 14 samples"),
    ({"partition": {"alpha": 0.01}, "suite": {"total": 14}}, EXIT_RUNTIME,
     "could not give every one of 14 nodes a sample"),
])
def test_a_suite_that_cannot_be_built_writes_nothing(tmp_path, capsys, patch, code, message):
    cfg = _write_config(tmp_path, patch)
    out = tmp_path / "out"
    for argv in (["run"], ["sweep", "--axis", "dropout_p", "--values", "0", "--seeds", "0"]):
        assert main(argv + ["--config", cfg, "--out", str(out)]) == code
        assert message in capsys.readouterr().err
        assert not out.exists()
