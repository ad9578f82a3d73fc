"""Config parsing, seeding, and the end-to-end command pipeline."""

import argparse
import csv
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path
from types import SimpleNamespace
from typing import get_type_hints

import numpy as np
import pytest

import lindfit.cli as cli
import lindfit.many_body_sim as mbs
from lindfit.cli import (
    ConfigError,
    _evaluate,
    _write_observables,
    _write_timeseries,
    cmd_eval,
    cmd_gen_data,
    cmd_interpret,
    cmd_scan,
    cmd_stationary,
    cmd_train,
    derive_seed,
    load_config,
    main,
    reference_two_spin_hamiltonian,
)
from lindfit.lindblad_generator import (
    GeneratorParams,
    assemble_generator,
    propagate_trajectory,
    save_model,
    stationary_state,
)
from lindfit.many_body_sim import (
    SpinChainModel,
    Trajectory,
    generate_trajectory,
    load_trajectory,
    save_trajectory,
)
from lindfit.metrics import stationary_error
from lindfit.spin_algebra import build_pauli_basis, ginibre_density_matrix, rho_to_coherence

TINY = {
    "model": {"variant": "I", "n_sites": 4, "omega": 1.0, "V": 0.8,
              "V_prime": 0.4, "beta": 0.2},
    "simulation": {"dt": 0.1, "T_train": 0.5, "T_extrapolate": 1.0,
                   "n_trajectories": 3, "n_eval_trajectories": 2, "seed": 42},
    "training": {"epochs": 1, "batch_size": 8, "batches_per_epoch": 4,
                 "seed": 0, "init_scale": 0.05},
    "metrics": {"n_initial_conditions": 2, "max_window_steps": 2000},
}


def _write_config(tmp_path, overrides=None, name="config.json"):
    raw = json.loads(json.dumps(TINY))
    for block, vals in (overrides or {}).items():
        if isinstance(vals, dict):
            raw.setdefault(block, {}).update(vals)
        else:
            raw[block] = vals
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def _stable_two_spin_params():
    # diagonal Kossakowski factors give an everywhere-damped generator with
    # a clean gap, handy as a stand-in learned model
    rng = np.random.default_rng(5)
    om = 0.3 * rng.standard_normal(15)
    X = np.diag(0.4 + 0.2 * rng.random(15))
    return GeneratorParams(omega=om, X=X, Y=np.zeros((15, 15)))


def _save_fit_model(path, params, cfg):
    """save_model as train writes it, with the chain block of `cfg`."""
    save_model(path, params, build_pauli_basis(2), cfg.simulation.dt,
               extra={"chain": cli._chain(cfg.model, cfg.simulation.dt)})


def test_load_config_defaults(tmp_path):
    cfg = load_config(_write_config(tmp_path))
    assert cfg.model.variant == "I" and cfg.model.n_sites == 4
    assert cfg.simulation.dt == 0.1
    assert cfg.training.learning_rate == 1e-3
    assert cfg.metrics.a == 5.0 and cfg.metrics.b == 10.0
    assert cfg.paths.data_dir == "data"


def test_load_config_validation(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write_config(tmp_path, {"simulation": {"T_train": 0.55}}))
    with pytest.raises(ConfigError):
        load_config(_write_config(tmp_path, {"simulation": {"bogus_key": 1}}))
    with pytest.raises(ConfigError):
        load_config(_write_config(tmp_path, {"simulation": {"T_extrapolate": 0.3}}))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(bad))
    nomodel = tmp_path / "nomodel.json"
    nomodel.write_text("{}")
    with pytest.raises(ConfigError):
        load_config(str(nomodel))
    with pytest.raises(ConfigError, match=r"unknown keys in model block: \['bogus'\]"):
        load_config(_write_config(tmp_path, {"model": {"bogus": 1}}))


def test_derive_seed_stable_and_distinct():
    a = derive_seed(42, "train", 0)
    assert a == derive_seed(42, "train", 0)
    others = {derive_seed(42, "train", 1), derive_seed(42, "eval", 0),
              derive_seed(43, "train", 0), derive_seed(42, "split")}
    assert a not in others and len(others) == 4
    assert 0 <= a < 2 ** 63


def test_gen_data_files_and_manifest(tmp_path):
    cfg = load_config(_write_config(tmp_path))
    out = str(tmp_path / "run")
    mpath = cmd_gen_data(cfg, out)
    manifest = json.loads(Path(mpath).read_text())
    assert manifest["train_files"] == ["train_000.csv", "train_001.csv", "train_002.csv"]
    assert manifest["eval_files"] == ["eval_000.csv", "eval_001.csv"]
    assert manifest["model"]["variant"] == "I"
    # training files end at T_train, eval files at T_extrapolate
    for key, n_rows in (("train_files", 6), ("eval_files", 11)):
        for name in manifest[key]:
            traj = load_trajectory(os.path.join(out, "data", name))
            assert traj.snapshots.shape == (n_rows, 16)  # T/dt + 1 rows
    # regenerating must be byte-identical
    first = Path(mpath).read_bytes()
    datafile = os.path.join(out, "data", "train_000.csv")
    blob = Path(datafile).read_bytes()
    cmd_gen_data(cfg, out)
    assert Path(mpath).read_bytes() == first
    assert Path(datafile).read_bytes() == blob


def test_gen_data_threads_match_sequential(tmp_path):
    cfg = load_config(_write_config(tmp_path))
    seq = str(tmp_path / "seq")
    par = str(tmp_path / "par")
    cmd_gen_data(cfg, seq)
    cmd_gen_data(cfg, par, threads=2)
    for name in ("train_000.csv", "eval_001.csv", "manifest.json"):
        a = Path(seq, "data", name).read_bytes()
        b = Path(par, "data", name).read_bytes()
        assert a == b


def test_gen_data_workers_send_back_no_trajectories(tmp_path, monkeypatch):
    sent = []

    class RecordingPool(cli.ProcessPoolExecutor):
        def map(self, fn, *iterables, **kwargs):
            results = list(super().map(fn, *iterables, **kwargs))
            sent.extend(results)
            return iter(results)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    cfg = load_config(_write_config(tmp_path))
    cmd_gen_data(cfg, str(tmp_path / "par"), threads=2)
    assert len(sent) == 5
    assert all(result is None for result in sent)


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records its size, runs jobs inline."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


def test_pool_has_no_more_workers_than_jobs(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    assert cli._map(abs, [-1, -2, -3], 4) == [1, 2, 3]
    assert cli._map(abs, [-1], 4) == [1]  # one job runs in this process
    assert _InlinePool.sizes == [3]
    # gen-data of 5 trajectories asks for 5 workers, not 6
    cfg = load_config(_write_config(tmp_path))
    cmd_gen_data(cfg, str(tmp_path / "seq"))
    cmd_gen_data(cfg, str(tmp_path / "par"), threads=6)
    assert _InlinePool.sizes == [3, 5]
    for name in ("train_000.csv", "eval_001.csv", "manifest.json"):
        assert (tmp_path / "seq" / "data" / name).read_bytes() == \
            (tmp_path / "par" / "data" / name).read_bytes()


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_main_refuses_threads_below_one(tmp_path, capsys, monkeypatch, threads):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _InlinePool)
    out = tmp_path / "run"
    rc = main(["--config", _write_config(tmp_path), "--out", str(out),
               "--threads", threads, "gen-data"])
    captured = capsys.readouterr()
    assert rc == 1
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ConfigError"
    assert not out.exists()


def test_train_writes_artifacts(tmp_path):
    cfg = load_config(_write_config(tmp_path))
    out = str(tmp_path / "run")
    cmd_gen_data(cfg, out)
    model_path = cmd_train(cfg, out)
    assert os.path.exists(model_path)
    payload = json.loads(Path(model_path).read_text())
    assert payload["format"] == "lindfit-model-v1"
    assert payload["dt"] == 0.1
    assert "final_train_loss" in payload["extra"]
    assert not os.path.exists(os.path.join(out, "models", "checkpoint.json"))
    curves = Path(out, "reports", "loss_curves.csv").read_text().strip().split("\n")
    assert curves[0] == "epoch,train_loss,val_loss"
    assert len(curves) == cfg.training.epochs + 2


def _synthetic_eval_setup(tmp_path, n_eval_steps):
    """Model file plus eval data generated by the model itself."""
    cfg = load_config(_write_config(tmp_path))
    out = str(tmp_path / "run")
    os.makedirs(os.path.join(out, "data"), exist_ok=True)
    os.makedirs(os.path.join(out, "models"), exist_ok=True)
    basis = build_pauli_basis(2)
    params = _stable_two_spin_params()
    L = assemble_generator(params, basis)
    model_path = os.path.join(out, "models", "model.json")
    _save_fit_model(model_path, params, cfg)
    rng = np.random.default_rng(88)
    names = []
    for i in range(2):
        v0 = rho_to_coherence(ginibre_density_matrix(4, rng), basis)
        snaps = propagate_trajectory(L, v0, cfg.simulation.dt, n_eval_steps)
        traj = Trajectory(model=cfg.model, dt=cfg.simulation.dt, snapshots=snaps)
        name = f"eval_{i:03d}.csv"
        save_trajectory(os.path.join(out, "data", name), traj)
        names.append(name)
    with open(os.path.join(out, "data", "manifest.json"), "w") as fh:
        json.dump({"model": asdict(cfg.model), "simulation": asdict(cfg.simulation),
                   "train_files": [], "eval_files": names}, fh)
    return cfg, model_path, out


def test_eval_on_own_dynamics_is_exact(tmp_path):
    cfg, _, out = _synthetic_eval_setup(tmp_path, n_eval_steps=10)
    report = cmd_eval(cfg, out)
    assert report["i_err_interp"] < 1e-12
    assert report["i_err_extrap"] < 1e-12
    assert report["fvu_interp"] < 1e-10
    assert report["epsilon_status"] == "ok"
    assert math.isfinite(report["epsilon_stationary"])
    ts = os.path.join(out, "reports", "timeseries_eval_000.csv")
    header = Path(ts).read_text().splitlines()[0].split(",")
    assert header[0] == "t_over_omega_inv"
    assert "exact_v_1" in header and "model_v_16" in header
    rep_csv = Path(out, "reports", "eval_report.csv").read_text().split("\n")
    assert rep_csv[0].startswith("i_err_interp,i_err_extrap")


def _write_timeseries_value_loop(path, exact, pred):
    """Reference writer: one f-string per value."""
    n = exact.snapshots.shape[1]
    cols = ["t_over_omega_inv"]
    cols += [f"exact_v_{k}" for k in range(1, n + 1)]
    cols += [f"model_v_{k}" for k in range(1, n + 1)]
    t = exact.dt * np.arange(exact.snapshots.shape[0])
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for k in range(t.size):
            row = [f"{t[k]:.17g}"]
            row += [f"{x:.17g}" for x in exact.snapshots[k]]
            row += [f"{x:.17g}" for x in pred.snapshots[k]]
            fh.write(",".join(row) + "\n")


def _write_observables_value_loop(path, exact, L, info):
    """Reference writer: one f-string per value."""
    n_steps = exact.snapshots.shape[0] - 1
    pred = propagate_trajectory(L, exact.snapshots[0], exact.dt, n_steps)
    comps = {"sz_1": 11, "sz_2": 14, "sz_sz": 10}
    t = exact.dt * np.arange(n_steps + 1)
    cols = ["t_over_omega_inv"]
    for name in comps:
        cols += [f"{name}_exact", f"{name}_model", f"{name}_stationary"]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for k in range(t.size):
            row = [f"{t[k]:.17g}"]
            for name, ci in comps.items():
                row += [f"{2 * exact.snapshots[k, ci]:.17g}",
                        f"{2 * pred[k, ci]:.17g}",
                        f"{2 * info.v_st[ci]:.17g}"]
            fh.write(",".join(row) + "\n")


@pytest.mark.parametrize("n_steps", [0, 1, 40])
def test_report_csv_matches_value_loop_reference(tmp_path, n_steps):
    basis = build_pauli_basis(2)
    L = assemble_generator(_stable_two_spin_params(), basis)
    info = stationary_state(L)
    rng = np.random.default_rng(31)
    v0 = rho_to_coherence(ginibre_density_matrix(4, rng), basis)
    snaps = propagate_trajectory(L, v0, 0.03, n_steps)
    # exercise signed zero, tiny and huge magnitudes in the float formatting
    snaps[0, [10, 11, 14]] = [-0.0, 5e-324, 1.2345678901234567e300]
    exact = Trajectory(model=None, dt=0.03, snapshots=snaps)
    pred = Trajectory(model=None, dt=0.03, snapshots=snaps[:, ::-1] / 3)
    for writer, reference, args in (
            (_write_timeseries, _write_timeseries_value_loop, (exact, pred)),
            (_write_observables, _write_observables_value_loop, (exact, L, info))):
        fast, ref = tmp_path / "fast.csv", tmp_path / "ref.csv"
        writer(fast, *args)
        reference(ref, *args)
        assert fast.read_bytes() == ref.read_bytes()


def _csv_cell_reference(v):
    if isinstance(v, str):
        return v
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _write_report_csv_cell_reference(path, vals):
    """Reference writer: one formatting call per cell."""
    head = ["i_err_interp", "i_err_extrap", "fvu_interp", "fvu_extrap",
            "epsilon_stationary", "epsilon_status",
            "interp_start_over_omega_inv", "interp_end_over_omega_inv",
            "extrap_start_over_omega_inv", "extrap_end_over_omega_inv",
            "a", "b", "tau_over_omega_inv", "n_initial_conditions"]
    with open(path, "w") as fh:
        fh.write(",".join(head) + "\n")
        fh.write(",".join(_csv_cell_reference(v) for v in vals) + "\n")


def _write_scan_csv_cell_reference(path, rows):
    """Reference writer: one formatting call per cell."""
    with open(path, "w") as fh:
        fh.write("axis1,axis2,i_err_interp,i_err_extrap,fvu_interp,"
                 "fvu_extrap,epsilon,status\n")
        for row in rows:
            fh.write(",".join(_csv_cell_reference(v) for v in row) + "\n")


@pytest.mark.parametrize("tau,status", [(None, "no_gap"), (7.25, "ok"),
                                        (np.float64(1 / 3), "window_budget_exceeded")])
def test_eval_report_csv_matches_cell_reference(tmp_path, monkeypatch, tau, status):
    # _evaluate builds and writes the row; its scores are stubbed to the
    # values under test (the status strings are only data here), and config
    # numbers arrive as JSON ints or floats, which must print the same
    eps = {"no_gap": math.nan, "ok": 1.5e300}.get(status, -0.0)
    snaps = np.zeros((11, 16))
    snaps[:, 0] = np.arange(11)  # a window's first row tells where it starts
    exact = Trajectory(model=None, dt=1.0, snapshots=snaps)
    monkeypatch.setattr(cli, "propagate_trajectory", lambda L, v0, dt, n: snaps)
    monkeypatch.setattr(cli, "i_err", lambda e, p, t0, t1:
                        0.1234567890123456789 if t0 == 0 else math.nan)
    monkeypatch.setattr(cli, "fvu", lambda e, p:
                        5e-324 if e.snapshots[0, 0] == 0 else 2 / 3)
    monkeypatch.setattr(cli, "_epsilon_pipeline", lambda cfg, L:
                        (eps, status, SimpleNamespace(tau=tau)))
    cfg = cli.ExperimentConfig(
        model=None,
        simulation=cli.SimulationBlock(dt=1.0, T_train=5, T_extrapolate=10.0),
        metrics=cli.MetricsBlock(a=5, b=10, n_initial_conditions=2))
    row = _evaluate(cfg, None, [exact], {"report": str(tmp_path)})
    new, ref = tmp_path / "eval_report.csv", tmp_path / "ref.csv"
    _write_report_csv_cell_reference(
        ref, [0.1234567890123456789, math.nan, 5e-324, 2 / 3, eps, status,
              0.0, 5, 5, 10.0, 5, 10, "" if tau is None else tau, 2])
    assert new.read_bytes() == ref.read_bytes()
    assert list(row) == new.read_text().splitlines()[0].split(",")


def test_scan_csv_matches_reference_and_threads(tmp_path, monkeypatch):
    # int and float values on the axis, ok cells and one failed cell; the
    # trained case puts two cells in each of the two thread groups
    for epochs, betas in ((0, [0, 0.5, -1]), (2, [0, 0.5, -1, 0.25])):
        run = tmp_path / f"epochs_{epochs}"
        run.mkdir()
        over = {"scan": {"axis1_name": "beta", "axis1_values": betas,
                         "axis2_name": "V_prime", "axis2_values": [0.3]},
                "training": {"epochs": epochs},
                "metrics": {"n_initial_conditions": 1, "max_window_steps": 500}}
        cfg = load_config(_write_config(run, over))
        rows = []
        real_cell = cli._scan_cell

        def recording_cell(args):
            rows.extend(real_cell(args))
            return rows[-len(args[1]):]

        with monkeypatch.context() as m:
            m.setattr(cli, "_scan_cell", recording_cell)
            seq_csv = cmd_scan(cfg, str(run / "seq"), threads=1)
        assert [r[-1] for r in rows[:2]] == ["ok", "ok"]
        assert rows[2][-1].startswith("failed: ValueError")
        ref = run / "ref.csv"
        _write_scan_csv_cell_reference(ref, rows)
        assert Path(seq_csv).read_bytes() == ref.read_bytes()

        cmd_scan(cfg, str(run / "par"), threads=2)
        seq_files = sorted(os.path.relpath(os.path.join(d, f), run / "seq")
                           for d, _, fs in os.walk(run / "seq") for f in fs)
        par_files = sorted(os.path.relpath(os.path.join(d, f), run / "par")
                           for d, _, fs in os.walk(run / "par") for f in fs)
        assert seq_files == par_files and "scan/scan_results.csv" in seq_files
        for name in seq_files:
            a = (run / "seq" / name).read_bytes()
            assert a == (run / "par" / name).read_bytes(), name


def test_scan_cells_match_per_command_runs(tmp_path):
    # a scan group trains its cells in lockstep and evaluates them from
    # memory; each cell's files are those of gen-data, train and eval
    over = {"scan": {"axis1_name": "beta", "axis1_values": [0.0, 0.5],
                     "axis2_name": "V_prime", "axis2_values": [0.3]},
            "training": {"epochs": 2},
            "metrics": {"n_initial_conditions": 1, "max_window_steps": 500}}
    cfg = load_config(_write_config(tmp_path, over))
    cmd_scan(cfg, str(tmp_path / "scan_run"))
    for beta in (0.0, 0.5):
        seed = derive_seed(cfg.simulation.seed, "cell", "beta", repr(beta),
                           "V_prime", repr(0.3))
        cell_cfg = replace(cfg, model=replace(cfg.model, beta=beta, V_prime=0.3),
                           simulation=replace(cfg.simulation, seed=seed))
        out = str(tmp_path / f"cell_{beta}")
        cmd_gen_data(cell_cfg, out)
        cmd_train(cell_cfg, out)
        cmd_eval(cell_cfg, out)
        scan_dir = tmp_path / "scan_run" / "scan" / f"beta={beta:g}_V_prime=0.3"
        files = sorted(os.path.relpath(os.path.join(d, f), out)
                       for d, _, fs in os.walk(out) for f in fs)
        assert files == sorted(os.path.relpath(os.path.join(d, f), scan_dir)
                               for d, _, fs in os.walk(scan_dir) for f in fs)
        assert "models/model.json" in files
        for name in files:
            assert Path(out, name).read_bytes() == \
                (scan_dir / name).read_bytes(), name


def test_eval_flags_missing_extrapolation(tmp_path):
    # files stop at T_train, so the extrapolation window cannot be scored
    cfg, _, out = _synthetic_eval_setup(tmp_path, n_eval_steps=5)
    report = cmd_eval(cfg, out)
    assert math.isnan(report["i_err_extrap"])
    assert math.isnan(report["fvu_extrap"])
    assert report["i_err_interp"] < 1e-12


def test_eval_rejects_dt_mismatch(tmp_path):
    cfg, model_path, out = _synthetic_eval_setup(tmp_path, n_eval_steps=10)
    _save_fit_model(model_path, _stable_two_spin_params(),
                    replace(cfg, simulation=replace(cfg.simulation, dt=0.05)))
    with pytest.raises(ConfigError, match="simulation.dt differ"):
        cmd_eval(cfg, out)


def test_scan_grid_and_failure_rows(tmp_path):
    over = {"scan": {"axis1_name": "beta", "axis1_values": [0.0, -1.0],
                     "axis2_name": "V_prime", "axis2_values": [0.3]},
            "training": {"epochs": 0},
            "metrics": {"n_initial_conditions": 1, "max_window_steps": 500}}
    cfg = load_config(_write_config(tmp_path, over))
    out = str(tmp_path / "run")
    csv_path = cmd_scan(cfg, out)
    lines = Path(csv_path).read_text().strip().split("\n")
    assert lines[0] == ("axis1,axis2,i_err_interp,i_err_extrap,fvu_interp,"
                        "fvu_extrap,epsilon,status")
    assert len(lines) == 3
    ok_row = lines[1].split(",")
    assert ok_row[0] == "0" and ok_row[-1] == "ok"
    bad_row = lines[2].split(",")
    assert bad_row[0] == "-1" and bad_row[-1].startswith("failed: ValueError")
    cell = os.path.join(out, "scan", "beta=0_V_prime=0.3")
    assert os.path.exists(os.path.join(cell, "models", "model.json"))
    assert os.path.exists(os.path.join(cell, "reports", "eval_report.csv"))


def test_scan_rejects_bad_axis(tmp_path):
    model = {"variant": "II", "n_sites": 4, "omega": 1.0, "V": 0.1,
             "alpha": 0.3, "beta": 0.0, "V_prime": 0.0}
    for scan in ({"axis1_name": "beta", "axis1_values": [0.0],  # not a variant II axis
                  "axis2_name": "V", "axis2_values": [0.1]},
                 {"axis1_name": "alpha", "axis1_values": [0.5, 2.0],  # one axis twice
                  "axis2_name": "alpha", "axis2_values": [1.0]}):
        cfg = load_config(_write_config(tmp_path, {"model": model, "scan": scan}))
        with pytest.raises(ConfigError):
            cmd_scan(cfg, str(tmp_path / "run"))
        assert not os.path.exists(tmp_path / "run")


@pytest.mark.parametrize("alphas", [[1.0000001, 1.0000002], [0.5, 0.5], [1, 1.0]],
                         ids=["equal_to_6_digits", "repeated", "int_and_float"])
def test_scan_refuses_axis_values_sharing_a_directory(tmp_path, alphas):
    over = {"model": {"variant": "II", "n_sites": 4, "omega": 1.0, "V": 0.1,
                      "alpha": 0.3, "beta": 0.0, "V_prime": 0.0},
            "scan": {"axis1_name": "alpha", "axis1_values": alphas,
                     "axis2_name": "V", "axis2_values": [0.1, 0.2]}}
    cfg = load_config(_write_config(tmp_path, over))
    out = tmp_path / "run"
    with pytest.raises(ConfigError, match="share"):
        cmd_scan(cfg, str(out))
    assert not out.exists()  # refused before any cell ran


def test_stationary_report_ok_path(tmp_path):
    cfg, _, out = _synthetic_eval_setup(tmp_path, n_eval_steps=5)
    rpath = cmd_stationary(cfg, out)
    report = json.loads(Path(rpath).read_text())
    assert report["epsilon_status"] == "ok"
    assert report["e_gap"] > 0
    assert report["tau_over_omega_inv"] == pytest.approx(1 / report["e_gap"])
    assert len(report["v_st"]) == 16
    assert report["v_st"][15] == pytest.approx(0.5, abs=1e-9)
    obs = os.path.join(out, "reports", "stationary_observables.csv")
    header = Path(obs).read_text().splitlines()[0].split(",")
    assert header[:4] == ["t_over_omega_inv", "sz_1_exact", "sz_1_model",
                          "sz_1_stationary"]


def test_stationary_report_no_gap(tmp_path):
    cfg, model_path, out = _synthetic_eval_setup(tmp_path, n_eval_steps=5)
    pure = GeneratorParams(omega=np.ones(15) * 0.2, X=np.zeros((15, 15)),
                           Y=np.zeros((15, 15)))
    _save_fit_model(model_path, pure, cfg)
    report = json.loads(Path(cmd_stationary(cfg, out)).read_text())
    assert report["no_gap"] is True
    assert report["epsilon_status"] == "no_gap"
    assert report["epsilon_stationary"] is None
    assert not os.path.exists(os.path.join(out, "reports",
                                           "stationary_observables.csv"))


def test_eval_simulates_no_window_and_stationary_one(tmp_path, monkeypatch):
    # eval takes every window mean in closed form; stationary simulates
    # only the trajectory stationary_observables.csv prints
    cfg, _, out = _synthetic_eval_setup(tmp_path, n_eval_steps=10)
    calls = []

    def counting(fn):
        def wrapped(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapped

    for module, name in ((cli, "generate_trajectory"),
                         (mbs, "generate_trajectory"),
                         (mbs, "evolve_and_reduce")):
        monkeypatch.setattr(module, name, counting(getattr(module, name)))
    assert cfg.metrics.n_initial_conditions == 2
    cmd_eval(cfg, out)
    assert calls == []
    cmd_stationary(cfg, out)
    assert calls == ["generate_trajectory", "evolve_and_reduce"]


@pytest.mark.parametrize("model", [
    {"variant": "I", "n_sites": 5, "omega": 1.0, "V": 0.8, "V_prime": 0.4,
     "beta": 0.7},
    {"variant": "II", "n_sites": 6, "omega": 1.0, "V": 0.9, "V_prime": 0.0,
     "alpha": 1.3, "beta": 0.4},
], ids=["I", "II"])
def test_epsilon_matches_simulated_window_trapezoid(tmp_path, model):
    # the closed-form window means score as window trajectories simulated
    # at dt do, under a budget that strides the printed trajectory
    cfg = load_config(_write_config(tmp_path, {
        "model": model,
        "metrics": {"max_window_steps": 40, "n_initial_conditions": 3}}))
    L = assemble_generator(_stable_two_spin_params(), build_pauli_basis(2))
    eps, status, info = cli._epsilon_pipeline(cfg, L)
    assert status == "ok"
    dt = cfg.simulation.dt
    assert round(cli._window_grid(cfg, info.tau)[0] / dt) > 1  # strided
    n_steps = math.ceil(cfg.metrics.b * info.tau / dt)
    trajs = [generate_trajectory(cfg.model, dt, n_steps,
                                 derive_seed(cfg.simulation.seed, "stationary", k))
             for k in range(3)]
    ref = stationary_error(trajs, info.v_st, info.tau, cfg.metrics.a,
                           cfg.metrics.b)
    assert eps == pytest.approx(ref, rel=1e-12)


def test_pipeline_without_validation_set_writes_strict_json(tmp_path):
    # one training trajectory leaves no validation set and its loss nan:
    # model.json holds null there, every JSON file the pipeline writes
    # parses without nan or infinities, and the later commands read it
    cfg_path = _write_config(tmp_path, {"simulation": {"n_trajectories": 1}})
    out = str(tmp_path / "run")
    for command in ("gen-data", "train", "eval", "stationary", "interpret"):
        assert main(["--config", cfg_path, "--out", out, command]) == 0, command

    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    paths = sorted(Path(out).rglob("*.json"))
    assert sorted(p.name for p in paths) == [
        "interpret_report.json", "manifest.json", "model.json",
        "stationary_report.json"]
    for path in paths:
        json.loads(path.read_text(), parse_constant=refuse)
    extra = json.loads(Path(out, "models", "model.json").read_text())["extra"]
    assert extra["final_val_loss"] is None
    assert math.isfinite(extra["final_train_loss"])
    curves = Path(out, "reports", "loss_curves.csv").read_text().splitlines()
    assert all(line.endswith(",nan") for line in curves[1:])


def _kron_two_spin_hamiltonian(model):
    """The subsystem pair's fields and bond written out with kron, traceless."""
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    nproj = np.diag([1.0, 0.0])
    eye = np.eye(2)
    coupling = model.V_prime if model.variant == "I" else model.V
    H = model.omega / 2.0 * (np.kron(sx, eye) + np.kron(eye, sx))
    H = H + coupling * np.kron(nproj, nproj)
    return H - np.trace(H) / 4.0 * np.eye(4)


def test_reference_two_spin_hamiltonian():
    mI = SpinChainModel("I", 5, 1.2, 0.7, V_prime=0.4)
    H = reference_two_spin_hamiltonian(mI)
    assert abs(np.trace(H)) < 1e-14
    # n(x)n coupling shows up between the diagonal corners
    assert H[0, 0] - H[3, 3] == pytest.approx(0.4)
    assert H[0, 1] == pytest.approx(0.6)
    mII = SpinChainModel("II", 6, 1.0, 0.1, alpha=0.3)
    H2 = reference_two_spin_hamiltonian(mII)
    assert H2[0, 0] - H2[3, 3] == pytest.approx(0.1)
    # the chain's own terms restricted to the pair give the kron formula's
    # bits, for either geometry, any subsystem position and signed couplings
    for model in (mI, mII,
                  SpinChainModel("I", 4, 0.3, -1.1, V_prime=-2.7),
                  SpinChainModel("I", 7, 1, 2, V_prime=3),
                  SpinChainModel("II", 8, 2.5, -0.37, alpha=1.7),
                  SpinChainModel("II", 4, 0.9, 1.3, alpha=0.0)):
        H = reference_two_spin_hamiltonian(model)
        assert H.dtype == np.float64
        assert np.array_equal(H, _kron_two_spin_hamiltonian(model)), model


def test_interpret_identifies_planted_structure(tmp_path):
    over = {"model": {"variant": "II", "n_sites": 4, "omega": 1.0, "V": 0.1,
                      "alpha": 0.3, "beta": 0.0, "V_prime": 0.0}}
    cfg = load_config(_write_config(tmp_path, over))
    out = str(tmp_path / "run")
    os.makedirs(os.path.join(out, "models"), exist_ok=True)
    basis = build_pauli_basis(2)
    H_ref = reference_two_spin_hamiltonian(cfg.model)
    om = np.einsum("kij,ji->k", basis.elements[:15], H_ref).real
    om[11] += 0.03  # plant the deviation on the sigma_z sum direction
    om[14] += 0.03
    X = np.zeros((15, 15))
    X[0, 11] = X[0, 14] = 0.3  # rank-1 dissipator along the same direction
    X[1, 1] = 0.01
    params = GeneratorParams(omega=om, X=X, Y=np.zeros((15, 15)))
    model_path = os.path.join(out, "models", "model.json")
    _save_fit_model(model_path, params, cfg)
    report = json.loads(Path(cmd_interpret(cfg, out)).read_text())
    assert report["H_diff_fraction_on_sigma_z_sum"] > 0.99
    assert report["dominant_jump_alignment_sigma_z_sum"] > 0.99
    assert report["H_diff_hs_norm"] == pytest.approx(0.03 * np.sqrt(2), rel=1e-9)
    assert len(report["rates"]) == 15
    assert report["rates"][0] >= report["rates"][1]


def test_main_success_and_error_paths(tmp_path, capsys):
    cfg_path = _write_config(tmp_path)
    out = str(tmp_path / "run")
    rc = main(["--config", cfg_path, "--out", out, "gen-data"])
    assert rc == 0
    assert "manifest:" in capsys.readouterr().out
    # missing config file: single JSON error line on stderr
    rc = main(["--config", str(tmp_path / "nope.json"), "--out", out, "gen-data"])
    captured = capsys.readouterr()
    assert rc == 1
    err = json.loads(captured.err.strip())
    assert err["error"] == "FileNotFoundError"


@pytest.mark.parametrize("valid", [True, False], ids=["ok", "refused"])
def test_command_process_exits_with_its_output(tmp_path, valid):
    # the command as a user runs it, with stdout a pipe: the process ends
    # without interpreter teardown, so its line, its exit code and its
    # files must all be in place; the console script takes the same exit
    cfg_path = _write_config(
        tmp_path, None if valid else {"simulation": {"dt": -0.1}})
    out = tmp_path / "run"
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "lindfit.cli", "--config", cfg_path,
         "--out", str(out), "--threads", "2", "gen-data"],
        env=env, capture_output=True, text=True, timeout=300)
    if valid:
        manifest = out / "data" / "manifest.json"
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (0, f"manifest: {manifest}\n", "")
        names = json.loads(manifest.read_text())
        for name in names["train_files"] + names["eval_files"]:
            assert load_trajectory(str(out / "data" / name)).model.n_sites == 4
    else:
        assert (proc.returncode, proc.stdout) == (1, "")
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ConfigError"
        assert not out.exists()
    pyproject = Path(cli.__file__).parents[2] / "pyproject.toml"
    assert re.search(r'^lindfit = "lindfit\.cli:console_entry"$',
                     pyproject.read_text(), re.M)


def test_main_capacity_error(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, {"model": {"n_sites": 13}})
    rc = main(["--config", cfg_path, "--out", str(tmp_path / "run"), "gen-data"])
    captured = capsys.readouterr()
    assert rc == 1
    err = json.loads(captured.err.strip())
    assert err["error"] == "CapacityError"


@pytest.mark.parametrize("command", ["gen-data", "scan"])
def test_main_refuses_over_capacity_config_before_any_work(tmp_path, capsys,
                                                           command):
    # a chain above simulation.max_sites is refused by load_config, before
    # the --out directory or any cell directory exists
    cfg_path = _write_config(tmp_path, {
        "model": {"n_sites": 14},
        "scan": {"axis1_name": "beta", "axis1_values": [0.0, 0.5],
                 "axis2_name": "V_prime", "axis2_values": [0.3]}})
    out = tmp_path / "run"
    rc = main(["--config", cfg_path, "--out", str(out), command])
    captured = capsys.readouterr()
    assert rc == 1
    assert "Traceback" not in captured.err
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "CapacityError"
    assert not out.exists()


@pytest.mark.parametrize("overrides,commands", [
    ({"training": {"batch_size": 0}}, ["train"]),
    ({"training": {"batches_per_epoch": 0}}, ["train"]),
    ({"training": {"epochs": -3}}, ["train"]),
    ({"training": {"learning_rate": 0.0}}, ["train"]),
    ({"training": {"learning_rate": -1.0}}, ["train"]),
    ({"metrics": {"n_initial_conditions": 0}}, ["stationary"]),
    ({"simulation": {"n_eval_trajectories": 0}}, ["gen-data", "eval"]),
    ({"metrics": {"max_window_steps": 0}}, ["gen-data"]),
    ({"metrics": {"a": 10.0, "b": 5.0}}, ["gen-data"]),
    ({"metrics": {"a": 5.0, "b": 5.0}}, ["gen-data"]),
    ({"metrics": {"a": -1.0}}, ["gen-data"]),
    ({"simulation": {"T_train": 0.0}}, ["gen-data"]),
    ({"simulation": {"T_extrapolate": 0.5}}, ["gen-data"]),
    ({"simulation": {"n_trajectories": 0}}, ["gen-data"]),
    ({"simulation": {"n_eval_trajectories": -1}}, ["gen-data"]),
    ({"simulation": {"n_eval_trajectories": 0},
      "scan": {"axis1_name": "beta", "axis1_values": [0.0],
               "axis2_name": "V_prime", "axis2_values": [0.3]}}, ["scan"]),
], ids=["batch_size", "batches_per_epoch", "epochs", "learning_rate_zero",
        "learning_rate_negative", "n_initial_conditions",
        "no_eval_files", "max_window_steps", "a_above_b", "a_equals_b",
        "a_negative", "T_train", "T_extrapolate_equals_T_train", "n_trajectories",
        "n_eval_negative", "scan_no_eval_files"])
def test_main_refuses_bad_counts(tmp_path, capsys, overrides, commands):
    cfg_path = _write_config(tmp_path, overrides)
    out = str(tmp_path / "run")
    for cmd in commands[:-1]:
        assert main(["--config", cfg_path, "--out", out, cmd]) == 0
    capsys.readouterr()
    written = sorted(tmp_path.rglob("*"))
    rc = main(["--config", cfg_path, "--out", out, commands[-1]])
    captured = capsys.readouterr()
    assert rc == 1
    assert sorted(tmp_path.rglob("*")) == written  # refused before any work
    assert "Traceback" not in captured.err
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ConfigError"


def _reported_epsilon(out, command):
    reports = Path(out, "reports")
    if command == "eval":
        with open(reports / "eval_report.csv") as fh:
            row = next(csv.DictReader(fh))
        return row["epsilon_status"], row["epsilon_stationary"]
    report = json.loads((reports / "stationary_report.json").read_text())
    return report["epsilon_status"], report["epsilon_stationary"]


@pytest.mark.parametrize("command", ["eval", "stationary"])
def test_main_epsilon_does_not_depend_on_window_budget(tmp_path, command):
    # epsilon is averaged on the dt grid at any budget, so budgets of a few
    # steps report the default budget's epsilon bit for bit; the budget
    # bounds only the trajectory stationary prints
    _, _, out = _synthetic_eval_setup(tmp_path, n_eval_steps=10)
    args = ["--out", out, command]
    reported = []
    for budget in (cli.MetricsBlock().max_window_steps, 1, 2, 3):
        cfg_path = _write_config(
            tmp_path, {"metrics": {"max_window_steps": budget}},
            name=f"budget_{budget}.json")
        assert main(["--config", cfg_path] + args) == 0, budget
        reported.append(_reported_epsilon(out, command))
        if command == "stationary":
            printed = Path(out, "reports", "stationary_observables.csv")
            rows = printed.read_text().splitlines()[1:]
            assert len(rows) <= budget + 1
    assert reported[0][0] == "ok"
    assert reported[1:] == reported[:1] * 3


# a window [5 tau, 5.05 tau] narrower than dt = 0.1 for the stand-in
# model's tau of about 1
_NARROW_WINDOW = {"a": 5.0, "b": 5.05}


@pytest.mark.parametrize("budget", [1, 2, 3])
@pytest.mark.parametrize("command", ["eval", "stationary"])
def test_main_refuses_stationary_window_under_two_snapshots(tmp_path, capsys,
                                                            command, budget):
    # a window [a tau, b tau] holding fewer than two snapshots of the dt
    # grid is refused, not 0/0, at any budget
    _, _, out = _synthetic_eval_setup(tmp_path, n_eval_steps=10)
    cfg_path = _write_config(
        tmp_path, {"metrics": {"max_window_steps": budget, **_NARROW_WINDOW}},
        name="budget.json")
    rc = main(["--config", cfg_path, "--out", out, command])
    captured = capsys.readouterr()
    assert rc == 1
    assert "Traceback" not in captured.err
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ValueError"
    assert "stationary window" in err["message"] and "dt=" in err["message"]
    assert not os.path.exists(os.path.join(out, "reports", "stationary_report.json"))


def test_main_refused_eval_writes_no_report_files(tmp_path, capsys):
    # the stationary window is refused after the trajectories are scored;
    # no time series may be left without its report
    _, _, out = _synthetic_eval_setup(tmp_path, n_eval_steps=10)
    cfg_path = _write_config(tmp_path, {"metrics": _NARROW_WINDOW},
                             name="narrow.json")
    rc = main(["--config", cfg_path, "--out", out, "eval"])
    captured = capsys.readouterr()
    assert rc == 1
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert "stationary window" in json.loads(lines[0])["message"]
    reports = Path(out, "reports")
    assert not list(reports.glob("timeseries_eval_*.csv"))
    assert not (reports / "eval_report.csv").exists()


@pytest.mark.parametrize("command,error", [("train", "FileNotFoundError"),
                                           ("stationary", "ValueError")])
def test_main_refusal_makes_no_directory(tmp_path, capsys, command, error):
    # train without a manifest, and stationary on a window narrower than
    # dt, fail before their first file; a directory is only made for a file
    # (the model is read from an absolute paths.model_dir outside --out)
    _, model_path, _ = _synthetic_eval_setup(tmp_path, n_eval_steps=10)
    cfg_path = _write_config(tmp_path, {
        "metrics": _NARROW_WINDOW,
        "paths": {"model_dir": os.path.dirname(model_path)}}, name="narrow.json")
    out = tmp_path / "refused"
    rc = main(["--config", cfg_path, "--out", str(out), command])
    captured = capsys.readouterr()
    assert rc == 1
    assert json.loads(captured.err)["error"] == error
    assert not out.exists()


@pytest.mark.parametrize("config_dir,error", [(True, "IsADirectoryError"),
                                              (False, "ConfigError")],
                         ids=["config_directory", "out_file"])
def test_main_refuses_paths_of_the_wrong_kind(tmp_path, capsys, monkeypatch,
                                              config_dir, error):
    # a --config naming a directory, or an --out naming a regular file:
    # one JSON line naming it and exit 1, before any trajectory is simulated
    def simulate(*_):
        raise AssertionError("a trajectory was simulated")
    monkeypatch.setattr(cli, "generate_trajectory", simulate)
    cfg_path, out = _write_config(tmp_path), tmp_path / "out"
    if config_dir:
        cfg_path = str(tmp_path)
    else:
        out.write_text("kept\n")
    message = _assert_one_error_line(
        capsys, main(["--config", cfg_path, "--out", str(out), "gen-data"]),
        error)
    assert (cfg_path if config_dir else str(out)) in message
    assert not out.exists() if config_dir else out.read_text() == "kept\n"


@pytest.mark.parametrize("command", ["eval", "stationary", "interpret"])
def test_main_refuses_model_of_wrong_dimension(tmp_path, capsys, command):
    # a well-formed one-spin model file, but every command works on the
    # two-spin subsystem: refused before any work, naming the file and d
    _, model_path, out = _synthetic_eval_setup(tmp_path, n_eval_steps=10)
    one_spin = GeneratorParams(omega=np.full(3, 0.2), X=0.3 * np.eye(3),
                               Y=np.zeros((3, 3)))
    save_model(model_path, one_spin, build_pauli_basis(1), TINY["simulation"]["dt"])
    rc = main(["--config", _write_config(tmp_path), "--out", out, command])
    captured = capsys.readouterr()
    assert rc == 1
    assert "Traceback" not in captured.err
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ConfigError"
    assert model_path in err["message"] and "d=2" in err["message"]
    assert not os.path.exists(os.path.join(out, "reports"))


def _window_budget_config(tmp_path):
    return load_config(_write_config(tmp_path, {
        "simulation": {"dt": 0.001},
        "metrics": {"a": 2, "b": 4, "max_window_steps": 3,
                    "n_initial_conditions": 1}}))


def _stub_stationary_state(monkeypatch, tau):
    v_st = rho_to_coherence(np.eye(4) / 4, build_pauli_basis(2))
    monkeypatch.setattr(cli, "stationary_state", lambda L: SimpleNamespace(
        no_gap=False, non_unique=False, v_st=v_st, tau=tau))


def _record_window_means(monkeypatch):
    windows = []
    monkeypatch.setattr(cli, "window_means",
                        lambda model, dt, k_lo, k_hi, seeds:
                        windows.append((dt, k_lo, k_hi)))
    monkeypatch.setattr(cli, "stationary_distance", lambda *args: 0.0)
    return windows


@pytest.mark.parametrize("tau", [0.018, np.nextafter(0.018, 1.0)])
def test_window_budget_is_not_exceeded_by_rounding(tmp_path, monkeypatch, tau):
    # b*tau/dt = 72 steps at a budget of 3: the printed grid takes stride
    # 24, 3 steps, whichever way the last bit of tau falls, while epsilon
    # averages steps 36..72 of dt
    cfg = _window_budget_config(tmp_path)
    _stub_stationary_state(monkeypatch, tau)
    assert cli._window_grid(cfg, tau) == (0.001 * 24, 3)
    windows = _record_window_means(monkeypatch)
    _, status, _ = cli._epsilon_pipeline(cfg, None)
    assert status == "ok"
    assert windows == [(0.001, 36, 72)]


def test_window_fits_budget_and_covers_b_tau(tmp_path, monkeypatch):
    # tau at and one or two ulps around every b*tau/dt that is a multiple
    # of the budget, where the stride and step count round
    cfg = _window_budget_config(tmp_path)
    met, dt = cfg.metrics, cfg.simulation.dt
    windows = _record_window_means(monkeypatch)
    for k in range(1, 40):
        tau0 = k * met.max_window_steps * dt / met.b
        for tau in (tau0, np.nextafter(tau0, 0.0), np.nextafter(tau0, 1.0),
                    np.nextafter(np.nextafter(tau0, 1.0), 1.0)):
            _stub_stationary_state(monkeypatch, tau)
            # the printed grid: within the budget, a whole stride of dt,
            # covering b*tau
            dt_eps, n_steps = cli._window_grid(cfg, tau)
            assert n_steps <= met.max_window_steps, tau
            assert dt_eps == dt * round(dt_eps / dt), tau
            assert dt_eps * n_steps >= met.b * tau - 1e-9 * tau, tau
            # epsilon: never refused, always averaged on dt inside
            # [a tau, b tau]
            windows.clear()
            _, status, _ = cli._epsilon_pipeline(cfg, None)
            assert status == "ok", tau
            (mean_dt, k_lo, k_hi), = windows
            assert mean_dt == dt and k_lo < k_hi, tau
            assert met.a * tau - 1e-9 * tau <= k_lo * dt, tau
            assert k_hi * dt <= met.b * tau + 1e-9 * tau, tau


@pytest.mark.parametrize("overrides", [
    {"simulation": {"dt": "0.1"}},
    {"simulation": {"n_trajectories": 2.5}},
    {"simulation": {"n_eval_trajectories": "2"}},
    {"simulation": {"seed": True}},
    {"metrics": {"a": "5"}},
    {"metrics": {"b": float("inf")}},
    {"training": {"learning_rate": "1e-2"}},
    {"training": {"init_scale": float("nan")}},
    {"training": {"epochs": 2.0}},
    {"model": {"omega": "1"}},
    {"model": {"n_sites": 4.0}},
], ids=["dt_str", "n_trajectories_float", "n_eval_trajectories_str", "seed_bool",
        "a_str", "b_inf", "learning_rate_str", "init_scale_nan", "epochs_float",
        "omega_str", "n_sites_float"])
def test_main_refuses_mistyped_numbers(tmp_path, capsys, overrides):
    cfg_path = _write_config(tmp_path, overrides)
    _assert_config_refused(tmp_path, capsys, cfg_path)


@pytest.mark.parametrize("command,manifest", [
    ("train", ["train_000.csv"]),
    ("train", {"train_files": "train_000.csv", "eval_files": []}),
    ("train", {"train_files": ["train_000.csv", 3], "eval_files": []}),
    ("eval", {"train_files": ["train_000.csv"]}),
], ids=["list", "train_files_str", "train_files_int_entry", "eval_files_missing"])
def test_main_refuses_malformed_manifest(tmp_path, capsys, command, manifest):
    cfg_path = _write_config(tmp_path)
    data = tmp_path / "run" / "data"
    data.mkdir(parents=True)
    (data / "manifest.json").write_text(json.dumps(manifest))
    rc = main(["--config", cfg_path, "--out", str(tmp_path / "run"), command])
    captured = capsys.readouterr()
    assert rc == 1
    assert "Traceback" not in captured.err
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ConfigError"


def _assert_one_error_line(capsys, rc, error):
    """main exited 1 with one JSON error line of type `error`; returns its
    message."""
    captured = capsys.readouterr()
    assert rc == 1
    assert "Traceback" not in captured.err
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == error
    return err["message"]


@pytest.mark.parametrize("other,differ", [
    ({"model": {"n_sites": 6, "V_prime": 0.7}}, ["model.n_sites", "model.V_prime"]),
    ({"simulation": {"dt": 0.05}}, ["simulation.dt"]),
], ids=["chain", "dt"])
def test_main_refuses_data_of_another_chain(tmp_path, capsys, other, differ):
    # gen-data on one config, then train and eval in the same --out on a
    # config of another chain or dt: refused, naming the manifest and the
    # keys that differ, before any file is written
    cfg_a = _write_config(tmp_path, name="a.json")
    cfg_b = _write_config(tmp_path, other, name="b.json")
    out = tmp_path / "run"
    manifest = str(out / "data" / "manifest.json")
    assert main(["--config", cfg_a, "--out", str(out), "gen-data"]) == 0
    capsys.readouterr()
    message = _assert_one_error_line(
        capsys, main(["--config", cfg_b, "--out", str(out), "train"]),
        "ConfigError")
    assert manifest in message and all(key in message for key in differ)
    assert not (out / "models").exists() and not (out / "reports").exists()
    assert main(["--config", cfg_a, "--out", str(out), "train"]) == 0
    capsys.readouterr()
    written = sorted(out.rglob("*"))
    message = _assert_one_error_line(
        capsys, main(["--config", cfg_b, "--out", str(out), "eval"]),
        "ConfigError")
    assert manifest in message and all(key in message for key in differ)
    assert sorted(out.rglob("*")) == written


@pytest.mark.parametrize("pattern,line,named", [
    ("n_sites=.*\n", "", "n_sites="), ("n_sites=.*", "n_sites=four", "n_sites="),
    ("dt=.*", "dt=", "dt="), ("seed=.*", "seed=1.5", "seed="),
    ("variant=.*", "variant=III", "unknown variant 'III'"),
    ("1,[^,]*", "1,abc", "line 14 must hold 17 numbers"),
    ("(step,.*)", "\\1,v_17", "line 13 must hold 18 numbers"),
], ids=["missing", "not_a_number", "empty", "seed_float", "variant_unknown",
        "row_not_a_number", "rows_narrower_than_header"])
def test_main_names_trajectory_file_in_header_errors(tmp_path, capsys, pattern,
                                                     line, named):
    # a trajectory header line deleted or given a value that does not
    # parse, or that no chain takes, is refused naming the file and the key
    # or the value; a snapshot row that does not parse (the second, below
    # eleven header lines and the column names), or rows narrower than the
    # column names, naming the file and the row's line in the file
    cfg_path = _write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["--config", cfg_path, "--out", str(out), "gen-data"]) == 0
    capsys.readouterr()
    traj = out / "data" / "train_001.csv"
    traj.write_text(re.sub(f"^{pattern}", line, traj.read_text(), count=1,
                           flags=re.M))
    message = _assert_one_error_line(
        capsys, main(["--config", cfg_path, "--out", str(out), "train"]),
        "ValueError")
    assert str(traj) in message and named in message
    assert not (out / "models").exists()


_OTHER_CHAIN = {"model": {"n_sites": 6, "V_prime": 0.7}}


def test_main_refuses_trajectory_of_another_chain(tmp_path, capsys):
    # trajectories of a 6-site chain copied over files of a 4-site run:
    # train and eval refuse them, naming the file and the keys that
    # differ, before any file is written
    cfg_a = _write_config(tmp_path, name="a.json")
    cfg_b = _write_config(tmp_path, _OTHER_CHAIN, name="b.json")
    out, other = tmp_path / "run", tmp_path / "other"
    for cfg_path, where in ((cfg_a, out), (cfg_b, other)):
        assert main(["--config", cfg_path, "--out", str(where), "gen-data"]) == 0
    for name, command in (("eval_001.csv", "eval"), ("train_001.csv", "train")):
        (out / "data" / name).write_bytes((other / "data" / name).read_bytes())
        if command == "eval":
            assert main(["--config", cfg_a, "--out", str(out), "train"]) == 0
        capsys.readouterr()
        written = sorted(out.rglob("*"))
        message = _assert_one_error_line(
            capsys, main(["--config", cfg_a, "--out", str(out), command]),
            "ConfigError")
        assert str(out / "data" / name) in message, command
        assert "model.n_sites" in message and "model.V_prime" in message
        assert sorted(out.rglob("*")) == written, command


@pytest.mark.parametrize("command", ["stationary", "interpret"])
def test_main_refuses_model_of_another_chain(tmp_path, capsys, command):
    # gen-data and train on a 4-site chain, then a command on a 6-site
    # config in the same --out: refused, naming model.json and the keys
    # that differ, and no report written
    cfg_a = _write_config(tmp_path, name="a.json")
    cfg_b = _write_config(tmp_path, _OTHER_CHAIN, name="b.json")
    out = tmp_path / "run"
    for step in ("gen-data", "train"):
        assert main(["--config", cfg_a, "--out", str(out), step]) == 0
    capsys.readouterr()
    message = _assert_one_error_line(
        capsys, main(["--config", cfg_b, "--out", str(out), command]),
        "ConfigError")
    assert str(out / "models" / "model.json") in message
    assert "model.n_sites" in message and "model.V_prime" in message
    assert not (out / "reports" / f"{command}_report.json").exists()


@pytest.mark.parametrize("command", ["eval", "stationary", "interpret"])
def test_main_refuses_model_without_its_chain(tmp_path, capsys, command):
    # a model file that does not record its chain cannot be checked
    # against the config: refused, asking for train to be run again
    _, model_path, out = _synthetic_eval_setup(tmp_path, n_eval_steps=10)
    save_model(model_path, _stable_two_spin_params(), build_pauli_basis(2),
               TINY["simulation"]["dt"], extra={"final_train_loss": 0.1})
    message = _assert_one_error_line(
        capsys, main(["--config", _write_config(tmp_path), "--out", out,
                      command]),
        "ConfigError")
    assert model_path in message and "re-run train" in message
    assert not os.path.exists(os.path.join(out, "reports"))


@pytest.mark.parametrize("command", ["eval", "stationary", "interpret"])
def test_main_refuses_model_of_another_dt(tmp_path, capsys, command):
    # model.json's top-level dt set apart from the config's, its chain
    # block left as train wrote it: refused, naming the file and both
    # values, and no report written
    _, model_path, out = _synthetic_eval_setup(tmp_path, n_eval_steps=10)
    payload = json.loads(Path(model_path).read_text())
    payload["dt"] = 0.05
    Path(model_path).write_text(json.dumps(payload))
    message = _assert_one_error_line(
        capsys, main(["--config", _write_config(tmp_path), "--out", out,
                      command]),
        "ConfigError")
    assert model_path in message
    assert "dt=0.05" in message and "simulation.dt is 0.1" in message
    assert not os.path.exists(os.path.join(out, "reports"))


@pytest.mark.parametrize("command,where", [("train", ("data", "manifest.json")),
                                           ("stationary", ("models", "model.json"))])
def test_main_names_file_in_json_parse_errors(tmp_path, capsys, command, where):
    out = tmp_path / "run"
    path = out.joinpath(*where)
    path.parent.mkdir(parents=True)
    path.write_text("{")
    rc = main(["--config", _write_config(tmp_path), "--out", str(out), command])
    error = "ConfigError" if command == "train" else "ValueError"
    message = _assert_one_error_line(capsys, rc, error)
    assert str(path) in message and "not valid JSON" in message


# edits of a valid model file that leave no model in it
_MODEL_EDITS = {
    "list": lambda p: [p],
    "d_null": lambda p: dict(p, d=None),
    "d_str": lambda p: dict(p, d="4"),
    "d_float": lambda p: dict(p, d=4.0),
    "d_zero": lambda p: dict(p, d=0),
    "dt_str": lambda p: dict(p, dt="0.1"),
    "dt_null": lambda p: dict(p, dt=None),
    "omega_null": lambda p: dict(p, omega=None),
    "X_strings": lambda p: dict(p, X=[[str(x) for x in row] for row in p["X"]]),
    "Y_bools": lambda p: dict(p, Y=[[False] * 15] * 15),
    "convention_id_missing": lambda p: {k: v for k, v in p.items()
                                        if k != "convention_id"},
}


@pytest.mark.parametrize("command", ["stationary", "interpret"])
@pytest.mark.parametrize("edit", list(_MODEL_EDITS))
def test_main_refuses_malformed_model(tmp_path, capsys, command, edit):
    cfg_path = _write_config(tmp_path)
    out = tmp_path / "run"
    model_path = str(out / "models" / "model.json")
    save_model(model_path, _stable_two_spin_params(), build_pauli_basis(2),
               TINY["simulation"]["dt"])
    with open(model_path) as fh:
        payload = _MODEL_EDITS[edit](json.load(fh))
    with open(model_path, "w") as fh:
        json.dump(payload, fh)
    rc = main(["--config", cfg_path, "--out", str(out), command])
    captured = capsys.readouterr()
    assert rc == 1
    assert "Traceback" not in captured.err
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ValueError" and model_path in err["message"]
    assert not os.path.exists(out / "reports" / f"{command}_report.json")


def _assert_config_refused(tmp_path, capsys, cfg_path):
    """gen-data exits 1 with one JSON ConfigError line and writes nothing."""
    rc = main(["--config", cfg_path, "--out", str(tmp_path / "run"), "gen-data"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "Traceback" not in captured.err
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ConfigError"
    assert not os.path.exists(tmp_path / "run")


@pytest.mark.parametrize("block,value", [
    (None, 5),
    (None, None),
    ("simulation", [1, 2]),
    ("model", 3),
    ("scan", {"axis1_name": "beta", "axis1_values": 0.5,
              "axis2_name": "V_prime", "axis2_values": [0.3]}),
    ("paths", {"data_dir": 5}),
    ("model", dict(TINY["model"], subsystem_sites=None)),
    ("simulaton", {"dt": 0.1}),
], ids=["config_int", "config_null", "simulation_list", "model_int",
        "axis_values_scalar", "data_dir_int", "subsystem_sites_null",
        "unknown_block"])
def test_main_refuses_malformed_config(tmp_path, capsys, block, value):
    raw = value if block is None else dict(TINY, **{block: value})
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(raw))
    _assert_config_refused(tmp_path, capsys, str(cfg_path))


@pytest.mark.parametrize("overrides", [
    {"training": {"beta1": 0.9}},
    {"training": {"beta2": 0.999}},
    {"training": {"epsilon": 1e-8}},
    {"model": {"subsystem_sites": [1, 2]}},
], ids=["beta1", "beta2", "epsilon", "subsystem_sites"])
def test_main_refuses_fixed_values(tmp_path, capsys, overrides):
    # Adam's constants and the derived subsystem pair are not settable,
    # not even to the values they hold
    _assert_config_refused(tmp_path, capsys, _write_config(tmp_path, overrides))


# every value a config or the command line sets; a new one is added here,
# in the README and in CHANGES.md
_SETTABLE = {
    "model": {"variant", "n_sites", "omega", "V", "V_prime", "alpha", "beta"},
    "simulation": {"dt", "T_train", "T_extrapolate", "n_trajectories",
                   "n_eval_trajectories", "seed"},
    "training": {"learning_rate", "epochs", "batch_size", "batches_per_epoch",
                 "init_scale", "seed"},
    "scan": {"axis1_name", "axis1_values", "axis2_name", "axis2_values"},
    "metrics": {"a", "b", "n_initial_conditions", "max_window_steps"},
    "paths": {"data_dir", "model_dir", "report_dir"},
}
_FLAGS = {"--config", "--out", "--threads"}


def test_settable_values_are_pinned(tmp_path):
    # the config reader takes exactly the pinned keys of each block: each
    # block's fields are the pinned ones, a config of them loads, and
    # every other field of a block is refused
    blocks = get_type_hints(cli.ExperimentConfig)
    assert set(blocks) == set(_SETTABLE)
    for name, cls in blocks.items():
        assert {f.name for f in fields(cls) if f.init} == _SETTABLE[name], name
    cfg = load_config(_write_config(tmp_path))
    every = json.loads(json.dumps(asdict(cfg)))
    assert set(every) == set(_SETTABLE)
    config = {name: {k: v for k, v in block.items() if k in _SETTABLE[name]}
              for name, block in every.items()}
    assert cli._block(cli.ExperimentConfig, config, "top-level") == cfg
    for name, block in every.items():
        for key in set(block) - _SETTABLE[name]:
            extra = dict(config, **{name: dict(config[name], **{key: block[key]})})
            with pytest.raises(ConfigError, match="unknown keys"):
                cli._block(cli.ExperimentConfig, extra, "top-level")
    flags, parsers = set(), [cli._build_parser()]
    while parsers:
        actions = parsers.pop()._actions
        flags.update(s for a in actions for s in a.option_strings)
        parsers += [p for a in actions if isinstance(a, argparse._SubParsersAction)
                    for p in a.choices.values()]
    assert flags - {"-h", "--help"} == _FLAGS
    assert sum(map(len, _SETTABLE.values())) + len(_FLAGS) == 33


def test_readme_lists_the_pinned_settable_values():
    # the README's keys table and flag sentence name the pinned set
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = readme.index("| block | keys |")
    rows = readme[start:readme.index("\n\n", start)].splitlines()[2:]
    table = {}
    for row in rows:
        block, keys = (re.findall(r"`(\w+)`", cell) for cell in row.split("|")[1:3])
        table[block[0]] = set(keys)
    assert table == _SETTABLE
    paragraph, = [p for p in map(" ".join, map(str.split, readme.split("\n\n")))
                  if "settable values" in p]
    assert set(re.findall(r"`(--[a-z-]+)`", paragraph)) == _FLAGS
    count = sum(map(len, _SETTABLE.values())) + len(_FLAGS)
    assert re.findall(r"(\d+) settable values", paragraph) == [str(count)]
