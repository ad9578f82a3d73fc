"""Config parsing, seeding, and the end-to-end command pipeline."""

import json
import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import lindfit.cli as cli
from lindfit.cli import (
    ConfigError,
    _write_observables,
    _write_report_csv,
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
    load_trajectory,
    save_trajectory,
)
from lindfit.metrics import ErrorReport
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
    mpath = cmd_gen_data(cfg, out)
    model_path = cmd_train(cfg, mpath, out)
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
    save_model(model_path, params, basis, cfg.simulation.dt)
    rng = np.random.default_rng(88)
    names = []
    for i in range(2):
        v0 = rho_to_coherence(ginibre_density_matrix(4, rng), basis)
        snaps = propagate_trajectory(L, v0, cfg.simulation.dt, n_eval_steps)
        traj = Trajectory(model=cfg.model, dt=cfg.simulation.dt, snapshots=snaps)
        name = f"eval_{i:03d}.csv"
        save_trajectory(os.path.join(out, "data", name), traj)
        names.append(name)
    mpath = os.path.join(out, "data", "manifest.json")
    with open(mpath, "w") as fh:
        json.dump({"train_files": [], "eval_files": names}, fh)
    return cfg, model_path, mpath, out


def test_eval_on_own_dynamics_is_exact(tmp_path):
    cfg, model_path, mpath, out = _synthetic_eval_setup(tmp_path, n_eval_steps=10)
    report = cmd_eval(cfg, model_path, mpath, out)
    assert report.i_err_interp < 1e-12
    assert report.i_err_extrap < 1e-12
    assert report.fvu_interp < 1e-10
    assert report.epsilon_status == "ok"
    assert math.isfinite(report.epsilon_stationary)
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


def _write_report_csv_cell_reference(path, report):
    """Reference writer: one formatting call per cell."""
    head = ["i_err_interp", "i_err_extrap", "fvu_interp", "fvu_extrap",
            "epsilon_stationary", "epsilon_status",
            "interp_start_over_omega_inv", "interp_end_over_omega_inv",
            "extrap_start_over_omega_inv", "extrap_end_over_omega_inv",
            "a", "b", "tau_over_omega_inv", "n_initial_conditions"]
    vals = [report.i_err_interp, report.i_err_extrap, report.fvu_interp,
            report.fvu_extrap, report.epsilon_stationary,
            report.epsilon_status,
            report.interp_window[0], report.interp_window[1],
            report.extrap_window[0], report.extrap_window[1],
            report.a, report.b,
            "" if report.tau is None else report.tau,
            report.n_initial_conditions]
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
def test_eval_report_csv_matches_cell_reference(tmp_path, tau, status):
    # config numbers arrive as JSON ints or floats; both must print the same
    report = ErrorReport(
        i_err_interp=0.1234567890123456789, i_err_extrap=math.nan,
        fvu_interp=5e-324, fvu_extrap=-0.0,
        epsilon_stationary=math.nan if status != "ok" else 1.5e300,
        interp_window=(0.0, 5), extrap_window=(5, 10.0), a=5, b=10.0,
        tau=tau, n_initial_conditions=2, epsilon_status=status)
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    _write_report_csv(new, report)
    _write_report_csv_cell_reference(ref, report)
    assert new.read_bytes() == ref.read_bytes()


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
        mpath = cmd_gen_data(cell_cfg, out)
        cmd_eval(cell_cfg, cmd_train(cell_cfg, mpath, out), mpath, out)
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
    cfg, model_path, mpath, out = _synthetic_eval_setup(tmp_path, n_eval_steps=5)
    report = cmd_eval(cfg, model_path, mpath, out)
    assert math.isnan(report.i_err_extrap)
    assert math.isnan(report.fvu_extrap)
    assert report.i_err_interp < 1e-12


def test_eval_rejects_dt_mismatch(tmp_path):
    cfg, model_path, mpath, out = _synthetic_eval_setup(tmp_path, n_eval_steps=10)
    basis = build_pauli_basis(2)
    save_model(model_path, _stable_two_spin_params(), basis, 0.05)
    with pytest.raises(ConfigError):
        cmd_eval(cfg, model_path, mpath, out)


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
    cfg, model_path, _, out = _synthetic_eval_setup(tmp_path, n_eval_steps=5)
    rpath = cmd_stationary(cfg, model_path, out)
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
    cfg, model_path, _, out = _synthetic_eval_setup(tmp_path, n_eval_steps=5)
    basis = build_pauli_basis(2)
    pure = GeneratorParams(omega=np.ones(15) * 0.2, X=np.zeros((15, 15)),
                           Y=np.zeros((15, 15)))
    save_model(model_path, pure, basis, cfg.simulation.dt)
    report = json.loads(Path(cmd_stationary(cfg, model_path, out)).read_text())
    assert report["no_gap"] is True
    assert report["epsilon_status"] == "no_gap"
    assert report["epsilon_stationary"] is None
    assert not os.path.exists(os.path.join(out, "reports",
                                           "stationary_observables.csv"))


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
    save_model(model_path, params, basis, cfg.simulation.dt)
    report = json.loads(Path(cmd_interpret(cfg, model_path, out)).read_text())
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


def test_main_capacity_error(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, {"model": {"n_sites": 13}})
    rc = main(["--config", cfg_path, "--out", str(tmp_path / "run"), "gen-data"])
    captured = capsys.readouterr()
    assert rc == 1
    err = json.loads(captured.err.strip())
    assert err["error"] == "CapacityError"


@pytest.mark.parametrize("overrides,commands", [
    ({"training": {"batch_size": 0}}, ["train"]),
    ({"training": {"batches_per_epoch": 0}}, ["train"]),
    ({"training": {"epochs": -3}}, ["train"]),
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
], ids=["batch_size", "batches_per_epoch", "epochs", "n_initial_conditions",
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


@pytest.mark.parametrize("budget", [1, 2, 3])
@pytest.mark.parametrize("command", ["eval", "stationary"])
def test_main_refuses_stationary_window_under_two_snapshots(tmp_path, capsys,
                                                            command, budget):
    # under a budget of a few steps the stand-in model's window [a tau, b tau]
    # holds fewer than two snapshots of the coarse grid: refused, not 0/0
    _, model_path, mpath, out = _synthetic_eval_setup(tmp_path, n_eval_steps=10)
    cfg_path = _write_config(tmp_path, {"metrics": {"max_window_steps": budget}},
                             name="budget.json")
    args = ["--config", cfg_path, "--out", out, command, "--model", model_path]
    rc = main(args + (["--manifest", mpath] if command == "eval" else []))
    captured = capsys.readouterr()
    assert rc == 1
    assert "Traceback" not in captured.err
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ValueError"
    assert "stationary window" in err["message"] and "dt=" in err["message"]
    assert not os.path.exists(os.path.join(out, "reports", "stationary_report.json"))


@pytest.mark.parametrize("overrides", [
    {"simulation": {"dt": "0.1"}},
    {"simulation": {"n_trajectories": 2.5}},
    {"simulation": {"max_sites": "12"}},
    {"simulation": {"seed": True}},
    {"metrics": {"a": "5"}},
    {"metrics": {"b": float("inf")}},
    {"training": {"learning_rate": "1e-2"}},
    {"training": {"beta1": float("nan")}},
    {"training": {"epochs": 2.0}},
    {"model": {"omega": "1"}},
    {"model": {"n_sites": 4.0}},
], ids=["dt_str", "n_trajectories_float", "max_sites_str", "seed_bool",
        "a_str", "b_inf", "learning_rate_str", "beta1_nan", "epochs_float",
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
}


@pytest.mark.parametrize("command", ["stationary", "interpret"])
@pytest.mark.parametrize("edit", list(_MODEL_EDITS))
def test_main_refuses_malformed_model(tmp_path, capsys, command, edit):
    cfg_path = _write_config(tmp_path)
    out = tmp_path / "run"
    model_path = str(tmp_path / "model.json")
    save_model(model_path, _stable_two_spin_params(), build_pauli_basis(2),
               TINY["simulation"]["dt"])
    with open(model_path) as fh:
        payload = _MODEL_EDITS[edit](json.load(fh))
    with open(model_path, "w") as fh:
        json.dump(payload, fh)
    rc = main(["--config", cfg_path, "--out", str(out), command,
               "--model", model_path])
    captured = capsys.readouterr()
    assert rc == 1
    assert "Traceback" not in captured.err
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ValueError"
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


def test_main_seed_override_changes_data(tmp_path):
    cfg_path = _write_config(tmp_path)
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert main(["--config", cfg_path, "--out", out_a, "gen-data"]) == 0
    assert main(["--config", cfg_path, "--seed", "7", "--out", out_b, "gen-data"]) == 0
    a = Path(out_a, "data", "train_000.csv").read_text()
    b = Path(out_b, "data", "train_000.csv").read_text()
    assert a != b
