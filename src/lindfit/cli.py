"""Command-line experiment harness.

Subcommands chain the library into reproducible workflows: exact-trajectory
generation (`gen-data`), generator fitting (`train`), fidelity evaluation
(`eval`), two-axis parameter scans (`scan`), stationary-state analysis
(`stationary`) and model inspection (`interpret`).  Every command is a pure
function of (config, input files, seed); all emitted times are in units of
1/omega.

`train` and `eval` share their fitting and evaluation with `scan`, whose
pool tasks each take a group of cells: a group generates its trajectories
in memory (writing the files `gen-data` writes), trains its cells in
lockstep and evaluates them from memory, so its files are those of
per-cell `gen-data`, `train` and `eval` runs.
"""

import argparse
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, asdict, field, fields, \
    is_dataclass, replace
from typing import get_type_hints

import numpy as np

from .spin_algebra import build_pauli_basis, coherence_to_matrix
from .lindblad_generator import (assemble_generator, propagate_trajectory,
                                 stationary_state, extract_hamiltonian,
                                 kossakowski_from_factors, jump_decomposition,
                                 save_model, load_model)
from .trainer import TrainConfig, build_dataset, train, save_loss_curves
from .many_body_sim import (SpinChainModel, generate_trajectory,
                            save_trajectory, load_trajectory, CapacityError,
                            DEFAULT_MAX_SITES, restricted_hamiltonian)
from .metrics import i_err, fvu, stationary_error, time_window, ErrorReport
from .files import write_csv, write_json


class ConfigError(ValueError):
    pass


@dataclass
class SimulationBlock:
    dt: float = 0.01
    T_train: float = 10.0
    T_extrapolate: float = 20.0
    n_trajectories: int = 50
    n_eval_trajectories: int = 10
    seed: int = 1234
    max_sites: int = DEFAULT_MAX_SITES


@dataclass
class ScanBlock:
    axis1_name: str = ""
    axis1_values: tuple = ()
    axis2_name: str = ""
    axis2_values: tuple = ()


@dataclass
class MetricsBlock:
    a: float = 5.0
    b: float = 10.0
    n_initial_conditions: int = 10
    # stationary windows longer than this many steps are refused rather
    # than silently computed for hours
    max_window_steps: int = 2_000_000


@dataclass
class PathsBlock:
    data_dir: str = "data"
    model_dir: str = "models"
    report_dir: str = "reports"


@dataclass
class ExperimentConfig:
    model: SpinChainModel
    simulation: SimulationBlock = field(default_factory=SimulationBlock)
    training: TrainConfig = field(default_factory=TrainConfig)
    scan: ScanBlock = field(default_factory=ScanBlock)
    metrics: MetricsBlock = field(default_factory=MetricsBlock)
    paths: PathsBlock = field(default_factory=PathsBlock)


def _is_number(value):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


# what the JSON value of a field must be, by the field's annotated type
_FIELD_KINDS = {
    int: ("an integer",
          lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a finite number", _is_number),
    str: ("a string", lambda v: isinstance(v, str)),
    tuple: ("a list of finite numbers",
            lambda v: isinstance(v, list) and all(map(_is_number, v))),
}


def _block(cls, payload, name):
    """Build the dataclass `cls` from a JSON object.

    Unknown keys, missing required keys and values of the wrong type are
    refused with ConfigError; JSON lists become tuples and fields that are
    themselves blocks are read the same way.
    """
    if not isinstance(payload, dict):
        raise ConfigError(f"{name} block must be a JSON object, got {payload!r}")
    hints = get_type_hints(cls)
    unknown = sorted(set(payload) - set(hints))
    if unknown:
        raise ConfigError(f"unknown keys in {name} block: {unknown}")
    missing = sorted(f.name for f in fields(cls) if f.name not in payload
                     and f.default is MISSING and f.default_factory is MISSING)
    if missing:
        raise ConfigError(f"missing keys in {name} block: {missing}")
    values = {}
    for key, value in payload.items():
        kind = hints[key]
        if is_dataclass(kind):
            values[key] = _block(kind, value, key)
            continue
        want, ok = _FIELD_KINDS[kind]
        if not ok(value):
            raise ConfigError(f"{name}.{key} must be {want}, got {value!r}")
        values[key] = tuple(value) if kind is tuple else value
    return cls(**values)


def _check_divides(dt, T, what):
    if abs(T - round(T / dt) * dt) > 1e-12:
        raise ConfigError(f"dt={dt} does not divide {what}={T}")


def load_config(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    cfg = _block(ExperimentConfig, raw, "top-level")
    sim = cfg.simulation
    if sim.dt <= 0:
        raise ConfigError("simulation.dt must be positive")
    if sim.T_train <= 0:
        raise ConfigError("simulation.T_train must be positive")
    _check_divides(sim.dt, sim.T_train, "T_train")
    _check_divides(sim.dt, sim.T_extrapolate, "T_extrapolate")
    if sim.T_extrapolate <= sim.T_train:
        raise ConfigError("T_extrapolate must be > T_train")
    for name, value, least in (
            ("simulation.n_trajectories", sim.n_trajectories, 1),
            ("simulation.n_eval_trajectories", sim.n_eval_trajectories, 0),
            ("training.batch_size", cfg.training.batch_size, 1),
            ("training.batches_per_epoch", cfg.training.batches_per_epoch, 1),
            ("training.epochs", cfg.training.epochs, 0),
            ("metrics.n_initial_conditions", cfg.metrics.n_initial_conditions, 1),
            ("metrics.max_window_steps", cfg.metrics.max_window_steps, 1)):
        if value < least:
            raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")
    if not 0 <= cfg.metrics.a < cfg.metrics.b:
        raise ConfigError(f"metrics need 0 <= a < b, got a={cfg.metrics.a!r}, "
                          f"b={cfg.metrics.b!r}")
    return cfg


def derive_seed(base, *parts):
    """Stable 63-bit stream seed from a base seed and a label path."""
    text = f"{base}|" + "|".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") & ((1 << 63) - 1)


def _dirs(cfg, out):
    p = cfg.paths
    d = {k: os.path.join(out, v) for k, v in
         (("data", p.data_dir), ("model", p.model_dir), ("report", p.report_dir))}
    for v in d.values():
        os.makedirs(v, exist_ok=True)
    return d


def _map(fn, jobs, threads):
    """[fn(job) for job in jobs], on up to `threads` worker processes.

    The pool gets no more workers than there are jobs: under the fork start
    method every worker is started at the first submit, busy or not.
    """
    workers = min(threads, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, jobs))
    return [fn(job) for job in jobs]


def cmd_gen_data(cfg, out, threads=1):
    """Write train/eval trajectory files and a deterministic manifest."""
    return _gen_data(cfg, out, threads)[0]


def _gen_data(cfg, out, threads=1, keep=False):
    """Write what cmd_gen_data writes; returns the manifest path and, with
    keep, the trajectories, training ones first (else one None each).

    Training trajectories end at T_train, the last time train reads; eval
    trajectories run on to T_extrapolate.
    """
    dirs = _dirs(cfg, out)
    sim = cfg.simulation
    roles = (("train", sim.n_trajectories, sim.T_train),
             ("eval", sim.n_eval_trajectories, sim.T_extrapolate))
    files = {role: [f"{role}_{i:03d}.csv" for i in range(count)]
             for role, count, _ in roles}
    jobs = [(cfg.model, sim.dt, int(round(T / sim.dt)),
             derive_seed(sim.seed, role, i),
             os.path.join(dirs["data"], name), sim.max_sites, keep)
            for role, _, T in roles for i, name in enumerate(files[role])]
    trajectories = _map(_gen_worker, jobs, threads)
    mpath = os.path.join(dirs["data"], "manifest.json")
    write_json(mpath, {"model": asdict(cfg.model), "simulation": asdict(sim),
                       "train_files": files["train"],
                       "eval_files": files["eval"]}, indent=2)
    return mpath, trajectories


def _gen_worker(job):
    """Write one trajectory file; return the trajectory only if the job
    keeps it, so pool workers send nothing back."""
    model, dt, n_steps, seed, path, max_sites, keep = job
    traj = generate_trajectory(model, dt, n_steps, seed, max_sites=max_sites)
    save_trajectory(path, traj)
    return traj if keep else None


def _load_manifest(manifest_path):
    if not os.path.exists(manifest_path):
        raise FileNotFoundError(f"manifest not found: {manifest_path}")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise ConfigError(f"{manifest_path}: manifest must be a JSON object, "
                          f"got {type(manifest).__name__}")
    for key in ("train_files", "eval_files"):
        names = manifest.get(key)
        if not (isinstance(names, list)
                and all(isinstance(name, str) for name in names)):
            raise ConfigError(f"{manifest_path}: {key} must be a list of "
                              f"file names, got {names!r}")
    return manifest, os.path.dirname(manifest_path)


def _cellwise(fn, *columns):
    """[fn(*args) for args in zip(*columns)], one cell at a time.

    Where an argument is an exception, or the call raises one, that
    exception is the cell's result, so one cell's failure stops only that
    cell.
    """
    results = []
    for args in zip(*columns):
        result = next((a for a in args if isinstance(a, Exception)), None)
        if result is None:
            try:
                result = fn(*args)
            except Exception as exc:  # the cell's outcome, reported by the caller
                result = exc
        results.append(result)
    return results


def cmd_train(cfg, manifest_path, out):
    """Fit a generator on the manifest's training files, t <= T_train."""
    dirs = _dirs(cfg, out)
    manifest, data_dir = _load_manifest(manifest_path)
    trajs = [load_trajectory(os.path.join(data_dir, name))
             for name in manifest["train_files"]]
    fit = _fit(cfg.training, [(cfg, dirs, trajs)])[0]
    if isinstance(fit, Exception):
        raise fit
    return fit[0]


def _fit(training, cells):
    """Train the generators of (cfg, dirs, training trajectories) cells in
    lockstep and write each cell's model and loss curves.

    Each cell keeps its trajectories up to T_train, split by whole
    trajectories with its own split seed.  Returns, per cell, (model path,
    parameters) or the exception that stopped the cell; a cell given as an
    exception stays one.
    """
    datasets = _cellwise(_dataset, cells)
    trained = iter(train(training, [ds for ds in datasets
                                    if not isinstance(ds, Exception)]))
    results = [ds if isinstance(ds, Exception) else next(trained)
               for ds in datasets]
    return _cellwise(_save_fit, cells, results)


def _dataset(cell):
    cfg, _, trajs = cell[:3]
    sim = cfg.simulation
    split_rng = np.random.default_rng(derive_seed(sim.seed, "split"))
    return build_dataset([time_window(t, 0.0, sim.T_train) for t in trajs],
                         split_fraction=0.8, rng=split_rng)


def _save_fit(cell, result):
    cfg, dirs = cell[:2]
    model_path = os.path.join(dirs["model"], "model.json")
    save_model(model_path, result.params, build_pauli_basis(2), cfg.simulation.dt,
               extra={"final_train_loss": result.train_history[-1],
                      "final_val_loss": result.val_history[-1]})
    save_loss_curves(os.path.join(dirs["report"], "loss_curves.csv"),
                     result.train_history, result.val_history)
    return model_path, result.params


def _epsilon_pipeline(cfg, L):
    """Stationary-state distance for the config's exact dynamics.

    Returns (epsilon, status, info, trajectories or None).  Long windows are
    regenerated at a coarser grid under metrics.max_window_steps.
    """
    info = stationary_state(L)
    if info.no_gap:
        return math.nan, "no_gap", info, None
    if info.non_unique or info.v_st is None:
        return math.nan, "non_unique", info, None
    met, sim = cfg.metrics, cfg.simulation
    horizon = met.b * info.tau
    stride = max(1, int(math.ceil(horizon / sim.dt / met.max_window_steps)))
    dt_eps = sim.dt * stride
    n_steps = int(math.ceil(horizon / dt_eps))
    if n_steps > met.max_window_steps:
        return math.nan, "window_budget_exceeded", info, None
    trajs = []
    for k in range(met.n_initial_conditions):
        seed = derive_seed(sim.seed, "stationary", k)
        trajs.append(generate_trajectory(cfg.model, dt_eps, n_steps, seed,
                                         max_sites=sim.max_sites))
    eps = stationary_error(trajs, info.v_st, info.tau, met.a, met.b)
    return eps, "ok", info, trajs


def cmd_eval(cfg, model_path, manifest_path, out):
    """Fidelity report for a learned model against the eval trajectories."""
    manifest, data_dir = _load_manifest(manifest_path)
    if not manifest["eval_files"]:
        raise ConfigError(f"{manifest_path} lists no eval trajectories; "
                          "set simulation.n_eval_trajectories >= 1")
    dirs = _dirs(cfg, out)
    params, basis, model_dt, _ = load_model(model_path)
    if abs(model_dt - cfg.simulation.dt) > 1e-12:
        raise ConfigError(f"model dt={model_dt} differs from config "
                          f"dt={cfg.simulation.dt}")
    exact = [load_trajectory(os.path.join(data_dir, name))
             for name in manifest["eval_files"]]
    return _evaluate(cfg, assemble_generator(params, basis), exact, dirs)


def _evaluate(cfg, L, exact_trajectories, dirs):
    """Write the time series and eval report of generator L against the
    exact trajectories; returns the report."""
    sim, met = cfg.simulation, cfg.metrics
    ie_i, ie_e, fv_i, fv_e = [], [], [], []
    for idx, exact in enumerate(exact_trajectories):
        pred = replace(exact, snapshots=propagate_trajectory(
            L, exact.snapshots[0], exact.dt, exact.n_steps))
        _write_timeseries(os.path.join(dirs["report"],
                                       f"timeseries_eval_{idx:03d}.csv"),
                          exact, pred)
        ie_i.append(i_err(exact, pred, 0.0, sim.T_train))
        fv_i.append(fvu(time_window(exact, 0.0, sim.T_train),
                        time_window(pred, 0.0, sim.T_train)))
        if exact.dt * exact.n_steps >= sim.T_extrapolate - 1e-9:
            ie_e.append(i_err(exact, pred, sim.T_train, sim.T_extrapolate))
            fv_e.append(fvu(time_window(exact, sim.T_train, sim.T_extrapolate),
                            time_window(pred, sim.T_train, sim.T_extrapolate)))

    eps, eps_status, info, _ = _epsilon_pipeline(cfg, L)
    report = ErrorReport(
        i_err_interp=float(np.mean(ie_i)),
        i_err_extrap=float(np.mean(ie_e)) if ie_e else math.nan,
        fvu_interp=float(np.nanmean(fv_i)),
        fvu_extrap=float(np.nanmean(fv_e)) if fv_e else math.nan,
        epsilon_stationary=eps,
        interp_window=(0.0, sim.T_train),
        extrap_window=(sim.T_train, sim.T_extrapolate),
        a=met.a, b=met.b, tau=info.tau,
        n_initial_conditions=met.n_initial_conditions,
        epsilon_status=eps_status)
    _write_report_csv(os.path.join(dirs["report"], "eval_report.csv"), report)
    return report


def _write_timeseries(path, exact, pred):
    n = exact.snapshots.shape[1]
    cols = ["t_over_omega_inv"]
    cols += [f"exact_v_{k}" for k in range(1, n + 1)]
    cols += [f"model_v_{k}" for k in range(1, n + 1)]
    rows = np.column_stack((exact.times(), exact.snapshots,
                            pred.snapshots)).tolist()
    write_csv(path, cols, rows)


def _write_report_csv(path, report):
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
    write_csv(path, head, [vals])


_SCAN_AXES = {"I": ("beta", "V_prime"), "II": ("alpha", "V")}


def _cell_dir_name(a1, v1, a2, v2):
    return f"{a1}={v1:g}_{a2}={v2:g}"


def _scan_cell(args):
    """Pool task: gen-data, train and eval for one group of scan cells.

    Each cell's trajectories are generated in memory and written as
    gen-data writes them, the group is trained in lockstep, and each cell
    is evaluated from memory, so the files are those of per-cell gen-data,
    train and eval runs.  Returns one result row per cell; a cell that
    raised gets a failed row and the others go on.
    """
    cfg, values, out = args
    cells = _cellwise(lambda v: _scan_setup(cfg, *v, out), values)
    fits = _fit(cfg.training, cells)
    reports = _cellwise(_scan_eval, cells, fits)
    rows = []
    for (v1, v2), report in zip(values, reports):
        if isinstance(report, Exception):
            msg = f"failed: {type(report).__name__}: {report}"
            msg = msg.replace(",", ";").replace("\n", " ")[:200]
            rows.append((v1, v2, math.nan, math.nan, math.nan, math.nan,
                         math.nan, msg))
        else:
            rows.append((v1, v2, report.i_err_interp, report.i_err_extrap,
                         report.fvu_interp, report.fvu_extrap,
                         report.epsilon_stationary, "ok"))
    return rows


def _scan_setup(cfg, v1, v2, out):
    """A cell's config and directories, and its trajectories written as
    gen-data writes them: (cfg, dirs, train, eval)."""
    a1, a2 = cfg.scan.axis1_name, cfg.scan.axis2_name
    cell_model = replace(cfg.model, **{a1: v1, a2: v2})
    cell_seed = derive_seed(cfg.simulation.seed, "cell", a1, repr(v1),
                            a2, repr(v2))
    cell_cfg = replace(cfg, model=cell_model,
                       simulation=replace(cfg.simulation, seed=cell_seed))
    cell_out = os.path.join(out, "scan", _cell_dir_name(a1, v1, a2, v2))
    trajs = _gen_data(cell_cfg, cell_out, keep=True)[1]
    n_train = cell_cfg.simulation.n_trajectories
    return (cell_cfg, _dirs(cell_cfg, cell_out), trajs[:n_train],
            trajs[n_train:])


def _scan_eval(cell, fit):
    cfg, dirs, _, exact = cell
    return _evaluate(cfg, assemble_generator(fit[1], build_pauli_basis(2)),
                     exact, dirs)


def cmd_scan(cfg, out, threads=1):
    """Run gen-data -> train -> eval over the two configured parameter axes.

    The cells are split into `threads` contiguous groups, one pool task
    each, and a group's cells train in lockstep; a cell's results do not
    depend on its group.
    """
    scan = cfg.scan
    allowed = _SCAN_AXES[cfg.model.variant]
    for name in (scan.axis1_name, scan.axis2_name):
        if name not in allowed:
            raise ConfigError(f"scan axis {name!r} not in {allowed} for "
                              f"variant {cfg.model.variant}")
    if scan.axis1_name == scan.axis2_name:
        raise ConfigError(f"scan axes must be two parameters, got "
                          f"{scan.axis1_name!r} twice")
    if not scan.axis1_values or not scan.axis2_values:
        raise ConfigError("scan requires nonempty axis value lists")
    if cfg.simulation.n_eval_trajectories < 1:
        raise ConfigError("scan evaluates every cell; set "
                          "simulation.n_eval_trajectories >= 1")
    values = [(v1, v2) for v1 in scan.axis1_values for v2 in scan.axis2_values]
    names = [_cell_dir_name(scan.axis1_name, v1, scan.axis2_name, v2)
             for v1, v2 in values]
    if len(set(names)) < len(names):
        clash = [v for v, name in zip(values, names)
                 if names.count(name) > 1]
        raise ConfigError(f"scan cells {clash} would share directories: "
                          "axis values must differ in 6 significant digits")
    n_groups = max(1, min(threads, len(values)))
    bounds = [len(values) * g // n_groups for g in range(n_groups + 1)]
    groups = [(cfg, values[lo:hi], out) for lo, hi in zip(bounds, bounds[1:])]
    rows = [row for group in _map(_scan_cell, groups, n_groups) for row in group]
    os.makedirs(os.path.join(out, "scan"), exist_ok=True)
    csv_path = os.path.join(out, "scan", "scan_results.csv")
    write_csv(csv_path, ["axis1", "axis2", "i_err_interp", "i_err_extrap",
                         "fvu_interp", "fvu_extrap", "epsilon", "status"],
              rows)
    return csv_path


def cmd_stationary(cfg, model_path, out):
    """Stationary-state report plus long-time observable series."""
    dirs = _dirs(cfg, out)
    params, basis, _, _ = load_model(model_path)
    L = assemble_generator(params, basis)
    eps, status, info, trajs = _epsilon_pipeline(cfg, L)
    report = {
        "e_gap": info.e_gap,
        "tau_over_omega_inv": info.tau,
        "no_gap": info.no_gap,
        "non_unique": info.non_unique,
        "epsilon_stationary": None if math.isnan(eps) else eps,
        "epsilon_status": status,
        "window_over_omega_inv": None if info.tau is None else
            [cfg.metrics.a * info.tau, cfg.metrics.b * info.tau],
        "n_initial_conditions": cfg.metrics.n_initial_conditions,
        "v_st": None if info.v_st is None else list(info.v_st),
        "eigenvalues_re": list(np.sort(info.eigenvalues.real)),
    }
    if info.v_st is not None:
        rho_st = coherence_to_matrix(info.v_st, basis)
        report["rho_st_re"] = rho_st.real.tolist()
        report["rho_st_im"] = rho_st.imag.tolist()
    rpath = os.path.join(dirs["report"], "stationary_report.json")
    write_json(rpath, report, indent=2)
    if trajs:
        _write_observables(os.path.join(dirs["report"],
                                        "stationary_observables.csv"),
                           trajs[0], L, info)
    return rpath


def _write_observables(path, exact, L, info):
    """Exact vs learned vs stationary two-spin sigma_z observables."""
    pred = propagate_trajectory(L, exact.snapshots[0], exact.dt, exact.n_steps)
    labels = build_pauli_basis(2).labels
    t = exact.times()
    cols = ["t_over_omega_inv"]
    series = [t]
    for name, word in (("sz_1", "z1"), ("sz_2", "1z"), ("sz_sz", "zz")):
        ci = labels.index(word)
        cols += [f"{name}_exact", f"{name}_model", f"{name}_stationary"]
        # expectation of the two-spin Pauli word is 2 * v component
        series += [2 * exact.snapshots[:, ci], 2 * pred[:, ci],
                   np.full(t.size, 2 * info.v_st[ci])]
    write_csv(path, cols, np.column_stack(series).tolist())


def reference_two_spin_hamiltonian(model):
    """Restriction of the chain Hamiltonian to the subsystem pair, traceless.

    Variant I keeps the transverse fields and the V_prime bond between the
    two subsystem sites; variant II keeps the fields and the distance-1
    power-law bond.
    """
    H = restricted_hamiltonian(model, model.subsystem_sites)
    return H - np.trace(H) / 4.0 * np.eye(4)


def cmd_interpret(cfg, model_path, out):
    """Emit learned Hamiltonian/Kossakowski data and the jump decomposition."""
    dirs = _dirs(cfg, out)
    params, basis, _, _ = load_model(model_path)
    H_learned = extract_hamiltonian(params, basis)
    H_ref = reference_two_spin_hamiltonian(cfg.model)
    diff = H_learned - H_ref

    # normalized sigma_z(x)1 + 1(x)sigma_z
    dir_op = sum(basis.elements[basis.labels.index(word)]
                 for word in ("z1", "1z")) / np.sqrt(2.0)
    overlap = np.trace(dir_op.conj().T @ diff)
    hs2 = np.trace(diff.conj().T @ diff).real
    fraction = float(abs(overlap) ** 2 / hs2) if hs2 > 1e-30 else 0.0

    c = kossakowski_from_factors(params.X, params.Y)
    jd = jump_decomposition(c, basis)
    J0 = jd.jump_ops[0]
    j_norm2 = np.trace(J0.conj().T @ J0).real
    j_overlap = np.trace(dir_op.conj().T @ J0)
    j_align = float(abs(j_overlap) ** 2 / j_norm2) if j_norm2 > 1e-30 else 0.0

    report = {
        "H_learned_re": H_learned.real.tolist(),
        "H_learned_im": H_learned.imag.tolist(),
        "H_reference_re": H_ref.real.tolist(),
        "H_diff_re": diff.real.tolist(),
        "H_diff_im": diff.imag.tolist(),
        "H_diff_hs_norm": float(np.sqrt(hs2)),
        "H_diff_fraction_on_sigma_z_sum": fraction,
        "kossakowski_re": c.real.tolist(),
        "kossakowski_im": c.imag.tolist(),
        "rates": list(jd.rates),
        "dominant_jump_re": J0.real.tolist(),
        "dominant_jump_im": J0.imag.tolist(),
        "dominant_jump_alignment_sigma_z_sum": j_align,
    }
    rpath = os.path.join(dirs["report"], "interpret_report.json")
    write_json(rpath, report, indent=2)
    return rpath


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="lindfit",
        description="Learn and analyze Markovian generators for a two-spin "
                    "subsystem of an exactly simulated spin chain.")
    ap.add_argument("--config", required=True, help="JSON experiment config")
    ap.add_argument("--seed", type=int, default=None,
                    help="override simulation.seed")
    ap.add_argument("--out", default=".", help="output root directory")
    ap.add_argument("--threads", type=int, default=1)
    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser("gen-data")
    p = sub.add_parser("train")
    p.add_argument("--manifest", default=None)
    p = sub.add_parser("eval")
    p.add_argument("--model", default=None)
    p.add_argument("--manifest", default=None)
    sub.add_parser("scan")
    p = sub.add_parser("stationary")
    p.add_argument("--model", default=None)
    p = sub.add_parser("interpret")
    p.add_argument("--model", default=None)
    return ap


def _default_manifest(cfg, out):
    return os.path.join(out, cfg.paths.data_dir, "manifest.json")


def _default_model(cfg, out):
    return os.path.join(out, cfg.paths.model_dir, "model.json")


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, simulation=replace(cfg.simulation,
                                                  seed=args.seed))
        out = args.out
        manifest = getattr(args, "manifest", None)
        model_path = getattr(args, "model", None)
        if args.command == "gen-data":
            path = cmd_gen_data(cfg, out, threads=args.threads)
            print(f"manifest: {path}")
        elif args.command == "train":
            path = cmd_train(cfg, manifest or _default_manifest(cfg, out), out)
            print(f"model: {path}")
        elif args.command == "eval":
            rep = cmd_eval(cfg, model_path or _default_model(cfg, out),
                           manifest or _default_manifest(cfg, out), out)
            print(f"i_err_interp: {rep.i_err_interp:.6g}")
            print(f"i_err_extrap: {rep.i_err_extrap:.6g}")
        elif args.command == "scan":
            path = cmd_scan(cfg, out, threads=args.threads)
            print(f"scan results: {path}")
        elif args.command == "stationary":
            path = cmd_stationary(cfg, model_path or _default_model(cfg, out),
                                  out)
            print(f"stationary report: {path}")
        elif args.command == "interpret":
            path = cmd_interpret(cfg, model_path or _default_model(cfg, out),
                                 out)
            print(f"interpret report: {path}")
        return 0
    except (ConfigError, ValueError, KeyError, FileNotFoundError,
            CapacityError, RuntimeError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
