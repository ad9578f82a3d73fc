"""Command-line experiment harness.

Subcommands chain the library into reproducible workflows: exact-trajectory
generation (`gen-data`), generator fitting (`train`), fidelity evaluation
(`eval`), two-axis parameter scans (`scan`), stationary-state analysis
(`stationary`) and model inspection (`interpret`).  Every command is a pure
function of (config, input files); all emitted times are in units of
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
                            restricted_hamiltonian, window_means,
                            _check_capacity)
from .metrics import (i_err, fvu, stationary_distance, stationary_window,
                      time_window)
from .files import read_json, write_csv, write_json


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
    # the trajectory `stationary` prints runs to b*tau in steps of
    # `stride` * dt, the stride keeping it within this many steps; epsilon
    # is averaged on the dt grid at any value
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

    The keys are the fields __init__ takes; unknown keys, missing required
    keys and values of the wrong type are refused with ConfigError.  JSON
    lists become tuples and fields that are blocks are read the same way.
    """
    if not isinstance(payload, dict):
        raise ConfigError(f"{name} block must be a JSON object, got {payload!r}")
    hints = get_type_hints(cls)
    keys = {f.name: f for f in fields(cls) if f.init}
    unknown = sorted(set(payload) - set(keys))
    if unknown:
        raise ConfigError(f"unknown keys in {name} block: {unknown}")
    missing = sorted(key for key, f in keys.items() if key not in payload
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
    cfg = _block(ExperimentConfig, read_json(path, ConfigError), "top-level")
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
    if cfg.training.learning_rate <= 0:
        raise ConfigError(f"training.learning_rate must be positive, got "
                          f"{cfg.training.learning_rate!r}")
    if not 0 <= cfg.metrics.a < cfg.metrics.b:
        raise ConfigError(f"metrics need 0 <= a < b, got a={cfg.metrics.a!r}, "
                          f"b={cfg.metrics.b!r}")
    _check_capacity(cfg.model)
    return cfg


def derive_seed(base, *parts):
    """Stable 63-bit stream seed from a base seed and a label path."""
    text = f"{base}|" + "|".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") & ((1 << 63) - 1)


def _dirs(cfg, out):
    """The data and report directories under `out`, and the manifest and
    model files every command reads where gen-data and train write them."""
    p = cfg.paths
    data = os.path.join(out, p.data_dir)
    return {"data": data, "manifest": os.path.join(data, "manifest.json"),
            "model": os.path.join(out, p.model_dir, "model.json"),
            "report": os.path.join(out, p.report_dir)}


def __getattr__(name):
    """The module attribute ProcessPoolExecutor, imported on first use.

    Only gen-data and scan start a pool, and importing it (with
    multiprocessing) would cost every command's start-up.  Tests and the
    benchmark's tracer may set the attribute before a pool starts, so _map
    reads it through the module.
    """
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor
    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


def _map(fn, jobs, threads):
    """[fn(job) for job in jobs], on up to `threads` worker processes.

    The pool gets no more workers than there are jobs: under the fork start
    method every worker is started at the first submit, busy or not.
    """
    workers = min(threads, len(jobs))
    if workers > 1:
        pool_class = sys.modules[__name__].ProcessPoolExecutor
        with pool_class(max_workers=workers) as pool:
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
             os.path.join(dirs["data"], name), keep)
            for role, _, T in roles for i, name in enumerate(files[role])]
    trajectories = _map(_gen_worker, jobs, threads)
    write_json(dirs["manifest"], {"model": asdict(cfg.model),
                                  "simulation": asdict(sim),
                                  "train_files": files["train"],
                                  "eval_files": files["eval"]}, indent=2)
    return dirs["manifest"], trajectories


def _gen_worker(job):
    """Write one trajectory file; return the trajectory only if the job
    keeps it, so pool workers send nothing back."""
    model, dt, n_steps, seed, path, keep = job
    traj = generate_trajectory(model, dt, n_steps, seed)
    save_trajectory(path, traj)
    return traj if keep else None


def _chain(model, dt):
    """A file's chain block, as JSON holds it: at a manifest's top level,
    and as a model file's extra "chain" key."""
    return json.loads(json.dumps({"model": asdict(model),
                                  "simulation": {"dt": dt}}))


def _check_chain(cfg, path, have):
    """Refuse the file at `path` unless `have`, the chain block it
    records, is the config's chain and dt."""
    differ = []
    for block, values in _chain(cfg.model, cfg.simulation.dt).items():
        got = have.get(block)
        got = got if isinstance(got, dict) else {}
        differ += [f"{block}.{key}" for key, value in values.items()
                   if got.get(key) != value]
    if differ:
        raise ConfigError(f"{path} holds data of another chain: "
                          f"{', '.join(differ)} differ from the config")


def _load_manifest(cfg, path):
    """The manifest at `path`, refused unless it lists its files and its
    data is of the config's chain and dt."""
    manifest = read_json(path, ConfigError)
    for key in ("train_files", "eval_files"):
        names = manifest.get(key)
        if not (isinstance(names, list)
                and all(isinstance(name, str) for name in names)):
            raise ConfigError(f"{path}: {key} must be a list of "
                              f"file names, got {names!r}")
    _check_chain(cfg, path, manifest)
    return manifest


def _load_data(cfg, dirs, names):
    """The trajectory files `names` of the data directory, each refused
    unless its header holds the config's chain and dt, as the manifest
    does."""
    paths = [os.path.join(dirs["data"], name) for name in names]
    trajs = [load_trajectory(path) for path in paths]
    for path, traj in zip(paths, trajs):
        _check_chain(cfg, path, _chain(traj.model, traj.dt))
    return trajs


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


def cmd_train(cfg, out):
    """Fit a generator on the manifest's training files, t <= T_train."""
    dirs = _dirs(cfg, out)
    manifest = _load_manifest(cfg, dirs["manifest"])
    trajs = _load_data(cfg, dirs, manifest["train_files"])
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
    val = result.val_history[-1]
    save_model(dirs["model"], result.params, build_pauli_basis(2), cfg.simulation.dt,
               extra={"chain": _chain(cfg.model, cfg.simulation.dt),
                      "final_train_loss": result.train_history[-1],
                      # nan without a validation set; JSON holds no nan
                      "final_val_loss": None if math.isnan(val) else val})
    save_loss_curves(os.path.join(dirs["report"], "loss_curves.csv"),
                     result.train_history, result.val_history)
    return dirs["model"], result.params


def _window_grid(cfg, tau):
    """(dt_eps, n_steps): the grid of the trajectory cmd_stationary prints.

    It reaches b*tau in steps of dt_eps = stride * dt, the smallest stride
    that keeps it within metrics.max_window_steps steps; both counts are
    whole divisions of ceil(b*tau/dt), so the grid fits and covers.
    Epsilon does not use it.
    """
    met, dt = cfg.metrics, cfg.simulation.dt
    fine_steps = math.ceil(met.b * tau / dt)
    stride = max(1, -(-fine_steps // met.max_window_steps))
    return dt * stride, -(-fine_steps // stride)


def _stationary_seed(cfg, k):
    return derive_seed(cfg.simulation.seed, "stationary", k)


def _epsilon_pipeline(cfg, L):
    """Stationary-state distance for the config's exact dynamics.

    Returns (epsilon, status, info); epsilon is nan unless status is
    "ok".  Each initial condition's [a*tau, b*tau] window mean is taken
    in closed form on the simulation's dt grid (many_body_sim.window_means),
    so no window trajectory is simulated and metrics.max_window_steps
    plays no part.
    """
    info = stationary_state(L)
    if info.no_gap:
        return math.nan, "no_gap", info
    if info.non_unique or info.v_st is None:
        return math.nan, "non_unique", info
    met, dt = cfg.metrics, cfg.simulation.dt
    k_lo, k_hi = stationary_window(dt, math.ceil(met.b * info.tau / dt),
                                   info.tau, met.a, met.b)
    seeds = [_stationary_seed(cfg, k) for k in range(met.n_initial_conditions)]
    means = window_means(cfg.model, dt, k_lo, k_hi, seeds)
    return stationary_distance(means, info.v_st), "ok", info


def cmd_eval(cfg, out):
    """Fidelity report for a learned model against the eval trajectories."""
    dirs = _dirs(cfg, out)
    manifest = _load_manifest(cfg, dirs["manifest"])
    if not manifest["eval_files"]:
        raise ConfigError(f"{dirs['manifest']} lists no eval trajectories; "
                          "set simulation.n_eval_trajectories >= 1")
    params, basis = _load_two_spin_model(cfg, dirs["model"])
    exact = _load_data(cfg, dirs, manifest["eval_files"])
    return _evaluate(cfg, assemble_generator(params, basis), exact, dirs)


def _load_two_spin_model(cfg, path):
    """load_model for the commands, which take two-spin (d = 4) generators
    of the config's chain and dt only: (params, basis); any other d, chain
    or dt (the file records dt in its chain block and at its top level) is
    refused before any work, as is a file without its chain block."""
    params, basis, dt, payload = load_model(path)
    if basis.d != 4:
        raise ConfigError(f"{path}: model has d={basis.d}, the two-spin "
                          "subsystem needs d=4")
    extra = payload.get("extra")
    chain = extra.get("chain") if isinstance(extra, dict) else None
    if not isinstance(chain, dict):
        raise ConfigError(f"{path} records no chain; re-run train")
    _check_chain(cfg, path, chain)
    if dt != cfg.simulation.dt:
        raise ConfigError(f"{path}: model has dt={dt!r}, the config's "
                          f"simulation.dt is {cfg.simulation.dt!r}")
    return params, basis


# eval_report.csv's error columns, which also lead each scan row
_ERRORS = ("i_err_interp", "i_err_extrap", "fvu_interp", "fvu_extrap",
           "epsilon_stationary")


def _evaluate(cfg, L, exact_trajectories, dirs):
    """Score generator L against the exact trajectories, then write the
    time series and the eval report; returns the report row.

    Every prediction, i_err, fvu and epsilon is computed before the first
    file is written, so an evaluation that fails writes nothing.  The row
    is a dict of eval_report.csv's columns in file order, tau written as
    "" when it is undefined.
    """
    sim, met = cfg.simulation, cfg.metrics
    preds = [replace(exact, snapshots=propagate_trajectory(
        L, exact.snapshots[0], exact.dt, exact.n_steps))
        for exact in exact_trajectories]
    ie_i, ie_e, fv_i, fv_e = [], [], [], []
    for exact, pred in zip(exact_trajectories, preds):
        ie_i.append(i_err(exact, pred, 0.0, sim.T_train))
        fv_i.append(fvu(time_window(exact, 0.0, sim.T_train),
                        time_window(pred, 0.0, sim.T_train)))
        if exact.dt * exact.n_steps >= sim.T_extrapolate - 1e-9:
            ie_e.append(i_err(exact, pred, sim.T_train, sim.T_extrapolate))
            fv_e.append(fvu(time_window(exact, sim.T_train, sim.T_extrapolate),
                            time_window(pred, sim.T_train, sim.T_extrapolate)))
    eps, eps_status, info = _epsilon_pipeline(cfg, L)
    row = dict(zip(_ERRORS, (
        float(np.mean(ie_i)),
        float(np.mean(ie_e)) if ie_e else math.nan,
        float(np.nanmean(fv_i)),
        float(np.nanmean(fv_e)) if fv_e else math.nan,
        eps)))
    row.update(epsilon_status=eps_status,
               interp_start_over_omega_inv=0.0,
               interp_end_over_omega_inv=sim.T_train,
               extrap_start_over_omega_inv=sim.T_train,
               extrap_end_over_omega_inv=sim.T_extrapolate,
               a=met.a, b=met.b,
               tau_over_omega_inv="" if info.tau is None else info.tau,
               n_initial_conditions=met.n_initial_conditions)

    for idx, (exact, pred) in enumerate(zip(exact_trajectories, preds)):
        _write_timeseries(os.path.join(dirs["report"],
                                       f"timeseries_eval_{idx:03d}.csv"),
                          exact, pred)
    write_csv(os.path.join(dirs["report"], "eval_report.csv"), list(row),
              [list(row.values())])
    return row


def _write_timeseries(path, exact, pred):
    n = exact.snapshots.shape[1]
    cols = ["t_over_omega_inv"]
    cols += [f"exact_v_{k}" for k in range(1, n + 1)]
    cols += [f"model_v_{k}" for k in range(1, n + 1)]
    rows = np.column_stack((exact.times(), exact.snapshots,
                            pred.snapshots)).tolist()
    write_csv(path, cols, rows)


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
            status = f"failed: {type(report).__name__}: {report}"
            status = status.replace(",", ";").replace("\n", " ")[:200]
            errors = (math.nan,) * len(_ERRORS)
        else:
            status, errors = "ok", tuple(report[key] for key in _ERRORS)
        rows.append((v1, v2, *errors, status))
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
    csv_path = os.path.join(out, "scan", "scan_results.csv")
    write_csv(csv_path, ["axis1", "axis2", *_ERRORS[:4], "epsilon", "status"],
              rows)
    return csv_path


def cmd_stationary(cfg, out):
    """Stationary-state report plus long-time observable series.

    The series follows the first initial condition's exact trajectory to
    b*tau on _window_grid, the one trajectory this command simulates and
    the only one metrics.max_window_steps bounds; epsilon is taken as eval
    takes it.
    """
    dirs = _dirs(cfg, out)
    params, basis = _load_two_spin_model(cfg, dirs["model"])
    L = assemble_generator(params, basis)
    eps, status, info = _epsilon_pipeline(cfg, L)
    exact = None if status != "ok" else generate_trajectory(
        cfg.model, *_window_grid(cfg, info.tau), _stationary_seed(cfg, 0))
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
    if exact is not None:
        _write_observables(os.path.join(dirs["report"],
                                        "stationary_observables.csv"),
                           exact, L, info)
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


def cmd_interpret(cfg, out):
    """Emit learned Hamiltonian/Kossakowski data and the jump decomposition."""
    dirs = _dirs(cfg, out)
    params, basis = _load_two_spin_model(cfg, dirs["model"])
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
    ap.add_argument("--out", default=".", help="output root directory")
    ap.add_argument("--threads", type=int, default=1,
                    help="worker processes for gen-data and scan "
                         "(default 1)")
    sub = ap.add_subparsers(dest="command", required=True)
    for command in ("gen-data", "train", "eval", "scan", "stationary",
                    "interpret"):
        sub.add_parser(command)
    return ap


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        cfg = load_config(args.config)
        out = args.out
        if os.path.exists(out) and not os.path.isdir(out):
            raise ConfigError(f"--out {out} exists and is not a directory")
        if args.command == "gen-data":
            print(f"manifest: {cmd_gen_data(cfg, out, threads=args.threads)}")
        elif args.command == "train":
            print(f"model: {cmd_train(cfg, out)}")
        elif args.command == "eval":
            rep = cmd_eval(cfg, out)
            for key in _ERRORS[:2]:
                print(f"{key}: {rep[key]:.6g}")
        elif args.command == "scan":
            print(f"scan results: {cmd_scan(cfg, out, threads=args.threads)}")
        elif args.command == "stationary":
            print(f"stationary report: {cmd_stationary(cfg, out)}")
        elif args.command == "interpret":
            print(f"interpret report: {cmd_interpret(cfg, out)}")
        return 0
    except (ConfigError, ValueError, KeyError, OSError, CapacityError,
            RuntimeError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


def console_entry():
    """The `lindfit` command: main() on sys.argv, then end the process with
    its exit code and no interpreter teardown, which would only garbage-
    collect numpy's import-time heap.  By then every output file is closed
    and in place and every pool worker joined; an exception that escapes
    main() exits the normal way."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    console_entry()
