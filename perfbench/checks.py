"""Correctness gate on the files one workload repetition wrote.

Every check is built here from numpy and scipy alone, never from lindfit,
so a defect in the package cannot also hide in its own oracle:

* a few snapshots of one trajectory against dense exp(-iHt), a partial
  trace and the Pauli-basis projection;
* every reduced snapshot and every model-predicted state is a density
  matrix within PSD_TOL, with the trace component pinned to 1/2;
* the Kossakowski rates of the fitted model are >= RATE_TOL;
* the eval report is finite with status ok, and every scan cell is ok.

`check_outputs` returns a list of (check name, failure message or None).
"""

import csv
import glob
import json
import math
import os

import numpy as np
import scipy.linalg

ORACLE_TOL = 1e-9
PSD_TOL = 1e-9
PIN_TOL = 1e-12
RATE_TOL = -1e-12

_PAULI = (np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]], dtype=complex),
          np.array([[1, 0], [0, -1]], dtype=complex),
          np.eye(2, dtype=complex))
# two-spin basis: (x, y, z, 1)/sqrt(2) on each spin, first spin most
# significant, lexicographic, identity last
_BASIS2 = np.array([np.kron(a, b) / 2.0 for a in _PAULI for b in _PAULI])
_UP = np.diag([1.0, 0.0]).astype(complex)  # n = projector on |0>, spin up


def _site_op(op, site, n):
    out = np.eye(1, dtype=complex)
    for s in range(1, n + 1):
        out = np.kron(out, op if s == site else np.eye(2))
    return out


def _terms(meta):
    """(fields, bonds) of the chain Hamiltonian, as in the model definition."""
    n, V = meta["n_sites"], meta["V"]
    fields = [(s, meta["omega"] / 2.0) for s in range(1, n + 1)]
    if meta["variant"] == "I":
        Vp = meta["V_prime"]
        bonds = [(i, i + 1, V) for i in range(3, n)]
        bonds += [(n, 1, Vp), (1, 2, Vp), (2, 3, Vp)]
    else:
        bonds = [(i, j, V / abs(i - j) ** meta["alpha"])
                 for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return fields, bonds


def _hamiltonian(fields, bonds, sites):
    """Dense H on the listed sites (relabelled 1..len in the given order)."""
    pos = {s: k + 1 for k, s in enumerate(sites)}
    n = len(sites)
    H = np.zeros((1 << n, 1 << n), dtype=complex)
    for s, c in fields:
        if s in pos:
            H += c * _site_op(_PAULI[0], pos[s], n)
    for i, j, c in bonds:
        if i in pos and j in pos:
            H += c * _site_op(_UP, pos[i], n) @ _site_op(_UP, pos[j], n)
    return H


def _subsystem(meta):
    n = meta["n_sites"]
    return (1, 2) if meta["variant"] == "I" else (n // 2, n // 2 + 1)


def read_trajectory(path):
    """(header dict, snapshot array) of a trajectory CSV."""
    meta = {}
    with open(path) as fh:
        for k, line in enumerate(fh):
            if line.startswith("step,"):
                break
            key, _, val = line.rstrip("\n").partition("=")
            meta[key] = val
    for key in ("n_sites", "n_steps"):
        meta[key] = int(meta[key])
    for key in ("omega", "V", "V_prime", "alpha", "beta", "dt"):
        meta[key] = float(meta[key])
    meta["seed"] = int(meta["seed"])
    rows = np.loadtxt(path, delimiter=",", skiprows=k + 1, ndmin=2)
    return meta, rows[:, 1:]


def oracle_snapshots(meta, steps):
    """Reduced two-spin coherence vectors at the given steps, from scratch."""
    n = meta["n_sites"]
    sub = _subsystem(meta)
    bath = [s for s in range(1, n + 1) if s not in sub]
    fields, bonds = _terms(meta)
    H = _hamiltonian(fields, bonds, list(range(1, n + 1)))
    Hb = _hamiltonian(fields, bonds, bath)
    rho_b = scipy.linalg.expm(-meta["beta"] * Hb)
    rho_b /= np.trace(rho_b)
    rng = np.random.default_rng(meta["seed"])
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho_s = g.conj().T @ g
    rho_s /= np.trace(rho_s)
    # kron order (subsystem, bath...), then permute tensor legs to site order
    order = list(sub) + bath
    perm = [order.index(s) for s in range(1, n + 1)]
    t = np.kron(rho_s, rho_b).reshape((2,) * (2 * n))
    rho0 = t.transpose(perm + [n + p for p in perm]).reshape(1 << n, 1 << n)
    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    rows, cols = list(letters[:n]), list(letters[n:2 * n])
    for s in bath:
        cols[s - 1] = rows[s - 1]
    out_idx = "".join(rows[s - 1] for s in sub) + "".join(cols[s - 1] for s in sub)
    spec = "".join(rows) + "".join(cols) + "->" + out_idx
    vs = []
    for k in steps:
        U = scipy.linalg.expm(-1j * H * (k * meta["dt"]))
        rho = (U @ rho0 @ U.conj().T).reshape((2,) * (2 * n))
        red = np.einsum(spec, rho).reshape(4, 4)
        vs.append(np.einsum("kij,ji->k", _BASIS2, red).real)
    return np.array(vs)


def _min_eig_and_pin(v):
    rho = np.einsum("tk,kij->tij", v, _BASIS2)
    return (float(np.linalg.eigvalsh(rho)[:, 0].min()),
            float(np.abs(v[:, -1] - 0.5).max()))


def _check_states(label, v):
    min_eig, pin = _min_eig_and_pin(v)
    if min_eig < -PSD_TOL:
        return f"{label}: min eigenvalue {min_eig:.3e} < -{PSD_TOL:g}"
    if pin > PIN_TOL:
        return f"{label}: trace component off 1/2 by {pin:.3e}"
    return None


def _check_oracle(path):
    meta, v = read_trajectory(path)
    n = meta["n_steps"]
    steps = sorted({0, 1, n // 2, n})
    err = float(np.abs(oracle_snapshots(meta, steps) - v[steps]).max())
    if not err <= ORACLE_TOL:
        return f"{os.path.basename(path)}: max deviation {err:.3e} from dense expm"
    return None


def _check_rates(model_path):
    with open(model_path) as fh:
        m = json.load(fh)
    X, Y = np.array(m["X"]), np.array(m["Y"])
    z = X + 1j * Y
    rates = np.linalg.eigvalsh(z.conj().T @ z)
    if rates.min() < RATE_TOL:
        return f"{model_path}: Kossakowski rate {rates.min():.3e}"
    return None


def _check_finite(label, row, keys):
    bad = [k for k in keys if not math.isfinite(float(row[k]))]
    return f"{label}: non-finite {bad}" if bad else None


_REPORT_KEYS = ("i_err_interp", "i_err_extrap", "fvu_interp", "fvu_extrap",
                "epsilon_stationary")


def _check_eval_report(path):
    with open(path) as fh:
        row = next(csv.DictReader(fh))
    if row["epsilon_status"] != "ok":
        return f"{path}: epsilon_status {row['epsilon_status']}"
    return _check_finite(path, row, _REPORT_KEYS)


def _pipeline_checks(out, oracle):
    """Checks on one gen-data -> train -> eval output tree."""
    data = sorted(glob.glob(os.path.join(out, "data", "*.csv")))
    checks = []
    if oracle:
        checks.append(("oracle_expm", lambda: _check_oracle(data[0])))
    checks.append(("reduced_states_psd", lambda: next(
        (msg for p in data
         if (msg := _check_states(os.path.basename(p), read_trajectory(p)[1]))),
        None)))
    checks.append(("model_states_psd", lambda: next(
        (msg for p in sorted(glob.glob(os.path.join(out, "reports",
                                                    "timeseries_eval_*.csv")))
         if (msg := _check_states(os.path.basename(p), _model_columns(p)))),
        None)))
    checks.append(("kossakowski_rates", lambda: _check_rates(
        os.path.join(out, "models", "model.json"))))
    checks.append(("eval_report_finite", lambda: _check_eval_report(
        os.path.join(out, "reports", "eval_report.csv"))))
    return checks


def _model_columns(path):
    with open(path) as fh:
        head = fh.readline().rstrip("\n").split(",")
    cols = [i for i, h in enumerate(head) if h.startswith("model_v_")]
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=cols, ndmin=2)


def _check_interpret(path):
    with open(path) as fh:
        rates = json.load(fh)["rates"]
    if min(rates) < RATE_TOL:
        return f"{path}: jump_decomposition rate {min(rates):.3e}"
    return None


def _check_stationary(path):
    with open(path) as fh:
        rep = json.load(fh)
    if rep["epsilon_status"] != "ok" or rep["epsilon_stationary"] is None:
        return f"{path}: epsilon_status {rep['epsilon_status']}"
    return None


def scan_rows(out):
    with open(os.path.join(out, "scan", "scan_results.csv")) as fh:
        return list(csv.DictReader(fh))


def _scan_cell_checks(out):
    """One check per scan row: the cell's pipeline ran to status ok."""
    def status(row):
        return None if row["status"] == "ok" else row["status"]
    return [(f"scan_cell[{r['axis1']},{r['axis2']}]", lambda r=r: status(r))
            for r in scan_rows(out)]


def check_outputs(workload, out, full=True):
    """Run the gate on one repetition's output root.

    With full=False only the cheap report checks run (used on repetitions
    after the first, whose inputs are the same).
    """
    if workload == "scan":
        checks = _scan_cell_checks(out)
        cells = sorted(glob.glob(os.path.join(out, "scan", "*", "")))
        for k, cell in enumerate(cells):
            for name, fn in _pipeline_checks(cell, oracle=full and k == 0):
                if full or name == "eval_report_finite":
                    checks.append((f"{name}[{os.path.basename(cell[:-1])}]", fn))
    else:
        checks = [(n, f) for n, f in _pipeline_checks(out, oracle=full)
                  if full or n == "eval_report_finite"]
        checks.append(("stationary_report_ok", lambda: _check_stationary(
            os.path.join(out, "reports", "stationary_report.json"))))
        checks.append(("jump_rates", lambda: _check_interpret(
            os.path.join(out, "reports", "interpret_report.json"))))
    results = []
    for name, fn in checks:
        try:
            results.append((name, fn()))
        except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
            results.append((name, f"{type(exc).__name__}: {exc}"))
    return results


def quality(workload, out):
    """User-facing accuracy numbers of one repetition (mean over cells)."""
    if workload == "scan":
        rows = scan_rows(out)
        cells = sorted(glob.glob(os.path.join(out, "scan", "*", "")))
        losses = [_final_loss(os.path.join(c, "models", "model.json"))
                  for c in cells]
        return {"i_err_interp": _mean(r["i_err_interp"] for r in rows),
                "i_err_extrap": _mean(r["i_err_extrap"] for r in rows),
                "epsilon_stationary": _mean(r["epsilon"] for r in rows),
                "final_train_loss": _mean(losses)}
    with open(os.path.join(out, "reports", "eval_report.csv")) as fh:
        row = next(csv.DictReader(fh))
    return {"i_err_interp": float(row["i_err_interp"]),
            "i_err_extrap": float(row["i_err_extrap"]),
            "epsilon_stationary": float(row["epsilon_stationary"]),
            "final_train_loss": _final_loss(
                os.path.join(out, "models", "model.json"))}


def _final_loss(model_path):
    with open(model_path) as fh:
        return float(json.load(fh)["extra"]["final_train_loss"])


def _mean(values):
    vals = [float(v) for v in values]
    return sum(vals) / len(vals)
