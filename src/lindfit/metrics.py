"""Quantitative fidelity measures between exact and learned reduced dynamics.

All time integrals use the trapezoidal rule on the native snapshot grid.
Trajectories enter as objects with .dt and .snapshots (rows of coherence
vectors); time_window and stationary_error take many_body_sim.Trajectory
objects.  The operator basis is inferred from the snapshot width.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .spin_algebra import basis_for_dimension, coherence_to_matrix

VAR_FLOOR = 1e-14
# NumPy 2.0 renamed trapz to trapezoid
_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def trace_norm(sigma):
    """Sum of singular values (sum |eigenvalue| for Hermitian input); a
    stack (..., n, n) gives an array of one norm per matrix."""
    norms = np.linalg.svd(np.asarray(sigma), compute_uv=False).sum(axis=-1)
    return float(norms) if norms.ndim == 0 else norms


def _basis_of(snapshots):
    d = int(round(math.sqrt(snapshots.shape[1])))
    return basis_for_dimension(d)


def _window_slice(dt, n_snap, t_lo, t_hi):
    k_lo = int(round(t_lo / dt))
    k_hi = int(round(t_hi / dt))
    tol = 1e-9 * max(1.0, dt)
    if abs(k_lo * dt - t_lo) > tol or abs(k_hi * dt - t_hi) > tol:
        raise ValueError(f"window [{t_lo}, {t_hi}] does not sit on the dt={dt} grid")
    if k_lo < 0 or k_hi >= n_snap or k_hi <= k_lo:
        raise ValueError(f"window [{t_lo}, {t_hi}] not covered by {n_snap} "
                         f"snapshots at dt={dt}")
    return k_lo, k_hi


def time_window(traj, t_lo, t_hi):
    """The trajectory cut to [t_lo, t_hi], both ends on its grid, by the
    rule i_err scores its windows with (a view of the snapshots)."""
    k_lo, k_hi = _window_slice(traj.dt, traj.snapshots.shape[0], t_lo, t_hi)
    return replace(traj, snapshots=traj.snapshots[k_lo:k_hi + 1])


def i_err(exact, predicted, t_in, t_fin):
    """Time-averaged trace-norm distance between the two state trajectories
    over [t_in, t_fin]."""
    if abs(exact.dt - predicted.dt) > 1e-15 * max(exact.dt, predicted.dt):
        raise ValueError(f"time grids differ: dt {exact.dt} vs {predicted.dt}")
    dt = exact.dt
    ve, vp = exact.snapshots, predicted.snapshots
    k_lo, k_hi = _window_slice(dt, min(ve.shape[0], vp.shape[0]), t_in, t_fin)
    basis = _basis_of(ve)
    dist = trace_norm(coherence_to_matrix(ve[k_lo:k_hi + 1] - vp[k_lo:k_hi + 1],
                                          basis))
    return float(_trapezoid(dist, dx=dt) / (t_fin - t_in))


def fvu(exact, predicted):
    """Fraction of variance unexplained, sqrt(var(exact - predicted) /
    var(exact)) averaged over the components that vary.

    Components whose exact-signal population variance falls below
    VAR_FLOOR are left out; with none left the result is nan.
    """
    ve, vp = exact.snapshots, predicted.snapshots
    if ve.shape != vp.shape:
        raise ValueError(f"snapshot shapes differ: {ve.shape} vs {vp.shape}")
    n = ve.shape[1] - 1  # identity component never enters
    var_e = np.var(ve[:, :n], axis=0)
    var_d = np.var(ve[:, :n] - vp[:, :n], axis=0)
    keep = var_e >= VAR_FLOOR
    if not keep.any():
        return math.nan
    return float(np.sqrt(var_d[keep] / var_e[keep]).mean())


def stationary_error(exact_trajectories, v_st, tau, a=5.0, b=10.0):
    """Mean trace-norm distance between the [a*tau, b*tau] time average of
    each exact trajectory and the stationary state v_st.

    tau=None (no spectral gap) yields nan: the window is undefined.  A
    window holding fewer than two snapshots of a trajectory is refused.
    """
    if tau is None:
        return math.nan
    if b <= a or a < 0:
        raise ValueError("need 0 <= a < b")
    eps = []
    for traj in exact_trajectories:
        v = traj.snapshots
        t_end = traj.dt * traj.n_steps
        if t_end < b * tau - 1e-9 * tau:
            raise ValueError(f"trajectory covers only t={t_end:.6g}, "
                             f"needs b*tau={b * tau:.6g}")
        basis = _basis_of(v)
        rho_st = coherence_to_matrix(np.asarray(v_st, dtype=float), basis)
        t = traj.times()
        mask = (t >= a * tau - 1e-9 * tau) & (t <= b * tau + 1e-9 * tau)
        tw = t[mask]
        if tw.size < 2:
            raise ValueError(f"stationary window [{a * tau:.6g}, {b * tau:.6g}] "
                             f"holds {tw.size} snapshots at dt={traj.dt:.6g}; "
                             "a time average needs at least 2")
        vbar = _trapezoid(v[mask], tw, axis=0) / (tw[-1] - tw[0])
        eps.append(trace_norm(coherence_to_matrix(vbar, basis) - rho_st))
    return float(np.mean(eps))


@dataclass
class ErrorReport:
    """Bundle of the fidelity measures for one evaluated model."""
    i_err_interp: float
    i_err_extrap: float
    fvu_interp: float
    fvu_extrap: float
    epsilon_stationary: float
    interp_window: tuple = (0.0, 0.0)
    extrap_window: tuple = (0.0, 0.0)
    a: float = 5.0
    b: float = 10.0
    tau: float = None
    n_initial_conditions: int = 0
    epsilon_status: str = "ok"
