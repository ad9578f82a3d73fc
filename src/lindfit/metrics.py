"""Quantitative fidelity measures between exact and learned reduced dynamics.

All time integrals use the trapezoidal rule on the native snapshot grid.
Trajectories enter as objects with .dt and .snapshots (rows of coherence
vectors); time_window and stationary_error take many_body_sim.Trajectory
objects.  The operator basis is inferred from the snapshot width.

The stationary error scores window means: stationary_error takes them by
the trapezoid rule from simulated trajectories, and
many_body_sim.window_means gives the same trapezoid means in closed form
on the grid and steps stationary_window selects; stationary_distance
scores either.
"""

import math
from dataclasses import replace

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


def stationary_window(dt, n_steps, tau, a, b):
    """Steps (k_lo, k_hi) of the grid t = k dt, k = 0..n_steps, that the
    stationary window [a*tau, b*tau] averages over: the first and last
    grid times inside it, each end widened by 1e-9 tau for rounding.

    A grid that ends before b*tau, or a window holding fewer than two grid
    times, is refused.
    """
    if b <= a or a < 0:
        raise ValueError("need 0 <= a < b")
    if dt * n_steps < b * tau - 1e-9 * tau:
        raise ValueError(f"trajectory covers only t={dt * n_steps:.6g}, "
                         f"needs b*tau={b * tau:.6g}")
    t_lo, t_hi = a * tau - 1e-9 * tau, b * tau + 1e-9 * tau
    # start a step outside each end, past any rounding of the division, and
    # step in while the grid time dt * k itself lies outside
    k_lo = max(0, math.ceil(t_lo / dt) - 1)
    while dt * k_lo < t_lo:
        k_lo += 1
    k_hi = min(n_steps, math.floor(t_hi / dt) + 1)
    while dt * k_hi > t_hi:
        k_hi -= 1
    if k_hi - k_lo < 1:
        raise ValueError(f"stationary window [{a * tau:.6g}, {b * tau:.6g}] "
                         f"holds {max(0, k_hi - k_lo + 1)} snapshots at "
                         f"dt={dt:.6g}; a time average needs at least 2")
    return k_lo, k_hi


def stationary_distance(window_means, v_st):
    """Mean trace-norm distance between window-mean coherence vectors
    (one per row) and the stationary state v_st."""
    v = np.asarray(window_means, dtype=float)
    basis = _basis_of(v)
    rho_st = coherence_to_matrix(np.asarray(v_st, dtype=float), basis)
    return float(np.mean(trace_norm(coherence_to_matrix(v, basis) - rho_st)))


def stationary_error(exact_trajectories, v_st, tau, a=5.0, b=10.0):
    """Mean trace-norm distance between the [a*tau, b*tau] time average of
    each exact trajectory and the stationary state v_st.

    The window is cut by stationary_window and each trajectory's mean
    taken by the trapezoid rule over it; many_body_sim.window_means gives
    the same means in closed form.  tau=None (no spectral gap) yields nan:
    the window is undefined.
    """
    if tau is None:
        return math.nan
    means = []
    for traj in exact_trajectories:
        k_lo, k_hi = stationary_window(traj.dt, traj.n_steps, tau, a, b)
        t = traj.times()[k_lo:k_hi + 1]
        means.append(_trapezoid(traj.snapshots[k_lo:k_hi + 1], t, axis=0)
                     / (t[-1] - t[0]))
    return stationary_distance(means, v_st)
