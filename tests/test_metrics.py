"""Trace-norm distances, variance ratios, and stationary-state checks."""

import math

import numpy as np
import pytest

from lindfit.lindblad_generator import (
    GeneratorParams,
    assemble_generator,
    propagate_trajectory,
    stationary_state,
)
from lindfit.many_body_sim import Trajectory
from lindfit.metrics import (fvu, i_err, stationary_error, stationary_window,
                             time_window, trace_norm)
from lindfit.spin_algebra import build_pauli_basis, ginibre_density_matrix, rho_to_coherence


def _traj(dt, snapshots):
    return Trajectory(model=None, dt=dt, snapshots=np.asarray(snapshots, dtype=float))


def _random_trajectory(rng, n_snap=21, dt=0.1, d=4):
    basis = build_pauli_basis(1 if d == 2 else 2)
    rows = [rho_to_coherence(ginibre_density_matrix(d, rng), basis) for _ in range(n_snap)]
    return _traj(dt, np.array(rows))


def test_trace_norm_examples():
    assert trace_norm(np.diag([1.0, -1.0])) == pytest.approx(2.0, abs=1e-14)
    assert trace_norm(np.zeros((3, 3))) == 0.0


def test_trace_norm_hermitian_matches_eigenvalue_sum(rng):
    for _ in range(10):
        A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        H = A + A.conj().T
        oracle = np.abs(np.linalg.eigvalsh(H)).sum()
        assert trace_norm(H) == pytest.approx(oracle, rel=1e-12)


def test_trace_norm_of_a_stack_is_one_norm_per_matrix(rng):
    stack = rng.standard_normal((2, 3, 4, 4)) + 1j * rng.standard_normal((2, 3, 4, 4))
    norms = trace_norm(stack)
    assert norms.shape == (2, 3)
    for idx in np.ndindex(2, 3):
        assert norms[idx] == trace_norm(stack[idx])
    assert type(trace_norm(stack[0, 0])) is float


def test_time_window_is_the_slice_i_err_scores(rng):
    exact = _random_trajectory(rng, n_snap=41)
    pred = _traj(exact.dt, exact.snapshots + 0.01 * rng.standard_normal((41, 16)))
    for lo, hi in [(0.0, 4.0), (1.0, 3.0), (0.7, 2.2)]:
        we, wp = time_window(exact, lo, hi), time_window(pred, lo, hi)
        k_lo, k_hi = int(round(lo / exact.dt)), int(round(hi / exact.dt))
        assert np.shares_memory(we.snapshots, exact.snapshots)
        assert np.array_equal(we.snapshots, exact.snapshots[k_lo:k_hi + 1])
        assert (we.dt, we.n_steps) == (exact.dt, k_hi - k_lo)
        # i_err scores exactly the rows the window keeps
        assert i_err(we, wp, 0.0, hi - lo) == i_err(exact, pred, lo, hi)


@pytest.mark.parametrize("window", [(0.05, 1.0), (0.0, 1.03), (0.0, 4.1),
                                    (-0.1, 1.0), (2.0, 2.0), (3.0, 1.0)],
                         ids=["start_off_grid", "end_off_grid", "past_the_end",
                              "before_the_start", "empty", "reversed"])
def test_time_window_refuses_off_grid_or_uncovered(rng, window):
    traj = _random_trajectory(rng, n_snap=41)
    with pytest.raises(ValueError):
        time_window(traj, *window)
    with pytest.raises(ValueError):
        i_err(traj, traj, *window)


def test_i_err_zero_for_identical(rng):
    traj = _random_trajectory(rng)
    assert i_err(traj, traj, 0.0, 2.0) == 0.0


def test_i_err_constant_offset():
    # shifting one traceless component by delta gives trace_norm(delta F_k),
    # constant in time, so the average equals it for any window
    rng = np.random.default_rng(31)
    exact = _random_trajectory(rng, n_snap=41)
    shifted = exact.snapshots.copy()
    delta = 0.37
    shifted[:, 0] += delta
    pred = _traj(exact.dt, shifted)
    basis = build_pauli_basis(2)
    expect = delta * np.abs(np.linalg.eigvalsh(basis.elements[0])).sum()
    for window in [(0.0, 4.0), (1.0, 3.0)]:
        assert i_err(exact, pred, *window) == pytest.approx(expect, rel=1e-12)


def test_i_err_symmetric(rng):
    a = _random_trajectory(rng)
    b = _random_trajectory(rng)
    assert i_err(a, b, 0.0, 2.0) == pytest.approx(i_err(b, a, 0.0, 2.0), rel=1e-13)


def test_i_err_invariant_under_basis_rotation(rng):
    # conjugating every state by a fixed unitary rotates coherence vectors
    # orthogonally and leaves trace norms alone
    basis = build_pauli_basis(2)
    a = _random_trajectory(rng)
    b = _random_trajectory(rng)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    U, _ = np.linalg.qr(g)
    O = np.einsum("kij,jl,mln,in->km", basis.elements, U,
                  basis.elements, U.conj()).real
    ar = _traj(a.dt, a.snapshots @ O.T)
    br = _traj(b.dt, b.snapshots @ O.T)
    assert i_err(ar, br, 0.0, 2.0) == pytest.approx(i_err(a, b, 0.0, 2.0), rel=1e-10)


def test_i_err_grid_validation(rng):
    a = _random_trajectory(rng)
    b = _traj(0.11, a.snapshots)
    with pytest.raises(ValueError):
        i_err(a, b, 0.0, 1.0)
    c = _random_trajectory(rng)
    with pytest.raises(ValueError):
        i_err(a, c, 0.0, 0.05)  # off grid
    with pytest.raises(ValueError):
        i_err(a, c, 0.0, 5.0)  # beyond the data
    with pytest.raises(ValueError):
        i_err(a, c, 1.0, 1.0)  # empty window


def test_fvu_identities(rng):
    exact = _random_trajectory(rng, n_snap=30)
    assert fvu(exact, exact) == 0.0
    # predicting the time mean of every component scores exactly one
    mean_pred = _traj(exact.dt, np.tile(exact.snapshots.mean(axis=0), (30, 1)))
    assert float(fvu(exact, mean_pred)) == pytest.approx(1.0, abs=1e-12)


def test_fvu_shift_invariance(rng):
    # a rigid shift of both trajectories leaves the residual variance alone
    exact = _random_trajectory(rng, n_snap=25)
    pred = _traj(exact.dt, exact.snapshots + 0.01 * rng.standard_normal((25, 16)))
    base = float(fvu(exact, pred))
    shift = rng.standard_normal(16) * 0.3
    a = _traj(exact.dt, exact.snapshots + shift)
    b = _traj(exact.dt, pred.snapshots + shift)
    assert float(fvu(a, b)) == pytest.approx(base, rel=1e-10)


def test_fvu_excludes_flat_components(rng):
    exact = _random_trajectory(rng, n_snap=20)
    snaps = exact.snapshots.copy()
    snaps[:, 5] = 0.123  # no variance
    snaps[:, 15] = np.linspace(0.0, 1.0, 20)  # varies, but the identity never enters
    pred = snaps + 1e-2 * rng.standard_normal(snaps.shape)
    varying = [k for k in range(15) if k != 5]
    expected = np.mean([np.std(snaps[:, k] - pred[:, k]) / np.std(snaps[:, k])
                        for k in varying])
    assert fvu(_traj(0.1, snaps), _traj(0.1, pred)) == pytest.approx(expected, rel=1e-12)


def test_fvu_undefined_when_nothing_varies():
    snaps = np.tile(np.linspace(0, 1, 16), (8, 1))
    assert math.isnan(fvu(_traj(0.1, snaps), _traj(0.1, snaps + 0.5)))


def test_fvu_monotone_in_noise():
    rng = np.random.default_rng(77)
    exact = _random_trajectory(rng, n_snap=60)
    values = []
    for amp in (1e-3, 1e-2, 1e-1):
        noisy = exact.snapshots + amp * rng.standard_normal(exact.snapshots.shape)
        values.append(float(fvu(exact, _traj(exact.dt, noisy))))
    assert values[0] < values[1] < values[2]


def test_fvu_shape_mismatch(rng):
    a = _random_trajectory(rng, n_snap=10)
    b = _random_trajectory(rng, n_snap=11)
    with pytest.raises(ValueError):
        fvu(a, b)


def test_stationary_error_exact_match():
    v_st = np.array([0.0, 0.1, 0.0, 1 / np.sqrt(2)])
    snaps = np.tile(v_st, (101, 1))
    assert stationary_error([_traj(0.1, snaps)], v_st, tau=1.0) == pytest.approx(0.0, abs=1e-14)


def test_stationary_error_averages_trajectories():
    v_st = np.array([0.0, 0.0, 0.0, 1 / np.sqrt(2)])
    base = np.tile(v_st, (101, 1))
    off1, off3 = base.copy(), base.copy()
    off1[:, 0] += 0.01   # sigma_x/sqrt2 offset: trace norm 2*0.01/sqrt2*sqrt2
    off3[:, 0] += 0.03
    t1, t3 = _traj(0.1, off1), _traj(0.1, off3)
    e1 = stationary_error([t1], v_st, tau=1.0)
    e3 = stationary_error([t3], v_st, tau=1.0)
    both = stationary_error([t1, t3], v_st, tau=1.0)
    assert e3 == pytest.approx(3 * e1, rel=1e-10)
    assert both == pytest.approx((e1 + e3) / 2, rel=1e-12)


def test_stationary_error_window_rules():
    v_st = np.array([0.0, 0.0, 0.0, 1 / np.sqrt(2)])
    snaps = np.tile(v_st, (50, 1))
    assert math.isnan(stationary_error([_traj(0.1, snaps)], v_st, tau=None))
    with pytest.raises(ValueError):
        stationary_error([_traj(0.1, snaps)], v_st, tau=1.0)  # covers 4.9 < 10
    with pytest.raises(ValueError):
        stationary_error([_traj(0.1, np.tile(v_st, (101, 1)))], v_st, tau=1.0, a=5.0, b=5.0)
    # a time average over fewer than two snapshots has no length to divide by
    for tau, window, count in ((0.003, r"\[0.015, 0.03\]", 0),
                               (0.015, r"\[0.075, 0.15\]", 1)):
        with pytest.raises(ValueError,
                           match=rf"window {window} holds {count} snapshots at dt=0.1"):
            stationary_error([_traj(0.1, snaps)], v_st, tau=tau)


def test_stationary_window_is_the_grid_times_inside_the_window(rng):
    # the first and last k with a*tau - 1e-9 tau <= dt*k <= b*tau + 1e-9 tau,
    # also where tau puts an end on a grid time or an ulp beside it
    checked = 0
    for _ in range(3000):
        dt = rng.choice([0.01, 0.001, 0.024, 0.1, rng.uniform(1e-3, 1.0)])
        a = rng.choice([0.0, 2.0, 5.0, rng.uniform(0.0, 5.0)])
        b = a + rng.choice([2.0, 5.0, rng.uniform(0.01, 5.0)])
        tau = int(rng.integers(1, 400)) * dt / rng.choice([a, b] if a else [b])
        tau = rng.choice([tau, np.nextafter(tau, 0.0), np.nextafter(tau, 1.0)])
        n_steps = math.ceil(b * tau / dt) + int(rng.choice([0, 1, 3]))
        t = dt * np.arange(n_steps + 1)
        if t[-1] < b * tau - 1e-9 * tau:
            continue
        inside = np.flatnonzero((t >= a * tau - 1e-9 * tau)
                                & (t <= b * tau + 1e-9 * tau))
        if inside.size < 2:
            with pytest.raises(ValueError, match="stationary window"):
                stationary_window(dt, n_steps, tau, a, b)
        else:
            assert stationary_window(dt, n_steps, tau, a, b) == (inside[0], inside[-1])
            checked += 1
    assert checked > 1000


def test_stationary_error_relaxing_qubit():
    # dephasing dynamics relaxes toward the maximally mixed state; the late
    # window average must sit within the residual transient scale
    om = np.array([1.0 / np.sqrt(2), 0.0, 0.0])
    X = np.zeros((3, 3))
    X[2, 2] = np.sqrt(0.4)
    basis = build_pauli_basis(1)
    L = assemble_generator(GeneratorParams(omega=om, X=X, Y=np.zeros((3, 3))), basis)
    info = stationary_state(L)
    assert info.tau == pytest.approx(5.0, rel=1e-9)
    rng = np.random.default_rng(3)
    trajs = []
    for _ in range(4):
        v0 = rho_to_coherence(ginibre_density_matrix(2, rng), basis)
        n_steps = int(round(10 * info.tau / 0.05))
        trajs.append(_traj(0.05, propagate_trajectory(L, v0, 0.05, n_steps)))
    eps = stationary_error(trajs, info.v_st, info.tau)
    assert 1e-6 < eps < 1e-3

