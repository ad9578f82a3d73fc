"""Chain Hamiltonians, bath states, reductions, and exact evolution.

Evolution is cross-checked against a direct dense oracle: diagonalize the
full Hamiltonian with numpy, rotate, apply phases, partial-trace by hand.
"""

import tracemalloc

import numpy as np
import pytest

from lindfit import many_body_sim as mbs
from lindfit.many_body_sim import (
    CapacityError,
    SpinChainModel,
    bath_sites,
    bath_thermal_state,
    build_bath_hamiltonian,
    evolve_and_reduce,
    generate_trajectory,
    load_trajectory,
    model_hamiltonian,
    save_trajectory,
)
from lindfit.spin_algebra import build_pauli_basis, ginibre_density_matrix, rho_to_coherence
from oracles import embed_subsystem_state, partial_trace


def _full_oracle_trajectory(model, rho_s0, dt, steps):
    """Reduced coherence vectors via an independent dense evolution."""
    H = model_hamiltonian(model)
    rho0 = embed_subsystem_state(rho_s0, bath_thermal_state(model), model)
    w, U = np.linalg.eigh(H)
    rt = U.conj().T @ rho0 @ U
    basis = build_pauli_basis(2)
    rows = []
    for k in steps:
        phase = np.exp(-1j * w * (k * dt))
        rho_t = (U * phase) @ rt @ (U * phase).conj().T
        red = partial_trace(rho_t, model.subsystem_sites, model.n_sites)
        rows.append(rho_to_coherence(red, basis))
    return np.array(rows)


def test_hamiltonian_I_diagonal_example():
    # all-up state: every n_i = 1, so the diagonal entry counts the bonds
    H = model_hamiltonian(SpinChainModel("I", 4, 0.0, 0.0, V_prime=1.0))
    assert H[0, 0] == pytest.approx(3.0)
    H = model_hamiltonian(SpinChainModel("I", 5, 0.0, 2.0, V_prime=0.25))
    # bath bonds (3,4), (4,5) with V=2; boundary bonds (5,1), (1,2), (2,3)
    assert H[0, 0] == pytest.approx(2 * 2.0 + 3 * 0.25)


def test_hamiltonian_I_free_spectrum():
    H = model_hamiltonian(SpinChainModel("I", 4, 2.0, 0.0, V_prime=0.0))
    w = np.sort(np.linalg.eigvalsh(H))
    expect = np.sort(np.concatenate([[-4.0], [-2.0] * 4, [0.0] * 6, [2.0] * 4, [4.0]]))
    np.testing.assert_allclose(w, expect, atol=1e-12)


def test_hamiltonian_I_requires_four_sites():
    with pytest.raises(ValueError):
        SpinChainModel("I", 3, 1.0, 1.0)


def _site_op(op, site, n_sites):
    # site 1 is the most significant qubit, so it is the leftmost factor
    factors = [np.eye(2)] * n_sites
    factors[site - 1] = op
    out = np.eye(1)
    for f in factors:
        out = np.kron(out, f)
    return out


def test_hamiltonian_II_matches_kron_oracle():
    om, V, alpha, n = 0.9, 0.35, 1.7, 4
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    up = np.diag([1.0, 0.0])  # n_i projects onto spin up, basis state |0>
    expect = sum(om / 2 * _site_op(sx, s, n) for s in range(1, n + 1))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            expect = expect + (V / (j - i) ** alpha
                               * _site_op(up, i, n) @ _site_op(up, j, n))
    H = model_hamiltonian(SpinChainModel("II", n, om, V, alpha=alpha))
    np.testing.assert_allclose(H, expect, atol=1e-15)


def test_hamiltonian_II_power_law_weights():
    V, alpha = 1.3, 8.0
    H = model_hamiltonian(SpinChainModel("II", 4, 0.0, V, alpha=alpha))
    # all-up diagonal: three pairs at distance 1, two at 2 and one at 3
    assert H[0, 0] == pytest.approx(V * (3.0 + 2.0 * 2.0 ** -alpha + 3.0 ** -alpha))


def test_model_hamiltonian_symmetric_real():
    for model in (SpinChainModel("I", 5, 1.0, 0.8, V_prime=0.3, beta=0.2),
                  SpinChainModel("II", 6, 1.0, 0.1, alpha=0.3, beta=1.0)):
        H = model_hamiltonian(model)
        assert H.dtype == np.float64
        np.testing.assert_allclose(H, H.T, atol=0)


def test_model_validation():
    with pytest.raises(ValueError):
        SpinChainModel("III", 4, 1.0, 1.0)
    with pytest.raises(ValueError):
        SpinChainModel("II", 5, 1.0, 1.0)
    with pytest.raises(ValueError):
        SpinChainModel("I", 4, 1.0, 1.0, beta=-0.1)
    # the subsystem pair is derived, never given
    with pytest.raises(TypeError):
        SpinChainModel("I", 4, 1.0, 1.0, subsystem_sites=(1, 2))
    assert SpinChainModel("I", 5, 1.0, 1.0).subsystem_sites == (1, 2)
    assert SpinChainModel("II", 6, 1.0, 1.0).subsystem_sites == (3, 4)


def test_bath_sites():
    assert bath_sites(SpinChainModel("I", 5, 1.0, 1.0)) == [3, 4, 5]
    assert bath_sites(SpinChainModel("II", 6, 1.0, 1.0)) == [1, 2, 5, 6]


def test_bath_hamiltonian_variant_I():
    model = SpinChainModel("I", 6, 1.3, 0.7, V_prime=0.4)
    Hb = build_bath_hamiltonian(model)
    # surviving terms: fields on relabeled sites 1..4, chain bonds with V
    from lindfit.many_body_sim import _assemble
    expect = _assemble(4, [(s, 1.3 / 2) for s in range(1, 5)],
                       [(1, 2, 0.7), (2, 3, 0.7), (3, 4, 0.7)])
    np.testing.assert_allclose(Hb, expect, atol=1e-15)


def test_bath_hamiltonian_variant_II():
    model = SpinChainModel("II", 6, 1.0, 0.5, alpha=1.2)
    Hb = build_bath_hamiltonian(model)
    from lindfit.many_body_sim import _assemble
    c = lambda r: 0.5 / r ** 1.2
    # bath sites (1, 2, 5, 6) keep their original pair distances
    expect = _assemble(4, [(s, 0.5) for s in range(1, 5)],
                       [(1, 2, c(1)), (1, 3, c(4)), (1, 4, c(5)),
                        (2, 3, c(3)), (2, 4, c(4)), (3, 4, c(1))])
    np.testing.assert_allclose(Hb, expect, atol=1e-15)


def test_bath_thermal_state_limits():
    model = SpinChainModel("I", 5, 1.0, 0.9, V_prime=0.2, beta=0.0)
    rho = bath_thermal_state(model)
    np.testing.assert_allclose(rho, np.eye(8) / 8, atol=1e-14)

    cold = SpinChainModel("I", 5, 1.0, 0.9, V_prime=0.2, beta=200.0)
    rho = bath_thermal_state(cold)
    assert abs(np.trace(rho) - 1) < 1e-12
    assert np.linalg.eigvalsh(rho).min() > -1e-14
    Hb = build_bath_hamiltonian(cold)
    w, U = np.linalg.eigh(Hb)
    ground = U[:, np.abs(w - w.min()) < 1e-10]
    overlap = np.trace(ground.conj().T @ rho @ ground).real
    assert overlap > 0.999


def test_random_initial_subsystem_state():
    # a seed's initial state is a 4x4 density matrix, the same every time
    rho = mbs._seeded_initial_state(55)
    assert rho.shape == (4, 4)
    assert abs(np.trace(rho) - 1) < 1e-13
    assert np.linalg.eigvalsh(rho).min() > -1e-14
    np.testing.assert_array_equal(rho, mbs._seeded_initial_state(55))
    assert np.abs(rho - mbs._seeded_initial_state(56)).max() > 1e-3


def test_partial_trace_product_state(rng):
    a = ginibre_density_matrix(2, rng)
    b = ginibre_density_matrix(2, rng)
    c = ginibre_density_matrix(2, rng)
    full = np.kron(np.kron(a, b), c)
    np.testing.assert_allclose(partial_trace(full, [1]), a, atol=1e-13)
    np.testing.assert_allclose(partial_trace(full, [3]), c, atol=1e-13)
    np.testing.assert_allclose(partial_trace(full, [1, 3]), np.kron(a, c), atol=1e-13)
    # order matters: [3, 1] swaps the factors
    np.testing.assert_allclose(partial_trace(full, [3, 1]), np.kron(c, a), atol=1e-13)


def test_partial_trace_bell_state():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    red = partial_trace(bell, [1])
    np.testing.assert_allclose(red, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_vector_matches_matrix(rng):
    psi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    psi /= np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    for keep in ([1], [2, 4], [4, 1]):
        np.testing.assert_allclose(partial_trace(psi, keep),
                                   partial_trace(rho, keep), atol=1e-13)


def test_partial_trace_errors():
    rho = np.eye(8) / 8
    with pytest.raises(ValueError):
        partial_trace(rho, [1, 1])
    with pytest.raises(ValueError):
        partial_trace(rho, [4])
    with pytest.raises(ValueError):
        partial_trace(np.eye(6) / 6, [1])


def test_embed_round_trips(rng):
    for model in (SpinChainModel("I", 5, 1.0, 0.5, V_prime=0.3, beta=0.4),
                  SpinChainModel("II", 6, 1.0, 0.2, alpha=0.7, beta=0.1)):
        rho_s = ginibre_density_matrix(4, rng)
        rho_b = bath_thermal_state(model)
        full = embed_subsystem_state(rho_s, rho_b, model)
        assert abs(np.trace(full) - 1) < 1e-12
        np.testing.assert_allclose(
            partial_trace(full, model.subsystem_sites, model.n_sites), rho_s, atol=1e-12)
        np.testing.assert_allclose(
            partial_trace(full, bath_sites(model), model.n_sites), rho_b, atol=1e-12)


def test_free_subsystem_rabi_oscillation():
    # V = V' = 0 leaves the pair rotating under the transverse field alone
    model = SpinChainModel("I", 4, 1.0, 0.0, V_prime=0.0, beta=0.0)
    rho_s0 = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)  # both spins up
    traj = evolve_and_reduce(model, rho_s0, 0.05, 200)
    t = traj.times()
    # <sigma_z (x) 1> = cos(omega t) = 2 v_11 (0-based component index)
    np.testing.assert_allclose(2 * traj.snapshots[:, 11], np.cos(t), atol=1e-12)
    np.testing.assert_allclose(2 * traj.snapshots[:, 14], np.cos(t), atol=1e-12)


_ORACLE_I = SpinChainModel("I", 5, 1.0, 1.0, V_prime=0.6, beta=0.3)
_ORACLE_II = SpinChainModel("II", 6, 1.0, 0.1, alpha=0.3, beta=1.0)
_ORACLE_SEEDS = {"I": 311, "II": 627}


@pytest.mark.parametrize("model,chunk_rows,n_steps,steps", [
    pytest.param(_ORACLE_I, None, 25, [0, 1, 7, 25], id="model0"),
    pytest.param(_ORACLE_II, None, 25, [0, 1, 7, 25], id="model1"),
    # 160 snapshots are exactly two phase chunks of 80 rows
    pytest.param(_ORACLE_I, 80, 159, [0, 1, 79, 80, 81, 159],
                 id="I-two-full-chunks"),
    pytest.param(_ORACLE_II, 80, 159, [0, 1, 79, 80, 81, 159],
                 id="II-two-full-chunks"),
    # 151 snapshots leave a short last chunk of 71 rows
    pytest.param(_ORACLE_I, 80, 150, [0, 79, 80, 149, 150],
                 id="I-short-last-chunk"),
    pytest.param(_ORACLE_II, 80, 150, [0, 79, 80, 149, 150],
                 id="II-short-last-chunk"),
])
def test_evolution_matches_dense_oracle(model, chunk_rows, n_steps, steps,
                                        monkeypatch):
    if chunk_rows is not None:
        monkeypatch.setattr(mbs, "_PHASE_CHUNK_ELEMS",
                            chunk_rows << model.n_sites)
    rng = np.random.default_rng(_ORACLE_SEEDS[model.variant])
    rho_s0 = ginibre_density_matrix(4, rng)
    traj = evolve_and_reduce(model, rho_s0, 0.2, n_steps)
    oracle = _full_oracle_trajectory(model, rho_s0, 0.2, steps)
    assert np.abs(traj.snapshots[steps] - oracle).max() < 1e-12


def test_evolution_peak_memory_is_order_m_squared():
    # the contraction must stream one m x m block at a time; materializing
    # the (4, 4, m, m) block tensor alone would take 16 * 16 m^2 bytes
    model = SpinChainModel("II", 8, 1.0, 0.1, alpha=0.3, beta=1.0)
    m = 1 << model.n_sites
    rho_s0 = ginibre_density_matrix(4, np.random.default_rng(8))
    tracemalloc.start()
    try:
        evolve_and_reduce(model, rho_s0, 0.1, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 16 * m * m


def test_evolution_refuses_non_hermitian_state():
    model = SpinChainModel("I", 4, 1.0, 0.7, V_prime=0.3, beta=0.2)
    rho = ginibre_density_matrix(4, np.random.default_rng(21))
    with pytest.raises(ValueError):
        evolve_and_reduce(model, rho + 1e-3j * np.eye(4), 0.1, 5)
    # an anti-Hermitian part in one off-diagonal pair only, with no later
    # snapshot in which the dynamics could carry it onto the diagonal
    skew = np.zeros((4, 4))
    skew[0, 1], skew[1, 0] = 1e-3, -1e-3
    with pytest.raises(ValueError):
        evolve_and_reduce(model, rho + skew, 0.1, 0)


def test_evolution_conserves_subsystem_sanity():
    model = SpinChainModel("II", 6, 1.0, 0.1, alpha=0.3, beta=0.8)
    rho_s0 = ginibre_density_matrix(4, np.random.default_rng(2))
    traj = evolve_and_reduce(model, rho_s0, 0.1, 150)
    # pinned trace component and purity bounded by one
    np.testing.assert_array_equal(traj.snapshots[:, -1], 0.5)
    purity = (traj.snapshots ** 2).sum(axis=1)
    assert purity.max() < 1.0 + 1e-10
    assert purity.min() > 0.25 - 1e-10
    # t=0 snapshot reproduces the initial state
    basis = build_pauli_basis(2)
    np.testing.assert_allclose(traj.snapshots[0], rho_to_coherence(rho_s0, basis), atol=1e-12)


def test_ring_reflection_swaps_subsystem():
    # reflecting the ring through the (1,2) bond swaps the subsystem labels
    # and permutes the bath among itself, so swapping the initial state must
    # swap the reduced trajectory components idx(a,b) <-> idx(b,a)
    model = SpinChainModel("I", 6, 1.0, 0.9, V_prime=0.5, beta=0.0)
    rng = np.random.default_rng(14)
    rho_s0 = ginibre_density_matrix(4, rng)
    swap = np.zeros((4, 4))
    swap[0, 0] = swap[3, 3] = 1.0
    swap[1, 2] = swap[2, 1] = 1.0
    a = evolve_and_reduce(model, rho_s0, 0.15, 30).snapshots
    b = evolve_and_reduce(model, swap @ rho_s0 @ swap, 0.15, 30).snapshots
    perm = [4 * (k % 4) + (k // 4) for k in range(16)]
    np.testing.assert_allclose(b, a[:, perm], atol=1e-11)


def test_evolve_argument_validation():
    model = SpinChainModel("I", 4, 1.0, 1.0)
    rho = np.eye(4) / 4
    with pytest.raises(ValueError):
        evolve_and_reduce(model, rho, 0.0, 5)
    with pytest.raises(ValueError):
        evolve_and_reduce(model, rho, 0.1, -1)


def test_capacity_guard():
    big = SpinChainModel("I", 13, 1.0, 1.0)
    with pytest.raises(CapacityError):
        evolve_and_reduce(big, np.eye(4) / 4, 0.1, 1)
    with pytest.raises(CapacityError):
        generate_trajectory(big, 0.1, 1, seed=0)


def test_generate_trajectory_deterministic():
    model = SpinChainModel("I", 4, 1.0, 0.5, V_prime=0.2, beta=0.3)
    a = generate_trajectory(model, 0.1, 10, seed=99)
    b = generate_trajectory(model, 0.1, 10, seed=99)
    c = generate_trajectory(model, 0.1, 10, seed=100)
    np.testing.assert_array_equal(a.snapshots, b.snapshots)
    assert np.abs(a.snapshots - c.snapshots).max() > 1e-6
    assert a.seed == 99 and a.n_steps == 10
    np.testing.assert_allclose(a.times(), 0.1 * np.arange(11), atol=1e-15)


@pytest.mark.parametrize("model", [_ORACLE_I, _ORACLE_II], ids=["I", "II"])
@pytest.mark.parametrize("chunk_rows", [None, 80], ids=["one-chunk", "chunk-80"])
def test_shorter_trajectory_is_a_prefix_bit_for_bit(model, chunk_rows, monkeypatch):
    # gen-data stops training trajectories at T_train and eval ones at
    # T_extrapolate; a shorter run of a seed must be the longer run's first
    # rows exactly, also where a phase chunk ends inside the short run
    # (rows 80..100 of 101 against rows 80..159 of 201)
    if chunk_rows is not None:
        monkeypatch.setattr(mbs, "_PHASE_CHUNK_ELEMS", chunk_rows << model.n_sites)
    for seed in (3, 4):
        short = generate_trajectory(model, 0.05, 100, seed)
        long = generate_trajectory(model, 0.05, 200, seed)
        assert short.n_steps == 100
        np.testing.assert_array_equal(short.snapshots, long.snapshots[:101])


@pytest.mark.parametrize("model,dt,k_lo,k_hi", [
    pytest.param(SpinChainModel("I", 6, 1.0, 0.7, V_prime=0.3, beta=0.4),
                 0.07, 30, 91, id="I"),
    pytest.param(SpinChainModel("II", 6, 1.0, 0.8, alpha=1.2, beta=0.5),
                 0.13, 10, 55, id="II"),
    # free spins: every w_p - w_q is a whole number, so every phase step
    # dt (w_p - w_q) is a multiple of 2 pi
    pytest.param(SpinChainModel("I", 5, 1.0, 0.0, beta=0.4),
                 2 * np.pi, 3, 9, id="I-free-all-2pi"),
    pytest.param(SpinChainModel("II", 6, 1.0, 0.0, beta=0.6),
                 2 * np.pi, 4, 13, id="II-free-all-2pi"),
    # a decoupled pair: the differences within one bath level are whole
    # numbers, the others are not
    pytest.param(SpinChainModel("I", 6, 1.0, 0.7, V_prime=0.0, beta=0.4),
                 2 * np.pi, 2, 12, id="I-decoupled-some-2pi"),
])
def test_window_means_match_simulated_trapezoid(model, dt, k_lo, k_hi):
    seeds = (3, 4)
    means = mbs.window_means(model, dt, k_lo, k_hi, seeds)
    assert means.shape == (2, 16)
    for mean, seed in zip(means, seeds):
        traj = generate_trajectory(model, dt, k_hi, seed)
        t, v = traj.times()[k_lo:k_hi + 1], traj.snapshots[k_lo:k_hi + 1]
        steps = np.diff(t)[:, None] * (v[1:] + v[:-1]) / 2
        ref = steps.sum(axis=0) / (t[-1] - t[0])
        assert np.abs(mean - ref).max() < 1e-12
    if dt == 2 * np.pi:
        # the windows meant to hit a multiple of 2 pi do
        w = mbs._chain_eigensystem(model)[0]
        theta = np.subtract.outer(w, w) * dt
        off = np.abs(theta - 2 * np.pi * np.round(theta / (2 * np.pi)))
        assert ((off < 1e-9) & (np.abs(theta) > 1.0)).any()


def test_long_window_mean_splits_at_any_step():
    # a window of 10^6 steps, no snapshot simulated: its trapezoid mean is
    # the step-weighted mean of the means of its two parts
    model = SpinChainModel("II", 6, 1.0, 0.9, alpha=1.3, beta=0.4)
    k_lo, k_mid, k_hi = 7, 400_011, 1_000_007
    whole, left, right = (mbs.window_means(model, 0.01, lo, hi, (3, 4))
                          for lo, hi in ((k_lo, k_hi), (k_lo, k_mid),
                                         (k_mid, k_hi)))
    parts = ((k_mid - k_lo) * left + (k_hi - k_mid) * right) / (k_hi - k_lo)
    assert np.abs(whole - parts).max() < 1e-12
    assert np.abs(whole - left).max() > 1e-6  # the parts do differ


def test_window_means_argument_validation():
    model = SpinChainModel("I", 4, 1.0, 1.0)
    for dt, k_lo, k_hi in ((0.0, 0, 2), (0.1, 2, 2), (0.1, -1, 2)):
        with pytest.raises(ValueError):
            mbs.window_means(model, dt, k_lo, k_hi, [1])
    with pytest.raises(CapacityError):
        mbs.window_means(SpinChainModel("I", 13, 1.0, 1.0), 0.1, 0, 2, [1])


def test_trajectory_file_round_trip(tmp_path):
    model = SpinChainModel("II", 4, 1.0, 0.3, alpha=2.0, beta=0.5)
    traj = generate_trajectory(model, 0.07, 12, seed=4)
    path = tmp_path / "traj.csv"
    save_trajectory(path, traj)
    back = load_trajectory(path)
    np.testing.assert_array_equal(back.snapshots, traj.snapshots)
    assert back.model == model
    assert back.dt == 0.07
    assert back.seed == 4


def _save_trajectory_row_loop(path, traj):
    """Reference writer: the header, then one row at a time, value by value."""
    m = traj.model
    lines = [
        f"variant={m.variant}",
        f"n_sites={m.n_sites}",
        f"omega={m.omega:.17g}",
        f"V={m.V:.17g}",
        f"V_prime={m.V_prime:.17g}",
        f"alpha={m.alpha:.17g}",
        f"beta={m.beta:.17g}",
        f"dt={traj.dt:.17g}",
        f"n_steps={traj.snapshots.shape[0] - 1}",
        f"seed={'' if traj.seed is None else traj.seed}",
        f"convention_id={build_pauli_basis(2).convention_id}",
    ]
    ncomp = traj.snapshots.shape[1]
    lines.append("step," + ",".join(f"v_{k}" for k in range(1, ncomp + 1)))
    for k, row in enumerate(traj.snapshots):
        lines.append(str(k) + "," + ",".join(f"{x:.17g}" for x in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _load_rows_loop(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    body = next(k for k, ln in enumerate(lines) if ln.startswith("step,")) + 1
    return np.array([[float(x) for x in ln.split(",")[1:]]
                     for ln in lines[body:] if ln])


@pytest.mark.parametrize("n_steps,seed", [(0, None), (1, 3), (60, 17)])
def test_trajectory_file_matches_row_loop_reference(tmp_path, n_steps, seed):
    model = SpinChainModel("I", 4, 1.0, 0.6, V_prime=0.25, beta=0.4)
    traj = generate_trajectory(model, 0.03, n_steps, seed=11)
    traj.seed = seed
    # exercise signed zero, tiny and huge magnitudes in the float formatting
    snaps = traj.snapshots.copy()
    snaps[0, :4] = [-0.0, 5e-324, 1.2345678901234567e300, -1 / 3]
    traj.snapshots = snaps
    fast, ref = tmp_path / "fast.csv", tmp_path / "ref.csv"
    save_trajectory(fast, traj)
    _save_trajectory_row_loop(ref, traj)
    assert fast.read_bytes() == ref.read_bytes()
    back = load_trajectory(ref)
    np.testing.assert_array_equal(back.snapshots, _load_rows_loop(ref))
    np.testing.assert_array_equal(back.snapshots, snaps)
    assert back.seed == seed and back.n_steps == n_steps


def test_load_trajectory_rejects_corrupt_files(tmp_path):
    model = SpinChainModel("I", 4, 1.0, 0.3)
    traj = generate_trajectory(model, 0.1, 5, seed=1)
    path = tmp_path / "traj.csv"
    save_trajectory(path, traj)
    text = path.read_text().strip().split("\n")
    truncated = tmp_path / "short.csv"
    truncated.write_text("\n".join(text[:-2]) + "\n")
    with pytest.raises(ValueError):
        load_trajectory(truncated)
    headerless = tmp_path / "head.csv"
    headerless.write_text("\n".join(text[12:]) + "\n")
    with pytest.raises(ValueError):
        load_trajectory(headerless)


def test_load_trajectory_rejects_other_basis_convention(tmp_path):
    model = SpinChainModel("I", 4, 1.0, 0.3)
    path = tmp_path / "traj.csv"
    save_trajectory(path, generate_trajectory(model, 0.1, 5, seed=1))
    ours = build_pauli_basis(2).convention_id
    path.write_text(path.read_text().replace(f"convention_id={ours}",
                                             "convention_id=some-other-basis-v9"))
    with pytest.raises(ValueError, match=f"'some-other-basis-v9', expected '{ours}'"):
        load_trajectory(path)


def test_chain_eigensystem_cache_keeps_one_chain():
    # the same model returns the very arrays; another model evicts it, and
    # the rebuilt eigensystem equals the first
    a, b = (SpinChainModel("I", 4, 1.0, v, V_prime=0.2) for v in (0.1, 0.2))
    first = mbs._chain_eigensystem(a)
    assert mbs._chain_eigensystem(a) is first
    assert mbs._chain_eigensystem(b) is not first
    again = mbs._chain_eigensystem(a)
    assert again is not first
    for x, y in zip(again, first):
        np.testing.assert_array_equal(x, y)
    assert mbs._chain_eigensystem.cache_info().currsize == 1
