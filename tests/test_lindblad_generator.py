"""Generator assembly, propagation, spectra, and jump decompositions.

The assembly tests check the single production route (the precomputed
assembly map) against a deliberately naive trace-projection oracle built
from explicit python loops, and against the dense reference superoperator.
"""

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.linalg._expm_multiply import _theta as scipy_theta

from lindfit.lindblad_generator import (
    _TAYLOR_DEGREES,
    _TAYLOR_THETA,
    GeneratorParams,
    _theta_gradient,
    assemble_generator,
    extract_hamiltonian,
    jump_decomposition,
    kossakowski_from_factors,
    load_model,
    precompute_dissipator_tensors,
    propagate,
    propagate_backward,
    propagate_trajectory,
    propagate_with_cache,
    save_model,
    stationary_state,
)
from lindfit.spin_algebra import build_pauli_basis, ginibre_density_matrix, rho_to_coherence
from oracles import generator_superoperator


def _oracle_generator(params, basis):
    """Entrywise trace projection of the master equation, all loops."""
    n = basis.n
    F = basis.elements
    H = extract_hamiltonian(params, basis)
    c = kossakowski_from_factors(params.X, params.Y)
    d2 = basis.d ** 2
    L = np.zeros((d2, d2))
    for m in range(d2):
        for k in range(d2):
            gen_of_Fk = -1j * (H @ F[k] - F[k] @ H)
            for i in range(n):
                for j in range(n):
                    anti = F[j] @ F[i] @ F[k] + F[k] @ F[j] @ F[i]
                    gen_of_Fk = gen_of_Fk + c[i, j] * (F[i] @ F[k] @ F[j] - 0.5 * anti)
            val = np.trace(F[m] @ gen_of_Fk)
            assert abs(val.imag) < 1e-11
            L[m, k] = val.real
    L[-1, :] = 0.0
    return L


def _dephasing_params(omega_rabi, gamma):
    # H = (omega/2) sigma_x, single jump sqrt(gamma) sigma_z / sqrt(2)
    om = np.array([omega_rabi / np.sqrt(2.0), 0.0, 0.0])
    X = np.zeros((3, 3))
    X[2, 2] = np.sqrt(gamma)
    return GeneratorParams(omega=om, X=X, Y=np.zeros((3, 3)))


@pytest.mark.parametrize("num_spins,draws", [(1, 4), (2, 2)])
def test_assembly_matches_loop_oracle(num_spins, draws):
    basis = build_pauli_basis(num_spins)
    tensors = precompute_dissipator_tensors(basis)
    rng = np.random.default_rng(100 + num_spins)
    for _ in range(draws):
        params = GeneratorParams.random(basis.n, 0.4, rng)
        L = assemble_generator(params, basis, tensors)
        oracle = _oracle_generator(params, basis)
        assert np.abs(L - oracle).max() < 1e-11


def _unfolded_assembly_map(basis):
    """The assembly map with one row per entry of Re c and of Im c: n + 2n^2
    rows, projected from the same trace tensor as the folded map."""
    n, d, d2 = basis.n, basis.d, basis.d ** 2
    F = basis.elements
    P = np.matmul(F[:, None], F[None, :]).reshape(d2 * d2, d, d)
    T = (P.reshape(d2 * d2, -1) @ P.transpose(0, 2, 1).reshape(d2 * d2, -1).T
         ).reshape(d2, d2, d2, d2)
    T3 = np.sqrt(d) * T[..., -1]
    h = -1.0j * (T3.transpose(1, 0, 2) - T3.transpose(2, 0, 1))[:n]
    pairs = (T.transpose(1, 3, 0, 2) - 0.5 * T.transpose(2, 1, 0, 3)
             - 0.5 * T.transpose(3, 2, 0, 1))[:n, :n]
    G = np.concatenate((h.real.reshape(n, -1), pairs.real.reshape(n * n, -1),
                        -pairs.imag.reshape(n * n, -1)))
    G[:, (d2 - 1) * d2:] = 0.0
    return G


@pytest.mark.parametrize("num_spins", [1, 2])
def test_folded_map_matches_unfolded_map(num_spins):
    # the folded map assembles the same L as one row per entry of c, and
    # its adjoint gives the same gradient with respect to (omega, X, Y)
    basis = build_pauli_basis(num_spins)
    n = basis.n
    tensors = precompute_dissipator_tensors(basis)
    assert tensors.shape == (n + n * n, basis.d ** 4)
    assert not tensors.flags.writeable
    assert np.all(tensors[:, -basis.d ** 2:] == 0.0)
    full = _unfolded_assembly_map(basis)
    rng = np.random.default_rng(40 + num_spins)
    for _ in range(5):
        params = GeneratorParams.random(n, 0.4, rng)
        c = kossakowski_from_factors(params.X, params.Y)
        ref = (np.concatenate((params.omega, c.real.ravel(), c.imag.ravel())) @ full
               ).reshape(n + 1, n + 1)
        L = assemble_generator(params, basis, tensors)
        assert np.abs(L - ref).max() <= 1e-15 * np.abs(ref).max()

        L_bar = rng.standard_normal(L.shape)
        g = full @ L_bar.ravel()
        r_bar = g[n:n + n * n].reshape(n, n)
        i_bar = g[n + n * n:].reshape(n, n)
        sym, anti = r_bar + r_bar.T, i_bar - i_bar.T
        X, Y = params.X, params.Y
        ref = np.concatenate((g[:n], (X @ sym - Y @ anti).ravel(),
                              (Y @ sym + X @ anti).ravel()))
        grad = _theta_gradient(params, tensors, L_bar)
        assert np.abs(grad - ref).max() <= 1e-13 * np.abs(ref).max()


def test_generator_superoperator_consistent(basis2, rng):
    # dense superoperator route agrees with the coherence-space projection
    params = GeneratorParams.random(basis2.n, 0.3, rng)
    H = extract_hamiltonian(params, basis2)
    c = kossakowski_from_factors(params.X, params.Y)
    S = generator_superoperator(H, c, basis2)
    L = assemble_generator(params, basis2)
    F = basis2.elements
    for k in range(16):
        image = (S @ F[k].reshape(-1, order="F")).reshape(4, 4, order="F")
        col = np.einsum("mij,ji->m", F, image)
        target = L[:, k].copy()
        target[-1] = 0.0
        np.testing.assert_allclose(col.real, target, atol=1e-11)


def test_last_row_zero_and_parts(basis2, rng):
    # L is the Hamiltonian part L(omega, 0, 0) plus the dissipator L(0, X, Y)
    zero = np.zeros((basis2.n, basis2.n))
    for _ in range(5):
        params = GeneratorParams.random(basis2.n, 0.8, rng)
        L = assemble_generator(params, basis2)
        assert np.abs(L[-1]).max() == 0.0
        h_part = assemble_generator(GeneratorParams(params.omega, zero, zero), basis2)
        d_part = assemble_generator(
            GeneratorParams(np.zeros(basis2.n), params.X, params.Y), basis2)
        np.testing.assert_allclose(L, h_part + d_part, atol=1e-14)


def test_parameter_count_mismatch(basis2):
    with pytest.raises(ValueError):
        assemble_generator(GeneratorParams.from_theta(np.zeros(21)), basis2)


def test_kossakowski_psd_and_formula(rng):
    for _ in range(10):
        X = rng.standard_normal((15, 15))
        Y = rng.standard_normal((15, 15))
        c = kossakowski_from_factors(X, Y)
        direct = (X - 1j * Y).T @ (X + 1j * Y)
        np.testing.assert_allclose(c, direct, atol=1e-12)
        np.testing.assert_allclose(c, c.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(c).min() > -1e-12


def test_gauge_invariance(basis2, rng):
    # c depends on (X, Y) only through Q(X + iY) for orthogonal Q
    params = GeneratorParams.random(basis2.n, 0.5, rng)
    q, _ = np.linalg.qr(rng.standard_normal((15, 15)))
    rotated = GeneratorParams(params.omega.copy(), q @ params.X, q @ params.Y)
    a = assemble_generator(params, basis2)
    b = assemble_generator(rotated, basis2)
    assert np.abs(a - b).max() < 1e-12


def test_extract_hamiltonian(basis2, rng):
    params = GeneratorParams.random(basis2.n, 1.0, rng)
    H = extract_hamiltonian(params, basis2)
    np.testing.assert_allclose(H, H.conj().T, atol=1e-13)
    assert abs(np.trace(H)) < 1e-13
    back = np.einsum("kij,ji->k", basis2.elements[:15], H)
    np.testing.assert_allclose(back.real, params.omega, atol=1e-12)


def test_propagate_against_scipy(basis2, rng):
    for _ in range(6):
        params = GeneratorParams.random(basis2.n, 0.6, rng)
        L = assemble_generator(params, basis2)
        for dt in (0.01, 0.3, 2.5):
            M = propagate(L, dt)
            ref = scipy.linalg.expm(L * dt)
            assert np.abs(M - ref).max() < 1e-12 * max(1.0, np.abs(ref).max())


def _degree_cases():
    # ||dt L||_1 just below and just above each theta_m, and far above
    # theta_16, with the degree and the number of squarings it must select
    cases = []
    for k, (m, theta) in enumerate(zip(_TAYLOR_DEGREES, _TAYLOR_THETA)):
        cases.append(pytest.param(theta * (1 - 1e-3), m, 0, id=f"below-{m}"))
        above = (_TAYLOR_DEGREES[k + 1], 0) if m != 16 else (16, 1)
        cases.append(pytest.param(theta * (1 + 1e-3), *above, id=f"above-{m}"))
    cases.append(pytest.param(_TAYLOR_THETA[-1] * 2 ** 5 * (1 - 1e-3), 16, 5, id="s5"))
    cases.append(pytest.param(_TAYLOR_THETA[-1] * 2 ** 5 * (1 + 1e-3), 16, 6, id="s6"))
    return cases


def test_taylor_thresholds_match_scipy():
    assert _TAYLOR_THETA == tuple(scipy_theta[m] for m in _TAYLOR_DEGREES)


@pytest.mark.parametrize("norm,degree,squarings", _degree_cases())
def test_propagate_degree_and_scaling_against_scipy(basis2, norm, degree, squarings):
    params = GeneratorParams.random(basis2.n, 0.6, np.random.default_rng(11))
    L = assemble_generator(params, basis2)
    dt = norm / np.abs(L).sum(axis=0).max()
    M, cache = propagate_with_cache(L, dt)
    assert (len(cache.terms) - 1, len(cache.squares)) == (degree, squarings)
    np.testing.assert_array_equal(propagate(L, dt), M)
    ref = scipy.linalg.expm(L * dt)
    assert np.abs(M - ref).max() < 1e-12 * max(1.0, np.abs(ref).max())


def test_propagate_identity_cases(basis2):
    L = np.zeros((16, 16))
    np.testing.assert_allclose(propagate(L, 1.7), np.eye(16), atol=1e-15)
    params = GeneratorParams.random(basis2.n, 0.5, np.random.default_rng(3))
    L = assemble_generator(params, basis2)
    np.testing.assert_allclose(propagate(L, 0.0), np.eye(16), atol=1e-15)


def test_propagate_nilpotent_exact():
    A = np.zeros((4, 4))
    A[0, 1] = 2.0
    A[1, 2] = -3.0
    A[2, 3] = 0.5
    ref = np.eye(4) + A + A @ A / 2 + A @ A @ A / 6
    np.testing.assert_allclose(propagate(A, 1.0), ref, atol=1e-14)


def test_propagate_stiff_matrix(rng):
    A = rng.standard_normal((12, 12)) * 40.0
    M = propagate(A, 1.0)
    ref = scipy.linalg.expm(A)
    assert np.abs(M - ref).max() / np.abs(ref).max() < 1e-10


# ||dt L||_1 is 14 at dt = 0.37, 0.39 at dt = 0.01 and 0.027 at dt = 7e-4,
# the regime of the fit workload
@pytest.mark.parametrize("dt,degree,squarings", [(0.37, 16, 5), (0.01, 16, 0),
                                                 (7e-4, 9, 0)])
def test_propagate_backward_matches_fd(basis2, dt, degree, squarings):
    rng = np.random.default_rng(42)
    params = GeneratorParams.random(basis2.n, 0.4, rng)
    L = assemble_generator(params, basis2)
    # the gradient is about dt W, so W is scaled by 1/dt to keep it O(1) at
    # every dt, where the absolute tolerance below still tells errors apart
    W = rng.standard_normal((16, 16)) / dt

    def phi(mat):
        return float(np.sum(W * propagate(mat, dt)))

    _, cache = propagate_with_cache(L, dt)
    assert (len(cache.terms) - 1, len(cache.squares)) == (degree, squarings)
    grad = propagate_backward(cache, W, dt)
    eps = 1e-6
    for i, j in [(0, 0), (3, 7), (11, 2), (15, 15), (5, 5), (9, 14)]:
        E = np.zeros_like(L)
        E[i, j] = 1.0
        fd = (phi(L + eps * E) - phi(L - eps * E)) / (2 * eps)
        assert abs(grad[i, j] - fd) < 1e-5 * max(1.0, abs(fd))


def test_propagate_trajectory_shape_and_pin(basis2, rng):
    params = GeneratorParams.random(basis2.n, 0.3, rng)
    L = assemble_generator(params, basis2)
    rho0 = ginibre_density_matrix(4, rng)
    v0 = rho_to_coherence(rho0, basis2)
    snaps = propagate_trajectory(L, v0, 0.05, 40)
    assert snaps.shape == (41, 16)
    np.testing.assert_allclose(snaps[0], v0, atol=1e-15)
    np.testing.assert_allclose(snaps[:, -1], 0.5, atol=1e-12)
    # one-step recursion against a direct matvec
    M = propagate(L, 0.05)
    np.testing.assert_allclose(snaps[1], M @ v0, atol=1e-13)


def test_contractivity_sampled(basis2):
    # CPTP maps from PSD Kossakowski matrices keep spectra above -1e-10
    rng = np.random.default_rng(77)
    for _ in range(20):
        params = GeneratorParams.random(basis2.n, 0.5, rng)
        L = assemble_generator(params, basis2)
        w = np.linalg.eigvals(L)
        assert w.real.max() < 1e-10


def test_stationary_dephasing():
    params = _dephasing_params(1.0, 0.2)
    basis = build_pauli_basis(1)
    L = assemble_generator(params, basis)
    info = stationary_state(L)
    assert not info.non_unique and not info.no_gap
    np.testing.assert_allclose(info.v_st, [0, 0, 0, 1 / np.sqrt(2)], atol=1e-10)
    # modes: -gamma and the rotated pair with real part -gamma/2
    assert abs(info.e_gap - 0.1) < 1e-10
    assert abs(info.tau - 10.0) < 1e-8
    # the stationary vector really is a kernel vector
    assert np.abs(L @ info.v_st).max() < 1e-12


def test_stationary_zero_generator():
    info = stationary_state(np.zeros((16, 16)))
    assert info.non_unique
    assert info.no_gap and info.tau is None


def test_stationary_no_gap_pure_hamiltonian(basis1):
    params = GeneratorParams(omega=np.array([1.0, 0.0, 0.0]),
                             X=np.zeros((3, 3)), Y=np.zeros((3, 3)))
    info = stationary_state(assemble_generator(params, basis1))
    assert info.no_gap and info.tau is None


def test_stationary_random_kernel_residual(basis2):
    rng = np.random.default_rng(5150)
    for _ in range(10):
        params = GeneratorParams.random(basis2.n, 0.5, rng)
        L = assemble_generator(params, basis2)
        info = stationary_state(L)
        if info.v_st is None:
            continue
        assert np.abs(L @ info.v_st).max() < 1e-10
        assert abs(info.v_st[-1] - 0.5) < 1e-12


def test_jump_decomposition_rebuilds_kossakowski(basis2, rng):
    for _ in range(6):
        X = rng.standard_normal((15, 15)) * 0.7
        Y = rng.standard_normal((15, 15)) * 0.7
        c = kossakowski_from_factors(X, Y)
        dec = jump_decomposition(c, basis2)
        assert np.all(np.diff(dec.rates) <= 1e-12)
        assert dec.rates.min() > -1e-12
        rebuilt = np.einsum("k,ki,kj->ij", dec.rates, dec.h, dec.h.conj())
        np.testing.assert_allclose(rebuilt, c, atol=1e-10)
        # jump operators expand exactly through h
        ops = np.einsum("kj,jab->kab", dec.h, basis2.elements[:15])
        np.testing.assert_allclose(ops, dec.jump_ops, atol=1e-14)


def test_jump_decomposition_degenerate_identity(basis1):
    c = 0.3 * np.eye(3, dtype=complex)
    dec = jump_decomposition(c, basis1)
    np.testing.assert_allclose(dec.rates, [0.3, 0.3, 0.3], atol=1e-13)
    rebuilt = np.einsum("k,ki,kj->ij", dec.rates, dec.h, dec.h.conj())
    np.testing.assert_allclose(rebuilt, c, atol=1e-12)


def test_jump_decomposition_rejects_bad_input(basis1):
    with pytest.raises(ValueError):
        jump_decomposition(np.array([[0.0, 1.0], [0.0, 0.0]]), basis1)
    bad = np.diag([1.0, -0.5, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        jump_decomposition(bad, basis1)


def test_model_round_trip(tmp_path, basis2, rng):
    params = GeneratorParams.random(basis2.n, 0.3, rng)
    path = tmp_path / "model.json"
    save_model(path, params, basis2, 0.01, extra={"note": "unit"})
    loaded, basis_back, dt, payload = load_model(path)
    assert dt == 0.01
    assert basis_back.convention_id == basis2.convention_id
    np.testing.assert_array_equal(loaded.omega, params.omega)
    np.testing.assert_array_equal(loaded.X, params.X)
    np.testing.assert_array_equal(loaded.Y, params.Y)
    assert payload["extra"]["note"] == "unit"
    assert "c_real" in payload["derived"]


def test_load_model_rejects_unknown_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "other"}')
    with pytest.raises(ValueError):
        load_model(path)
