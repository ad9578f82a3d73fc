"""Basis construction and coherence-vector maps."""

import numpy as np
import pytest

from lindfit.spin_algebra import (
    basis_for_dimension,
    build_pauli_basis,
    coherence_to_matrix,
    ginibre_density_matrix,
    rho_to_coherence,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
ID = np.eye(2, dtype=complex)


def test_single_spin_elements():
    b = build_pauli_basis(1)
    assert b.d == 2 and len(b.elements) == 4
    np.testing.assert_allclose(b.elements[0], SX / np.sqrt(2), atol=1e-15)
    np.testing.assert_allclose(b.elements[1], SY / np.sqrt(2), atol=1e-15)
    np.testing.assert_allclose(b.elements[2], SZ / np.sqrt(2), atol=1e-15)
    np.testing.assert_allclose(b.elements[3], ID / np.sqrt(2), atol=1e-15)
    assert b.labels == ("x", "y", "z", "1")
    assert b.convention_id == "pauli-xyz1-lex-idlast-1site-v1"


def test_two_spin_ordering():
    # lexicographic in (a, b) with the identity slot last on each site
    b = build_pauli_basis(2)
    assert b.d == 4 and len(b.elements) == 16
    assert b.convention_id == "pauli-xyz1-lex-idlast-2site-v1"
    singles = [SX, SY, SZ, ID]
    for a in range(4):
        for c in range(4):
            expect = np.kron(singles[a], singles[c]) / 2.0
            np.testing.assert_allclose(b.elements[4 * a + c], expect, atol=1e-15)
    assert b.labels[11] == "z1"
    assert b.labels[14] == "1z"
    assert b.labels[10] == "zz"
    assert b.labels[15] == "11"


@pytest.mark.parametrize("n", [1, 2])
def test_orthonormality_and_hermiticity(n):
    b = build_pauli_basis(n)
    F = b.elements
    gram = np.einsum("aij,bji->ab", F.conj().transpose(0, 2, 1), F)
    np.testing.assert_allclose(gram, np.eye(len(b.elements)), atol=1e-13)
    for f in F:
        np.testing.assert_allclose(f, f.conj().T, atol=1e-15)
    # all traceless except the identity element
    traces = np.einsum("aii->a", F)
    np.testing.assert_allclose(traces[:-1], 0.0, atol=1e-15)
    assert abs(traces[-1] - b.d / np.sqrt(b.d)) < 1e-13


def test_basis_for_dimension():
    assert basis_for_dimension(2).d == 2 and basis_for_dimension(2).n == 3
    assert basis_for_dimension(4).d == 4 and basis_for_dimension(4).n == 15
    with pytest.raises(ValueError):
        basis_for_dimension(3)


def test_coherence_round_trip():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        for n in (1, 2):
            b = build_pauli_basis(n)
            rho = ginibre_density_matrix(b.d, rng)
            v = rho_to_coherence(rho, b)
            assert v.dtype == np.float64
            assert abs(v[-1] - 1.0 / np.sqrt(b.d)) < 1e-13
            back = coherence_to_matrix(v, b)
            np.testing.assert_allclose(back, rho, atol=1e-13)
            assert np.linalg.eigvalsh(back)[0] > -1e-13
            # purity identity: Tr(rho^2) = |v|^2
            assert abs(np.sum(v * v) - np.trace(rho @ rho).real) < 1e-12


def test_coherence_to_matrix_batched(basis2, rng):
    vs = rng.standard_normal((5, 3, 16))
    mats = coherence_to_matrix(vs, basis2)
    assert mats.shape == (5, 3, 4, 4)
    one = coherence_to_matrix(vs[2, 1], basis2)
    np.testing.assert_allclose(mats[2, 1], one, atol=1e-15)


def test_rho_to_coherence_batched(basis2, rng):
    rhos = np.array([[ginibre_density_matrix(4, rng) for _ in range(3)]
                     for _ in range(2)])
    vs = rho_to_coherence(rhos, basis2)
    assert vs.shape == (2, 3, 16) and vs.dtype == np.float64
    for i in range(2):
        for j in range(3):
            np.testing.assert_allclose(vs[i, j], rho_to_coherence(rhos[i, j], basis2),
                                       atol=1e-15)
    np.testing.assert_array_equal(vs[..., -1], 0.5)
    rhos[1, 2, 0, 1] += 0.1  # one non-Hermitian member fails the whole batch
    with pytest.raises(ValueError):
        rho_to_coherence(rhos, basis2)
    with pytest.raises(ValueError):
        rho_to_coherence(np.zeros((3, 2, 2)), basis2)


def test_rho_to_coherence_rejects_non_hermitian(basis1):
    bad = np.array([[0.5, 0.9], [0.1, 0.5]], dtype=complex)
    with pytest.raises(ValueError):
        rho_to_coherence(bad, basis1)


def test_rho_to_coherence_shape_check(basis2):
    with pytest.raises(ValueError):
        rho_to_coherence(np.eye(2) / 2, basis2)


def test_ginibre_properties():
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        for d in (2, 4, 8):
            rho = ginibre_density_matrix(d, rng)
            assert rho.shape == (d, d)
            np.testing.assert_allclose(rho, rho.conj().T, atol=1e-14)
            assert abs(np.trace(rho) - 1.0) < 1e-13
            w = np.linalg.eigvalsh(rho)
            assert w.min() > -1e-14


def test_ginibre_deterministic():
    a = ginibre_density_matrix(4, np.random.default_rng(7))
    b = ginibre_density_matrix(4, np.random.default_rng(7))
    c = ginibre_density_matrix(4, np.random.default_rng(8))
    np.testing.assert_array_equal(a, b)
    assert np.abs(a - c).max() > 1e-3
