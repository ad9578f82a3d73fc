"""Independent reference constructions that the tests compare the package
against.

Nothing in the pipeline runs these: they are deliberately direct (dense
superoperators, explicit partial traces) so that the fast routes of the
package have something simple to agree with.
"""

import numpy as np

from lindfit.many_body_sim import bath_sites
from lindfit.spin_algebra import BasisSet


def _hamiltonian_superop(H: np.ndarray) -> np.ndarray:
    d = H.shape[0]
    eye = np.eye(d)
    return -1.0j * (np.kron(eye, H) - np.kron(H.T, eye))


def _pair_superop(F_i: np.ndarray, F_j: np.ndarray) -> np.ndarray:
    """Vectorized form of rho -> F_i rho F_j - {F_j F_i, rho}/2."""
    d = F_i.shape[0]
    eye = np.eye(d)
    g = F_j @ F_i
    return np.kron(F_j.T, F_i) - 0.5 * (np.kron(eye, g) + np.kron(g.T, eye))


def generator_superoperator(H: np.ndarray, c: np.ndarray, basis: BasisSet) -> np.ndarray:
    """Dense vectorized superoperator of the full generator (complex).

    Vectorization stacks columns, so vec(A X B) = (B^T kron A) vec(X).
    """
    n = basis.n
    F = basis.elements
    S = _hamiltonian_superop(H).astype(complex)
    for i in range(n):
        for j in range(n):
            if c[i, j] != 0.0:
                S += c[i, j] * _pair_superop(F[i], F[j])
    return S


def partial_trace(rho_full, keep_sites, n_sites=None):
    """Reduce a full chain state to the listed sites, in the order given.

    Accepts a density matrix or a pure-state vector on 2^N dimensions.
    """
    arr = np.asarray(rho_full)
    dim = arr.shape[0]
    n = int(round(np.log2(dim))) if n_sites is None else n_sites
    if 1 << n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    keep = list(keep_sites)
    if len(set(keep)) != len(keep):
        raise ValueError("duplicate sites in keep_sites")
    if any(s < 1 or s > n for s in keep):
        raise ValueError(f"keep_sites out of range 1..{n}")
    k = len(keep)
    axes = [s - 1 for s in keep]
    if arr.ndim == 1:
        psi = np.moveaxis(arr.reshape((2,) * n), axes, range(k))
        G = psi.reshape(1 << k, -1)
        return G @ G.conj().T
    if arr.ndim != 2 or arr.shape != (dim, dim):
        raise ValueError(f"expected vector or square matrix, got {arr.shape}")
    t = arr.reshape((2,) * (2 * n))
    t = np.moveaxis(t, axes + [n + a for a in axes],
                    list(range(k)) + list(range(n, n + k)))
    t = t.reshape(1 << k, 1 << (n - k), 1 << k, 1 << (n - k))
    return np.einsum("aibi->ab", t)


def embed_subsystem_state(rho_s, rho_b, model):
    """rho_s (x) rho_b arranged so subsystem_sites carry rho_s in site order."""
    n = model.n_sites
    rho = np.kron(np.asarray(rho_s, dtype=complex), rho_b)
    order = list(model.subsystem_sites) + bath_sites(model)
    if order == list(range(1, n + 1)):
        return rho
    perm = [order.index(s) for s in range(1, n + 1)]
    t = rho.reshape((2,) * (2 * n))
    t = np.transpose(t, perm + [n + p for p in perm])
    return np.ascontiguousarray(t.reshape(1 << n, 1 << n))
