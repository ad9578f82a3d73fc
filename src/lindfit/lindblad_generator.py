"""Parametrized Lindblad generators acting on coherence vectors.

The generator of a Markovian master equation

    drho/dt = -i[H, rho] + (1/2) sum_ij c_ij ([F_i, rho F_j] + [F_i rho, F_j])

becomes a real matrix L acting on coherence vectors, dv/dt = L v.  The
Hamiltonian is parametrized by real coefficients omega (H = sum_k omega_k F_k)
and the Kossakowski matrix by two real factors, c = (X - iY)^T (X + iY),
which keeps c positive semidefinite and the map completely positive for any
parameter values.

L is linear in omega and in the Kossakowski matrix c, so it is assembled
through one real linear map G, precomputed once per basis by projecting
every Hamiltonian and pair superoperator onto the basis,
L_hk = Tr(F_h Gen[F_k]):

    vec L = G^T (omega, vec Re c, vec Im c).

The gradient with respect to (omega, Re c, Im c) is G vec(dLoss/dL), so
training and assembly share the same map.

The propagator exp(dt L) is evaluated by a scaled-and-squared truncated
Taylor series.  The same truncation is shared with the reverse-mode
derivative used for training, so gradients are exact for the function
actually computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spin_algebra import BasisSet, basis_for_dimension

# Relative size at which the Taylor series is truncated.  Two extra terms are
# appended past the stopping point so the truncation plateau sits well below
# finite-difference resolution.
EXPM_REL_TOL = 1e-16
_EXPM_EXTRA_TERMS = 2
_EXPM_MAX_TERMS = 120


class GeneratorParams:
    """Real parameters (omega, X, Y) of a generator on a d^2-1 basis.

    They are stored as one flat vector theta = (omega, vec X, vec Y), rows
    of X and Y in order; omega, X and Y are views into theta, so writing
    through them changes theta.
    """

    def __init__(self, omega, X, Y):
        omega = np.asarray(omega, dtype=float)
        n = omega.shape[0]
        if np.shape(X) != (n, n) or np.shape(Y) != (n, n):
            raise ValueError(f"factor shapes {np.shape(X)}, {np.shape(Y)} do not "
                             f"match {n} Hamiltonian coefficients")
        self.theta = np.concatenate((omega, np.ravel(X), np.ravel(Y)), dtype=float)

    @classmethod
    def from_theta(cls, theta: np.ndarray) -> "GeneratorParams":
        """Wrap a flat vector of n + 2n^2 parameters without copying it."""
        params = cls.__new__(cls)
        params.theta = theta
        return params

    @classmethod
    def random(cls, n: int, scale: float, rng: np.random.Generator) -> "GeneratorParams":
        return cls.from_theta(scale * rng.standard_normal(n + 2 * n * n))

    @classmethod
    def zeros(cls, n: int) -> "GeneratorParams":
        return cls.from_theta(np.zeros(n + 2 * n * n))

    def copy(self) -> "GeneratorParams":
        return GeneratorParams.from_theta(self.theta.copy())

    @property
    def n(self) -> int:
        # theta holds n + 2n^2 entries
        return (math.isqrt(8 * self.theta.size + 1) - 1) // 4

    @property
    def omega(self) -> np.ndarray:
        return self.theta[:self.n]

    @property
    def X(self) -> np.ndarray:
        n = self.n
        return self.theta[n:n + n * n].reshape(n, n)

    @property
    def Y(self) -> np.ndarray:
        n = self.n
        return self.theta[n + n * n:].reshape(n, n)


@dataclass
class SpectralInfo:
    """Spectral summary of a generator.

    v_st is the stationary coherence vector normalized to last component
    1/sqrt(d), or None when the zero mode has no identity component.
    tau = 1/E_gap is None when no dissipative gap exists.
    """

    eigenvalues: np.ndarray
    v_st: np.ndarray | None
    e_gap: float
    tau: float | None
    non_unique: bool
    no_gap: bool


@dataclass
class JumpDecomposition:
    """Diagonal form of the dissipator: rates and jump operators.

    rates are the eigenvalues of c sorted descending; jump_ops[k] is
    J_k = sum_j h_kj F_j, with h chosen so that rebuilding
    sum_k rates_k (J_k rho J_k^dag - {J_k^dag J_k, rho}/2) reproduces the
    dissipator exactly.
    """

    rates: np.ndarray
    jump_ops: np.ndarray
    h: np.ndarray


def kossakowski_from_factors(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """c = (X - iY)^T (X + iY); Hermitian PSD by construction."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape != Y.shape or X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise ValueError(f"factor shapes {X.shape}, {Y.shape} must be equal and square")
    z = X + 1.0j * Y
    return z.conj().T @ z


def _vec(a: np.ndarray) -> np.ndarray:
    # column-stacking vectorization, so vec(A X B) = (B^T kron A) vec(X)
    return np.asarray(a).reshape(-1, order="F")


def _basis_frame(basis: BasisSet) -> np.ndarray:
    """Unitary whose columns are vec(F_k)."""
    return np.stack([_vec(F) for F in basis.elements], axis=1)


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
    """Dense vectorized superoperator of the full generator (complex)."""
    n = basis.n
    F = basis.elements
    S = _hamiltonian_superop(H).astype(complex)
    for i in range(n):
        for j in range(n):
            if c[i, j] != 0.0:
                S += c[i, j] * _pair_superop(F[i], F[j])
    return S


_TENSOR_CACHE: dict = {}


def precompute_dissipator_tensors(basis: BasisSet) -> np.ndarray:
    """The assembly map G of a basis, once per basis; read-only.

    G has shape (n + 2n^2, d^4) for n = d^2 - 1.  Its rows are the flattened
    projections of rho -> -i[F_k, rho], then the real parts and then minus
    the imaginary parts of the pair superoperators (i, j) in row-major order,
    so that L = (omega, vec Re c, vec Im c) @ G reshaped to d^2 x d^2.  The
    trace row of L vanishes analytically; its columns of G are zeroed
    exactly, so assembled generators keep the last coherence component
    pinned.  Imaginary leftovers of the Hamiltonian projections beyond
    rounding indicate a broken basis and raise.
    """
    key = (basis.convention_id, basis.d)
    hit = _TENSOR_CACHE.get(key)
    if hit is not None:
        return hit
    n, d2 = basis.n, basis.d ** 2
    F = basis.elements
    phi = _basis_frame(basis)
    phi_h = phi.conj().T
    h = np.stack([phi_h @ _hamiltonian_superop(F[k]) @ phi for k in range(n)])
    if np.abs(h.imag).max() > 1e-12:
        raise ValueError("Hamiltonian projection is not real")
    pairs = np.stack([phi_h @ _pair_superop(F[i], F[j]) @ phi
                      for i in range(n) for j in range(n)])
    G = np.concatenate((h.real, pairs.real, -pairs.imag)).reshape(-1, d2 * d2)
    G[:, (d2 - 1) * d2:] = 0.0
    G.setflags(write=False)
    _TENSOR_CACHE[key] = G
    return G


def _generator(params: GeneratorParams, tensors: np.ndarray) -> np.ndarray:
    """L from (omega, X, Y) through the assembly map; see assemble_generator."""
    c = kossakowski_from_factors(params.X, params.Y)
    coeffs = np.concatenate((params.omega, c.real.ravel(), c.imag.ravel()))
    return (coeffs @ tensors).reshape(params.n + 1, params.n + 1)


def assemble_generator(params: GeneratorParams, basis: BasisSet,
                       tensors: np.ndarray | None = None) -> np.ndarray:
    """Assemble the real d^2 x d^2 generator matrix L from (omega, X, Y).

    L is the projection of -i[H, .] plus the dissipator of the Kossakowski
    matrix c = (X - iY)^T (X + iY); its last row vanishes because the
    generator is trace annihilating.
    """
    if params.n != basis.n:
        raise ValueError(f"parameter count {params.n} does not match basis ({basis.n})")
    if tensors is None:
        tensors = precompute_dissipator_tensors(basis)
    return _generator(params, tensors)


def extract_hamiltonian(params: GeneratorParams, basis: BasisSet) -> np.ndarray:
    """H = sum_k omega_k F_k; Hermitian and traceless."""
    return np.tensordot(params.omega, basis.elements[:basis.n], axes=(0, 0))


@dataclass
class _ExpmCache:
    """Intermediates of one scaled-and-squared Taylor evaluation."""

    scale: float
    A: np.ndarray
    terms: list
    T: np.ndarray
    squares: list
    M: np.ndarray


def _expm_taylor(A: np.ndarray, keep: bool):
    """exp(A) by scaling and squaring of an adaptively truncated series."""
    norm = np.abs(A).max()
    if not np.isfinite(norm):
        raise ValueError("non-finite generator entries")
    s = 0
    if norm > 1.0:
        s = int(np.ceil(np.log2(norm)))
    B = A / (2.0 ** s)
    T = np.eye(A.shape[0])
    P = np.eye(A.shape[0])
    terms = [P]
    k = 0
    extra = _EXPM_EXTRA_TERMS
    while True:
        k += 1
        if k > _EXPM_MAX_TERMS:
            raise RuntimeError("matrix exponential series failed to converge")
        P = (B @ P) / k
        T = T + P
        if keep:
            terms.append(P)
        if np.abs(P).max() <= EXPM_REL_TOL * np.abs(T).max():
            if extra == 0:
                break
            extra -= 1
    squares = []
    M = T
    for _ in range(s):
        if keep:
            squares.append(M)
        M = M @ M
    if keep:
        return M, _ExpmCache(scale=2.0 ** s, A=B, terms=terms, T=T, squares=squares, M=M)
    return M, None


def propagate(L: np.ndarray, dt: float) -> np.ndarray:
    """Propagator M = exp(dt L).  Preserves the identity row exactly."""
    M, _ = _expm_taylor(dt * np.asarray(L, dtype=float), keep=False)
    return M


def propagate_with_cache(L: np.ndarray, dt: float):
    """Like propagate, but returns the intermediates for reverse mode."""
    M, cache = _expm_taylor(dt * np.asarray(L, dtype=float), keep=True)
    return M, cache


def propagate_backward(cache: _ExpmCache, M_bar: np.ndarray, dt: float) -> np.ndarray:
    """Adjoint of propagate through the recorded Taylor recurrence.

    Given dLoss/dM, returns dLoss/dL for the exact forward truncation.
    """
    G = np.asarray(M_bar, dtype=float)
    for Mj in reversed(cache.squares):
        G = G @ Mj.T + Mj.T @ G
    T_bar = G
    A = cache.A
    terms = cache.terms
    K = len(terms) - 1
    A_bar = np.zeros_like(A)
    P_bar = T_bar
    for k in range(K, 0, -1):
        A_bar += (P_bar @ terms[k - 1].T) / k
        if k > 1:
            P_bar = T_bar + (A.T @ P_bar) / k
    return A_bar * (dt / cache.scale)


def propagate_trajectory(L: np.ndarray, v0: np.ndarray, dt: float, n_steps: int) -> np.ndarray:
    """Iterate v_{k+1} = M v_k; returns (n_steps + 1, d^2) snapshots."""
    M = propagate(L, dt)
    out = np.empty((n_steps + 1, v0.shape[0]))
    out[0] = v0
    v = np.asarray(v0, dtype=float)
    for k in range(1, n_steps + 1):
        v = M @ v
        out[k] = v
    return out


def stationary_state(L: np.ndarray, zero_tol: float = 1e-10) -> SpectralInfo:
    """Eigen-analysis of the generator: stationary vector, gap, timescale.

    Eigenvalues with modulus below zero_tol count as stationary; the gap is
    the smallest |Re| among the rest.  Degenerate stationary subspaces set
    non_unique; a vanishing gap sets no_gap and leaves tau undefined.
    """
    L = np.asarray(L, dtype=float)
    d2 = L.shape[0]
    d = int(round(np.sqrt(d2)))
    w = np.linalg.eigvals(L)
    order = np.argsort(np.abs(w))
    w_sorted = w[order]

    # The kernel vector comes from the SVD, not from eig: for stiff generators
    # (norm >> gap) geev eigenvectors can carry O(1e-3) contamination from
    # nearby decaying modes, while the smallest right singular vector is
    # backward-stable.
    _, s, Vt = np.linalg.svd(L)
    vec = Vt[-1]
    v_st = None
    non_unique = bool(d2 > 1 and np.abs(w_sorted[1]) < zero_tol)
    if d2 > 1 and s[-2] < max(zero_tol, 1e-13 * s[0]):
        non_unique = True
    if abs(vec[-1]) > 1e-12 and not non_unique:
        v_st = vec / vec[-1] / np.sqrt(d)
    else:
        non_unique = True

    nonzero = w[np.abs(w) >= zero_tol]
    if nonzero.size == 0:
        e_gap = 0.0
    else:
        e_gap = float(np.min(np.abs(nonzero.real)))
    no_gap = e_gap < 1e-12
    tau = None if no_gap else 1.0 / e_gap
    return SpectralInfo(eigenvalues=w, v_st=v_st, e_gap=e_gap, tau=tau,
                        non_unique=non_unique, no_gap=no_gap)


def jump_decomposition(c: np.ndarray, basis: BasisSet) -> JumpDecomposition:
    """Diagonalize the Kossakowski matrix into rates and jump operators."""
    c = np.asarray(c)
    n = basis.n
    if c.shape != (n, n):
        raise ValueError(f"Kossakowski shape {c.shape} does not match basis ({n})")
    if np.abs(c - c.conj().T).max() > 1e-10:
        raise ValueError("Kossakowski matrix is not Hermitian")
    gamma, U = np.linalg.eigh(c)
    if gamma.min() < -1e-12:
        raise ValueError(f"Kossakowski matrix has negative rate {gamma.min():.3e}")
    order = np.argsort(-gamma)
    gamma = gamma[order]
    U = U[:, order]
    # J_k = sum_j h_kj F_j with h = U^T rebuilds sum_ij c_ij F_i rho F_j
    h = U.T
    jump_ops = np.einsum("kj,jab->kab", h, basis.elements[:n])
    return JumpDecomposition(rates=gamma, jump_ops=jump_ops, h=h)


def save_model(path, params: GeneratorParams, basis: BasisSet, dt: float,
               extra: dict | None = None) -> None:
    """Write parameters plus derived blocks as JSON.

    Derived blocks (Kossakowski matrix and generator spectrum) are
    regenerated from the parameters on every save.
    """
    import json

    c = kossakowski_from_factors(params.X, params.Y)
    w = np.linalg.eigvals(assemble_generator(params, basis))
    payload = {
        "format": "lindfit-model-v1",
        "convention_id": basis.convention_id,
        "d": basis.d,
        "dt": dt,
        "omega": params.omega.tolist(),
        "X": params.X.tolist(),
        "Y": params.Y.tolist(),
        "derived": {
            "c_real": c.real.tolist(),
            "c_imag": c.imag.tolist(),
            "eigenvalues_real": w.real.tolist(),
            "eigenvalues_imag": w.imag.tolist(),
        },
    }
    if extra:
        payload["extra"] = extra
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_model(path):
    """Read a model file; returns (params, basis, dt, payload)."""
    import json

    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("format") != "lindfit-model-v1":
        raise ValueError(f"unrecognized model file format in {path}")
    basis = basis_for_dimension(int(payload["d"]))
    if payload["convention_id"] != basis.convention_id:
        raise ValueError(f"model uses basis convention {payload['convention_id']!r}, "
                         f"expected {basis.convention_id!r}")
    params = GeneratorParams(omega=np.array(payload["omega"], dtype=float),
                             X=np.array(payload["X"], dtype=float),
                             Y=np.array(payload["Y"], dtype=float))
    return params, basis, float(payload["dt"]), payload
