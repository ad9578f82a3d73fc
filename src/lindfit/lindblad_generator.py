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

The propagator exp(dt L) is a truncated Taylor series with scaling and
squaring, p_m(A / 2^s)^(2^s) for A = dt L.  The degree m and the scaling s
are chosen once per call from the 1-norm of A (Al-Mohy & Higham, SIAM J.
Sci. Comput. 33(2), 2011): the smallest m in {2, 4, 6, 9, 12, 16} with
||A||_1 <= theta_m, else m = 16 and the least s with ||A||_1 / 2^s <=
theta_16.  The polynomial is evaluated by Paterson-Stockmeyer.

The adjoint reuses that polynomial.  The computed function f has real
coefficients, so the adjoint of its Frechet derivative L_f(A, .) is
L_f(A^T, .), and L_f(A^T, M_bar) is the top-right block of f applied to the
block matrix [[A^T, M_bar], [0, A^T]] (Al-Mohy & Higham, SIAM J. Matrix
Anal. Appl. 30(4), 2009).  Evaluated with the same m and s, it gives
gradients that are exact for the function actually computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spin_algebra import BasisSet, basis_for_dimension

# Taylor degrees m that Paterson-Stockmeyer evaluates most cheaply, and the
# largest ||A||_1 for which the degree-m series meets double-precision unit
# roundoff: Al-Mohy & Higham, SIAM J. Sci. Comput. 33(2), 2011, Table 3.1.
_TAYLOR_DEGREES = (2, 4, 6, 9, 12, 16)
_TAYLOR_THETA = (2.58e-8, 3.40e-4, 9.07e-3, 8.96e-2, 3.00e-1, 7.81e-1)
# 1/k! up to the highest degree
_TAYLOR_COEFFICIENTS = 1.0 / np.array([math.factorial(k) for k in range(17)], dtype=float)


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

    Every projection is read off the trace tensor T[a, b, c, e] =
    Tr(F_a F_b F_c F_e); three-fold traces use F_{d^2} = 1/sqrt(d).
    """
    key = (basis.convention_id, basis.d)
    hit = _TENSOR_CACHE.get(key)
    if hit is not None:
        return hit
    n, d, d2 = basis.n, basis.d, basis.d ** 2
    F = basis.elements
    # products P_ab = F_a F_b, and Tr(P_ab P_ce) = sum_xy (P_ab)_xy (P_ce)_yx
    P = np.matmul(F[:, None], F[None, :]).reshape(d2 * d2, d, d)
    T = (P.reshape(d2 * d2, -1) @ P.transpose(0, 2, 1).reshape(d2 * d2, -1).T
         ).reshape(d2, d2, d2, d2)
    # Tr(F_h Gen[F_c]) for Gen = -i[F_k, .]: -i(Tr(F_h F_k F_c) - Tr(F_h F_c F_k))
    T3 = np.sqrt(d) * T[..., -1]
    h = -1.0j * (T3.transpose(1, 0, 2) - T3.transpose(2, 0, 1))[:n]
    if np.abs(h.imag).max() > 1e-12:
        raise ValueError("Hamiltonian projection is not real")
    # F_i rho F_j - {F_j F_i, rho}/2 at rho = F_c, projected on F_h
    pairs = (T.transpose(1, 3, 0, 2) - 0.5 * T.transpose(2, 1, 0, 3)
             - 0.5 * T.transpose(3, 2, 0, 1))[:n, :n]
    G = np.concatenate((h.real.reshape(n, -1), pairs.real.reshape(n * n, -1),
                        -pairs.imag.reshape(n * n, -1)))
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


def _ps_coefficients(m: int) -> np.ndarray:
    """The degree-m Taylor coefficients as Paterson-Stockmeyer blocks.

    Row j holds the coefficients of I, X, ..., X^q in block B_j, where
    q = ceil(sqrt(m)) divides every degree in _TAYLOR_DEGREES, so that
    p_m(X) = B_0 + X^q (B_1 + ... + X^q B_{m/q - 1}).  Only the last block
    reaches X^q.
    """
    q = math.isqrt(m - 1) + 1
    C = np.zeros((m // q, q + 1))
    C[:, :q] = _TAYLOR_COEFFICIENTS[:m].reshape(m // q, q)
    C[-1, q] = _TAYLOR_COEFFICIENTS[m]
    return C


_PS_COEFFICIENTS = {m: _ps_coefficients(m) for m in _TAYLOR_DEGREES}


@dataclass
class _ExpmCache:
    """What propagate_backward needs from one propagate_with_cache call.

    A is dt L; terms holds the m + 1 Taylor coefficients of the chosen
    degree m and squares the s matrices that were squared.
    """

    A: np.ndarray
    terms: np.ndarray
    squares: list


def _taylor_plan(A: np.ndarray):
    """Degree m and scaling s for A, from its 1-norm."""
    norm = np.abs(A).sum(axis=0).max()
    if not np.isfinite(norm):
        raise ValueError("non-finite generator entries")
    for m, theta in zip(_TAYLOR_DEGREES, _TAYLOR_THETA):
        if norm <= theta:
            return m, 0
    return _TAYLOR_DEGREES[-1], math.ceil(math.log2(norm / _TAYLOR_THETA[-1]))


def _taylor(A: np.ndarray, m: int, s: int):
    """p_m(A / 2^s)^(2^s); returns it and the s matrices that were squared."""
    C = _PS_COEFFICIENTS[m]
    q = C.shape[1] - 1
    powers = np.empty((q + 1,) + A.shape)
    powers[0] = np.eye(A.shape[0])
    powers[1] = A / 2.0 ** s if s else A
    for k in range(2, q + 1):
        np.matmul(powers[1], powers[k - 1], out=powers[k])
    blocks = (C @ powers.reshape(q + 1, -1)).reshape((-1,) + A.shape)
    P = blocks[-1]
    for B in blocks[-2::-1]:
        P = B + powers[q] @ P
    squares = []
    for _ in range(s):
        squares.append(P)
        P = P @ P
    return P, squares


def propagate(L: np.ndarray, dt: float) -> np.ndarray:
    """Propagator M = exp(dt L).  Preserves the identity row exactly."""
    A = dt * np.asarray(L, dtype=float)
    return _taylor(A, *_taylor_plan(A))[0]


def propagate_with_cache(L: np.ndarray, dt: float):
    """Like propagate, but returns the intermediates for reverse mode."""
    A = dt * np.asarray(L, dtype=float)
    m, s = _taylor_plan(A)
    M, squares = _taylor(A, m, s)
    return M, _ExpmCache(A=A, terms=_TAYLOR_COEFFICIENTS[:m + 1], squares=squares)


def propagate_backward(cache: _ExpmCache, M_bar: np.ndarray, dt: float) -> np.ndarray:
    """Adjoint of propagate: dLoss/dL from dLoss/dM.

    dt times the top-right block of the forward polynomial, same degree and
    scaling, evaluated on [[A^T, M_bar], [0, A^T]]; exact for the forward
    truncation.
    """
    n = cache.A.shape[0]
    Z = np.zeros((2 * n, 2 * n))
    Z[:n, :n] = Z[n:, n:] = cache.A.T
    Z[:n, n:] = M_bar
    F, _ = _taylor(Z, len(cache.terms) - 1, len(cache.squares))
    return dt * F[:n, n:]


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


# generator eigenvalues of smaller modulus count as zero
_ZERO_TOL = 1e-10


def stationary_state(L: np.ndarray) -> SpectralInfo:
    """Eigen-analysis of the generator: stationary vector, gap, timescale.

    Eigenvalues with modulus below _ZERO_TOL count as stationary; the gap is
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
    non_unique = bool(d2 > 1 and np.abs(w_sorted[1]) < _ZERO_TOL)
    if d2 > 1 and s[-2] < max(_ZERO_TOL, 1e-13 * s[0]):
        non_unique = True
    if abs(vec[-1]) > 1e-12 and not non_unique:
        v_st = vec / vec[-1] / np.sqrt(d)
    else:
        non_unique = True

    nonzero = w[np.abs(w) >= _ZERO_TOL]
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
