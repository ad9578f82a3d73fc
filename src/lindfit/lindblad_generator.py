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
L_hk = Tr(F_h Gen[F_k]).  Re c is symmetric and Im c antisymmetric, so G
keeps one row per independent coefficient (n + n^2 rows for n = d^2 - 1,
240 for two spins):

    vec L = G^T (omega, Re c_ij for i <= j, Im c_ij for i < j).

The coefficients come from the real factors, Re c = X^T X + Y^T Y and
Im c = X^T Y - (X^T Y)^T.  The gradient with respect to them is
G vec(dLoss/dL), so training and assembly share the same map;
_theta_gradient carries it on through the Kossakowski factors.  Only this
module knows the layout of theta and of the rows of G; the trainer sees
theta as one flat vector.

The propagator exp(dt L) is a truncated Taylor series with scaling and
squaring, p_m(A / 2^s)^(2^s) for A = dt L.  The degree m and the scaling s
are chosen once per call from the 1-norm of A (Al-Mohy & Higham, SIAM J.
Sci. Comput. 33(2), 2011): the smallest m in {2, 4, 6, 9, 12, 16} with
||A||_1 <= theta_m, else m = 16 and the least s with ||A||_1 / 2^s <=
theta_16.  The polynomial is evaluated by Paterson-Stockmeyer.

The adjoint differentiates that evaluation.  The computed function f has
real coefficients, so the adjoint of its Frechet derivative L_f(A, .) is
L_f(A^T, .) (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 30(4), 2009).
The series is evaluated on A^T, giving exp(A)^T, and L_f(A^T, M_bar) is
the derivative of every step of that evaluation in direction M_bar, formed
from the powers and partial sums it kept, with the same m and s, so the
gradients are exact for the function actually computed.

Parameters, assembly, the propagator and its adjoint also take stacks
(leading axes, one entry per cell trained in lockstep).  Each generator of
a stack keeps its own Taylor plan, the stack is evaluated in groups of
equal plan, and every matrix goes through the same products it would take
alone, so its result does not depend on the rest of the stack.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .files import read_json, write_json
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
    through them changes theta.  theta may carry leading axes, one per
    stacked parameter set (shape (C, n + 2n^2) for C cells trained in
    lockstep); omega, X and Y then carry the same leading axes.
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
        """Wrap a flat vector of n + 2n^2 parameters, or a stack of them,
        without copying it."""
        params = cls.__new__(cls)
        params.theta = theta
        return params

    @classmethod
    def random(cls, n: int, scale: float, rng: np.random.Generator) -> "GeneratorParams":
        return cls.from_theta(scale * rng.standard_normal(n + 2 * n * n))

    @property
    def n(self) -> int:
        # theta holds n + 2n^2 entries per parameter set
        return (math.isqrt(8 * self.theta.shape[-1] + 1) - 1) // 4

    @property
    def omega(self) -> np.ndarray:
        return self.theta[..., :self.n]

    @property
    def X(self) -> np.ndarray:
        n = self.n
        return self.theta[..., n:n + n * n].reshape(self.theta.shape[:-1] + (n, n))

    @property
    def Y(self) -> np.ndarray:
        n = self.n
        return self.theta[..., n + n * n:].reshape(self.theta.shape[:-1] + (n, n))


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
    """c = (X - iY)^T (X + iY); Hermitian PSD by construction.

    X and Y may be stacks (..., n, n); c is then one matrix per stack entry.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape != Y.shape or X.ndim < 2 or X.shape[-1] != X.shape[-2]:
        raise ValueError(f"factor shapes {X.shape}, {Y.shape} must be equal and square")
    z = X + 1.0j * Y
    return z.conj().swapaxes(-1, -2) @ z


_TENSOR_CACHE: dict = {}


def precompute_dissipator_tensors(basis: BasisSet) -> np.ndarray:
    """The assembly map G of a basis, once per basis; read-only.

    G has shape (n + n^2, d^4) for n = d^2 - 1: one row per independent
    real coefficient of the generator.  Its rows are the flattened
    projections of rho -> -i[F_k, rho] (coefficient omega_k), then of the
    pair superoperators' real parts for i <= j (coefficient Re c_ij, the
    rows (i, j) and (j, i) added), then of minus their imaginary parts for
    i < j (coefficient Im c_ij, row (j, i) subtracted from row (i, j)), in
    row-major order of (i, j).  Re c is symmetric and Im c antisymmetric,
    so these rows carry all of c, and L = coefficients @ G reshaped to
    d^2 x d^2.  The trace row of L vanishes analytically; its columns of G
    are zeroed exactly, so assembled generators keep the last coherence
    component pinned.  Imaginary leftovers of the Hamiltonian projections
    beyond rounding indicate a broken basis and raise.

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
             - 0.5 * T.transpose(3, 2, 0, 1))[:n, :n].reshape(n, n, -1)
    i, j = np.triu_indices(n)
    off = (i != j)[:, None]
    i1, j1 = np.triu_indices(n, 1)
    G = np.concatenate((h.real.reshape(n, -1),
                        pairs.real[i, j] + np.where(off, pairs.real[j, i], 0.0),
                        pairs.imag[j1, i1] - pairs.imag[i1, j1]))
    G[:, (d2 - 1) * d2:] = 0.0
    G.setflags(write=False)
    _TENSOR_CACHE[key] = G
    return G


@functools.cache
def _layout(size: int):
    """n and the index maps of a parameter vector of n + 2n^2 entries.

    fold picks the folded coefficients out of [omega, vec Re c, vec Im c]:
    omega, then Re c_ij for i <= j, then Im c_ij for i < j, in row-major
    order of (i, j).  spread and weights take them back to two n x n
    matrices, S = U + U^T and A = V - V^T for the upper triangles U of
    Re c and V of Im c: entry k is weights[k] times folded coefficient
    spread[k], with weight 2 on the diagonal of S and 1 off it, and 1
    above, -1 below and 0 on the diagonal of A.
    """
    n = (math.isqrt(8 * size + 1) - 1) // 4
    i, j = np.indices((n, n)).reshape(2, -1)
    upper = np.flatnonzero(i <= j)
    strict = np.flatnonzero(i < j)
    fold = np.concatenate((np.arange(n), n + upper, n + n * n + strict))
    # position of each (i, j) among the folded Re c and Im c coefficients
    re_pos = np.empty(n * n, dtype=np.intp)
    re_pos[upper] = np.arange(upper.size)
    im_pos = np.zeros(n * n, dtype=np.intp)
    im_pos[strict] = upper.size + np.arange(strict.size)
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    spread = n + np.concatenate((re_pos[lo * n + hi], im_pos[lo * n + hi]))
    weights = np.concatenate((np.where(i == j, 2.0, 1.0), np.sign(j - i)))
    return n, fold, spread, weights


def _generator(params: GeneratorParams, tensors: np.ndarray) -> np.ndarray:
    """L from (omega, X, Y) through the assembly map; see assemble_generator.

    The Kossakowski coefficients come from the real factors: with W = [X; Y]
    stacked as theta holds them, Re c = X^T X + Y^T Y = W^T W and
    Im c = X^T Y - (X^T Y)^T.  A stack of parameter sets gives a stack of
    generators, each from the same vector-matrix product a lone set takes.
    """
    theta = params.theta
    lead = theta.shape[:-1]
    n, fold, _, _ = _layout(theta.shape[-1])
    W = theta[..., n:].reshape(lead + (2 * n, n))
    Wt = W.swapaxes(-1, -2)
    xy = Wt[..., :n] @ W[..., n:, :]
    coeffs = np.concatenate((theta[..., :n], (Wt @ W).reshape(lead + (-1,)),
                             (xy - xy.swapaxes(-1, -2)).reshape(lead + (-1,))),
                            axis=-1).take(fold, axis=-1)
    return (coeffs[..., None, :] @ tensors).reshape(lead + (n + 1, n + 1))


# turns [X A, Y A] into [-Y A, X A] once its halves are swapped
_ANTI_SYM = np.array([-1.0, 1.0])[:, None, None]


def _theta_gradient(params: GeneratorParams, tensors: np.ndarray,
                    L_bar: np.ndarray) -> np.ndarray:
    """dLoss/dtheta from dLoss/dL, the adjoint of _generator.

    G vec(L_bar) is the gradient with respect to the folded coefficients.
    Spread over whole matrices it gives the gradients S and A with respect
    to W^T W and X^T Y (see _layout), and the chain rule gives
    X_bar = X S - Y A and Y_bar = Y S + X A.  Stacks map entry by entry, as
    in _generator.
    """
    theta = params.theta
    lead = theta.shape[:-1]
    n, _, spread, weights = _layout(theta.shape[-1])
    g = (tensors @ L_bar.reshape(lead + (-1, 1)))[..., 0]
    SA = (g.take(spread, axis=-1) * weights).reshape(lead + (2, n, n))
    W = theta[..., n:].reshape(lead + (2 * n, n))
    # [[X S, Y S], [X A, Y A]], each block n x n
    T = (W[..., None, :, :] @ SA).reshape(lead + (2, 2, n, n))
    W_bar = T[..., 0, :, :, :] + _ANTI_SYM * T[..., 1, ::-1, :, :]
    return np.concatenate((g[..., :n], W_bar.reshape(lead + (-1,))), axis=-1)


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

    groups lists (indices, m, s) for the matrices that share each Taylor
    plan, largest plan last, and states the intermediates _taylor kept for
    each group.  terms holds the m + 1 Taylor coefficients and squares the
    s matrices that were squared of that largest plan, which is the only
    one unless a stack mixes plans.
    """

    groups: list
    states: list
    terms: np.ndarray
    squares: list


def _one_norms(A: np.ndarray) -> np.ndarray:
    """The 1-norm of A, or of each matrix of a stack (..., d, d)."""
    return np.abs(A).sum(axis=-2).max(axis=-1)


def _taylor_plan(norm: float):
    """Degree m and scaling s for a matrix of 1-norm `norm`."""
    if not math.isfinite(norm):
        raise ValueError("non-finite generator entries")
    for m, theta in zip(_TAYLOR_DEGREES, _TAYLOR_THETA):
        if norm <= theta:
            return m, 0
    return _TAYLOR_DEGREES[-1], math.ceil(math.log2(norm / _TAYLOR_THETA[-1]))


def _plan_groups(A: np.ndarray) -> list:
    """[(indices, m, s)] for the matrices of A, one matrix or a stack
    (C, d, d), that share each Taylor plan, largest plan last.  The indices
    of one matrix, or of consecutive ones, are a slice: it takes and puts
    back a group without the copies a list of indices costs."""
    norms = _one_norms(A)
    if norms.ndim == 0:
        return [(slice(None), *_taylor_plan(float(norms)))]
    groups = {}
    for k, norm in enumerate(norms.tolist()):
        groups.setdefault(_taylor_plan(norm), []).append(k)
    return [(slice(idx[0], idx[-1] + 1) if idx[-1] - idx[0] == len(idx) - 1 else idx,
             m, s) for (m, s), idx in sorted(groups.items())]


@functools.cache
def _identity(d: int) -> np.ndarray:
    eye = np.eye(d)
    eye.setflags(write=False)
    return eye


def _coefficient_blocks(C: np.ndarray, powers: np.ndarray, out: np.ndarray) -> None:
    """out[j] = sum_i C[j, i] powers[i] for powers (q + 1, ..., d, d) and
    out (rows of C, ..., d, d), from one small product per matrix."""
    flat = powers.shape[1:-2] + (-1,)
    np.matmul(C, powers.reshape(powers.shape[:1] + flat).swapaxes(0, -2),
              out=out.reshape(out.shape[:1] + flat).swapaxes(0, -2))


def _taylor(A: np.ndarray, m: int, s: int):
    """p_m(A / 2^s)^(2^s); returns it and the intermediates _taylor_frechet
    reads, (m, s, powers, horner, squares).

    powers[k] holds X^k for X = A / 2^s over room for its derivative, and
    horner[j] the Paterson-Stockmeyer partial sum P_j = B_j + X^q P_{j+1}
    over room for its derivative; squares holds the s matrices that were
    squared.  A may be a stack (C, d, d).  Every matrix of it goes through
    the same products it would take alone, so its result does not depend
    on the others.
    """
    C = _PS_COEFFICIENTS[m]
    r, q = C.shape[0], C.shape[1] - 1
    d = A.shape[-1]
    powers = np.empty((q + 1,) + A.shape[:-2] + (2 * d, d))
    horner = np.empty((r,) + A.shape[:-2] + (2 * d, d))
    Xk, Pj = powers[:, ..., :d, :], horner[:, ..., :d, :]
    Xk[0] = _identity(d)
    np.multiply(A, 0.5 ** s, out=Xk[1])
    for k in range(2, q + 1):
        np.matmul(Xk[1], Xk[k - 1], out=Xk[k])
    _coefficient_blocks(C, Xk, out=Pj)
    for j in range(r - 2, -1, -1):
        P = Pj[j]
        P += Xk[q] @ Pj[j + 1]
    P = Pj[0]
    squares = []
    for _ in range(s):
        squares.append(P)
        P = P @ P
    return P, (m, s, powers, horner, squares)


def _taylor_frechet(state, E: np.ndarray) -> np.ndarray:
    """The derivative of _taylor's result in direction E, from its kept
    intermediates.

    Every step of the forward evaluation is differentiated in turn (D_k of
    X^k, then of P_j, then of each square), so the result is the exact
    Frechet derivative of the function that was computed.  A power
    X^k = X X^(k-1) has derivative [E_s | X] @ [X^(k-1); D_(k-1)], and a
    partial sum B_j + X^q P_(j+1) has dB_j + [D_q | X^q] @ [P_(j+1); dP_(j+1)],
    each one product per matrix with the forward factor and its derivative
    stacked as powers and horner hold them.
    """
    m, s, powers, horner, squares = state
    C = _PS_COEFFICIENTS[m]
    r, q = C.shape[0], C.shape[1] - 1
    d = E.shape[-1]
    Dk, dPj = powers[:, ..., d:, :], horner[:, ..., d:, :]
    np.multiply(E, 0.5 ** s, out=Dk[1])
    step = np.concatenate((Dk[1], powers[1, ..., :d, :]), axis=-1)
    for k in range(2, q + 1):
        np.matmul(step, powers[k - 1], out=Dk[k])
    _coefficient_blocks(C[:, 1:], Dk[1:], out=dPj)
    step = np.concatenate((Dk[q], powers[q, ..., :d, :]), axis=-1)
    for j in range(r - 2, -1, -1):
        dP = dPj[j]
        dP += step @ horner[j + 1]
    dP = dPj[0]
    for S in squares:
        dP = dP @ S + S @ dP
    return dP


def _propagate(A: np.ndarray):
    """exp(A) for A = dt L, one matrix or a stack, each on its own plan:
    returns it, the plan groups and each group's kept intermediates.

    The series is evaluated on A^T, whose result p(A^T) = p(A)^T is kept
    as it is and returned transposed, so that its adjoint runs on the same
    intermediates without a transposition (see propagate_backward).
    """
    groups = _plan_groups(A)
    At = A.swapaxes(-1, -2)
    P = np.empty_like(A)
    states = []
    for idx, m, s in groups:
        P[idx], state = _taylor(At[idx], m, s)
        states.append(state)
    return P.swapaxes(-1, -2), groups, states


def propagate(L: np.ndarray, dt: float) -> np.ndarray:
    """Propagator M = exp(dt L).  Preserves the identity row exactly.

    L may be a stack of generators (C, d, d), with one dt or an array of C
    of them shaped (C, 1, 1); each takes its own Taylor plan, so its
    propagator is the one a lone call gives.
    """
    return _propagate(dt * np.asarray(L, dtype=float))[0]


def propagate_with_cache(L: np.ndarray, dt: float):
    """Like propagate, but returns the intermediates for reverse mode."""
    M, groups, states = _propagate(dt * np.asarray(L, dtype=float))
    m, s, _, _, squares = states[-1]
    return M, _ExpmCache(groups=groups, states=states,
                         terms=_TAYLOR_COEFFICIENTS[:m + 1], squares=squares)


def propagate_backward(cache: _ExpmCache, M_bar: np.ndarray, dt: float) -> np.ndarray:
    """Adjoint of propagate: dLoss/dL from dLoss/dM.

    The computed function f has real coefficients, so the adjoint of its
    Frechet derivative is L_f(A^T, M_bar), the derivative of the forward
    evaluation, which ran on A^T, in direction M_bar.  It is formed from
    that evaluation's own powers and partial sums, with the same degree and
    scaling, and is exact for the forward truncation.  Each matrix of a
    stack keeps its forward plan.
    """
    F = np.empty_like(M_bar)
    for (idx, _, _), state in zip(cache.groups, cache.states):
        F[idx] = _taylor_frechet(state, M_bar[idx])
    return dt * F


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
    write_json(path, payload, indent=1)


def load_model(path):
    """Read a model file; returns (params, basis, dt, payload).

    A file that is not valid JSON or not a JSON object, or whose d is not
    a positive integer, dt not a positive finite number, omega, X and Y
    not finite numbers of the shapes d sets, or convention_id not its
    basis's, is refused with ValueError naming the file.
    """
    payload = read_json(path)
    if payload.get("format") != "lindfit-model-v1":
        raise ValueError(f"unrecognized model file format in {path}")
    d, dt = payload.get("d"), payload.get("dt")
    if type(d) is not int or d < 1:
        raise ValueError(f"{path}: d must be a positive integer, got {d!r}")
    if type(dt) not in (int, float) or not 0 < dt < math.inf:
        raise ValueError(f"{path}: dt must be a positive finite number, got {dt!r}")
    n = d * d - 1
    arrays = {}
    for key, shape in (("omega", (n,)), ("X", (n, n)), ("Y", (n, n))):
        try:
            value = np.array(payload.get(key))
        except ValueError:  # ragged nesting
            value = None
        if (value is None or value.dtype.kind not in "if"
                or value.shape != shape or not np.isfinite(value).all()):
            raise ValueError(f"{path}: {key} must be finite numbers of shape "
                             f"{shape}, got {payload.get(key)!r:.80}")
        arrays[key] = value.astype(float)
    # the shapes, checked first, bound d by the size of the file
    basis = basis_for_dimension(d)
    convention = payload.get("convention_id")
    if convention != basis.convention_id:
        raise ValueError(f"{path}: convention_id must be "
                         f"{basis.convention_id!r}, got {convention!r}")
    return GeneratorParams(**arrays), basis, float(dt), payload
