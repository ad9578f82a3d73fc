"""Exact evolution of small interacting spin chains.

Two chain variants are supported: a ring of N spins whose first two sites
form the observed subsystem (variant "I"), and an open chain with power-law
density-density couplings observed at its central pair (variant "II").  The
full many-body state is evolved unitarily through a one-time dense
eigendecomposition of the chain Hamiltonian; reduced two-spin snapshots are
read off as coherence vectors on a uniform time grid.  The evolved full
state is never formed: each entry (a, b) of the reduced 4x4 state is a
2^N x 2^N weight block contracted against a chunk of phase rows.  The ten
blocks with a <= b are built and contracted with BLAS matrix products one
at a time, and the others are their Hermitian mirrors, so memory stays
O(4^N + chunk * 2^N).

Site 1 is the most significant qubit of the computational basis, so the
basis index of a product state is sum_i bit_i * 2^(N-i).  Basis state |0>
of a site is the sigma_z = +1 (spin up) state, hence the projector
n_i = (1+sigma_z_i)/2 takes value 1 - bit_i on a computational basis state.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .spin_algebra import (build_pauli_basis, ginibre_density_matrix,
                           rho_to_coherence)

DEFAULT_MAX_SITES = 12

class CapacityError(RuntimeError):
    """A requested chain is larger than the configured size cap."""


@dataclass(frozen=True)
class SpinChainModel:
    """Parameters of one spin-chain instance.

    variant "I": ring, subsystem sites (1, 2), bonds weighted V (bath-bath)
    and V_prime (subsystem-subsystem and subsystem-bath).
    variant "II": open chain of even length, subsystem at the central pair,
    all-to-all bonds V / |i-j|^alpha.
    beta is the inverse temperature of the bath's thermal initial state.
    Energies are in units of omega; times in 1/omega.
    """

    variant: str
    n_sites: int
    omega: float
    V: float
    V_prime: float = 0.0
    alpha: float = 0.0
    beta: float = 0.0
    subsystem_sites: tuple = field(default=None)

    def __post_init__(self):
        if self.variant not in ("I", "II"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant == "I":
            if self.n_sites < 4:
                raise ValueError("variant I needs n_sites >= 4")
            sub = (1, 2)
        else:
            if self.n_sites < 4 or self.n_sites % 2:
                raise ValueError("variant II needs even n_sites >= 4")
            sub = (self.n_sites // 2, self.n_sites // 2 + 1)
        if self.subsystem_sites is None:
            object.__setattr__(self, "subsystem_sites", sub)
        elif tuple(self.subsystem_sites) != sub:
            raise ValueError(f"subsystem_sites must be {sub} for variant "
                             f"{self.variant} at n_sites={self.n_sites}")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.beta < 0:
            raise ValueError("beta must be >= 0")


def _bit(x, site, n_sites):
    return (x >> (n_sites - site)) & 1


def _n_val(x, site, n_sites):
    # projector (1+sigma_z)/2 onto spin up, which is basis state |0>
    return 1 - _bit(x, site, n_sites)


def _assemble(n_sites, fields, bonds):
    """Dense real-symmetric Hamiltonian from sigma-x fields and n_i n_j bonds.

    fields: iterable of (site, coeff) adding coeff * sigma^x_site.
    bonds:  iterable of (i, j, coeff) adding coeff * n_i n_j.
    """
    m = 1 << n_sites
    x = np.arange(m)
    diag = np.zeros(m)
    for i, j, c in bonds:
        diag += c * (_n_val(x, i, n_sites) * _n_val(x, j, n_sites))
    H = np.diag(diag)
    for s, c in fields:
        H[x, x ^ (1 << (n_sites - s))] += c
    return H


def _model_terms(model):
    """(fields, bonds) lists defining the chain Hamiltonian."""
    N = model.n_sites
    fields = [(s, model.omega / 2.0) for s in range(1, N + 1)]
    if model.variant == "I":
        bonds = [(i, i + 1, model.V) for i in range(3, N)]
        bonds += [(N, 1, model.V_prime), (1, 2, model.V_prime),
                  (2, 3, model.V_prime)]
    else:
        bonds = [(i, j, model.V / abs(i - j) ** model.alpha)
                 for i in range(1, N + 1) for j in range(i + 1, N + 1)]
    return fields, bonds


def model_hamiltonian(model):
    """Dense chain Hamiltonian of a SpinChainModel (real symmetric)."""
    return _assemble(model.n_sites, *_model_terms(model))


def bath_sites(model):
    """Bath site labels in increasing order."""
    return [s for s in range(1, model.n_sites + 1)
            if s not in model.subsystem_sites]


def build_bath_hamiltonian(model):
    """Chain Hamiltonian with every term touching the subsystem removed,
    assembled on the bath factor (bath sites relabeled in increasing order)."""
    bsites = bath_sites(model)
    pos = {s: k + 1 for k, s in enumerate(bsites)}
    fields, bonds = _model_terms(model)
    bf = [(pos[s], c) for s, c in fields if s in pos]
    bb = [(pos[i], pos[j], c) for i, j, c in bonds if i in pos and j in pos]
    return _assemble(len(bsites), bf, bb)


def bath_thermal_state(model):
    """rho_B proportional to exp(-beta H_bath), trace one."""
    Hb = build_bath_hamiltonian(model)
    w, U = np.linalg.eigh(Hb)
    g = np.exp(-model.beta * (w - w.min()))  # shift avoids overflow
    rho = (U * g) @ U.T / g.sum()
    return rho.astype(complex)


def random_initial_subsystem_state(rng):
    """Ginibre-random 4x4 density matrix for the two-spin subsystem."""
    while True:
        rho = ginibre_density_matrix(4, rng)
        if np.isfinite(rho).all():
            return rho


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


@dataclass
class Trajectory:
    """Reduced-subsystem snapshots on the uniform grid t = 0, dt, ..., n*dt."""
    model: SpinChainModel
    dt: float
    snapshots: np.ndarray  # (n_steps+1, d^2) real coherence vectors
    seed: int = None

    @property
    def n_steps(self):
        return self.snapshots.shape[0] - 1

    def times(self):
        return self.dt * np.arange(self.snapshots.shape[0])


# complex elements per phase chunk: the chunk's rows times m stays near this,
# so the phase arrays take O(chunk * m) memory beside the O(m^2) blocks
_PHASE_CHUNK_ELEMS = 500_000


@lru_cache(maxsize=4)
def _chain_eigensystem(model):
    """Cached (eigenvalues, subsystem-resolved eigenvectors, real bath state)."""
    n = model.n_sites
    w, U = np.linalg.eigh(model_hamiltonian(model))
    sa, sb = model.subsystem_sites
    m = 1 << n
    R = np.moveaxis(U.reshape((2,) * n + (m,)), [sa - 1, sb - 1], [0, 1])
    R = np.ascontiguousarray(R.reshape(4, m // 4, m))
    return w, R, np.ascontiguousarray(bath_thermal_state(model).real)


def evolve_and_reduce(model, rho_s0, dt, n_steps, seed=None,
                      max_sites=DEFAULT_MAX_SITES):
    """Evolve rho_s0 (x) rho_B under the chain Hamiltonian; return the
    subsystem Trajectory with n_steps+1 snapshots including t=0.

    The propagation is exact.  With H = U diag(w) U^T diagonalized once and
    U split into the four subsystem row blocks R_a (m/4 x m, real), the
    initial state in the eigenbasis is rt0 = sum_ab rho_s0[a,b] R_a^T rho_B
    R_b, built from real matrix products.  Block (a, b) of the reduced state
    at time t = k dt is

        rho_ab(t) = sum_pq P[k,p] ((R_a^T R_b) o rt0)[p,q] conj(P[k,q]),

    with phases P[k,p] = exp(-i w_p t).  Only the ten blocks with a <= b are
    computed, each as one real product R_a^T R_b and one complex product
    with a chunk of phase rows; the blocks with b < a are their Hermitian
    mirror.  Memory is O(m^2 + chunk * m) for m = 2^N: one m x m block at
    a time, never the full (4, 4, m, m) tensor.
    """
    if model.n_sites > max_sites:
        raise CapacityError(
            f"n_sites={model.n_sites} exceeds the configured maximum "
            f"{max_sites}; a 2^{model.n_sites} dense eigenproblem was refused")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    rho_s0 = np.asarray(rho_s0, dtype=complex)
    if rho_s0.shape != (4, 4):
        raise ValueError(f"rho_s0 must be 4x4, got {rho_s0.shape}")
    if np.abs(rho_s0 - rho_s0.conj().T).max() > 1e-9:
        raise ValueError("rho_s0 is not Hermitian")
    w, R, rho_b = _chain_eigensystem(model)
    m = w.size
    # R's row ordering is (subsystem bits, bath bits ascending), which is
    # exactly the kron layout of rho_s0 (x) rho_b: no site permutation needed.
    U = R.reshape(m, m)
    Q = (rho_b @ R).reshape(4, -1)
    rt0 = np.empty((m, m), dtype=complex)
    rt0.real = U.T @ (rho_s0.real @ Q).reshape(m, m)
    rt0.imag = U.T @ (rho_s0.imag @ Q).reshape(m, m)
    del Q

    n_snap = n_steps + 1
    out = np.empty((n_snap, 4, 4), dtype=complex)
    gram = np.empty((m, m))
    block = np.empty((m, m), dtype=complex)
    chunk = max(64, _PHASE_CHUNK_ELEMS // m)
    for start in range(0, n_snap, chunk):
        ks = np.arange(start, min(start + chunk, n_snap))
        P = np.exp(-1j * np.outer(ks * dt, w))
        Pc = P.conj()
        for a in range(4):
            for b in range(a, 4):
                np.matmul(R[a].T, R[b], out=gram)
                np.multiply(gram, rt0, out=block)
                val = np.einsum("tp,tp->t", P, Pc @ block.T)
                out[ks, a, b] = val
                if b != a:
                    out[ks, b, a] = val.conj()

    # the mirrored blocks make every off-diagonal pair exactly Hermitian, so
    # the projection's imaginary-part check sees the computed diagonal blocks
    v = rho_to_coherence(out, build_pauli_basis(2))
    return Trajectory(model=model, dt=dt, snapshots=v, seed=seed)


def generate_trajectory(model, dt, n_steps, seed,
                        max_sites=DEFAULT_MAX_SITES):
    """Random-initial-state trajectory with a deterministic seed."""
    rng = np.random.default_rng(seed)
    rho_s0 = random_initial_subsystem_state(rng)
    return evolve_and_reduce(model, rho_s0, dt, n_steps, seed=seed,
                             max_sites=max_sites)


def save_trajectory(path, traj):
    """Key=value header plus CSV snapshot rows at 17 significant digits."""
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
    row_fmt = "%d" + ",%.17g" * ncomp
    lines += [row_fmt % (k, *row)
              for k, row in enumerate(traj.snapshots.tolist())]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_trajectory(path):
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    meta = {}
    body = 0
    for k, ln in enumerate(lines):
        if ln.startswith("step,"):
            body = k + 1
            break
        key, _, val = ln.partition("=")
        meta[key] = val
    else:
        raise ValueError(f"{path}: no snapshot table found")
    convention = build_pauli_basis(2).convention_id
    if meta.get("convention_id") != convention:
        raise ValueError(f"{path}: trajectory uses basis convention "
                         f"{meta.get('convention_id')!r}, expected {convention!r}")
    model = SpinChainModel(
        variant=meta["variant"], n_sites=int(meta["n_sites"]),
        omega=float(meta["omega"]), V=float(meta["V"]),
        V_prime=float(meta["V_prime"]), alpha=float(meta["alpha"]),
        beta=float(meta["beta"]))
    n_steps = int(meta["n_steps"])
    rows = [ln for ln in lines[body:] if ln]
    if len(rows) != n_steps + 1:
        raise ValueError(f"{path}: expected {n_steps + 1} rows, got {len(rows)}")
    snaps = np.ascontiguousarray(
        np.loadtxt(rows, delimiter=",", ndmin=2)[:, 1:])
    seed = int(meta["seed"]) if meta.get("seed") else None
    return Trajectory(model=model, dt=float(meta["dt"]), snapshots=snaps,
                      seed=seed)
