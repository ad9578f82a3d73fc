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

from .files import write_csv
from .spin_algebra import (build_pauli_basis, ginibre_density_matrix,
                           rho_to_coherence)

# the largest chain simulated: at 12 sites the eigenvectors U and their
# subsystem split R take 128 MB each, and each further site quadruples them
MAX_SITES = 12


class CapacityError(RuntimeError):
    """A requested chain has more than MAX_SITES sites."""


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
    subsystem_sites: tuple = field(init=False)

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
        object.__setattr__(self, "subsystem_sites", sub)
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


def restricted_hamiltonian(model, sites):
    """Chain Hamiltonian keeping only the terms that lie wholly on `sites`,
    assembled on those sites relabeled 1, 2, ... in the order given."""
    pos = {s: k + 1 for k, s in enumerate(sites)}
    fields, bonds = _model_terms(model)
    return _assemble(len(pos), [(pos[s], c) for s, c in fields if s in pos],
                     [(pos[i], pos[j], c) for i, j, c in bonds
                      if i in pos and j in pos])


def build_bath_hamiltonian(model):
    """Chain Hamiltonian with every term touching the subsystem removed,
    assembled on the bath factor (bath sites relabeled in increasing order)."""
    return restricted_hamiltonian(model, bath_sites(model))


def bath_thermal_state(model):
    """rho_B proportional to exp(-beta H_bath), trace one; real, as
    H_bath is."""
    Hb = build_bath_hamiltonian(model)
    w, U = np.linalg.eigh(Hb)
    g = np.exp(-model.beta * (w - w.min()))  # shift avoids overflow
    return (U * g) @ U.T / g.sum()


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
# so the phase arrays take O(chunk * m) memory beside the O(m^2) blocks; at
# m <= 2^MAX_SITES a chunk holds at least 122 rows
_PHASE_CHUNK_ELEMS = 500_000


@lru_cache(maxsize=1)
def _chain_eigensystem(model):
    """(eigenvalues, subsystem-resolved eigenvectors, real bath state),
    kept for the last chain asked for only: a 12-site chain's takes about
    140 MB, and a small chain is rebuilt in milliseconds.  A chain above
    MAX_SITES is refused with CapacityError before any matrix is built."""
    _check_capacity(model)
    n = model.n_sites
    w, U = np.linalg.eigh(model_hamiltonian(model))
    sa, sb = model.subsystem_sites
    m = 1 << n
    R = np.moveaxis(U.reshape((2,) * n + (m,)), [sa - 1, sb - 1], [0, 1])
    R = np.ascontiguousarray(R.reshape(4, m // 4, m))
    return w, R, bath_thermal_state(model)


def _check_capacity(model):
    if model.n_sites > MAX_SITES:
        raise CapacityError(
            f"n_sites={model.n_sites} exceeds the maximum {MAX_SITES}; "
            f"a 2^{model.n_sites} dense eigenproblem was refused")


def _initial_state(model, rho_s0):
    """The chain's cached eigensystem (w, R) and rt0, the state
    rho_s0 (x) rho_B in its eigenbasis; refuses a rho_s0 that is not a
    Hermitian 4x4 matrix.

    With H = U diag(w) U^T and U split into the four subsystem row blocks
    R_a (m/4 x m, real), rt0 = sum_ab rho_s0[a,b] R_a^T rho_B R_b, built
    from real matrix products.
    """
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
    return w, R, rt0


def evolve_and_reduce(model, rho_s0, dt, n_steps, seed=None):
    """Evolve rho_s0 (x) rho_B under the chain Hamiltonian; return the
    subsystem Trajectory with n_steps+1 snapshots including t=0.

    The propagation is exact.  With the initial state rt0 in the
    eigenbasis of H = U diag(w) U^T (see _initial_state), block (a, b) of
    the reduced state at time t = k dt is

        rho_ab(t) = sum_pq P[k,p] ((R_a^T R_b) o rt0)[p,q] conj(P[k,q]),

    with phases P[k,p] = exp(-i w_p t).  Only the ten blocks with a <= b are
    computed, each as one real product R_a^T R_b and one complex product
    with a chunk of phase rows; the blocks with b < a are their Hermitian
    mirror.  Memory is O(m^2 + chunk * m) for m = 2^N: one m x m block at
    a time, never the full (4, 4, m, m) tensor.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    w, R, rt0 = _initial_state(model, rho_s0)
    m = w.size

    n_snap = n_steps + 1
    out = np.empty((n_snap, 4, 4), dtype=complex)
    gram = np.empty((m, m))
    block = np.empty((m, m), dtype=complex)
    chunk = _PHASE_CHUNK_ELEMS // m
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


def _seeded_initial_state(seed):
    """The Ginibre-random 4x4 subsystem state of a seed."""
    return ginibre_density_matrix(4, np.random.default_rng(seed))


def generate_trajectory(model, dt, n_steps, seed):
    """Random-initial-state trajectory with a deterministic seed."""
    return evolve_and_reduce(model, _seeded_initial_state(seed), dt, n_steps,
                             seed=seed)


def _trapezoid_kernel(w, dt, k_lo, k_hi):
    """K[p,q], the trapezoid mean over k = k_lo..k_hi of exp(-i W k dt)
    for W = w_p - w_q.

    With theta = W dt, the sum of exp(-i theta k) less half its two end
    terms, over n = k_hi - k_lo steps, is

        exp(-i theta (k_lo + n/2)) sin(n theta/2) / tan(theta/2),

    and K is that over n.  theta is first reduced to [-pi, pi], which
    leaves every term as it is, so K is 1 where theta is a multiple of 2 pi
    and smooth around it.
    """
    n = k_hi - k_lo
    half = np.subtract.outer(w, w) * (dt / 2)  # theta / 2
    half -= np.pi * np.round(half / np.pi)
    tan = np.tan(half)
    K = np.divide(np.sin(n * half), n * tan, out=np.ones_like(half),
                  where=tan != 0)
    return K * np.exp(-1j * (2 * k_lo + n) * half)


def window_means(model, dt, k_lo, k_hi, seeds):
    """Trapezoid mean over steps k_lo..k_hi of each trajectory
    generate_trajectory(model, dt, k_hi, seed) would give, in closed form:
    one coherence vector per seed, without a snapshot simulated.

    Each snapshot is linear in the phases exp(-i (w_p - w_q) k dt), so the
    mean of block (a, b) of the reduced state is

        sum_pq (R_a^T R_b)[p,q] (rt0 o K)[p,q] = tr(R_a G R_b^T),

    with G = rt0 o K for the trapezoid kernel K (_trapezoid_kernel).  All
    sixteen blocks come from the one product R G, so an initial condition
    costs O(m^3) at any window length.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if not 0 <= k_lo < k_hi:
        raise ValueError(f"need 0 <= k_lo < k_hi, got {k_lo}, {k_hi}")
    w, R, _ = _chain_eigensystem(model)
    K = _trapezoid_kernel(w, dt, k_lo, k_hi)
    U, Rt = R.reshape(w.size, w.size), R.reshape(4, -1).T
    out = np.empty((len(seeds), 4, 4), dtype=complex)
    for i, seed in enumerate(seeds):
        _, _, G = _initial_state(model, _seeded_initial_state(seed))
        G *= K
        out[i].real = (U @ G.real).reshape(4, -1) @ Rt
        out[i].imag = (U @ G.imag).reshape(4, -1) @ Rt
    return rho_to_coherence(out, build_pauli_basis(2))


def save_trajectory(path, traj):
    """Key=value header plus CSV snapshot rows at 17 significant digits."""
    m = traj.model
    head = [
        f"variant={m.variant}",
        f"n_sites={m.n_sites}",
        f"omega={m.omega:.17g}",
        f"V={m.V:.17g}",
        f"V_prime={m.V_prime:.17g}",
        f"alpha={m.alpha:.17g}",
        f"beta={m.beta:.17g}",
        f"dt={traj.dt:.17g}",
        f"n_steps={traj.n_steps}",
        f"seed={'' if traj.seed is None else traj.seed}",
        f"convention_id={build_pauli_basis(2).convention_id}",
    ]
    cols = ["step"] + [f"v_{k}" for k in range(1, traj.snapshots.shape[1] + 1)]
    write_csv(path, cols, [(k, *row) for k, row in
                           enumerate(traj.snapshots.tolist())], head=head)


def _is_row(text, width):
    """Whether the line `text` is one snapshot row of `width` numbers."""
    try:
        return np.loadtxt([text], delimiter=",", ndmin=2).shape == (1, width)
    except ValueError:
        return False


def load_trajectory(path):
    """Read a save_trajectory file; one without its snapshot table, of another
    basis convention, with a header key missing or unparsed, of a chain
    SpinChainModel refuses, or with a row that is not one number per column
    is refused with ValueError naming the file (and the line of a bad row)."""
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

    def header(key, kind=float):
        try:
            return kind(meta[key])
        except (KeyError, ValueError):
            raise ValueError(f"{path}: header {key}= must hold a "
                             f"{kind.__name__}, got {meta.get(key)!r}") from None

    chain = {k: header(k) for k in ("omega", "V", "V_prime", "alpha", "beta")}
    chain.update(variant=header("variant", str), n_sites=header("n_sites", int))
    try:
        model = SpinChainModel(**chain)
    except ValueError as exc:  # a chain SpinChainModel refuses
        raise ValueError(f"{path}: {exc}") from None
    n_steps = header("n_steps", int)
    rows = [ln for ln in lines[body:] if ln]
    if len(rows) != n_steps + 1:
        raise ValueError(f"{path}: expected {n_steps + 1} rows, got {len(rows)}")
    width = len(lines[body - 1].split(","))
    try:
        table = np.loadtxt(rows, delimiter=",", ndmin=2)
    except ValueError:
        table = None
    if table is None or table.shape[1] != width:
        # numpy counts rows from the table, so find the line in the file
        line = next(k for k, ln in enumerate(lines[body:], body + 1)
                    if ln and not _is_row(ln, width))
        raise ValueError(f"{path}: line {line} must hold {width} numbers, "
                         f"got {lines[line - 1]!r:.80}") from None
    snaps = np.ascontiguousarray(table[:, 1:])
    seed = header("seed", int) if meta.get("seed") else None
    return Trajectory(model=model, dt=header("dt"), snapshots=snaps,
                      seed=seed)
