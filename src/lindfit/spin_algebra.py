"""Hermitian operator bases and coherence-vector maps.

States of a d-dimensional subsystem are represented by real coherence
vectors over an orthonormal Hermitian basis {F_1, ..., F_{d^2}} with
Tr(F_i F_j) = delta_ij and the normalized identity F_{d^2} = 1/sqrt(d)
as the last element.  For qubit registers the basis is built from tensor
products of (sigma_x, sigma_y, sigma_z, 1)/sqrt(2) per site, ordered
lexicographically so the identity-heavy element comes last.

A density matrix rho maps to v_k = Tr(F_k rho); completeness gives back
rho = sum_k v_k F_k.  The last component is pinned to 1/sqrt(d) by trace
normalization and is never evolved independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

# Per-site operator order; identity last so the full identity lands at the end
# of the lexicographic tensor ordering.
_SITE_OPS = (SIGMA_X, SIGMA_Y, SIGMA_Z, IDENTITY_2)
_SITE_LABELS = ("x", "y", "z", "1")


@dataclass(frozen=True)
class BasisSet:
    """Orthonormal Hermitian basis, immutable after construction.

    elements has shape (d^2, d, d); elements[-1] is the normalized identity.
    """

    d: int
    elements: np.ndarray
    convention_id: str
    labels: tuple = field(default=())

    def __post_init__(self):
        self.elements.setflags(write=False)

    @property
    def n(self) -> int:
        """Number of traceless elements."""
        return self.d ** 2 - 1


@cache
def build_pauli_basis(num_spins: int) -> BasisSet:
    """Build the tensor-product Pauli basis for a register of qubits.

    Built once per num_spins; every caller shares the frozen, read-only
    result.

    Parameters
    ----------
    num_spins : int
        Number of qubits; the subsystem dimension is d = 2**num_spins.

    Returns
    -------
    BasisSet
        d^2 matrices, each a tensor product of (x, y, z, 1)/sqrt(2)
        factors in lexicographic order, so Tr(F_i F_j) = delta_ij and
        F_{d^2} = 1/sqrt(d).
    """
    if num_spins < 1:
        raise ValueError(f"need at least one spin, got {num_spins}")
    d = 2 ** num_spins
    elements = []
    labels = []
    # Lexicographic order over per-site indices, site 1 most significant.
    for code in range(4 ** num_spins):
        digits = []
        c = code
        for _ in range(num_spins):
            digits.append(c % 4)
            c //= 4
        digits.reverse()
        op = np.array([[1.0 + 0.0j]])
        for dig in digits:
            op = np.kron(op, _SITE_OPS[dig])
        elements.append(op / np.sqrt(2.0) ** num_spins)
        labels.append("".join(_SITE_LABELS[dig] for dig in digits))
    arr = np.array(elements)
    convention_id = f"pauli-xyz1-lex-idlast-{num_spins}site-v1"
    return BasisSet(d=d, elements=arr, convention_id=convention_id,
                    labels=tuple(labels))


def basis_for_dimension(d: int) -> BasisSet:
    """Rebuild the standard basis from a stored subsystem dimension."""
    num_spins = int(round(np.log2(d)))
    if 2 ** num_spins != d:
        raise ValueError(f"dimension {d} is not a power of two")
    return build_pauli_basis(num_spins)


def rho_to_coherence(rho: np.ndarray, basis: BasisSet) -> np.ndarray:
    """Project density matrices onto the basis: v_k = Tr(F_k rho).

    Accepts a batch (..., d, d).  The result is real for Hermitian input;
    the identity component is pinned to 1/sqrt(d) exactly.
    """
    rho = np.asarray(rho)
    if rho.shape[-2:] != (basis.d, basis.d):
        raise ValueError(f"state shape {rho.shape} does not match basis dimension {basis.d}")
    v = np.einsum("...ij,kji->...k", rho, basis.elements)
    if np.abs(v.imag).max() > 1e-9:
        raise ValueError("coherence vector has a large imaginary part; state is not Hermitian")
    v = v.real.copy()
    v[..., -1] = 1.0 / np.sqrt(basis.d)
    return v


def coherence_to_matrix(v: np.ndarray, basis: BasisSet) -> np.ndarray:
    """Reconstruct rho = sum_k v_k F_k.  Accepts a batch (..., d^2)."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != basis.d ** 2:
        raise ValueError(f"coherence vector length {v.shape[-1]} != {basis.d ** 2}")
    return np.einsum("...k,kij->...ij", v, basis.elements)


def ginibre_density_matrix(d: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density matrix (M + iN)^dag (M + iN) / trace."""
    m = rng.standard_normal((d, d))
    n = rng.standard_normal((d, d))
    g = m + 1.0j * n
    rho = g.conj().T @ g
    return rho / np.trace(rho).real
