"""Weyl operators, mutually unbiased bases, and the associated dephasing maps.

For prime ``d`` the ``d**2 - 1`` nontrivial Weyl operators split into ``d + 1``
classes of ``d - 1`` mutually commuting unitaries; the common eigenbases of the
classes form a complete family of ``d + 1`` mutually unbiased bases.  Each
basis carries a full-dephasing channel (projector pinching) and a mixing map
built from the powers of one unitary with spectrum ``{omega**l}``.  The
spectral kernel (:func:`axis_blocks`, :func:`spectral_apply`) applies any map
that is diagonal on the d+1 basis axes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    InternalConsistencyError,
    InvalidInputError,
    UnsupportedDimensionError,
)
from .linalg import KrausMap, as_square_matrix, complex_pairs


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class WeylBasis:
    """All ``d**2`` Weyl operators of dimension ``d``.

    ``operators[k, l]`` is the unitary ``X**l Z**k`` built from the cyclic
    shift ``X|m> = |m+1>`` and the clock ``Z|m> = omega**m |m>``.
    """

    dim: int
    operators: np.ndarray  # shape (d, d, d, d), indexed [k, l]
    omega: complex

    def op(self, k: int, l: int) -> np.ndarray:
        """W_{kl} with indices reduced mod d."""
        return self.operators[k % self.dim, l % self.dim]


def _check_dim(d) -> int:
    if not isinstance(d, (int, np.integer)) or d < 2:
        raise DimensionError(f"dimension must be an integer >= 2, got {d!r}")
    return int(d)


def weyl_basis(d: int) -> WeylBasis:
    """Construct every W_{kl} = X^l Z^k for dimension ``d`` >= 2.

    The entries are roots of unity: (W_{kl})[m+l mod d, m] = omega**(k m).
    """
    d = _check_dim(d)
    omega = np.exp(2j * np.pi / d)
    ops = np.zeros((d, d, d, d), dtype=complex)
    m = np.arange(d)
    for k in range(d):
        phases = omega ** ((k * m) % d)
        for l in range(d):
            ops[k, l][(m + l) % d, m] = phases
    ops.setflags(write=False)
    return WeylBasis(dim=d, operators=ops, omega=omega)


def commuting_classes(basis: WeylBasis) -> tuple:
    """Partition the nontrivial Weyl operators into d+1 commuting classes.

    Each class is the orbit {W_{ak mod d, al mod d} : a = 1..d-1} of a seed.
    Seeds are ordered Z, X, XZ, ..., XZ^(d-1), i.e. index pairs
    (1,0), (0,1), (1,1), ..., (d-1,1).  Requires prime ``d``: only then do the
    orbits partition all d^2 - 1 index pairs.

    Returns a tuple of classes; each class is a tuple of (k, l) index pairs.
    """
    d = basis.dim
    if not is_prime(d):
        raise UnsupportedDimensionError(f"commuting classes need prime d, got {d}")
    seeds = [(1, 0)] + [(k, 1) for k in range(d)]
    classes = tuple(
        tuple(((a * k) % d, (a * l) % d) for a in range(1, d)) for (k, l) in seeds
    )
    covered = {pair for cls in classes for pair in cls}
    if len(covered) != d * d - 1:
        raise InternalConsistencyError("Weyl class orbits failed to partition the index set")
    return classes


@dataclass(frozen=True)
class MubFamily:
    """A complete family of d+1 mutually unbiased bases for prime d.

    ``bases[a, l]`` is the l-th unit vector of basis ``alpha = a + 1``;
    ``unitaries[a]`` is U_alpha = sum_l omega**l |psi_l><psi_l|, a unitary with
    spectrum exactly {omega**l}.  Basis alpha=1 is the eigenbasis of Z (the
    computational basis), followed by the eigenbases of X, XZ, ..., XZ^(d-1).
    """

    dim: int
    bases: np.ndarray      # (d+1, d, d): [basis, vector, component]
    unitaries: np.ndarray  # (d+1, d, d)
    omega: complex

    @property
    def n_bases(self) -> int:
        return self.dim + 1

    def _check_alpha(self, alpha: int) -> int:
        if not 1 <= alpha <= self.dim + 1:
            raise InvalidInputError(f"basis index must be in 1..{self.dim + 1}, got {alpha}")
        return alpha - 1

    def basis_vectors(self, alpha: int) -> np.ndarray:
        return self.bases[self._check_alpha(alpha)]

    def projector(self, alpha: int, l: int) -> np.ndarray:
        v = self.bases[self._check_alpha(alpha)][l]
        return np.outer(v, v.conj())

    def unitary(self, alpha: int) -> np.ndarray:
        return self.unitaries[self._check_alpha(alpha)]

    def to_json_dict(self) -> dict:
        """JSON form: complex amplitudes as [re, im] pairs (schema in README)."""
        return {"dim": self.dim, "bases": complex_pairs(self.bases)}


def mub_family(d: int) -> MubFamily:
    """The complete MUB family for prime ``d``, in closed form (Ivanovic 1981;
    Wootters & Fields 1989).

    Basis 1 is the computational basis, with U_1 = Z.  Vector l of basis k+2
    (k = 0..d-1) has amplitudes c_m = zeta_k**(-m) omega**(k m(m-1)/2 - l m) / sqrt(d),
    the eigenvector of X Z^k at zeta_k omega**l, where zeta_k = 1 for odd d and
    i**k for d = 2.  So c_0 is real positive, the vectors come in
    eigenvalue-phase order, and U_{k+2} = X Z^k / zeta_k has spectrum exactly
    {omega**l}.  Non-prime ``d`` raises :class:`UnsupportedDimensionError`
    (the prime-power field construction is not implemented here).
    """
    d = _check_dim(d)
    if not is_prime(d):
        raise UnsupportedDimensionError(
            f"d={d} is not prime; the complete MUB construction needs prime d")
    omega, r = np.exp(2j * np.pi / d), np.arange(d)
    # the powers weyl_basis uses, made exactly conjugate-symmetric: omega^-r = conj(omega^r)
    roots = np.where(2 * r > d, np.conj(omega ** (d - r)), omega ** r)
    zeta = np.array([1.0, 1j]) if d == 2 else np.ones(d)
    k, l, m = np.ogrid[:d, :d, :d]
    bases = np.empty((d + 1, d, d), dtype=complex)
    bases[0] = np.eye(d)
    bases[1:] = zeta[k] ** -m * roots[(k * m * (m - 1) // 2 - l * m) % d] / np.sqrt(d)
    # the entries of Z = W_{1,0} and X Z^k = W_{k,1}, as weyl_basis builds them
    z, xz = np.zeros((d, d), dtype=complex), np.zeros((d, d, d), dtype=complex)
    z[r, r] = omega ** r
    xz[:, (r + 1) % d, r] = omega ** ((r[:, None] * r) % d)
    unitaries = np.concatenate((z[None], xz / zeta[:, None, None]))
    bases.setflags(write=False)
    unitaries.setflags(write=False)
    return MubFamily(dim=d, bases=bases, unitaries=unitaries, omega=omega)


# ---------------------------------------------------------------------------
# Dephasing and mixing maps attached to one basis
# ---------------------------------------------------------------------------


def decoherence_channel(family: MubFamily, alpha: int) -> KrausMap:
    """Full dephasing in basis ``alpha``: rho -> sum_l P_l rho P_l."""
    projs = tuple(family.projector(alpha, l) for l in range(family.dim))
    return KrausMap(dim=family.dim, operators=projs)


def unitary_mixing_map(family: MubFamily, alpha: int) -> KrausMap:
    """The map rho -> sum_{k=1}^{d-1} U_alpha^k rho U_alpha^(k dag).

    Identically equal to d*(dephasing in basis alpha) - identity.
    """
    return KrausMap(dim=family.dim, operators=tuple(unitary_powers(family.unitary(alpha))))


def unitary_powers(u: np.ndarray) -> list:
    """U, U^2, ..., U^(d-1) of a d x d unitary, by repeated right multiplication from I."""
    powers, acc = [], np.eye(len(u), dtype=complex)
    for _ in range(len(u) - 1):
        acc = acc @ u
        powers.append(acc)
    return powers


def dephase_all(family: MubFamily, rho) -> np.ndarray:
    """Apply every basis dephasing at once; returns shape (d+1, d, d)."""
    arr = as_square_matrix(rho, family.dim)
    return axis_blocks(family, arr) + np.trace(arr) / family.dim * np.eye(family.dim)


# ---------------------------------------------------------------------------
# The spectral kernel: every generalized Pauli action is diagonal on the axes
# ---------------------------------------------------------------------------


def axis_blocks(family: MubFamily, x: np.ndarray) -> np.ndarray:
    """Components B_alpha(x) = dephase_alpha(x) - x0*I of x on the d+1 basis axes.

    ``x`` has shape (..., d, d); the result has shape (..., d+1, d, d) and
    x = x0*I + sum_alpha B_alpha(x) with x0 = Tr(x)/d.  Each dephasing is a
    change of basis, a diagonal extraction and the reverse rebuild, batched
    over the bases.  No validation: callers check their inputs.
    """
    bases = family.bases
    x0 = np.trace(x, axis1=-2, axis2=-1) / family.dim
    rotated = bases.conj() @ x[..., None, :, :]  # rows <b_al| x
    diag = (rotated * bases).sum(axis=-1)
    blocks = (np.swapaxes(bases, -1, -2) * diag[..., None, :]) @ bases.conj()
    r = np.arange(family.dim)
    blocks[..., r, r] -= x0[..., None, None]
    return blocks


def spectral_apply(family: MubFamily, eig: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The Pauli-diagonal map x -> x0*I + sum_alpha eig_alpha * B_alpha(x).

    ``eig`` holds the d+1 axis eigenvalues, shape (d+1,) or (P, d+1);
    ``x`` has shape (..., d, d).  The result has shape x-stack + eig-stack +
    (d, d): one GEMM over the axes per operator.  No validation.
    """
    d = family.dim
    eig = np.asarray(eig)
    blocks = axis_blocks(family, x)
    stack = blocks.shape[:-3]
    out = (eig @ blocks.reshape(stack + (d + 1, d * d))).reshape(stack + eig.shape[:-1] + (d, d))
    x0 = np.trace(x, axis1=-2, axis2=-1) / d
    r = np.arange(d)
    out[..., r, r] += x0.reshape(stack + (1,) * (eig.ndim - 1) + (1,))
    return out


def unbiasedness_arrays(family: MubFamily) -> tuple:
    """All cross-basis squared overlaps |<psi_k|phi_l>|^2 of basis alpha < beta, as five
    (R,) columns alpha, beta, k, l (int64) and the overlaps, in (alpha, beta, k, l) order."""
    d = family.dim
    a, b = np.triu_indices(family.n_bases, 1)
    overlaps = np.einsum("akm,blm->abkl", family.bases.conj(), family.bases)[a, b]
    k, l = np.divmod(np.arange(d * d, dtype=np.int64), d)
    return (np.repeat(a + 1, d * d), np.repeat(b + 1, d * d), np.tile(k, a.size),
            np.tile(l, a.size), (np.abs(overlaps) ** 2).reshape(-1))


def unbiasedness_table(family: MubFamily) -> list:
    """All cross-basis squared overlaps, as (alpha, beta, k, l, |<psi|phi>|^2) rows."""
    return list(zip(*(column.tolist() for column in unbiasedness_arrays(family))))
