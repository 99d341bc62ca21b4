"""Weyl operators, mutually unbiased bases, and the associated dephasing maps.

For prime ``d`` the ``d**2 - 1`` nontrivial Weyl operators split into ``d + 1``
classes of ``d - 1`` mutually commuting unitaries; the common eigenbases of the
classes form a complete family of ``d + 1`` mutually unbiased bases.  Each
basis carries a full-dephasing channel (projector pinching) and a mixing map
built from the powers of one unitary with spectrum ``{omega**l}``.  Any map
diagonal on the d+1 basis axes scales each Weyl coefficient of its input by
the eigenvalue of its class: :func:`spectral_apply` is that one rule, the
table of :func:`class_table` times :func:`weyl_coefficients`, and every map
here acts through it (a basis dephasing is the table of a unit row).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionError, InvalidInputError, UnsupportedDimensionError
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
    """The d+1 commuting classes of the nontrivial Weyl operators, read from
    :attr:`MubFamily.weyl_classes`: in basis order (seeds Z, X, XZ, ..., XZ^(d-1)),
    each a tuple of (k, l) index pairs in row-major order.  Requires prime ``d``."""
    table = mub_family(basis.dim).weyl_classes
    return tuple(tuple(zip(*(i.tolist() for i in np.nonzero(table == alpha))))
                 for alpha in range(1, basis.dim + 2))


@dataclass(frozen=True)
class MubFamily:
    """A complete family of d+1 mutually unbiased bases for prime d.

    ``bases[a, l]`` is the l-th unit vector of basis ``alpha = a + 1``;
    ``unitaries[a]`` is U_alpha = sum_l omega**l |psi_l><psi_l|, a unitary with
    spectrum exactly {omega**l}.  Basis alpha=1 is the eigenbasis of Z (the
    computational basis), followed by the eigenbases of X, XZ, ..., XZ^(d-1).
    ``weyl_classes[k, l]`` is the basis alpha whose class holds W_kl, 0 for W_00.
    """

    dim: int
    bases: np.ndarray      # (d+1, d, d): [basis, vector, component]
    unitaries: np.ndarray  # (d+1, d, d)
    weyl_classes: np.ndarray  # (d, d) int

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
    # W_k0 = Z^k is in class 1, W_kl a power of X Z^(k/l) (Bandyopadhyay et al. 2002)
    inverse = np.array([0] + [pow(a, -1, d) for a in range(1, d)])
    classes = np.where(r == 0, np.where(r[:, None] == 0, 0, 1), (r[:, None] * inverse) % d + 2)
    for arr in (bases, unitaries, classes):
        arr.setflags(write=False)
    return MubFamily(dim=d, bases=bases, unitaries=unitaries, weyl_classes=classes)


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
    return spectral_apply(family, np.eye(family.n_bases), as_square_matrix(rho, family.dim))


# ---------------------------------------------------------------------------
# The kernel: every generalized Pauli action is diagonal on the Weyl coefficients
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _wrapped_diagonals(d: int) -> tuple:
    """The read-only index pair ((m + l) % d, m) that puts x[m+l, m] at [m, l]."""
    m = np.arange(d)[:, None]
    rows = (m + m.T) % d
    for arr in (rows, m):
        arr.setflags(write=False)
    return rows, m


def weyl_coefficients(x: np.ndarray) -> np.ndarray:
    """c[..., k, l] = Tr(W_kl^dag x) = sum_m x[m+l, m] omega^(-k m) of x (..., d, d):
    one FFT over m of each wrapped diagonal l.  So x = sum_kl c[k, l] W_kl / d."""
    return np.fft.fft(x[(..., *_wrapped_diagonals(x.shape[-1]))], axis=-2)


def from_weyl_coefficients(c: np.ndarray) -> np.ndarray:
    """sum_kl c[..., k, l] W_kl / d, the inverse of :func:`weyl_coefficients`."""
    x = np.empty(c.shape, dtype=complex)
    x[(..., *_wrapped_diagonals(c.shape[-1]))] = np.fft.ifft(c, axis=-2)
    return x


def class_table(family: MubFamily, eig) -> np.ndarray:
    """The axis eigenvalues ``eig`` (..., d+1) spread over the Weyl coefficients by class:
    (..., d, d), entry [k, l] the eigenvalue of W_kl's class and 1 on W_00."""
    eig = np.asarray(eig)
    return np.concatenate((np.ones(eig.shape[:-1] + (1,)), eig), axis=-1)[..., family.weyl_classes]


def class_sums(family: MubFamily, values: np.ndarray) -> np.ndarray:
    """Sums of ``values`` (..., d, d) over the [k, l] of each class: (..., d+2), slot 0 W_00."""
    onehot = np.eye(family.n_bases + 1)[family.weyl_classes.reshape(-1)]
    return values.reshape(values.shape[:-2] + (-1,)) @ onehot


def spectral_apply(family: MubFamily, eig, x: np.ndarray) -> np.ndarray:
    """The Pauli-diagonal map with axis eigenvalues ``eig`` (..., d+1) on ``x`` (..., d, d):
    each Weyl coefficient of x scaled by its entry of :func:`class_table`.  The leading
    axes of the two broadcast, so P rows on one operator give (P, d, d).  No validation.
    """
    return from_weyl_coefficients(class_table(family, eig) * weyl_coefficients(x))


def cross_overlaps(family: MubFamily):
    """Yield (alpha, beta, |<psi_k|phi_l>|^2 as a (d, d) [k, l] array) for each basis pair
    alpha < beta (1-based), in order, so a reader holds one pair at a time."""
    bases = family.bases
    for a in range(family.n_bases):
        for b in range(a + 1, family.n_bases):
            yield a + 1, b + 1, np.abs(np.einsum("km,lm->kl", bases[a].conj(), bases[b])) ** 2


def unbiasedness_table(family: MubFamily) -> list:
    """All cross-basis squared overlaps, as (alpha, beta, k, l, |<psi|phi>|^2) rows."""
    d = family.dim
    return [(a, b, k, l, value) for a, b, overlap in cross_overlaps(family)
            for (k, l), value in zip(np.ndindex(d, d), overlap.ravel().tolist())]
