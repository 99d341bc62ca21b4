"""Static generalized Pauli channels and Weyl channels.

A generalized Pauli channel is the mixture p0 * id + sum_alpha p_alpha / (d-1)
of the basis mixing maps of a complete MUB family.  It is diagonal on the
unitary operator basis {U_alpha^k}: each basis axis is scaled by a real
eigenvalue lambda_alpha, with lambda_0 = 1 on the identity component.  The two
coordinate systems (probabilities p, eigenvalues lambda) are linear images of
each other and are kept synchronized on every channel object.

Complete positivity is decided two independent ways: the eigenvalue
inequalities (lower/upper bounds on sum lambda) and positive semidefiniteness
of the Choi matrix.  Objects with negative quasi-probabilities are legal here;
they arise as intermediate maps of non-Markovian evolutions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidInputError
from .linalg import as_square_matrix, min_eigenvalue_hermitian
from .mub import (MubFamily, WeylBasis, commuting_classes, mub_family, spectral_apply,
                  unitary_powers, weyl_basis)

#: slack used for the stored CP flag (absorbs float noise at the CP boundary)
CP_FLAG_TOL = 1e-12
#: a Choi matrix counts as positive semidefinite above this eigenvalue floor
CHOI_PSD_TOL = 1e-10
#: channels must be trace-normalized to this accuracy
_PROB_SUM_TOL = 1e-9


# ---------------------------------------------------------------------------
# Probability <-> eigenvalue coordinates (pure arithmetic)
# ---------------------------------------------------------------------------


def _as_vector(x, length: int, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.shape != (length,):
        raise InvalidInputError(f"{name} must have length {length}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} has non-finite entries")
    return arr


def eigenvalues_from_probabilities(p) -> np.ndarray:
    """Map (p0, ..., p_{d+1}) to (lambda_1, ..., lambda_{d+1}).

    lambda_alpha = p0 + p_alpha - (sum of the other p_beta, beta >= 1) / (d-1).
    """
    arr = np.asarray(p, dtype=float)
    d = arr.shape[0] - 2
    if d < 2:
        raise InvalidInputError(f"probability vector needs length >= 4, got {arr.shape[0]}")
    arr = _as_vector(arr, d + 2, "probabilities")
    rest = arr[1:].sum() - arr[1:]
    return arr[0] + arr[1:] - rest / (d - 1)


def probabilities_from_eigenvalues(lam) -> np.ndarray:
    """Inverse map: (lambda_1, ..., lambda_{d+1}) to (p0, ..., p_{d+1})."""
    arr = np.asarray(lam, dtype=float)
    d = arr.shape[0] - 1
    if d < 2:
        raise InvalidInputError(f"eigenvalue vector needs length >= 3, got {arr.shape[0]}")
    arr = _as_vector(arr, d + 1, "eigenvalues")
    total = arr.sum()
    p = np.empty(d + 2)
    p[0] = (1.0 + (d - 1) * total) / d**2
    p[1:] = (d - 1) / d**2 * (1.0 + d * arr - total)
    return p


@dataclass(frozen=True)
class CpCheck:
    """Outcome of the eigenvalue CP test: margins to the two spectral bounds.

    ``lower_margin`` = sum(lambda) + 1/(d-1); ``upper_margin`` =
    1 + d*min(lambda) - sum(lambda).  The map is CP iff both are >= 0;
    ``margin`` is the smaller of the two (negative = distance past the
    violated bound).
    """

    is_cp: bool
    margin: float
    lower_margin: float
    upper_margin: float


def cp_margins(lam) -> tuple:
    """The two eigenvalue CP bounds (lower, upper) for eigenvalues stacked on axis 0.

    ``lam`` has shape (d+1, ...); each margin has the trailing shape.
    """
    lam = np.asarray(lam, dtype=float)
    d = lam.shape[0] - 1
    total = lam.sum(axis=0)
    return total + 1.0 / (d - 1), 1.0 + d * lam.min(axis=0) - total


def cp_check_from_eigenvalues(lam, tol: float = CP_FLAG_TOL) -> CpCheck:
    lower, upper = (float(m) for m in cp_margins(lam))
    margin = min(lower, upper)
    return CpCheck(is_cp=margin >= -tol, margin=margin, lower_margin=lower, upper_margin=upper)


# ---------------------------------------------------------------------------
# Channel objects
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenPauliChannel:
    """Immutable generalized Pauli channel (possibly non-CP) over a MUB family.

    ``probabilities`` has length d+2 (p0 first); ``eigenvalues`` has length
    d+2 with the exact unital eigenvalue 1.0 in slot 0.
    """

    family: MubFamily
    probabilities: np.ndarray
    eigenvalues: np.ndarray

    @property
    def dim(self) -> int:
        return self.family.dim

    @property
    def lambdas(self) -> np.ndarray:
        """The d+1 nontrivial eigenvalues (lambda_1 ... lambda_{d+1})."""
        return self.eigenvalues[1:]

    @property
    def is_cp(self) -> bool:
        return cp_check_from_eigenvalues(self.lambdas, tol=CP_FLAG_TOL).is_cp

    def __call__(self, rho) -> np.ndarray:
        return apply(self, rho)

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "probabilities": [float(x) for x in self.probabilities],
            "eigenvalues": [float(x) for x in self.eigenvalues],
            "cp_flag": bool(self.is_cp),
        }


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def channel_from_probabilities(family: MubFamily, p) -> GenPauliChannel:
    """Channel from a (quasi-)probability vector of length d+2.

    Entries may be negative, but must sum to 1 (trace normalization; this is
    what pins lambda_0 = 1).
    """
    d = family.dim
    arr = _as_vector(p, d + 2, "probabilities")
    if abs(arr.sum() - 1.0) > _PROB_SUM_TOL:
        raise InvalidInputError(f"probabilities must sum to 1, got {arr.sum()!r}")
    lam = eigenvalues_from_probabilities(arr)
    eig = np.concatenate(([1.0], lam))
    return GenPauliChannel(family, _freeze(arr.copy()), _freeze(eig))


def channel_from_eigenvalues(family: MubFamily, lam) -> GenPauliChannel:
    """Channel from the d+1 nontrivial eigenvalues (lambda_1 ... lambda_{d+1})."""
    d = family.dim
    arr = _as_vector(lam, d + 1, "eigenvalues")
    p = probabilities_from_eigenvalues(arr)
    eig = np.concatenate(([1.0], arr))
    return GenPauliChannel(family, _freeze(p), _freeze(eig.copy()))


def is_cp_fujiwara(ch: GenPauliChannel, tol: float = CP_FLAG_TOL) -> CpCheck:
    """Eigenvalue-inequality CP test with signed margins.

    ``tol`` only cushions the boolean against float noise at the boundary;
    the margins themselves are reported unshifted.
    """
    return cp_check_from_eigenvalues(ch.lambdas, tol=tol)


def apply(ch: GenPauliChannel, rho) -> np.ndarray:
    """Act on a d x d operator.  Linear, trace-preserving, unital for any real p."""
    return spectral_apply(ch.family, ch.lambdas, as_square_matrix(rho, ch.dim))


def kraus_operators(ch: GenPauliChannel) -> tuple:
    """Kraus form sqrt(p0)*I, sqrt(p_alpha/(d-1))*U_alpha^k.  CP channels only."""
    if np.any(ch.probabilities < -CP_FLAG_TOL):
        raise InvalidInputError("Kraus form requires nonnegative probabilities")
    d = ch.dim
    p = np.clip(ch.probabilities, 0.0, None)
    ops = [np.sqrt(p[0]) * np.eye(d, dtype=complex)]
    for a in range(d + 1):
        w = np.sqrt(p[a + 1] / (d - 1))
        ops += [w * power for power in unitary_powers(ch.family.unitaries[a])]
    return tuple(ops)


# ---------------------------------------------------------------------------
# Choi matrix (the independent CP oracle)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChoiMatrix:
    """(id x Lambda) applied to the maximally entangled state; CP iff PSD."""

    dim: int
    matrix: np.ndarray  # (d*d, d*d), Hermitian for Hermiticity-preserving maps

    def min_eigenvalue(self, hermitian_tol: float = 1e-10) -> float:
        return min_eigenvalue_hermitian(self.matrix, tol=hermitian_tol)

    def is_positive(self, tol: float = CHOI_PSD_TOL) -> bool:
        return self.min_eigenvalue() >= -tol


def choi_matrix(channel_like, dim: int | None = None) -> ChoiMatrix:
    """Choi matrix of any linear map given as a callable on d x d arrays.

    The map is probed on all matrix units, so this is oblivious to how the
    channel is represented (Kraus list, spectral form, closure, ...).
    """
    if dim is None:
        dim = getattr(channel_like, "dim", None)
        if dim is None:
            raise InvalidInputError("dim is required when the map does not carry one")
    d = int(dim)
    c = np.zeros((d * d, d * d), dtype=complex)
    unit = np.zeros((d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            unit[i, j] = 1.0
            c[i * d : (i + 1) * d, j * d : (j + 1) * d] = channel_like(unit) / d
            unit[i, j] = 0.0
    return ChoiMatrix(dim=d, matrix=_freeze(c))


# ---------------------------------------------------------------------------
# Weyl channels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeylChannel:
    """Mixture of Weyl-operator conjugations with weights p[k, l]; p[0, 0] is
    the identity component."""

    basis: WeylBasis
    probabilities: np.ndarray  # (d, d)

    @property
    def dim(self) -> int:
        return self.basis.dim

    def __call__(self, rho) -> np.ndarray:
        return weyl_channel_apply(self, rho)


def weyl_channel(basis: WeylBasis, p) -> WeylChannel:
    arr = np.asarray(p, dtype=float)
    d = basis.dim
    if arr.shape != (d, d):
        raise InvalidInputError(f"Weyl probabilities must have shape {(d, d)}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("Weyl probabilities have non-finite entries")
    if abs(arr.sum() - 1.0) > _PROB_SUM_TOL:
        raise InvalidInputError(f"Weyl probabilities must sum to 1, got {arr.sum()!r}")
    return WeylChannel(basis, _freeze(arr.copy()))


def weyl_channel_apply(ch: WeylChannel, rho) -> np.ndarray:
    arr = as_square_matrix(rho, ch.dim)
    return np.einsum(
        "kl,klmi,ij,klnj->mn", ch.probabilities, ch.basis.operators, arr,
        ch.basis.operators.conj(),
    )


def weyl_channel_from_pauli(ch: GenPauliChannel, basis: WeylBasis | None = None) -> WeylChannel:
    """Re-express a generalized Pauli channel as a Weyl channel (prime d).

    Each MUB class weight p_alpha spreads uniformly over the d-1 Weyl
    operators of the matching commuting class; the actions coincide because
    U_alpha^k equals the class members up to phases that cancel in rho -> W rho W^dag.
    """
    if basis is None:
        basis = weyl_basis(ch.dim)
    if basis.dim != ch.dim:
        raise DimensionError(f"Weyl basis dimension {basis.dim} != channel dimension {ch.dim}")
    classes = commuting_classes(basis)
    d = ch.dim
    p = np.zeros((d, d))
    p[0, 0] = ch.probabilities[0]
    for a, cls in enumerate(classes):
        for (k, l) in cls:
            p[k, l] = ch.probabilities[a + 1] / (d - 1)
    return WeylChannel(basis, _freeze(p))


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------


def channel_from_json_dict(data: dict, family: MubFamily | None = None) -> GenPauliChannel:
    """Rebuild a channel from its JSON dict; validates the stored eigenvalues."""
    try:
        d = int(data["dim"])
        probs = data["probabilities"]
        eig = data["eigenvalues"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed channel JSON: {exc}") from exc
    if family is None:
        family = mub_family(d)
    elif family.dim != d:
        raise DimensionError(f"family dimension {family.dim} != JSON dimension {d}")
    ch = channel_from_probabilities(family, probs)
    stored = _as_vector(eig, d + 2, "eigenvalues")
    if np.abs(stored - ch.eigenvalues).max() > 1e-12:
        raise InvalidInputError("stored eigenvalues are inconsistent with probabilities")
    return ch
