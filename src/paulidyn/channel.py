"""Static generalized Pauli channels.

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

from .errors import InvalidInputError
from .linalg import as_square_matrix, min_eigenvalue_hermitian
from .mub import MubFamily, spectral_apply, unitary_powers

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


@np.errstate(over="ignore", invalid="ignore")  # a non-finite image raises in _as_vector
def eigenvalues_from_probabilities(p) -> np.ndarray:
    """Map (p0, ..., p_{d+1}) to (lambda_1, ..., lambda_{d+1}).

    lambda_alpha = p0 + p_alpha - (sum of the other p_beta, beta >= 1) / (d-1).
    """
    arr = np.asarray(p, dtype=float)
    d = arr.size - 2
    if d < 2:
        raise InvalidInputError(f"probability vector needs length >= 4, got shape {arr.shape}")
    arr = _as_vector(arr, d + 2, "probabilities")
    rest = arr[1:].sum() - arr[1:]
    return _as_vector(arr[0] + arr[1:] - rest / (d - 1), d + 1,
                      "the eigenvalue vector of these probabilities")


@np.errstate(over="ignore", invalid="ignore")
def probabilities_from_eigenvalues(lam) -> np.ndarray:
    """Inverse map: (lambda_1, ..., lambda_{d+1}) to (p0, ..., p_{d+1})."""
    arr = np.asarray(lam, dtype=float)
    d = arr.size - 1
    if d < 2:
        raise InvalidInputError(f"eigenvalue vector needs length >= 3, got shape {arr.shape}")
    arr = _as_vector(arr, d + 1, "eigenvalues")
    total = arr.sum()
    p = np.empty(d + 2)
    p[0] = (1.0 + (d - 1) * total) / d**2
    p[1:] = (d - 1) / d**2 * (1.0 + d * arr - total)
    return _as_vector(p, d + 2, "the probability vector of these eigenvalues")


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


@np.errstate(over="ignore", invalid="ignore")  # margins beyond the double range are not CP
def cp_check_from_eigenvalues(lam) -> CpCheck:
    lower, upper = (float(m) for m in cp_margins(lam))
    margin = float(np.minimum(lower, upper))  # NaN if either is
    return CpCheck(is_cp=bool(-CP_FLAG_TOL <= margin < np.inf), margin=margin, lower_margin=lower,
                   upper_margin=upper)


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
        return cp_check_from_eigenvalues(self.lambdas).is_cp

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


def is_cp_fujiwara(ch: GenPauliChannel) -> CpCheck:
    """Eigenvalue-inequality CP test with signed margins.

    ``CP_FLAG_TOL`` only cushions the boolean against float noise at the
    boundary; the margins themselves are reported unshifted.
    """
    return cp_check_from_eigenvalues(ch.lambdas)


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

    def min_eigenvalue(self) -> float:
        return min_eigenvalue_hermitian(self.matrix)

    def is_positive(self) -> bool:
        return self.min_eigenvalue() >= -CHOI_PSD_TOL


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
