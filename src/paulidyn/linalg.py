"""Dense complex matrix primitives: the trace norm, spectra, Hermiticity checks, seeded sampling.

All operators in this package are plain ``numpy`` arrays of shape ``(d, d)``
with complex entries.  Functions here are pure and never mutate their inputs;
dimensions up to a few tens are the intended envelope (everything is dense).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidInputError, NonHermitianError

#: default tolerance when deciding whether a matrix counts as Hermitian
HERMITIAN_TOL = 1e-10
#: a warm-started lowest eigenvalue is certified to within this much of a matrix's mean
#: absolute row sum (see :func:`lowest_eigenpairs`)
EIG_MARGIN = 1e-10
#: a warm vector whose residual exceeds this much of the row sum goes to ``eigh`` unsolved:
#: in the see-saws of the artifact matrix's d >= 11 cases, 13 of the 392 rows above it
#: would have certified after one solve
WARM_RESIDUAL = 1e-2


def as_square_matrix(x, dim: int | None = None) -> np.ndarray:
    """Validate and return ``x`` as a square complex matrix.

    The one check of every operator input.  Raises :class:`InvalidInputError`
    on non-finite entries and :class:`DimensionError` on anything that is not
    square, or not ``dim`` x ``dim`` when ``dim`` is given.
    """
    arr = np.asarray(x, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {arr.shape}")
    if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
        raise InvalidInputError("matrix has non-finite entries")
    if dim is not None and arr.shape[0] != dim:
        raise DimensionError(f"operator has dimension {arr.shape[0]}, expected {dim}")
    return arr


def complex_pairs(x) -> list:
    """JSON form of a complex array: nested lists with each entry as [re, im]."""
    x = np.asarray(x)
    return np.stack((x.real, x.imag), -1).tolist()


def trace_norm(x) -> float:
    """Sum of singular values of ``x`` (equals Tr sqrt(X X^dag))."""
    arr = as_square_matrix(x)
    return float(np.linalg.svd(arr, compute_uv=False).sum())


@dataclass(frozen=True)
class HermitianCheckResult:
    is_hermitian: bool
    max_deviation: float


def hermitian_check(x, tol: float = HERMITIAN_TOL) -> HermitianCheckResult:
    """Largest entrywise deviation of ``x`` from its conjugate transpose, against ``tol``."""
    arr = as_square_matrix(x)
    dev = float(np.abs(arr - arr.conj().T).max())
    return HermitianCheckResult(is_hermitian=dev <= tol, max_deviation=dev)


def min_eigenvalue_hermitian(x, tol: float = HERMITIAN_TOL) -> float:
    """Smallest eigenvalue of a Hermitian matrix.

    Raises :class:`NonHermitianError` if ``x`` deviates from Hermiticity by
    more than ``tol``; the computation symmetrizes first so the result does not
    depend on sub-tolerance noise.
    """
    arr = as_square_matrix(x)
    check = hermitian_check(arr, tol)
    if not check.is_hermitian:
        raise NonHermitianError(f"matrix is not Hermitian "
                                f"(max deviation {check.max_deviation:.3e} > {tol:.1e})")
    return float(np.linalg.eigvalsh(0.5 * (arr + arr.conj().T))[0])


def lowest_eigenpairs(stack: np.ndarray, warm: np.ndarray | None = None) -> tuple:
    """The lowest eigenvalue and a unit eigenvector of each Hermitian matrix of ``stack``.

    (C, n, n), (C, n) -> (C,), (C, n).  Without ``warm`` both come from
    ``np.linalg.eigh``.  With it, each row takes one step of inverse iteration at
    a Rayleigh-quotient shift (Parlett, *The Symmetric Eigenvalue Problem*, ch. 4):
    from the warm unit vector x, rho = x^dag R x; one solve of
    (R - (rho - m) I) y = x; y normalized, and its quotient rho'.  The row keeps
    (rho', y) only if the Cholesky factorization of R - (rho' - m) I succeeds,
    which it does only on a positive definite matrix: that proves
    rho' - lambda_min < m (up to the factorization's rounding, ~n ulps of
    ||R||), while rho' >= lambda_min holds for any unit vector.  The margin m is
    ``EIG_MARGIN`` times R's mean absolute row sum.  These rows come from ``eigh``
    instead: a row whose certificate fails; every row, when a shifted matrix is
    singular; and, without a solve, a row whose warm residual ||R x - rho x|| is
    above ``WARM_RESIDUAL`` times that row sum.
    """
    if warm is None:
        low, vecs = np.linalg.eigh(stack)
        return low[:, 0], vecs[..., 0]
    value, vec = np.empty(len(stack)), np.empty(warm.shape, np.result_type(stack, warm))
    scale = np.abs(stack).sum(axis=-1).mean(axis=-1)
    rx = (stack @ warm[:, :, None])[:, :, 0]
    rho = (warm.conj() * rx).sum(axis=1).real
    cold = np.linalg.norm(rx - rho[:, None] * warm, axis=1) > WARM_RESIDUAL * scale
    near = np.flatnonzero(~cold)
    if len(near):
        sub, margin = stack[near], EIG_MARGIN * scale[near]
        try:
            y = np.linalg.solve(_shift(sub, rho[near] - margin), warm[near, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            cold[:] = True
        else:
            y /= np.linalg.norm(y, axis=1, keepdims=True)
            value[near] = (y.conj() * (sub @ y[:, :, None])[:, :, 0]).sum(axis=1).real
            vec[near] = y
            cold[near] = ~_positive_definite(_shift(sub, value[near] - margin))
    if cold.any():
        low, vecs = np.linalg.eigh(stack[cold])
        value[cold], vec[cold] = low[:, 0], vecs[..., 0]
    return value, vec


def _shift(stack: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """A copy of the stack with sigma[r] taken off the diagonal of matrix r."""
    out = stack.copy()
    diag = np.arange(stack.shape[-1])
    out[:, diag, diag] -= sigma[:, None]
    return out


def _positive_definite(stack: np.ndarray) -> np.ndarray:
    """Whether ``np.linalg.cholesky`` factors each matrix of the stack: one stacked call,
    and, only if it fails, one call per matrix to find which do."""
    try:
        np.linalg.cholesky(stack)
        return np.ones(len(stack), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    ok = np.zeros(len(stack), dtype=bool)
    for r, matrix in enumerate(stack):
        try:
            np.linalg.cholesky(matrix)
            ok[r] = True
        except np.linalg.LinAlgError:
            pass
    return ok


@dataclass(frozen=True)
class KrausMap:
    """A map rho -> sum_i K_i rho K_i^dag given by an explicit operator list."""

    dim: int
    operators: tuple

    def __call__(self, rho) -> np.ndarray:
        arr = as_square_matrix(rho, self.dim)
        out = np.zeros_like(arr)
        for k in self.operators:
            out += k @ arr @ k.conj().T
        return out


# ---------------------------------------------------------------------------
# Seeded random generation (property tests, witness searches)
# With a count ``n`` (numpy's ``size``), a sampler returns n draws from one
# standard_normal call, bit for bit the n single calls: real block, then imaginary.
# ---------------------------------------------------------------------------


def random_complex_matrix(d: int, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Ginibre matrix: i.i.d. standard complex Gaussian entries."""
    g = rng.standard_normal((2, d, d) if n is None else (n, 2, d, d))
    return g[..., 0, :, :] + 1j * g[..., 1, :, :]


def random_hermitian(d: int, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    g = random_complex_matrix(d, rng, n)
    return 0.5 * (g + np.conj(np.swapaxes(g, -1, -2)))


def random_pure_state(d: int, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    g = rng.standard_normal((2, d) if n is None else (n, 2, d))
    v = g[..., 0, :] + 1j * g[..., 1, :]
    # per row, the two dot products np.linalg.norm takes of a complex vector,
    # on the same strided real and imaginary views, so the norm is bit-identical
    re, im = v.real[..., None, :], v.imag[..., None, :]
    sq = re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2)
    return v / np.sqrt(sq[..., 0])


def random_density_matrix(d: int, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    g = random_complex_matrix(d, rng, n)
    rho = g @ np.conj(np.swapaxes(g, -1, -2))
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]
