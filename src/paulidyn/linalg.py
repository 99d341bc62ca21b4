"""Dense complex matrix primitives: norms, spectra, Hermiticity checks, seeded sampling.

All operators in this package are plain ``numpy`` arrays of shape ``(d, d)``
with complex entries.  Functions here are pure and never mutate their inputs;
dimensions up to a few tens are the intended envelope (everything is dense).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidInputError, NonHermitianError

#: default entrywise tolerance for matrix equality
EQUALITY_TOL = 1e-12
#: default tolerance when deciding whether a matrix counts as Hermitian
HERMITIAN_TOL = 1e-10


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


def dagger(x) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(x).conj().T


def trace_norm(x) -> float:
    """Sum of singular values of ``x`` (equals Tr sqrt(X X^dag))."""
    arr = as_square_matrix(x)
    return float(np.linalg.svd(arr, compute_uv=False).sum())


def frobenius_norm(x) -> float:
    """sqrt(Tr X^dag X)."""
    arr = as_square_matrix(x)
    return float(np.linalg.norm(arr))


def hermiticity_deviation(x) -> float:
    """Largest entrywise deviation of ``x`` from its conjugate transpose."""
    arr = as_square_matrix(x)
    return float(np.abs(arr - arr.conj().T).max())


@dataclass(frozen=True)
class HermitianCheckResult:
    is_hermitian: bool
    max_deviation: float


def hermitian_check(x, tol: float = HERMITIAN_TOL) -> HermitianCheckResult:
    dev = hermiticity_deviation(x)
    return HermitianCheckResult(is_hermitian=dev <= tol, max_deviation=dev)


def min_eigenvalue_hermitian(x, tol: float = HERMITIAN_TOL) -> float:
    """Smallest eigenvalue of a Hermitian matrix.

    Raises :class:`NonHermitianError` if ``x`` deviates from Hermiticity by
    more than ``tol``; the computation symmetrizes first so the result does not
    depend on sub-tolerance noise.
    """
    arr = as_square_matrix(x)
    dev = float(np.abs(arr - arr.conj().T).max())
    if dev > tol:
        raise NonHermitianError(f"matrix is not Hermitian (max deviation {dev:.3e} > {tol:.1e})")
    return float(np.linalg.eigvalsh(0.5 * (arr + arr.conj().T))[0])


def matrices_close(a, b, tol: float = EQUALITY_TOL) -> bool:
    """Entrywise equality within an absolute tolerance."""
    am = as_square_matrix(a)
    bm = as_square_matrix(b, len(am))
    return bool(np.abs(am - bm).max() <= tol)


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


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish unitary from the QR decomposition of a Ginibre matrix."""
    q, r = np.linalg.qr(random_complex_matrix(d, rng))
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


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
