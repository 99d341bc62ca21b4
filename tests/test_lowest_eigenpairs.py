"""The certified warm-started eigensolver of the see-saw, and the see-saw that uses it.

``lowest_eigenpairs(stack, warm)`` keeps a shifted-solve eigenpair only where a Cholesky
factorization proves its value within m = EIG_MARGIN x (mean absolute row sum) of the
least eigenvalue; every other row comes from ``eigh``.  Each test below has rows whose
warm vector passes the residual gate but does not reach the least eigenvalue in one
solve, so it fails when the certificate is dropped.
"""

import numpy as np
import pytest

from paulidyn.dynamics import (SEESAW_SOLVE_DIM, _overlap_form, _seesaw, build_trajectory,
                               intermediate_map)
from paulidyn.linalg import EIG_MARGIN, lowest_eigenpairs, random_hermitian, random_pure_state
from paulidyn.mub import mub_family, spectral_apply
from paulidyn.ratefn import preset_rates

EPS = np.finfo(float).eps


def _margin(stack):
    return EIG_MARGIN * np.abs(stack).sum(axis=-1).mean(axis=-1)


@pytest.fixture
def eigh_rows(monkeypatch):
    """The number of matrices each ``np.linalg.eigh`` call receives while the test runs."""
    calls, eigh = [], np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(len(a) if np.ndim(a) == 3 else 1)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


@pytest.mark.parametrize("d", [11, 13, 31])
def test_lowest_pair_within_the_margin_of_eigh(d, eigh_rows):
    rng = np.random.default_rng(d)
    stack = random_hermitian(d, rng, 16)
    low, vecs = np.linalg.eigh(stack)
    eigh_rows.clear()
    # rows 0-3 warm (the lowest eigenvector, perturbed by 1e-5), 4-7 cold (random),
    # 8-11 the second eigenvector exactly, 12-15 tilted 0.05 rad from the lowest toward it
    noise = 1e-5 * random_pure_state(d, rng, 4)
    warm = np.concatenate((vecs[:4, :, 0] + noise, random_pure_state(d, rng, 4),
                           vecs[8:12, :, 1],
                           np.cos(0.05) * vecs[12:, :, 0] + np.sin(0.05) * vecs[12:, :, 1]))
    warm /= np.linalg.norm(warm, axis=1, keepdims=True)
    value, vec = lowest_eigenpairs(stack, warm)
    m, size = _margin(stack), np.abs(low).max(axis=1)
    spread = low[:, -1] - low[:, 0]
    rounding = 64 * d * EPS * size
    assert np.all(value >= low[:, 0] - rounding)
    assert np.all(value - low[:, 0] <= m + rounding)
    assert np.allclose(np.linalg.norm(vec, axis=1), 1.0, rtol=0, atol=1e-14)
    # ||(R - value) y||^2 <= spread * 2 (value - lambda_min) for a unit y with quotient value
    residual = np.linalg.norm((stack @ vec[:, :, None])[:, :, 0] - value[:, None] * vec, axis=1)
    assert np.all(residual <= np.sqrt(2 * m * spread) + rounding)
    # the warm rows are the solve's: no eigh call sees them
    assert sum(eigh_rows) <= 12


def test_a_warm_vector_orthogonal_to_the_lowest_falls_back_to_eigh(rng):
    d = 13
    stack = random_hermitian(d, rng, 4)
    low, vecs = np.linalg.eigh(stack)
    value, vec = lowest_eigenpairs(stack, vecs[:, :, 1])  # an exact eigenvector, not the lowest
    assert np.array_equal(value, low[:, 0])
    assert np.allclose(np.abs((vec.conj() * vecs[:, :, 0]).sum(axis=1)), 1.0, rtol=0, atol=1e-12)


def test_a_degenerate_least_eigenvalue(rng):
    d = 13
    u = np.linalg.qr(random_hermitian(d, rng) + 1j * random_hermitian(d, rng))[0]
    spectrum = np.concatenate(([-1.0, -1.0], np.linspace(0.5, 3.0, d - 2)))
    matrix = (u * spectrum) @ u.conj().T
    stack = np.stack([0.5 * (matrix + matrix.conj().T)] * 2)
    eigh_low = np.linalg.eigh(stack)[0][:, 0]
    # orthogonal to the whole lowest eigenspace: the solve stays at 0.5 and eigh takes over
    value, _ = lowest_eigenpairs(stack, np.stack([u[:, 2], u[:, 3]]))
    assert np.array_equal(value, eigh_low)
    # inside the eigenspace: certified, to within the margin
    inside = np.stack([u[:, 0], (u[:, 0] + u[:, 1]) / np.sqrt(2)])
    value, vec = lowest_eigenpairs(stack, inside)
    assert np.all(np.abs(value - eigh_low) <= _margin(stack) + 64 * d * EPS)
    assert np.allclose(np.linalg.norm(u[:, :2].conj().T @ vec.T, axis=0), 1.0, rtol=0, atol=1e-9)


def test_seesaw_descends_to_within_the_margin_at_d13():
    d = 13
    assert d >= SEESAW_SOLVE_DIM  # the certified solve takes the steps
    family, rng = mub_family(d), np.random.default_rng(13)
    traj = build_trajectory(preset_rates("eternal-general", d=d), t_max=5.0, steps=40)
    nus = np.stack([intermediate_map(traj, i, 40).nus for i in (10, 15, 20, 25, 30, 35)])
    psi, phi = random_pure_state(d, rng, 6), random_pure_state(d, rng, 6)

    def form(psi, phi):
        return 1.0 / d + (nus * _overlap_form(family, psi, phi)).sum(axis=1)

    def image(v):  # Phi_nu(v v^dag) per row
        return spectral_apply(family, nus, v[:, :, None] * v[:, None, :].conj())

    # The tolerance m: a half-step lands within EIG_MARGIN x (mean absolute row sum of its
    # matrix) of the least value it can reach, and that row sum is at most the Frobenius
    # norm of Phi_nu(psi psi^dag), which is at most max(1, max|nu|) (Phi_nu scales each Weyl
    # coefficient of the unit-norm psi psi^dag by 1 or by some nu_a).  So a step, two
    # halves, raises the value by 2m at most; with eigh it could not rise at all.
    m = EIG_MARGIN * np.maximum(1.0, np.abs(nus).max(axis=1))
    value = form(psi, phi)
    for _ in range(40):
        least_phi = np.linalg.eigvalsh(image(psi))[:, 0]
        psi_next, phi = _seesaw(family, nus, psi, phi, 1)
        assert np.all(form(psi, phi) <= least_phi + m + 1e-15)
        least_psi = np.linalg.eigvalsh(image(phi))[:, 0]
        psi, previous, value = psi_next, value, form(psi_next, phi)
        assert np.all(value <= least_psi + m + 1e-15)
        assert np.all(value <= previous + 2 * m + 1e-15)
    assert value.min() < -1e-9
