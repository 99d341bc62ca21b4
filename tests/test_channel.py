import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulidyn.channel import (
    channel_from_eigenvalues,
    channel_from_probabilities,
    choi_matrix,
    cp_check_from_eigenvalues,
    eigenvalues_from_probabilities,
    is_cp_fujiwara,
    kraus_operators,
    probabilities_from_eigenvalues,
)
from paulidyn.errors import DimensionError, InvalidInputError
from paulidyn.linalg import random_density_matrix, random_hermitian
from paulidyn.mub import from_weyl_coefficients, weyl_basis, weyl_coefficients
from tests.helpers import matrices_close


class TestConversions:
    def test_identity_channel(self, family3):
        ch = channel_from_probabilities(family3, [1, 0, 0, 0, 0])
        assert np.allclose(ch.lambdas, 1.0, atol=1e-14)

    def test_uniform_is_depolarizing_d2(self, family2):
        ch = channel_from_probabilities(family2, [0.25] * 4)
        assert np.allclose(ch.lambdas, 0.0, atol=1e-14)

    def test_single_basis_weight_d3(self, family3):
        ch = channel_from_probabilities(family3, [0, 1, 0, 0, 0])
        assert np.allclose(ch.lambdas, [1.0, -0.5, -0.5, -0.5], atol=1e-14)

    def test_zero_eigenvalues(self, family3):
        ch = channel_from_eigenvalues(family3, [0, 0, 0, 0])
        assert ch.probabilities[0] == pytest.approx(1 / 9, abs=1e-14)
        assert np.allclose(ch.probabilities[1:], 2 / 9, atol=1e-14)

    def test_unit_eigenvalues(self, family2):
        ch = channel_from_eigenvalues(family2, [1, 1, 1])
        assert np.allclose(ch.probabilities, [1, 0, 0, 0], atol=1e-14)

    def test_single_unitary_d2(self, family2):
        ch = channel_from_eigenvalues(family2, [1, -1, -1])
        assert np.allclose(ch.probabilities, [0, 1, 0, 0], atol=1e-14)

    def test_lambda_zero_slot_is_exactly_one(self, family2):
        ch = channel_from_eigenvalues(family2, [0.3, -0.2, 0.1])
        assert ch.eigenvalues[0] == 1.0

    @given(st.lists(st.floats(-1.5, 1.5), min_size=3, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_lambda_p_lambda(self, lam):
        lam = np.asarray(lam)
        p = probabilities_from_eigenvalues(lam)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        back = eigenvalues_from_probabilities(p)
        assert np.abs(back - lam).max() <= 1e-12

    def test_roundtrip_p_lambda_p(self, rng):
        for d in (2, 3, 5):
            for _ in range(100):
                p = rng.uniform(-0.5, 1.0, d + 2)
                p = p / p.sum() if abs(p.sum()) > 0.2 else np.abs(p) / np.abs(p).sum()
                lam = eigenvalues_from_probabilities(p)
                back = probabilities_from_eigenvalues(lam)
                assert np.abs(back - p).max() <= 1e-12

    def test_length_validation(self, family3):
        with pytest.raises(InvalidInputError):
            channel_from_probabilities(family3, [1, 0, 0])
        with pytest.raises(InvalidInputError):
            channel_from_eigenvalues(family3, [1, 0])
        with pytest.raises(InvalidInputError):
            channel_from_probabilities(family3, [np.nan, 1, 0, 0, 0])

    def test_trace_normalization_required(self, family2):
        with pytest.raises(InvalidInputError):
            channel_from_probabilities(family2, [1, 1, 0, 0])

    @pytest.mark.parametrize("convert", [eigenvalues_from_probabilities,
                                         probabilities_from_eigenvalues])
    @pytest.mark.parametrize("bad", [5.0, [[1.0, 0.0, 0.0, 0.0]]], ids=["scalar", "matrix"])
    def test_conversions_need_a_vector(self, convert, bad):
        with pytest.raises(InvalidInputError):
            convert(bad)

    def test_overflowing_coordinates_are_rejected(self, family2):
        with pytest.raises(InvalidInputError, match="of these .* has non-finite entries"):
            probabilities_from_eigenvalues([1e308] * 3)
        with pytest.raises(InvalidInputError, match="of these .* has non-finite entries"):
            eigenvalues_from_probabilities([1e308, -1e308, 1.0, 0.0])
        with pytest.raises(InvalidInputError, match="of these .* has non-finite entries"):
            channel_from_eigenvalues(family2, [1e308] * 3)
        with pytest.raises(InvalidInputError, match="of these .* has non-finite entries"):
            channel_from_probabilities(family2, [1e308, -1e308, 1.0, 0.0])


class TestFujiwara:
    @pytest.mark.parametrize("lam", [[1e308] * 3, [1e308, 1e308, -1e308]])
    def test_non_finite_margin_is_never_cp(self, lam):
        check = cp_check_from_eigenvalues(lam)
        assert not check.is_cp
        assert not math.isfinite(check.margin)

    def test_violating_qubit_channel(self, family2):
        check = is_cp_fujiwara(channel_from_eigenvalues(family2, [1, 1, -1]))
        assert not check.is_cp
        assert check.upper_margin == pytest.approx(-2.0, abs=1e-14)

    def test_identity_has_slack(self, family2):
        check = is_cp_fujiwara(channel_from_eigenvalues(family2, [1, 1, 1]))
        assert check.is_cp
        assert check.lower_margin > 0 and check.upper_margin >= 0

    def test_boundary_case(self, family2):
        check = is_cp_fujiwara(channel_from_eigenvalues(family2, [1, -1, -1]))
        assert check.margin == pytest.approx(0.0, abs=1e-14)
        ch = channel_from_eigenvalues(family2, [1, -1, -1])
        assert ch.is_cp  # boundary flagged CP within the flag tolerance

    def test_matches_fujiwara_algoet_form_d2(self, rng):
        # |1 +/- l3| >= |l1 +/- l2| is a rewriting of the sum bounds
        for _ in range(500):
            lam = rng.uniform(-1.5, 1.5, 3)
            fa = (abs(1 + lam[2]) >= abs(lam[0] + lam[1]) - 1e-14) and (
                abs(1 - lam[2]) >= abs(lam[0] - lam[1]) - 1e-14
            )
            # under permutation symmetry the third axis is arbitrary; apply
            # the same pairing to all three axis choices
            fa_all = True
            for k in range(3):
                l3 = lam[k]
                l1, l2 = lam[[i for i in range(3) if i != k]]
                fa_all &= (abs(1 + l3) >= abs(l1 + l2) - 1e-14) and (
                    abs(1 - l3) >= abs(l1 - l2) - 1e-14
                )
            check = cp_check_from_eigenvalues(lam)
            if abs(check.margin) < 1e-12:
                continue
            assert fa_all == check.is_cp


class TestChoi:
    def test_identity_channel_choi(self, family2):
        ch = channel_from_eigenvalues(family2, [1, 1, 1])
        c = choi_matrix(ch)
        eigs = np.linalg.eigvalsh(c.matrix)
        assert eigs[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.abs(eigs[:-1]).max() <= 1e-12

    def test_depolarizing_choi(self, family3):
        ch = channel_from_eigenvalues(family3, [0, 0, 0, 0])
        c = choi_matrix(ch)
        assert np.abs(c.matrix - np.eye(9) / 9).max() <= 1e-13

    def test_eternal_map_at_t1_is_cp(self, family2):
        lam = [(1 + math.exp(-2)) / 2, (1 + math.exp(-2)) / 2, math.exp(-2)]
        ch = channel_from_eigenvalues(family2, lam)
        assert choi_matrix(ch).is_positive()
        assert is_cp_fujiwara(ch).is_cp

    def test_partial_trace_over_output(self, family3, rng):
        lam = rng.uniform(0.2, 0.9, 4)
        ch = channel_from_eigenvalues(family3, lam)
        c = choi_matrix(ch).matrix.reshape(3, 3, 3, 3)
        tr_out = np.einsum("ikjk->ij", c)
        assert np.abs(tr_out - np.eye(3) / 3).max() <= 1e-12

    def test_requires_dimension_for_bare_callable(self):
        with pytest.raises(InvalidInputError):
            choi_matrix(lambda rho: rho)
        c = choi_matrix(lambda rho: rho, dim=2)
        assert c.dim == 2

    @pytest.mark.parametrize("d", [2, 3])
    def test_agrees_with_fujiwara_on_random_spectra(self, d, rng):
        from paulidyn.mub import mub_family

        family = mub_family(d)
        disagreements = 0
        tested = 0
        for _ in range(300):
            lam = rng.uniform(-1.2, 1.2, d + 1)
            ch = channel_from_eigenvalues(family, lam)
            check = is_cp_fujiwara(ch)
            if abs(check.margin) < 1e-8:
                continue
            tested += 1
            if check.is_cp != choi_matrix(ch).is_positive():
                disagreements += 1
        assert tested > 200
        assert disagreements == 0


class TestApply:
    def test_identity(self, family3, rng):
        ch = channel_from_eigenvalues(family3, [1, 1, 1, 1])
        rho = random_density_matrix(3, rng)
        assert matrices_close(ch(rho), rho)

    def test_depolarizing(self, family3, rng):
        ch = channel_from_eigenvalues(family3, [0, 0, 0, 0])
        rho = random_density_matrix(3, rng)
        assert matrices_close(ch(rho), np.eye(3) / 3)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_eigen_action_dual_path(self, d, rng):
        # spectral prediction lambda_a * U_a^k vs the quasi-probability
        # weighted dephasing route used by apply()
        from paulidyn.mub import mub_family

        family = mub_family(d)
        for _ in range(20):
            p = rng.random(d + 2)
            p /= p.sum()
            ch = channel_from_probabilities(family, p)
            for a in range(1, d + 2):
                u = family.unitary(a)
                power = u.copy()
                for _ in range(d - 1):
                    assert np.abs(ch(power) - ch.lambdas[a - 1] * power).max() <= 1e-12
                    power = power @ u

    def test_kraus_route_agrees(self, family3, rng):
        p = rng.random(5)
        p /= p.sum()
        ch = channel_from_probabilities(family3, p)
        ops = kraus_operators(ch)
        total = sum(k.conj().T @ k for k in ops)
        assert matrices_close(total, np.eye(3), tol=1e-12)
        rho = random_density_matrix(3, rng)
        via_kraus = sum(k @ rho @ k.conj().T for k in ops)
        assert matrices_close(via_kraus, ch(rho), tol=1e-12)

    def test_kraus_rejects_negative_probabilities(self, family2):
        ch = channel_from_eigenvalues(family2, [1, 1, -1])
        with pytest.raises(InvalidInputError):
            kraus_operators(ch)

    def test_linear_trace_hermiticity_preserving_with_negative_p(self, family3, rng):
        # non-CP objects still act linearly, preserve trace and Hermiticity
        p = np.array([0.8, 0.5, -0.4, 0.05, 0.05])
        ch = channel_from_probabilities(family3, p)
        x = random_hermitian(3, rng)
        y = random_hermitian(3, rng)
        out = ch(2.0 * x + 0.5j * y)
        assert matrices_close(out, 2.0 * ch(x) + 0.5j * ch(y), tol=1e-12)
        hx = ch(x)
        assert np.abs(hx - hx.conj().T).max() <= 1e-12
        assert np.trace(hx) == pytest.approx(np.trace(x).real, abs=1e-12)
        assert matrices_close(ch(np.eye(3)), np.eye(3))  # unital

    def test_dimension_mismatch(self, family3):
        ch = channel_from_eigenvalues(family3, [1, 1, 1, 1])
        with pytest.raises(DimensionError):
            ch(np.eye(2))


def conjugation_sum(basis, p, rho):
    """sum_kl p[k, l] W_kl rho W_kl^dag over the d^4 Weyl table: the O(d^6) reference."""
    ops = basis.operators
    return np.einsum("kl,klmi,ij,klnj->mn", p, ops, rho, ops.conj())


def weyl_channel_apply(p, rho):
    """The Weyl channel of weights p[k, l] through the Weyl-coefficient kernel: conjugation by
    W_k'l' scales the coefficient [k, l] of rho by omega^(k'l - l'k), so the channel scales it
    by mu[k, l] = sum p[k', l'] omega^(k'l - l'k) = fft2(p)[-l, k]."""
    mu = np.fft.fft2(p)[-np.arange(len(p))].T
    return from_weyl_coefficients(mu * weyl_coefficients(np.asarray(rho, dtype=complex)))


class TestWeylChannel:
    """Weyl-covariant maps, general weights included, are diagonal on the Weyl coefficients."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
    def test_matches_the_conjugation_sum(self, d, rng):
        # quasi-probabilities and non-Hermitian inputs included; d = 4, 6 are not prime
        wb = weyl_basis(d)
        for _ in range(3):
            p = rng.uniform(-0.5, 1.0, (d, d))
            p = p / p.sum()
            rho = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            ref = conjugation_sum(wb, p, rho)
            assert np.abs(weyl_channel_apply(p, rho) - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_uniform_depolarizes(self, rng):
        rho = random_density_matrix(3, rng)
        assert matrices_close(weyl_channel_apply(np.full((3, 3), 1 / 9), rho), np.eye(3) / 3)

    def test_identity_concentration(self, rng):
        p = np.zeros((4, 4))
        p[0, 0] = 1.0
        rho = random_density_matrix(4, rng)
        assert matrices_close(weyl_channel_apply(p, rho), rho)

    def test_pauli_channel_embedding_d3(self, family3, rng):
        # each class weight p_alpha spreads uniformly over the d-1 Weyl operators of its class
        p = rng.random(5)
        p /= p.sum()
        gp = channel_from_probabilities(family3, p)
        weights = np.concatenate((p[:1], p[1:] / 2))[family3.weyl_classes]
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        for _ in range(10):
            rho = random_density_matrix(3, rng)
            assert matrices_close(gp(rho), conjugation_sum(weyl_basis(3), weights, rho),
                                  tol=1e-12)


class TestJson:
    def test_roundtrip(self, family2):
        ch = channel_from_eigenvalues(family2, [0.5, -0.25, 0.1])
        data = ch.to_json_dict()
        assert set(data) == {"dim", "probabilities", "eigenvalues", "cp_flag"}
        back = channel_from_probabilities(family2, data["probabilities"])
        assert np.abs(back.probabilities - ch.probabilities).max() <= 1e-15
        assert back.is_cp == ch.is_cp
