import json
import math
import re
import threading
import tracemalloc
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import paulidyn.dynamics as dynamics
from paulidyn.channel import channel_from_eigenvalues, choi_matrix, cp_margins
from paulidyn.dynamics import (
    BLP_ROUNDING_FLOOR,
    NOT_APPLICABLE,
    SCREEN_GRID,
    VIOLATED,
    _CSV_BLOCK_ROWS,
    DivisibilityReport,
    Trajectory,
    _class_eigenvalues,
    _class_response,
    _overlap_form,
    _screen_pairs,
    _seesaw,
    _trace_distances,
    analyze,
    build_trajectory,
    check_blp,
    check_cp_divisible,
    check_cptp_trajectory,
    check_frobenius_monotone,
    check_p_necessary,
    check_p_sufficient,
    check_weyl_sufficient,
    evolve_operator,
    find_p_divisibility_witness,
    intermediate_map,
    trajectory_to_csv,
    weyl_rates_from_trajectory,
)
from paulidyn.errors import (EvaluationError, GridResolutionError, InternalConsistencyError,
                             InvalidInputError, QuadratureError)
from paulidyn.linalg import random_density_matrix, random_hermitian, random_pure_state, trace_norm
from paulidyn.mub import axis_blocks, dephase_all, mub_family, spectral_apply
from paulidyn.ratefn import evaluate, preset_rates, rate_set
from tests.conftest import ALPHA_TO_PAULI, PAULI


def superop_matrix(family, coeffs):
    """(d^2, d^2) matrix of sum_a c_a (dephase_a - id), probed on matrix units."""
    d = family.dim
    out = np.zeros((d * d, d * d), dtype=complex)
    unit = np.zeros((d, d), dtype=complex)
    coeffs = np.asarray(coeffs, dtype=float)
    for i in range(d):
        for j in range(d):
            unit[i, j] = 1.0
            img = np.einsum("a,amn->mn", coeffs, dephase_all(family, unit)) - coeffs.sum() * unit
            out[:, i * d + j] = img.reshape(-1)
            unit[i, j] = 0.0
    return out


class TestBuildTrajectory:
    def test_validation(self):
        rates = preset_rates("eternal-qubit")
        with pytest.raises(InvalidInputError):
            build_trajectory(rates, t_max=0.0)
        with pytest.raises(InvalidInputError):
            build_trajectory(rates, t_max=math.nan)
        with pytest.raises(InvalidInputError):
            build_trajectory(rates, t_max=1.0, steps=1)

    def test_initial_conditions_and_positivity(self):
        traj = build_trajectory(preset_rates("eternal-general", d=3), t_max=4.0, steps=50)
        assert np.all(traj.lambdas[:, 0] == 1.0)
        assert np.all(traj.big_gammas[:, 0] == 0.0)
        assert np.all(traj.lambdas > 0.0)

    def test_constant_rates_give_uniform_decay(self):
        c = 0.7
        rates = preset_rates("semigroup", constants=(c, c, c))
        traj = build_trajectory(rates, t_max=3.0, steps=60)
        expected = np.exp(-2 * c * traj.grid)  # d=2: lambda = exp(-d c t)
        assert np.abs(traj.lambdas - expected).max() <= 1e-12

    def test_frozen_identity_for_zero_rates(self):
        rates = preset_rates("semigroup", constants=(0.0, 0.0, 0.0, 0.0))
        traj = build_trajectory(rates, t_max=2.0, steps=20)
        assert np.all(traj.lambdas == 1.0)

    def test_eternal_qubit_closed_forms(self):
        traj = build_trajectory(preset_rates("eternal-qubit"), t_max=5.0, steps=400)
        t = traj.grid
        lam12 = (1.0 + np.exp(-2.0 * t)) / 2.0
        assert np.abs(traj.lambdas[0] - lam12).max() <= 1e-12
        assert np.abs(traj.lambdas[1] - lam12).max() <= 1e-12
        assert np.abs(traj.lambdas[2] - np.exp(-2.0 * t)).max() <= 1e-12
        assert np.abs(traj.big_gammas[2] + np.log(np.cosh(t))).max() <= 1e-12
        # reference digits at t = 1: (1 + e^-2)/2 and e^-2
        i = 80
        assert traj.grid[i] == pytest.approx(1.0, abs=1e-15)
        assert traj.lambdas[0, i] == pytest.approx(0.5676676416183064, abs=1e-9)
        assert traj.lambdas[1, i] == pytest.approx(0.5676676416183064, abs=1e-9)
        assert traj.lambdas[2, i] == pytest.approx(0.1353352832366127, abs=1e-9)

    def test_quadrature_failure_names_the_rate(self):
        rates = rate_set(2, ["1", "1/(t - 0.5)", "1"])
        with pytest.raises(QuadratureError, match="gamma_2"):
            build_trajectory(rates, t_max=1.000001, steps=4)

    @pytest.mark.parametrize("rates", [
        preset_rates("avg-decoherence", d=5),
        preset_rates("eternal-general", d=7),
        preset_rates("semigroup", constants=(0.5, -0.2, 0.5, -0.2)),
    ], ids=["avg-decoherence", "eternal-general", "semigroup"])
    def test_tied_rates_are_integrated_once(self, rates, monkeypatch):
        from paulidyn.ratefn import running_integral

        sources = []

        def counting(expr, grid, tol):
            sources.append(expr.source)
            return running_integral(expr, grid, tol)

        monkeypatch.setattr("paulidyn.dynamics.running_integral", counting)
        traj = build_trajectory(rates, t_max=5.0, steps=400)
        assert sources == list(dict.fromkeys(expr.source for expr in rates.rates))
        for a, expr in enumerate(rates.rates):  # bit for bit as integrating every rate
            gamma, big = running_integral(expr, traj.grid, 1e-10 / 400)
            assert traj.gammas[a].tobytes() == gamma.tobytes()
            assert traj.big_gammas[a].tobytes() == big.tobytes()

    def test_quadrature_failure_names_the_first_tied_rate(self):
        rates = rate_set(2, ["1", "1/(t - 0.5)", "1/(t - 0.5)"])
        with pytest.raises(QuadratureError, match="gamma_2"):
            build_trajectory(rates, t_max=1.000001, steps=4)

    def test_tolerance_below_rounding_noise_fails_on_a_grid(self):
        # every step keeps splitting; the pass must stop with an error, not run out of memory
        with pytest.raises(QuadratureError, match="gamma_1"):
            build_trajectory(rate_set(2, ["t*t*t*t*t", "1", "1"]), t_max=1.0, steps=400,
                             tol=1e-300)

    @pytest.mark.parametrize(
        "source,t_max,undefined",
        [
            ("ln(2 - t)", 3.0, lambda g: 2 - g <= 0),
            ("1/(t - 1)", 3.0, lambda g: g - 1 == 0),
            ("exp(t*t)", 30.0, lambda g: g * g > math.log(np.finfo(float).max)),
            ("(0-2)^t", 3.0, lambda g: g != np.round(g)),
        ],
    )
    def test_domain_error_names_first_offending_grid_time(self, source, t_max, undefined):
        steps = 30
        grid = np.linspace(0.0, t_max, steps + 1)
        first = float(grid[np.argmax(undefined(grid))])
        assert undefined(grid).any() and first > 0.0
        with pytest.raises(EvaluationError) as err:
            build_trajectory(rate_set(2, ["1", source, "1"]), t_max=t_max, steps=steps)
        assert str(err.value).endswith(f"at t={first!r}")

    def test_overflowing_eigenvalue_names_axis_and_first_grid_time(self):
        # lambda_3 = exp(80 t) overflows once 80 t exceeds ln(max float), near t = 8.87
        grid = np.linspace(0.0, 10.0, 51)
        first = float(grid[np.argmax(80.0 * grid > math.log(np.finfo(float).max))])
        with pytest.raises(EvaluationError) as err:
            build_trajectory(preset_rates("semigroup", constants=(-40, -40, 0)),
                             t_max=10.0, steps=50)
        assert str(err.value) == f"map eigenvalue lambda_3 overflows at t={first!r}"

    def test_overflowing_total_integral_names_first_grid_time(self):
        # each G_a = 2e307 t is finite, their sum G passes 1.8e308 at t = 3
        with pytest.raises(EvaluationError) as err:
            build_trajectory(preset_rates("semigroup", constants=(2e307,) * 3), t_max=5.0)
        assert str(err.value) == "log lambda_1 = G_1 - G leaves the double range at t=3.0"

    def test_overflowing_simpson_sum_names_the_rate(self):
        with pytest.raises(QuadratureError, match="gamma_1 failed: .* overflow the double range"):
            build_trajectory(preset_rates("semigroup", constants=(1e308, 1, 1)), t_max=5.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        with pytest.raises(InvalidInputError, match="tol"):
            build_trajectory(preset_rates("eternal-qubit"), t_max=1.0, steps=4, tol=tol)

    @pytest.mark.parametrize(
        "rates,oracles",
        [
            (preset_rates("eternal-general", d=3),
             [lambda t: 1 + mpmath.tanh(t) / 3] * 2 + [lambda t: -2 * mpmath.tanh(t) / 3] * 2),
            (preset_rates("avg-decoherence", d=5),
             [lambda t: mpmath.mpf(1)] * 5
             + [lambda t: -4 * (mpmath.exp(5 * t) - 1) / (mpmath.exp(5 * t) + 4)]),
            (rate_set(2, ["1", "0.3 + 0.8*tanh(1.7*(t - 2.2))", "0.5"]),
             [lambda t: mpmath.mpf(1), lambda t: 0.3 + 0.8 * mpmath.tanh(1.7 * (t - 2.2)),
              lambda t: mpmath.mpf("0.5")]),
        ],
        ids=["eternal-general-d3", "avg-decoherence-d5", "tanh"],
    )
    def test_running_integrals_match_mpmath(self, rates, oracles):
        tol = 1e-10
        traj = build_trajectory(rates, t_max=5.0, steps=40, tol=tol)
        with mpmath.workdps(30):
            for a, f in enumerate(oracles):
                running, exact = mpmath.mpf(0), [0.0]
                for lo, hi in zip(traj.grid[:-1], traj.grid[1:]):
                    running += mpmath.quad(f, [mpmath.mpf(float(lo)), mpmath.mpf(float(hi))])
                    exact.append(float(running))
                assert np.abs(traj.big_gammas[a] - np.array(exact)).max() <= tol


def generator_apply(rates, family, t, rho):
    """The time-local generator sum_a gamma_a(t) (dephase_a - id) on rho: axis a scaled by
    mu_a = gamma_a - sum(gamma), the identity part annihilated."""
    g = np.array([evaluate(r, t) for r in rates.rates])
    return np.tensordot(g - g.sum(), axis_blocks(family, rho), axes=1)


class TestGenerator:
    def test_annihilates_identity(self, family3):
        rates = preset_rates("avg-decoherence", d=3)
        out = generator_apply(rates, family3, 0.7, np.eye(3))
        assert np.abs(out).max() <= 1e-14

    def test_qubit_sigma_form(self, family2, rng):
        rates = preset_rates("eternal-qubit")
        t = 0.9
        g = [evaluate(r, t) for r in rates.rates]
        rho = random_density_matrix(2, rng)
        sigma_form = sum(
            0.5 * g[a - 1] * (PAULI[ALPHA_TO_PAULI[a]] @ rho @ PAULI[ALPHA_TO_PAULI[a]] - rho)
            for a in (1, 2, 3)
        )
        assert np.abs(generator_apply(rates, family2, t, rho) - sigma_form).max() <= 1e-13

    def test_eigen_action(self, family3):
        rates = preset_rates("eternal-general", d=3)
        t = 1.3
        g = np.array([evaluate(r, t) for r in rates.rates])
        mus = g - g.sum()
        for a in range(1, 5):
            u = family3.unitary(a)
            power = u.copy()
            for _ in range(2):
                out = generator_apply(rates, family3, t, power)
                assert np.abs(out - mus[a - 1] * power).max() <= 1e-12
                power = power @ u

    def test_traceless_hermiticity_preserving(self, family2, rng):
        rates = preset_rates("eternal-qubit")
        x = random_hermitian(2, rng)
        out = generator_apply(rates, family2, 0.4, x)
        assert abs(np.trace(out)) <= 1e-13
        assert np.abs(out - out.conj().T).max() <= 1e-13


class TestSemigroupOracle:
    @pytest.mark.parametrize("d", [2, 3])
    def test_matrix_exponential_agrees(self, d, rng):
        from paulidyn.mub import mub_family

        family = mub_family(d)
        coeffs = rng.uniform(-0.3, 1.0, d + 1)
        rates = preset_rates("semigroup", constants=coeffs)
        traj = build_trajectory(rates, t_max=2.0, steps=40)
        gen = superop_matrix(family, coeffs)
        for idx in (7, 23, 40):
            propagator = expm(traj.grid[idx] * gen)
            ch = channel_from_eigenvalues(family, traj.lambdas[:, idx])
            for _ in range(3):
                rho = random_density_matrix(d, rng)
                via_expm = (propagator @ rho.reshape(-1)).reshape(d, d)
                assert np.abs(via_expm - ch(rho)).max() <= 1e-10


class TestProductForm:
    def test_composition_of_single_axis_maps(self, family3, rng):
        # e^{G_a L_a} = e^{-G_a} id + (1 - e^{-G_a}) dephase_a, composed over a,
        # must equal the spectral-form map; axis maps commute so order is free
        rates = preset_rates("eternal-general", d=3)
        traj = build_trajectory(rates, t_max=4.0, steps=80)
        idx = 61
        g = traj.big_gammas[:, idx]
        ch = channel_from_eigenvalues(family3, traj.lambdas[:, idx])
        for order in (range(4), reversed(range(4))):
            rho = random_density_matrix(3, rng)
            out = rho.copy()
            for a in order:
                pinched = dephase_all(family3, out)[a]
                out = math.exp(-g[a]) * out + (1.0 - math.exp(-g[a])) * pinched
            assert np.abs(out - ch(rho)).max() <= 1e-10


class TestIntermediateMaps:
    def test_composition_law(self):
        traj = build_trajectory(preset_rates("eternal-qubit"), t_max=3.0, steps=30)
        v = intermediate_map(traj, 10, 25)
        lhs = v.nus * traj.lambdas[:, 10]
        assert np.allclose(lhs, traj.lambdas[:, 25], rtol=1e-14, atol=0)

    def test_identity_at_equal_times(self):
        traj = build_trajectory(preset_rates("eternal-qubit"), t_max=3.0, steps=30)
        assert np.all(intermediate_map(traj, 12, 12).nus == 1.0)

    def test_from_time_zero_is_the_map(self):
        traj = build_trajectory(preset_rates("eternal-qubit"), t_max=3.0, steps=30)
        v = intermediate_map(traj, 0, 30)
        assert np.allclose(v.nus, traj.lambdas[:, 30], rtol=1e-14)

    def test_index_validation(self):
        traj = build_trajectory(preset_rates("eternal-qubit"), t_max=3.0, steps=30)
        with pytest.raises(InvalidInputError):
            intermediate_map(traj, 5, 2)
        with pytest.raises(InvalidInputError):
            intermediate_map(traj, 0, 31)


class TestConditionChecks:
    def test_cptp_eternal_qubit_holds(self):
        traj = build_trajectory(preset_rates("eternal-qubit"), t_max=5.0, steps=200)
        assert check_cptp_trajectory(traj).holds

    def test_cptp_single_rate_boundary_with_choi_oracle(self, family2):
        # gamma = (1, 0, 0): lambda = (1, e^-t, e^-t) sits on the CP boundary
        rates = preset_rates("semigroup", constants=(1.0, 0.0, 0.0))
        traj = build_trajectory(rates, t_max=2.0, steps=20)
        assert np.abs(traj.lambdas[0] - 1.0).max() <= 1e-12
        assert np.abs(traj.lambdas[1] - np.exp(-traj.grid)).max() <= 1e-12
        verdict = check_cptp_trajectory(traj)
        assert verdict.holds
        for idx in (0, 7, 20):
            choi = choi_matrix(channel_from_eigenvalues(family2, traj.lambdas[:, idx]))
            assert choi.is_positive()

    def test_cptp_negative_rate_violates_with_choi_agreement(self, family2):
        rates = preset_rates("semigroup", constants=(-1.0, 0.0, 0.0))
        traj = build_trajectory(rates, t_max=1.0, steps=10)
        verdict = check_cptp_trajectory(traj)
        assert verdict.status == VIOLATED
        assert verdict.first_violation_time == pytest.approx(traj.grid[1])
        for idx in (2, 10):
            choi = choi_matrix(channel_from_eigenvalues(family2, traj.lambdas[:, idx]))
            assert not choi.is_positive()

    def test_cptp_avg_decoherence_holds(self):
        traj = build_trajectory(preset_rates("avg-decoherence", d=3), t_max=5.0, steps=100)
        assert check_cptp_trajectory(traj).holds

    def test_cp_divisible_semigroup(self):
        traj = build_trajectory(
            preset_rates("semigroup", constants=(1.0, 0.5, 2.0)), t_max=2.0, steps=20
        )
        assert check_cp_divisible(traj).holds

    def test_cp_divisible_eternal_qubit(self):
        traj = build_trajectory(preset_rates("eternal-qubit"), t_max=5.0, steps=100)
        verdict = check_cp_divisible(traj)
        assert verdict.status == VIOLATED
        assert verdict.first_violation_time == pytest.approx(traj.grid[1])
        assert {v.label for v in verdict.violations} == {"gamma_3"}
        assert verdict.margin == pytest.approx(-math.tanh(5.0), abs=1e-12)

    def test_cp_divisible_eternal_general_d3(self):
        traj = build_trajectory(preset_rates("eternal-general", d=3), t_max=5.0, steps=100)
        verdict = check_cp_divisible(traj)
        assert verdict.status == VIOLATED
        assert {v.label for v in verdict.violations} == {"gamma_3", "gamma_4"}

    def test_p_necessary_closed_margin_eternal_general(self):
        traj = build_trajectory(preset_rates("eternal-general", d=3), t_max=5.0, steps=100)
        verdict = check_p_necessary(traj)
        assert verdict.holds
        assert np.abs(verdict.margin_series - (1.0 - np.tanh(traj.grid))).max() <= 1e-12

    def test_p_necessary_violated_constants(self):
        traj = build_trajectory(
            preset_rates("semigroup", constants=(1.0, 1.0, -3.0)), t_max=1.0, steps=10
        )
        verdict = check_p_necessary(traj)
        assert verdict.status == VIOLATED
        assert verdict.margin == pytest.approx(-2.0, abs=1e-12)

    def test_p_conditions_coincide_for_qubits(self, rng):
        # d=2: pairwise sums are simultaneously the necessary and the
        # sufficient inequalities, so all three margins agree
        for _ in range(25):
            c = rng.uniform(-1.0, 2.0, 3)
            while (c < 0).sum() > 1:
                c[np.argmin(c)] = abs(c[np.argmin(c)])
            traj = build_trajectory(preset_rates("semigroup", constants=c), t_max=1.0, steps=5)
            nec = check_p_necessary(traj)
            suf = check_p_sufficient(traj)
            wey = check_weyl_sufficient(weyl_rates_from_trajectory(traj), traj.grid, 2)
            assert nec.status == suf.status == wey.status
            if nec.status != NOT_APPLICABLE:
                assert nec.margin == pytest.approx(suf.margin, abs=1e-12)
                assert nec.margin == pytest.approx(wey.margin, abs=1e-12)

    def test_p_sufficient_avg_decoherence_crossing(self):
        traj = build_trajectory(preset_rates("avg-decoherence", d=3), t_max=5.0, steps=400)
        verdict = check_p_sufficient(traj)
        assert verdict.status == VIOLATED
        t_star = math.log(2.0) / 3.0
        spacing = traj.grid[1] - traj.grid[0]
        assert abs(verdict.first_violation_time - t_star) <= spacing
        # margin series equals 1 + 2*gamma_4 wherever applicable
        g4 = traj.gammas[3]
        assert np.nanmax(np.abs(verdict.margin_series - (1.0 + 2.0 * g4))) <= 1e-12

    def test_p_sufficient_not_applicable_for_two_negative_rates(self):
        traj = build_trajectory(preset_rates("eternal-general", d=3), t_max=3.0, steps=30)
        verdict = check_p_sufficient(traj)
        assert verdict.status == NOT_APPLICABLE
        assert "not applicable" in verdict.note
        # t=0 is applicable (all rates zero or positive there)
        assert not math.isnan(verdict.margin)

    def test_p_sufficient_all_not_applicable(self):
        traj = build_trajectory(
            preset_rates("semigroup", constants=(1.0, 1.0, -0.1, -0.1)), t_max=1.0, steps=5
        )
        verdict = check_p_sufficient(traj)
        assert verdict.status == NOT_APPLICABLE
        assert math.isnan(verdict.margin)

    def test_weyl_matches_pair_condition_for_class_constant_rates(self, rng):
        for _ in range(100):
            c = rng.uniform(-0.8, 1.5, 4)
            while (c < 0).sum() > 1:
                c[np.argmin(c)] = abs(c[np.argmin(c)])
            traj = build_trajectory(preset_rates("semigroup", constants=c), t_max=1.0, steps=4)
            suf = check_p_sufficient(traj)
            wey = check_weyl_sufficient(weyl_rates_from_trajectory(traj), traj.grid, 3)
            assert suf.status == wey.status
            if suf.status != NOT_APPLICABLE:
                assert suf.margin == pytest.approx(wey.margin, abs=1e-12)

    def test_weyl_all_positive_holds(self):
        traj = build_trajectory(
            preset_rates("semigroup", constants=(0.5, 1.0, 1.5, 2.0)), t_max=1.0, steps=4
        )
        assert check_weyl_sufficient(weyl_rates_from_trajectory(traj), traj.grid, 3).holds

    @pytest.mark.parametrize("d", [2, 3, 5, 7, 31])
    def test_analyze_weyl_verdict_is_the_expanded_rate_check(self, d):
        # bit for bit, the -0.0 rates of eternal-general at t = 0 included
        trajs = [build_trajectory(preset_rates(name, d=d), t_max=5.0, steps=400)
                 for name in ("eternal-general", "avg-decoherence")]
        trajs += [_tanh_trajectory(d, seed) for seed in range(4)]
        for traj in trajs:
            got = dynamics._rate_verdict("weyl_sufficient", traj.grid, traj.gammas)
            ref = check_weyl_sufficient(weyl_rates_from_trajectory(traj), traj.grid, d)
            assert got.to_json_dict() == ref.to_json_dict()
            assert got.margin_series.tobytes() == ref.margin_series.tobytes()

    def test_weyl_shape_validation(self):
        traj = build_trajectory(preset_rates("eternal-qubit"), t_max=1.0, steps=4)
        with pytest.raises(InvalidInputError):
            check_weyl_sufficient(traj.gammas, traj.grid, 3)

    def test_frobenius_eternal_qubit(self, family2):
        traj = build_trajectory(preset_rates("eternal-qubit"), t_max=5.0, steps=100)
        verdict = check_frobenius_monotone(traj, family2, samples=6)
        assert verdict.holds
        assert "sampled 6 operators" in verdict.note

    def test_frobenius_violating_axis_grows(self, family2):
        rates = preset_rates("semigroup", constants=(1.0, 1.0, -3.0))
        traj = build_trajectory(rates, t_max=1.0, steps=20)
        verdict = check_frobenius_monotone(traj)
        assert verdict.status == VIOLATED
        # the corresponding axis operator has a growing norm
        u = family2.unitaries[0]
        x = u + u.conj().T
        norms = np.linalg.norm(evolve_operator(traj, family2, x), axis=(1, 2))
        assert norms[-1] > norms[0] * (1.0 + 1e-6)

    def test_identity_norm_constant(self, family2):
        traj = build_trajectory(preset_rates("eternal-qubit"), t_max=2.0, steps=20)
        norms = np.linalg.norm(evolve_operator(traj, family2, np.eye(2)), axis=(1, 2))
        assert np.abs(norms - norms[0]).max() <= 1e-13


class TestWitnessSearch:
    def test_none_for_cp_divisible_semigroup(self, family2):
        traj = build_trajectory(
            preset_rates("semigroup", constants=(1.0, 1.0, 1.0)), t_max=3.0, steps=60
        )
        assert find_p_divisibility_witness(traj, family2, attempts=300, seed=1) is None

    def test_none_for_eternal_qubit(self, family2):
        traj = build_trajectory(preset_rates("eternal-qubit"), t_max=5.0, steps=120)
        assert find_p_divisibility_witness(traj, family2, attempts=400, seed=1) is None

    def test_avg_decoherence_d3_witness_found_and_certified(self, family3):
        traj = build_trajectory(preset_rates("avg-decoherence", d=3), t_max=5.0, steps=120)
        w = find_p_divisibility_witness(traj, family3, attempts=600, seed=3)
        assert w is not None
        assert w.kind == "positivity"
        assert w.magnitude > 1e-9
        assert 0.0 <= w.s < w.t <= 5.0
        # certify independently: rebuild the intermediate channel and re-apply
        i = int(np.argmin(np.abs(traj.grid - w.s)))
        j = int(np.argmin(np.abs(traj.grid - w.t)))
        v = channel_from_eigenvalues(family3, intermediate_map(traj, i, j).nus)
        rho_out = v(np.outer(w.state, w.state.conj()))
        assert np.linalg.eigvalsh(rho_out)[0] == pytest.approx(-w.magnitude, rel=1e-9)

    def test_qubit_trace_norm_witness(self, family2):
        rates = preset_rates("semigroup", constants=(1.0, 1.0, -3.0))
        traj = build_trajectory(rates, t_max=1.0, steps=40)
        w = find_p_divisibility_witness(traj, family2, attempts=200, seed=5)
        assert w is not None
        assert w.magnitude > 1e-9
        if w.kind == "trace-norm":
            i = int(np.argmin(np.abs(traj.grid - w.s)))
            j = int(np.argmin(np.abs(traj.grid - w.t)))
            v = channel_from_eigenvalues(family2, intermediate_map(traj, i, j).nus)
            grown = trace_norm(v(w.operator)) / trace_norm(w.operator)
            assert grown - 1.0 == pytest.approx(w.magnitude, rel=1e-6)

    @pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
    def test_axis_ratio_on_the_scaled_operator_keeps_its_bits(self, d):
        # route 1 certifies on x / 2^k only; with nu_a the largest ratio, as _axis_scan
        # guarantees, that ratio equals the one on x bit for bit wherever that is finite
        family = mub_family(d)
        rng = np.random.default_rng(d)
        top = math.log(np.finfo(float).max)
        for a, u in enumerate(family.unitaries):
            x = u + u.conj().T
            small = x / 2.0 ** (2 * d).bit_length()
            for _ in range(8):
                nus = np.exp(rng.uniform(0.0, top, d + 1))
                k = int(np.argmax(nus))
                nus[[a, k]] = nus[[k, a]]
                try:
                    with np.errstate(over="ignore", invalid="ignore"):
                        plain = trace_norm(spectral_apply(family, nus, x)) / trace_norm(x)
                except InvalidInputError:  # Phi(x) has an entry beyond the double range
                    continue
                scaled = trace_norm(spectral_apply(family, nus, small)) / trace_norm(small)
                assert math.isfinite(scaled)
                if math.isfinite(plain):
                    assert scaled == plain, (a, nus)

    def test_deterministic_given_seed(self, family3):
        traj = build_trajectory(preset_rates("avg-decoherence", d=3), t_max=4.0, steps=60)
        w1 = find_p_divisibility_witness(traj, family3, attempts=300, seed=11)
        w2 = find_p_divisibility_witness(traj, family3, attempts=300, seed=11)
        assert w1 is not None and w2 is not None
        assert w1.magnitude == w2.magnitude
        assert np.array_equal(w1.state, w2.state)


class TestBlp:
    def test_none_for_semigroup(self, family2):
        traj = build_trajectory(
            preset_rates("semigroup", constants=(0.7, 0.7, 0.7)), t_max=3.0, steps=60
        )
        assert check_blp(traj, family2, pairs=10, seed=0) is None

    def test_none_for_eternal_qubit(self, family2):
        traj = build_trajectory(preset_rates("eternal-qubit"), t_max=5.0, steps=200)
        assert check_blp(traj, family2, pairs=16, seed=0) is None

    def test_backflow_found_for_p2_violating_rates(self, family2):
        traj = build_trajectory(
            preset_rates("semigroup", constants=(1.0, 1.0, -3.0)), t_max=1.0, steps=40
        )
        w = check_blp(traj, family2, pairs=8, seed=0)
        assert w is not None and w.kind == "blp"
        assert w.magnitude > 1e-9

    def test_no_backflow_from_rounding_noise_d3(self, family3):
        # the trace distance decays to ~1e-16; rounding there once read as a rise
        rates = preset_rates("semigroup", d=3, constants=(
            1.409613800524794, 0.35161056422774417, 1.9559291899923894, -0.4084119370510235,
        ))
        traj = build_trajectory(rates, t_max=10.0, steps=2000)
        pair = (family3.projector(4, 0), family3.projector(4, 1))
        assert check_blp(traj, family3, pairs=[pair]) is None

    def test_no_backflow_from_rounding_noise_d11(self):
        from paulidyn.mub import mub_family

        family = mub_family(11)
        traj = build_trajectory(preset_rates("avg-decoherence", d=11), t_max=5.0, steps=400)
        pair = (family.projector(12, 0), family.projector(12, 1))
        assert check_blp(traj, family, pairs=[pair]) is None

    def test_explicit_pairs(self, family2):
        traj = build_trajectory(preset_rates("eternal-qubit"), t_max=2.0, steps=40)
        pair = (family2.projector(1, 0), family2.projector(1, 1))
        assert check_blp(traj, family2, pairs=[pair]) is None

    def test_pair_of_unequal_traces_rejected(self, family2):
        traj = build_trajectory(preset_rates("eternal-qubit"), t_max=2.0, steps=40)
        pair = (family2.projector(1, 0), 2.0 * family2.projector(1, 1))
        with pytest.raises(InvalidInputError, match="equal traces"):
            check_blp(traj, family2, pairs=[pair])

    def test_non_hermitian_pair_state_rejected(self, family2):
        # its "trace distance" read 1.414 at t = 0, against a trace norm of 1.0
        traj = build_trajectory(preset_rates("eternal-qubit"), t_max=2.0, steps=40)
        pair = (np.array([[0.5, 1.0], [0.0, 0.5]]), np.eye(2) / 2)
        with pytest.raises(InvalidInputError, match="Hermitian"):
            check_blp(traj, family2, pairs=[pair])
        noisy = (family2.projector(1, 0) + 1e-12j * PAULI[1], family2.projector(1, 1))
        assert check_blp(traj, family2, pairs=[noisy]) is None

    @pytest.mark.parametrize("make", [lambda p0, p1: [1, 2], lambda p0, p1: np.array([8]),
                                      lambda p0, p1: [p0 - p1], lambda p0, p1: [(p0, p1, p1)]],
                             ids=["ints", "int-array", "one-matrix", "triple"])
    def test_explicit_pairs_that_are_not_pairs_rejected(self, family3, make):
        traj = build_trajectory(preset_rates("avg-decoherence", d=3), t_max=2.0, steps=40)
        bad = make(family3.projector(1, 0), family3.projector(1, 1))
        with pytest.raises(InvalidInputError, match="each BLP pair must be two 3 x 3 states"):
            check_blp(traj, family3, pairs=bad)

    def test_numpy_integer_pair_count(self, family3):
        traj = _tanh_trajectory(3, seed=3)
        expected = check_blp(traj, family3, pairs=8).to_json_dict()
        assert check_blp(traj, family3, pairs=np.int64(8)).to_json_dict() == expected
        rates = _tanh_rates(3, seed=3)
        reports = [analyze(rates, family3, steps=200, blp_pairs=pairs)[1].to_json_dict()
                   for pairs in (8, np.int64(8))]
        assert reports[0]["blp_witness"] == reports[1]["blp_witness"] == expected

    def test_zero_dim_array_pair_count(self, family3):
        traj = _tanh_trajectory(3, seed=3)
        expected = check_blp(traj, family3, pairs=8).to_json_dict()
        assert check_blp(traj, family3, pairs=np.array(8)).to_json_dict() == expected
        for bad in (np.array(8.0), np.array(-1)):
            with pytest.raises(InvalidInputError, match="BLP pair count must be >= 0"):
                check_blp(traj, family3, pairs=bad)

    def test_default_covers_every_axis(self):
        # lambda_24 alone rises; a probe of the first 20 bases sees no back-flow
        rates = preset_rates("semigroup", d=23, constants=[-1.0] + [0.0] * 22 + [10.0])
        traj = build_trajectory(rates, t_max=1.0, steps=50)
        family = mub_family(23)
        assert check_blp(traj, family, pairs=20) is None
        w = check_blp(traj, family)
        assert (w.s, w.t) == (0.0, 0.02)
        assert w.magnitude == pytest.approx(math.expm1(0.02), rel=1e-12)
        p0, p1 = family.projector(24, 0), family.projector(24, 1)
        assert np.allclose(w.operator, p0 - p1, atol=1e-12)

    @given(d=st.sampled_from([2, 3, 5, 7, 13]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_default_equals_the_antipodal_pairs(self, d, seed):
        # D = 2 lambda_a for (P_a0, P_a1): the read-off equals the evaluated distances
        family = mub_family(d)
        traj = _tanh_trajectory(d, seed=seed, steps=120)
        w, ref = check_blp(traj, family), check_blp(traj, family, pairs=d + 1)
        assert (w is None) == (ref is None)
        if w is not None:
            assert (w.s, w.t) == (ref.s, ref.t)
            assert np.array_equal(w.operator, ref.operator)
            assert abs(w.magnitude - ref.magnitude) <= 4 * np.finfo(float).eps * (1 + w.magnitude)

    def test_tied_semigroup_rises_report_the_earliest(self, family3):
        # in a semigroup every step scales lambda_1 by the same factor, so the rises tie
        rates = preset_rates("semigroup", constants=(2.0, -0.05, -0.05, -0.05))
        traj = build_trajectory(rates, t_max=5.0, steps=400)
        w42, w7 = (check_blp(traj, family3, seed=seed) for seed in (42, 7))
        assert (w42.s, w42.t) == (w7.s, w7.t) == (0.0, traj.grid[1])

    @pytest.mark.parametrize("d", [2, 3])
    def test_no_eigensolver_at_d_up_to_3(self, d, monkeypatch):
        family = mub_family(d)
        traj = _tanh_trajectory(d, seed=3)
        expected = check_blp(traj, family)

        def refuse(*args, **kwargs):
            raise AssertionError("check_blp called an eigensolver")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        assert expected is not None
        assert check_blp(traj, family).to_json_dict() == expected.to_json_dict()


def _tanh_trajectory(d: int, seed: int, t_max: float = 5.0, steps: int = 200):
    """A seeded rate set a + b*tanh(c*(t - e)) per rate, as in criterion 9."""
    rng = np.random.default_rng(seed)
    sources = [f"{rng.uniform(-0.6, 1.2)!r} + {rng.uniform(-1.0, 1.0)!r}*"
               f"tanh({rng.uniform(0.3, 2.0)!r}*(t - {rng.uniform(0.0, 4.0)!r}))"
               for _ in range(d + 1)]
    return build_trajectory(rate_set(d, sources), t_max=t_max, steps=steps)


class TestClosedFormTraceDistance:
    """``_trace_distances`` against ``np.abs(eigvalsh(orbit)).sum(-1)``, within 1e-13 of
    the orbit's Frobenius norm at every grid time."""

    @staticmethod
    def antipodal(family):
        return [family.projector(a, 0) - family.projector(a, 1) for a in range(1, family.dim + 2)]

    @staticmethod
    def random_pairs(family, seed):
        rhos = random_density_matrix(family.dim, np.random.default_rng(seed), 16)
        return list(rhos[0::2] - rhos[1::2])

    @staticmethod
    def orbit(traj, family, delta):
        """X(t) = sum_a lambda_a(t) B_a(delta), the image of delta without its trace part."""
        return np.tensordot(traj.lambdas.T, axis_blocks(family, delta), axes=1)

    @staticmethod
    def assert_matches(traj, family, delta, orbit):
        ref = np.abs(np.linalg.eigvalsh(orbit)).sum(axis=-1)
        scale = np.abs(orbit).max(axis=(-2, -1), keepdims=True)  # |orbit|^2 underflows
        frobenius = scale[:, 0, 0] * np.linalg.norm(orbit / scale, axis=(-2, -1))
        assert np.all(np.abs(_trace_distances(traj, family, delta) - ref) <= 1e-13 * frobenius)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_pairs_match_eigvalsh_of_the_orbit(self, d, seed):
        family = mub_family(d)
        traj = _tanh_trajectory(d, seed)
        for delta in self.random_pairs(family, seed):
            self.assert_matches(traj, family, delta, self.orbit(traj, family, delta))

    @pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13])
    def test_antipodal_pairs_are_2_lambda(self, d):
        # the orbit of P_a0 - P_a1 is lambda_a (P_a0 - P_a1), plus the rounding residue of
        # axis_blocks on the other axes, ~d ulps of the largest lambda
        family = mub_family(d)
        traj = _tanh_trajectory(d, seed=d)
        eps = np.finfo(float).eps
        for a, delta in enumerate(self.antipodal(family)):
            exact = traj.lambdas[a][:, None, None] * delta
            residue = BLP_ROUNDING_FLOOR * eps * d * traj.lambdas.max(axis=0)
            orbit = self.orbit(traj, family, delta)
            assert np.all(np.linalg.norm(orbit - exact, axis=(-2, -1)) <= residue)
            self.assert_matches(traj, family, delta, exact)
            assert np.allclose(_trace_distances(traj, family, delta), 2.0 * traj.lambdas[a],
                               rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("d,constants,t_max", [
        (2, (20.0, 21.0, 22.0), 11.0),
        (3, (15.0, 16.0, 17.0, 18.0), 10.0),
    ])
    def test_lambda_down_to_1e_200_has_no_spurious_rise(self, d, constants, t_max):
        # lambda^2 and p^(3/2) underflow to 0 long before lambda does
        family = mub_family(d)
        traj = build_trajectory(preset_rates("semigroup", constants=constants),
                                t_max=t_max, steps=400)
        assert 1e-300 < traj.lambdas.min() < traj.lambdas[:, -1].max() < 1e-190
        for delta in self.antipodal(family) + self.random_pairs(family, seed=1):
            dists = _trace_distances(traj, family, delta)
            assert np.all(dists > 0) and np.all(np.diff(dists) < 0)
        for delta in self.random_pairs(family, seed=1):
            self.assert_matches(traj, family, delta, self.orbit(traj, family, delta))
        assert check_blp(traj, family) is None


class TestAnalyzeAndExports:
    @pytest.mark.parametrize("constants", [(0.0, 0.0, -9e-13), (-9e-13,) * 4,
                                           (0.0,) * 5 + (-5e-13,), (0.0, 0.0, 0.0, -9e-13)])
    def test_rates_inside_the_slack_are_not_cp_divisible(self, constants):
        # a rate of -eps lowers the CP-map margin by about d * eps * t, beyond the 1e-12
        # slack; only the exact sign keeps "cp_divisible holds" consistent with it
        _, report = analyze(preset_rates("semigroup", constants=constants))
        assert report.cp_divisible.status == VIOLATED

    def test_analyze_eternal_qubit_report(self, family2):
        traj, report = analyze(
            preset_rates("eternal-qubit"), family2, t_max=5.0, steps=120,
            witness_attempts=300, blp_pairs=8,
        )
        assert report.cp_map_valid.holds
        assert report.cp_divisible.status == VIOLATED
        assert report.p_necessary.holds
        assert report.p_sufficient.holds
        assert report.trace_norm_witness is None
        assert report.blp_witness is None

    def test_analyze_avg_decoherence_report(self, family3):
        traj, report = analyze(
            preset_rates("avg-decoherence", d=3), family3, t_max=5.0, steps=120,
            witness_attempts=400, blp_pairs=8,
        )
        assert report.cp_map_valid.holds
        assert report.p_necessary.holds
        assert report.p_sufficient.status == VIOLATED
        assert report.trace_norm_witness is not None

    def test_report_json_serializable(self, family3):
        _, report = analyze(
            preset_rates("avg-decoherence", d=3), family3, t_max=3.0, steps=40,
            witness_attempts=200, blp_pairs=6,
        )
        data = report.to_json_dict()
        text = json.dumps(data, sort_keys=True)
        assert set(data["criteria"]) == {
            "cp_map_valid", "cp_divisible", "p_necessary", "p_sufficient",
            "weyl_sufficient", "frobenius_monotone",
        }
        assert data["trace_norm_witness"]["found"] is True
        assert "state" in data["trace_norm_witness"]
        assert data["blp_witness"]["found"] in (True, False)
        # identical config and seed reproduce the identical report
        _, report2 = analyze(
            preset_rates("avg-decoherence", d=3), family3, t_max=3.0, steps=40,
            witness_attempts=200, blp_pairs=6,
        )
        assert json.dumps(report2.to_json_dict(), sort_keys=True) == text

    def test_csv_export_roundtrip(self):
        traj = build_trajectory(preset_rates("eternal-qubit"), t_max=1.0, steps=8)
        text = trajectory_to_csv(traj)
        lines = text.strip().split("\n")
        assert lines[0] == (
            "t,gamma_1,gamma_2,gamma_3,Gamma_1,Gamma_2,Gamma_3,lambda_1,lambda_2,lambda_3"
        )
        assert len(lines) == 10
        row = np.array([float(x) for x in lines[4].split(",")])
        i = 3
        assert row[0] == traj.grid[i]
        assert np.array_equal(row[1:4], traj.gammas[:, i])
        assert np.array_equal(row[4:7], traj.big_gammas[:, i])
        assert np.array_equal(row[7:10], traj.lambdas[:, i])

    def test_csv_matches_per_value_format_on_a_fine_grid(self):
        rates = rate_set(2, ["0.4 + 0.9*tanh(1.3*(t - 2.5))", "1", "-0.2*tanh(t)"])
        traj = build_trajectory(rates, t_max=10.0, steps=10_000)
        columns = np.vstack((traj.grid, traj.gammas, traj.big_gammas, traj.lambdas))
        rows = [",".join(format(x, ".17g") for x in columns[:, i])
                for i in range(columns.shape[1])]
        assert trajectory_to_csv(traj).split("\n")[1:] == rows + [""]

    def test_report_verdicts_in_report_order(self, family2):
        _, report = analyze(preset_rates("eternal-qubit"), family2, t_max=1.0, steps=20,
                            witness_attempts=20, blp_pairs=4)
        assert [v.criterion for v in report.verdicts] == list(report.to_json_dict()["criteria"])

    def test_negative_seed_and_pair_count_rejected(self, family2):
        rates = preset_rates("eternal-qubit")
        with pytest.raises(InvalidInputError, match="seed"):
            analyze(rates, family2, t_max=1.0, steps=20, seed=-1)
        traj = build_trajectory(rates, t_max=1.0, steps=20)
        with pytest.raises(InvalidInputError, match="pair count"):
            check_blp(traj, family2, pairs=-2)

    def test_numpy_integer_seed(self, family2):
        rates = preset_rates("eternal-qubit")
        texts = [json.dumps(analyze(rates, family2, t_max=1.0, steps=20, seed=seed)[1]
                            .to_json_dict()) for seed in (7, np.int64(7))]
        assert texts[0] == texts[1]
        for bad in (7.0, "7"):
            with pytest.raises(InvalidInputError, match="seed must be >= 0 and an integer"):
                analyze(rates, family2, t_max=1.0, steps=20, seed=bad)


def _json(result) -> str:
    """A stage's result as JSON text: a report, a verdict, a witness (or None), a trajectory's
    CSV or an intermediate map's ratios."""
    if isinstance(result, tuple):
        result = result[1]
    if isinstance(result, Trajectory):
        return trajectory_to_csv(result)
    if hasattr(result, "nus"):
        return json.dumps(result.nus.tolist())
    return json.dumps(None if result is None else result.to_json_dict())


# a positivity witness and a BLP witness on a random pair, both moved by the seed
_D3_RATES = rate_set(3, ["-0.2 + -0.2*tanh(1.6*(t - 3.9))", "1.1 + 0.1*tanh(0.9*(t - 2.7))",
                         "1.0 + 0.2*tanh(0.6*(t - 0.2))", "-0.2 + -0.9*tanh(1.9*(t - 3.7))"])
_D3_TRAJ = build_trajectory(_D3_RATES, t_max=5.0, steps=40)
_SEARCH_BUDGET = "attempts and refine_iters must be >= 0 and an integer"

#: (id, call taking the count, a valid count, the prefix of the message for a bad one)
_COUNTS = [
    ("build_trajectory-steps", lambda fam, n: build_trajectory(_D3_RATES, 5.0, steps=n), 40,
     "steps must be >= 2 and an integer"),
    ("analyze-steps", lambda fam, n: analyze(_D3_RATES, fam, 5.0, steps=n), 40,
     "steps must be >= 2 and an integer"),
    ("analyze-seed", lambda fam, n: analyze(_D3_RATES, fam, 5.0, steps=40, seed=n), 7,
     "seed must be >= 0 and an integer"),
    ("analyze-witness_attempts",
     lambda fam, n: analyze(_D3_RATES, fam, 5.0, steps=40, witness_attempts=n), 5,
     _SEARCH_BUDGET),
    ("analyze-refine_iters",
     lambda fam, n: analyze(_D3_RATES, fam, 5.0, steps=40, refine_iters=n), 3, _SEARCH_BUDGET),
    ("analyze-blp_pairs", lambda fam, n: analyze(_D3_RATES, fam, 5.0, steps=40, blp_pairs=n),
     8, "BLP pair count must be >= 0 and an integer"),
    ("witness-attempts", lambda fam, n: find_p_divisibility_witness(_D3_TRAJ, fam, attempts=n),
     5, _SEARCH_BUDGET),
    ("witness-refine_iters",
     lambda fam, n: find_p_divisibility_witness(_D3_TRAJ, fam, refine_iters=n), 3,
     _SEARCH_BUDGET),
    ("witness-seed", lambda fam, n: find_p_divisibility_witness(_D3_TRAJ, fam, seed=n), 7,
     "seed must be >= 0 and an integer"),
    ("check_blp-pairs", lambda fam, n: check_blp(_D3_TRAJ, fam, pairs=n), 8,
     "BLP pair count must be >= 0 and an integer"),
    ("check_blp-seed", lambda fam, n: check_blp(_D3_TRAJ, fam, seed=n), 7,
     "seed must be >= 0 and an integer"),
    ("frobenius-samples", lambda fam, n: check_frobenius_monotone(_D3_TRAJ, fam, samples=n), 6,
     "samples must be >= 0 and an integer"),
    ("frobenius-seed", lambda fam, n: check_frobenius_monotone(_D3_TRAJ, fam, seed=n), 7,
     "seed must be >= 0 and an integer"),
    ("intermediate_map-i", lambda fam, n: intermediate_map(_D3_TRAJ, n, 30), 10,
     "i must be >= 0 and an integer"),
    ("intermediate_map-j", lambda fam, n: intermediate_map(_D3_TRAJ, 0, n), 30,
     "j must be >= 0 and an integer"),
]


@pytest.mark.parametrize("call, valid, prefix", [c[1:] for c in _COUNTS],
                         ids=[c[0] for c in _COUNTS])
class TestCounts:
    """Every count, seed and grid index is a Python or NumPy integer at or above its least
    value; anything else is an InvalidInputError, never a TypeError from numpy."""

    @pytest.mark.parametrize("bad", [5.0, -1], ids=["float", "negative"])
    def test_rejects_a_float_and_a_negative_value(self, family3, call, valid, prefix, bad):
        with pytest.raises(InvalidInputError, match="^" + re.escape(prefix)) as exc:
            call(family3, bad)
        assert repr(bad) in str(exc.value)

    def test_numpy_integer_gives_the_same_json(self, family3, call, valid, prefix):
        assert _json(call(family3, np.int64(valid))) == _json(call(family3, valid))

    @pytest.mark.parametrize("flag", [True, False])
    def test_rejects_a_bool(self, family3, call, valid, prefix, flag):
        # bool subclasses int, but a flag passed for a count is a mistake
        with pytest.raises(InvalidInputError, match="^" + re.escape(prefix)) as exc:
            call(family3, flag)
        assert repr(flag) in str(exc.value)


class TestSubGridDip:
    """A rate that dips below zero between two grid times, where no grid sample sees it."""

    def test_rising_eigenvalue_is_a_grid_resolution_error(self, family3):
        rates = rate_set(3, ["1", "1", "1", "1 - 30*exp(0-((t-0.004)/0.001)^2)"])
        traj = build_trajectory(rates, t_max=5.0, steps=400)
        assert check_cp_divisible(traj).holds
        message = r"lambda_1 rises by 1\.580e-02 over the grid step \[0\.0, 0\.0125\]"
        with pytest.raises(GridResolutionError, match=message) as exc:
            check_frobenius_monotone(traj, family3)
        assert "--steps" in str(exc.value)
        with pytest.raises(GridResolutionError, match=message):
            analyze(rates, family3)
        _, report = analyze(rates, family3, steps=4000)
        assert report.cp_divisible.status == report.frobenius_monotone.status == VIOLATED

    def test_growth_without_a_rising_eigenvalue_is_an_internal_error(self, family2):
        # lambdas that grow while their logarithms (from the rate integrals) do not
        traj = build_trajectory(preset_rates("semigroup", constants=(1.0, 1.0, 1.0)),
                                t_max=1.0, steps=20)
        grown = Trajectory(traj.dim, traj.grid, traj.gammas, traj.big_gammas,
                           traj.lambdas[:, ::-1])
        with pytest.raises(InternalConsistencyError, match="Frobenius norm grew"):
            check_frobenius_monotone(grown, family2)


class _StageFailed(Exception):
    pass


def _tanh_rates(d: int, seed: int):
    """The rate set of ``_tanh_trajectory(d, seed)``."""
    rng = np.random.default_rng(seed)
    return rate_set(d, [f"{rng.uniform(-0.6, 1.2)!r} + {rng.uniform(-1.0, 1.0)!r}*"
                        f"tanh({rng.uniform(0.3, 2.0)!r}*(t - {rng.uniform(0.0, 4.0)!r}))"
                        for _ in range(d + 1)])


class TestConcurrentAnalyze:
    """analyze runs every stage on the calling thread, the BLP probe last."""

    @pytest.mark.parametrize("d", [5, 7, 11])
    def test_report_equals_the_checks_in_sequence(self, d):
        # seed 5 gives a BLP witness at each d, and trace-norm or positivity witnesses
        rates, family, seed = _tanh_rates(d, 5), mub_family(d), 7
        traj = build_trajectory(rates, t_max=5.0, steps=100)
        expected = DivisibilityReport(
            dim=d, t_max=5.0, steps=100, seed=seed,
            cp_map_valid=check_cptp_trajectory(traj),
            cp_divisible=check_cp_divisible(traj),
            p_necessary=check_p_necessary(traj),
            p_sufficient=check_p_sufficient(traj),
            weyl_sufficient=check_weyl_sufficient(weyl_rates_from_trajectory(traj), traj.grid, d),
            frobenius_monotone=check_frobenius_monotone(traj, family, seed=seed),
            trace_norm_witness=find_p_divisibility_witness(traj, family, seed=seed),
            blp_witness=check_blp(traj, family, seed=seed),
        )
        assert expected.blp_witness is not None and expected.trace_norm_witness is not None
        threads = threading.active_count()
        _, report = analyze(rates, family, t_max=5.0, steps=100, seed=seed)
        assert threading.active_count() == threads
        assert report.to_json_dict() == expected.to_json_dict()

    def test_probe_error_is_raised(self, monkeypatch):
        def fail(*args, **kwargs):
            raise _StageFailed("BLP probe failed")

        monkeypatch.setattr(dynamics, "check_blp", fail)
        threads = threading.active_count()
        with pytest.raises(_StageFailed, match="BLP probe failed"):
            analyze(preset_rates("avg-decoherence", d=5), steps=100)
        assert threading.active_count() == threads

    def test_probe_base_exception_is_raised(self, monkeypatch):
        class Stop(BaseException):  # not an Exception: the worker must hand it over anyway
            pass

        def stop(*args, **kwargs):
            raise Stop("BLP probe stopped")

        monkeypatch.setattr(dynamics, "check_blp", stop)
        threads = threading.active_count()
        with pytest.raises(Stop, match="BLP probe stopped"):
            analyze(preset_rates("avg-decoherence", d=5), steps=100)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("probe_fails", [True, False])
    def test_witness_search_error_wins(self, probe_fails, monkeypatch):
        # the search fails before the probe runs, whether the probe would fail or not
        probe_calls = []

        def probe(*args, **kwargs):
            probe_calls.append(args)
            if probe_fails:
                raise _StageFailed("BLP probe failed")

        def search_fails(*args, **kwargs):
            raise _StageFailed("witness search failed")

        monkeypatch.setattr(dynamics, "check_blp", probe)
        monkeypatch.setattr(dynamics, "find_p_divisibility_witness", search_fails)
        threads = threading.active_count()
        with pytest.raises(_StageFailed, match="witness search failed"):
            analyze(preset_rates("avg-decoherence", d=5), steps=100)
        assert threading.active_count() == threads
        assert probe_calls == []

    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_probe_thread_and_numpy_error_state(self, d, monkeypatch):
        caller, seen = threading.current_thread(), []

        def record(*args, **kwargs):
            seen.append((np.geterr()["over"], threading.current_thread() is caller,
                         threading.active_count()))

        monkeypatch.setattr(dynamics, "check_blp", record)
        threads = threading.active_count()
        with np.errstate(over="raise"):
            analyze(preset_rates("avg-decoherence", d=d), steps=100)
        assert seen == [("raise", True, threads)]


@given(
    data=st.data(),
    d=st.sampled_from([2, 3, 5]),
    t_max=st.floats(min_value=0.1, max_value=10.0),
)
@settings(max_examples=30, deadline=None)
def test_constant_rates_give_a_finite_report(data, d, t_max):
    constants = data.draw(st.lists(st.floats(min_value=-5.0, max_value=100.0),
                                   min_size=d + 1, max_size=d + 1))
    _, report = analyze(preset_rates("semigroup", constants=constants), t_max=t_max,
                        steps=60, witness_attempts=50, blp_pairs=4)
    json.dumps(report.to_json_dict(), allow_nan=False)


def reference_csv_rows(table: np.ndarray) -> list:
    """The lines of trajectory.csv after its header, formatted value by value; a list
    keeps a failing comparison's report to the first differing line."""
    return [",".join(format(x, ".17g") for x in row) for row in table.T.tolist()] + [""]


# 0.0 next to -0.0, the smallest subnormal, another subnormal, the double range's edges
CSV_SPECIALS = (0.0, -0.0, 5e-324, -5e-324, 1.5e-310, 1e308, -1e308, 1.0, -1.0, 0.1,
                math.inf, -math.inf, math.nan)
CSV_ROWS = (3, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1, 10_000 + 1)


@st.composite
def csv_recipes(draw):
    """(d, rows, seed, column specs); a spec is ("random",), ("constant", v),
    ("copy", j) or ("last-row", j, v): column j with its last value set to v."""
    d = draw(st.sampled_from([2, 3, 31]))
    specials = st.sampled_from(CSV_SPECIALS)
    specs = []
    for k in range(3 * (d + 1) + 1):
        kinds = ["random", "constant"] + (["copy", "last-row"] if k else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "random":
            specs.append((kind,))
        elif kind == "constant":
            specs.append((kind, draw(specials)))
        elif kind == "copy":
            specs.append((kind, draw(st.integers(0, k - 1))))
        else:
            specs.append((kind, draw(st.integers(0, k - 1)), draw(specials)))
    # the 97-column table at 10^4 + 1 rows takes ~1 s to check, so one @example covers it
    rows = draw(st.sampled_from(CSV_ROWS if d < 31 else CSV_ROWS[:-1]))
    return d, rows, draw(st.integers(0, 2**32 - 1)), specs


def csv_trajectory(recipe) -> Trajectory:
    """A synthetic Trajectory whose CSV columns follow the recipe of csv_recipes."""
    d, rows, seed, specs = recipe
    assert len(specs) == 3 * (d + 1) + 1
    rng = np.random.default_rng(seed)
    columns = []
    for spec in specs:
        if spec[0] == "random":
            column = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
            sprinkled = rng.random(rows) < 0.05
            column[sprinkled] = rng.choice(CSV_SPECIALS, sprinkled.sum())
        elif spec[0] == "constant":
            column = np.full(rows, spec[1])
        else:
            column = columns[spec[1]].copy()
            if spec[0] == "last-row":
                column[-1] = spec[2]
        columns.append(column)
    table = np.array(columns)
    return Trajectory(dim=d, grid=table[0], gammas=table[1:d + 2],
                      big_gammas=table[d + 2:2 * d + 3], lambdas=table[2 * d + 3:])


class TestCsvWriter:
    @given(recipe=csv_recipes())
    @settings(max_examples=30, deadline=None)
    @example(recipe=(2, _CSV_BLOCK_ROWS + 1, 0, [
        ("random",), ("constant", 0.0), ("constant", -0.0), ("last-row", 0, 0.5),
        ("last-row", 1, -0.0), ("copy", 2), ("constant", 5e-324), ("constant", 1e308),
        ("constant", -1e308), ("constant", 1.5e-310)]))
    @example(recipe=(2, 3, 0, [
        ("random",), ("constant", 0.0), ("last-row", 1, -0.0), ("constant", -0.0),
        ("last-row", 3, 0.0), ("copy", 2), ("constant", math.nan), ("last-row", 6, math.inf),
        ("copy", 0), ("last-row", 0, -0.0)]))
    @example(recipe=(31, 10_000 + 1, 1, [("random",)] * 40 + [("last-row", 39, 0.0)]
                     + [("copy", 0), ("constant", -0.0), ("constant", 0.0)] * 18
                     + [("copy", 5), ("constant", 1.0)]))
    def test_matches_per_value_format(self, recipe):
        traj = csv_trajectory(recipe)
        table = np.vstack((traj.grid, traj.gammas, traj.big_gammas, traj.lambdas))
        assert trajectory_to_csv(traj).split("\n")[1:] == reference_csv_rows(table)

    def test_tied_and_constant_columns_of_a_fine_grid(self):
        traj = build_trajectory(preset_rates("avg-decoherence", d=3), t_max=5.0, steps=10_000)
        bits = np.vstack((traj.grid, traj.gammas, traj.big_gammas, traj.lambdas)).view(np.int64)
        # the d unit rates tie gamma, Gamma and lambda columns; Gamma_1 = t bit for bit
        assert np.all(bits[1:4] == bits[1]) and np.all(bits[1] == bits[1, 0])
        assert np.array_equal(bits[5], bits[0]) and np.all(bits[9:12] == bits[9])
        table = bits.view(float)
        assert trajectory_to_csv(traj).split("\n")[1:] == reference_csv_rows(table)


class TestSeesawWitnessSearch:
    def test_short_window_gets_a_certified_witness(self, family3):
        # the only non-positive intermediate maps lie between t = 2.05 and 2.075
        rates = rate_set(3, ["1", "1", "1", "1 - 3*exp(0-((t-2.06)/0.02)^2)"])
        traj, report = analyze(rates, family3, seed=42)
        w = report.trace_norm_witness
        assert w is not None and w.kind == "positivity"
        assert (w.s, w.t) == pytest.approx((2.05, 2.075))
        i, j = (int(np.argmin(np.abs(traj.grid - x))) for x in (w.s, w.t))
        v = channel_from_eigenvalues(family3, intermediate_map(traj, i, j).nus)
        out = v(np.outer(w.state, w.state.conj()))
        assert np.linalg.eigvalsh(out)[0] == pytest.approx(-w.magnitude, rel=1e-9)
        assert w.magnitude > 7e-3

    def test_tied_semigroup_pairs_report_the_earliest(self, family3):
        # in a semigroup Phi(t, s) depends on t - s only, so equal-length pairs tie
        rates = preset_rates("semigroup", constants=(0.5, 0.5, -0.2, -0.1))
        traj = build_trajectory(rates, t_max=5.0, steps=400)
        w42, w7 = (find_p_divisibility_witness(traj, family3, seed=seed) for seed in (42, 7))
        assert w42.kind == w7.kind == "positivity"
        assert w42.s == w7.s == 0.0
        assert w42.t == w7.t

    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_overlap_response_matches_spectral_apply(self, d, rng):
        family = mub_family(d)
        nus = rng.uniform(-1.0, 2.0, (6, d + 1))
        psi, phi = random_pure_state(d, rng, 6), random_pure_state(d, rng, 6)
        response = _class_response(_class_eigenvalues(family, nus), psi)
        for c in range(6):
            ref = spectral_apply(family, nus[c], np.outer(psi[c], psi[c].conj()))
            assert np.abs(response[c] - ref).max() <= 1e-15
        expectation = np.einsum("ci,cij,cj->c", phi.conj(), response, phi).real
        linear = 1.0 / d + (nus * _overlap_form(family, psi, phi)).sum(axis=1)
        assert np.abs(linear - expectation).max() <= 1e-15

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_overlap_response_matches_spectral_apply_over_seeds(self, d):
        # both sides round differently; the worst of 1000 seeds reaches ~2 ulps * d * ||ref||
        family, eps = mub_family(d), np.finfo(float).eps
        for seed in range(300):
            rng = np.random.default_rng(seed)
            nus = rng.uniform(-1.0, 2.0, (6, d + 1))
            psi, phi = random_pure_state(d, rng, 6), random_pure_state(d, rng, 6)
            response = _class_response(_class_eigenvalues(family, nus), psi)
            expectation = np.einsum("ci,cij,cj->c", phi.conj(), response, phi).real
            linear = 1.0 / d + (nus * _overlap_form(family, psi, phi)).sum(axis=1)
            for c in range(6):
                ref = spectral_apply(family, nus[c], np.outer(psi[c], psi[c].conj()))
                tol = 4 * eps * d * max(1.0, np.linalg.norm(ref, 2))
                assert np.abs(response[c] - ref).max() <= tol, (seed, c)
                assert abs(linear[c] - expectation[c]) <= tol, (seed, c)

    def test_seesaw_value_never_rises(self, family3, rng):
        traj = build_trajectory(preset_rates("avg-decoherence", d=3), t_max=5.0, steps=40)
        nus = np.stack([intermediate_map(traj, i, 40).nus for i in (10, 20, 30)])
        psi, phi = random_pure_state(3, rng, 3), random_pure_state(3, rng, 3)
        values = []
        for _ in range(30):
            psi, phi = _seesaw(family3, nus, psi, phi, 1)
            values.append(1.0 / 3 + (nus * _overlap_form(family3, psi, phi)).sum(axis=1))
        assert np.diff(values, axis=0).max() <= 1e-15  # rounding only
        assert min(values[-1]) < -1e-9

    def test_seesaw_reaches_the_qubit_closed_form(self, family2, rng):
        # min over unit psi, phi of <phi|Phi(psi psi^dag)|phi> is (1 - max nu)/2 for nu > 0
        nus = np.array([[1.6, 0.7, 0.4], [0.3, 1.2, 0.9], [0.5, 0.2, 2.5]])
        psi, phi = random_pure_state(2, rng, 3), random_pure_state(2, rng, 3)
        psi, phi = _seesaw(family2, nus, psi, phi, 200)
        value = 0.5 + (nus * _overlap_form(family2, psi, phi)).sum(axis=1)
        assert np.abs(value - (1.0 - nus.max(axis=1)) / 2).max() <= 1e-12

    def test_negative_attempts_rejected(self, family3):
        rates = preset_rates("avg-decoherence", d=3)
        traj = build_trajectory(rates, t_max=1.0, steps=20)
        with pytest.raises(InvalidInputError, match="attempts"):
            find_p_divisibility_witness(traj, family3, attempts=-5)
        with pytest.raises(InvalidInputError, match="attempts"):
            analyze(rates, family3, t_max=1.0, steps=20, witness_attempts=-5)

    def test_negative_refine_iters_rejected(self, family3):
        rates = preset_rates("avg-decoherence", d=3)
        traj = build_trajectory(rates, t_max=1.0, steps=20)
        with pytest.raises(InvalidInputError, match="refine_iters"):
            find_p_divisibility_witness(traj, family3, refine_iters=-3)
        with pytest.raises(InvalidInputError, match="refine_iters"):
            analyze(rates, family3, t_max=1.0, steps=20, refine_iters=-3)


def reference_screen_grid_pairs(n: int) -> tuple:
    """The screen's (i, j) pair list built the plain way: a dense triangle of the
    sub-grid, every adjacent pair not in it yet, then one lexsort."""
    sub = np.unique(np.round(np.linspace(0, n, min(SCREEN_GRID, n + 1))).astype(np.int32))
    pair_i, pair_j = (sub[k] for k in np.nonzero(np.triu(np.ones((sub.size,) * 2, dtype=bool), 1)))
    if n + 1 > SCREEN_GRID:
        adj = np.setdiff1d(np.arange(n, dtype=np.int32), sub[:-1][np.diff(sub) == 1])
        pair_i, pair_j = np.concatenate([pair_i, adj]), np.concatenate([pair_j, adj + 1])
        order = np.lexsort((pair_j, pair_i))
        pair_i, pair_j = pair_i[order], pair_j[order]
    return pair_i, pair_j


class TestPairScreen:
    @pytest.mark.parametrize("n", [2, 3, 400, 401, 402, 800, 10_000])
    def test_pair_list_matches_the_reference(self, n):
        # lambda_1 rises and the rest stay 1, so no intermediate map is CP and every pair stays
        log_lam = np.zeros((n + 1, 4))
        log_lam[:, 0] = np.linspace(0.0, 1.0, n + 1)
        pair_i, pair_j = _screen_pairs(log_lam)
        ref_i, ref_j = reference_screen_grid_pairs(n)
        assert pair_i.dtype == pair_j.dtype == np.int32
        assert np.array_equal(pair_i, ref_i) and np.array_equal(pair_j, ref_j)

    @pytest.mark.parametrize("d, steps", [(3, 400), (3, 10_000), (5, 400), (7, 400),
                                          (7, 10_000), (13, 400)])
    @pytest.mark.parametrize("preset", ["eternal-general", "avg-decoherence"])
    def test_cp_filter_matches_row_major_margins(self, preset, d, steps):
        traj = build_trajectory(preset_rates(preset, d=d), t_max=5.0, steps=steps)
        log_lam = np.ascontiguousarray(traj.log_lambdas.T)
        ref_i, ref_j = reference_screen_grid_pairs(steps)
        nus = np.exp(log_lam[ref_j] - log_lam[ref_i])
        upper = cp_margins(nus.T)[1]  # one pair per row, reduced within the row
        pair_i, pair_j = _screen_pairs(log_lam)
        kept = np.isin(ref_i.astype(np.int64) * (steps + 1) + ref_j,
                       pair_i.astype(np.int64) * (steps + 1) + pair_j)
        assert kept.sum() == pair_i.size  # the screen keeps a sub-list of the reference order
        assert np.array_equal(ref_i[kept], pair_i) and np.array_equal(ref_j[kept], pair_j)
        flipped = kept != (upper < 0)
        if d <= 5:  # rows of at most 7 entries are summed left to right either way
            assert not flipped.any()
        else:  # only maps that are CP up to rounding may change side
            band = 4 * (d + 1) * np.finfo(float).eps * (1.0 + nus.sum(axis=1))
            assert np.all(np.abs(upper[flipped]) <= band[flipped])

    @pytest.mark.parametrize("preset, d, steps", [
        ("avg-decoherence", 3, 400), ("avg-decoherence", 13, 400), ("eternal-general", 5, 400),
        ("eternal-general", 7, 400), ("eternal-general", 3, 10_000), ("short-window", 3, 400),
    ])
    def test_any_budget_gives_the_same_witness(self, preset, d, steps, monkeypatch):
        # 64 (d+1) elements cut the screen and the tie scan into chunks of 64 pairs
        rates = (rate_set(3, ["1", "1", "1", "1 - 3*exp(0-((t-2.06)/0.02)^2)"])
                 if preset == "short-window" else preset_rates(preset, d=d))
        family = mub_family(d)
        traj = build_trajectory(rates, t_max=5.0, steps=steps)
        found = []
        for budget in (64 * (d + 1), 2**16, 10**9):
            monkeypatch.setattr(dynamics, "_STACK_ELEMENTS", budget)
            found.append(find_p_divisibility_witness(traj, family, seed=42).to_json_dict())
        assert found[0]["kind"] == "positivity"  # from the pair scans, not the axis scan
        assert found[0] == found[1] == found[2]

    def test_witness_search_memory_stays_bounded(self):
        # per-chunk nu peaks near 3 MiB here; a kept table of the 80,024 screened pairs adds 9 MB
        family = mub_family(13)
        traj = build_trajectory(preset_rates("eternal-general", d=13), t_max=5.0, steps=400)
        tracemalloc.start()
        try:
            find_p_divisibility_witness(traj, family, seed=42)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20


_TANH_PARAMS = st.tuples(*(st.floats(lo, hi, allow_subnormal=False)
                           for lo, hi in ((-0.6, 1.2), (-1.0, 1.0), (0.3, 2.0), (0.0, 4.0))))


def reference_best_pairs(log_lam: np.ndarray, pair_i, pair_j, q: np.ndarray) -> tuple:
    """The scoring pass of the witness search on all d+1 columns of ``log_lam`` (N+1, d+1),
    with nu . q summed over every axis."""
    best, where = np.full(len(q), np.inf), np.zeros(len(q), dtype=int)
    for lo, nus in dynamics._pair_chunks(log_lam, pair_i, pair_j, max(len(q), q.shape[1])):
        vals = q @ nus.T
        k = vals.argmin(axis=1)
        low = vals[np.arange(len(q)), k]
        where, best = np.where(low < best, lo + k, where), np.minimum(low, best)
    return best + 1.0 / (q.shape[1] - 1), where


def _singleton_axes(log_lam):
    return np.arange(len(log_lam)), np.arange(len(log_lam))


def _tanh_sources(params) -> list:
    return [f"{a!r} + {b!r}*tanh({c!r}*(t - {e!r}))" for a, b, c, e in params]


class TestDistinctAxes:
    """Route 2 of the witness search scores its grid pairs on the distinct lambda rows."""

    def test_equal_bits_from_different_sources_group_together(self):
        # 1 and 2-1 integrate to the same bits; 1.0000000000000002 is one ulp above 1
        rates = rate_set(5, ["1", "2-1", "1.0000000000000002", "-tanh(t)", "1.0", "-tanh(t)"])
        traj = build_trajectory(rates, t_max=3.0, steps=60)
        axes, group = dynamics._distinct_axes(traj.log_lambdas)
        assert axes == [0, 2, 3] and group == [0, 0, 1, 2, 0, 2]

    def test_rows_one_grid_value_apart_stay_apart(self):
        log_lam = np.array(build_trajectory(preset_rates("avg-decoherence", d=5), t_max=3.0,
                                            steps=60).log_lambdas)
        assert dynamics._distinct_axes(log_lam)[1] == [0, 0, 0, 0, 0, 1]
        log_lam[3, 17] = np.nextafter(log_lam[3, 17], np.inf)
        log_lam[4, 0] = -0.0  # the sign of a zero is a bit too
        axes, group = dynamics._distinct_axes(log_lam)
        assert axes == [0, 3, 4, 5] and group == [0, 0, 0, 1, 2, 3]

    @pytest.mark.parametrize("d, steps", [(3, 400), (7, 400), (7, 10_000), (13, 400)])
    @pytest.mark.parametrize("preset", ["eternal-general", "avg-decoherence"])
    def test_grouped_screen_keeps_the_pairs_of_every_column(self, preset, d, steps):
        log_lam = build_trajectory(preset_rates(preset, d=d), t_max=5.0, steps=steps).log_lambdas
        axes, group = dynamics._distinct_axes(log_lam)
        assert len(axes) == 2
        grouped = _screen_pairs(np.ascontiguousarray(log_lam[axes].T), group)
        full = _screen_pairs(np.ascontiguousarray(log_lam.T))
        assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(grouped, full))


@given(data=st.data(), d=st.sampled_from([3, 5, 7]), rows=st.sampled_from([12, 64]))
@settings(max_examples=30, deadline=None)
def test_best_pairs_on_distinct_rates_is_the_full_column_pass(data, d, rows):
    params = data.draw(st.lists(_TANH_PARAMS, min_size=d + 1, max_size=d + 1, unique=True))
    traj = build_trajectory(rate_set(d, _tanh_sources(params)), t_max=3.0, steps=60)
    axes, group = dynamics._distinct_axes(traj.log_lambdas)
    assume(len(axes) == d + 1)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    psi, phi = random_pure_state(d, rng, rows), random_pure_state(d, rng, rows)
    q = _overlap_form(mub_family(d), psi, phi)
    log_lam = np.ascontiguousarray(traj.log_lambdas.T)
    pair_i, pair_j = reference_screen_grid_pairs(traj.steps)
    fold = np.eye(len(axes))[group]  # the identity here
    with mock.patch.object(dynamics, "_STACK_ELEMENTS", 64 * (d + 1)):  # several chunks
        value, where = dynamics._best_pairs(log_lam, pair_i, pair_j, q @ fold, d)
        ref_value, ref_where = reference_best_pairs(log_lam, pair_i, pair_j, q)
    assert np.array_equal(value, ref_value) and np.array_equal(where, ref_where)


@given(data=st.data(), d=st.sampled_from([3, 5, 7]),
       kind=st.sampled_from(["semigroup", "eternal-general", "avg-decoherence", "tanh"]))
@settings(max_examples=40, deadline=None)
def test_grouped_search_finds_the_witness_of_the_singleton_search(data, d, kind):
    # a few sources, each shared by several rates, so the lambda rows repeat
    if kind == "semigroup":
        pool = data.draw(st.lists(st.floats(-1.0, 2.0, allow_subnormal=False), min_size=1,
                                  max_size=3))
        rates = preset_rates("semigroup", constants=[data.draw(st.sampled_from(pool))
                                                     for _ in range(d + 1)])
    elif kind == "tanh":
        pool = _tanh_sources(data.draw(st.lists(_TANH_PARAMS, min_size=1, max_size=3)))
        rates = rate_set(d, [data.draw(st.sampled_from(pool)) for _ in range(d + 1)])
    else:
        rates = preset_rates(kind, d=d)
    traj = build_trajectory(rates, t_max=3.0, steps=120)
    assume(len(dynamics._distinct_axes(traj.log_lambdas)[0]) <= d)
    family = mub_family(d)
    with mock.patch.object(dynamics, "_steps_pencil_positive", lambda traj, family: False):
        grouped = find_p_divisibility_witness(traj, family, seed=3)
        with mock.patch.object(dynamics, "_distinct_axes", _singleton_axes):
            singleton = find_p_divisibility_witness(traj, family, seed=3)
    assert (grouped is None) == (singleton is None)
    if grouped is not None:
        assert (grouped.kind, grouped.s, grouped.t) == (singleton.kind, singleton.s, singleton.t)
        assert grouped.magnitude == pytest.approx(singleton.magnitude, rel=1e-12)


@given(params=st.lists(_TANH_PARAMS, min_size=3, max_size=3))
# the sampled pair sum gamma_1 + gamma_2 is -0.021 at t = 0 only; every step average is > 0
@example(params=[
    (-0.2918659050658466, 0.960181433970825, 1.23757916375722, 0.028469404313108182),
    (0.05403650911314417, -0.5376874543616508, 0.3711375805065803, 1.3599882057027664),
    (0.9373867775822459, 0.34224903144858154, 1.5774776030269693, 0.30060267919655415),
])
# gamma_3 = 1e-12 tanh(t - 2) dips to -9.6e-13, inside the slack of the CP-map check
@example(params=[(0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 1.0, 0.0), (0.0, 1e-12, 1.0, 2.0)])
@settings(max_examples=40, deadline=None)
def test_qubit_witness_iff_a_pair_sum_is_negative(params):
    # a qubit Pauli map with lambda > 0 is positive iff every lambda <= 1 (Fujiwara and
    # Algoet, PRA 59, 3290 (1999)); lambda_c rises over a grid step exactly where the pair
    # sum of the other two rates, averaged over the step, (dG_a + dG_b) / dt = -mu_c, is
    # negative.  Sums within 0.02 of zero are not judged.
    rates = rate_set(2, [f"{a!r} + {b!r}*tanh({c!r}*(t - {e!r}))" for a, b, c, e in params])
    traj, report = analyze(rates, t_max=5.0, steps=120)
    g = np.diff(traj.big_gammas, axis=1) / np.diff(traj.grid)
    pair_min = min((g[a] + g[b]).min() for a, b in ((0, 1), (1, 2), (0, 2)))
    assume(abs(pair_min) >= 0.02)
    assert (report.trace_norm_witness is not None) == (pair_min < 0)
    if pair_min > 0:
        assert report.blp_witness is None


class TestCertifiedSteps:
    """Route 2 of the witness search does not run when the pair sum of ``_step_pair_sums``
    certifies every grid step: every grid map is then positive, and route 2 could only find
    nothing."""

    #: a d=7 semigroup with one negative rate whose steps the pair-sum bound certifies
    RATES = preset_rates("semigroup", constants=(0.9, 0.7, 1.3, 0.55, 1.8, 0.61, 1.2, -0.3))

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_overlaps_sum_to_one_and_stay_at_most_one_half(self, d):
        # the d+1 MUBs form a 2-design, so sum_a Q_a = 1 + |<psi|phi>|^2 = 1; <psi|phi> = 0
        # gives p_l + q_l <= 1 per outcome l, so Q_a = sum_l p_l q_l <= 1/2
        rng = np.random.default_rng(d)
        psi, phi = random_pure_state(d, rng, 500), random_pure_state(d, rng, 500)
        phi = phi - (psi.conj() * phi).sum(axis=1, keepdims=True) * psi
        phi /= np.linalg.norm(phi, axis=1, keepdims=True)
        family = mub_family(d)
        big_q = _overlap_form(family, psi, phi) + 1.0 / d
        tol = 64 * np.finfo(float).eps
        assert np.abs(big_q.sum(axis=1) - 1.0).max() <= tol
        assert big_q.min() >= -tol and big_q.max() <= 0.5 + tol
        # (e_0 +- e_1)/sqrt(2) reach 1/2 in the computational basis
        e = np.eye(d)[:2]
        edge = _overlap_form(family, ((e[0] + e[1]) / math.sqrt(2))[None],
                             ((e[0] - e[1]) / math.sqrt(2))[None])[0] + 1.0 / d
        assert edge[0] == pytest.approx(0.5, abs=tol)

    def test_route_2_does_not_run(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise _StageFailed("route 2 ran")

        family = mub_family(7)
        traj = build_trajectory(self.RATES, t_max=5.0, steps=400)
        assert bool(np.all(dynamics._step_pair_sums(traj)[1] >= 0.0))
        expected = analyze(self.RATES, family)[1].to_json_dict()
        monkeypatch.setattr(dynamics, "_screen_pairs", refuse)
        monkeypatch.setattr(dynamics, "_seesaw", refuse)
        _, report = analyze(self.RATES, family)
        assert report.to_json_dict() == expected
        assert report.trace_norm_witness is None and report.blp_witness is None
        for bad in (dict(attempts=-1), dict(refine_iters=-1), dict(seed=-1), dict(seed=True)):
            with pytest.raises(InvalidInputError):
                find_p_divisibility_witness(traj, family, **bad)
        for bad in (dict(witness_attempts=-1), dict(refine_iters=-1), dict(seed=-1)):
            with pytest.raises(InvalidInputError):
                analyze(self.RATES, family, **bad)

    def test_not_computed_at_d_2_nor_without_attempts(self, family2, family3, monkeypatch):
        def refuse(traj):
            raise _StageFailed("steps certified")

        monkeypatch.setattr(dynamics, "_step_pair_sums", refuse)
        analyze(preset_rates("eternal-qubit"), family2, t_max=2.0, steps=40)
        traj = build_trajectory(preset_rates("avg-decoherence", d=3), t_max=2.0, steps=40)
        find_p_divisibility_witness(traj, family3, attempts=0)
        with pytest.raises(InvalidInputError):  # the budgets are checked first
            find_p_divisibility_witness(traj, family3, refine_iters=-1)
        with pytest.raises(_StageFailed):
            find_p_divisibility_witness(traj, family3)


_FREE_TANH = st.tuples(*(st.floats(lo, hi, allow_subnormal=False)
                         for lo, hi in ((-0.6, 1.2), (-1.0, 1.0), (0.3, 2.0), (0.0, 3.0))))
_PLAIN_TANH = st.tuples(*(st.floats(lo, hi, allow_subnormal=False)
                          for lo, hi in ((0.4, 1.5), (-0.4, 0.4), (0.3, 2.0), (0.0, 3.0))))


@given(data=st.data(), d=st.sampled_from([3, 5, 7]), tanh=st.booleans())
@settings(max_examples=40, deadline=None)
def test_certified_steps_give_the_report_of_the_full_search(data, d, tanh):
    # one rate that may turn negative, d that stay nonnegative
    if tanh:
        params = [data.draw(_FREE_TANH)] + data.draw(st.lists(_PLAIN_TANH, min_size=d,
                                                              max_size=d))
        rates = rate_set(d, [f"{a!r} + {b!r}*tanh({c!r}*(t - {e!r}))" for a, b, c, e in params])
    else:
        constants = [data.draw(st.floats(-1.0, 1.0, allow_subnormal=False))] + data.draw(
            st.lists(st.floats(0.0, 2.0, allow_subnormal=False), min_size=d, max_size=d))
        rates = preset_rates("semigroup", constants=constants)
    assume(bool(np.all(dynamics._step_pair_sums(
        build_trajectory(rates, t_max=3.0, steps=100))[1] >= 0.0)))
    family = mub_family(d)
    _, report = analyze(rates, family, t_max=3.0, steps=100)
    # with the step certificate off, route 2 runs
    with mock.patch.object(dynamics, "_steps_pencil_positive", lambda traj, family: False):
        _, searched = analyze(rates, family, t_max=3.0, steps=100)
    assert report.to_json_dict() == searched.to_json_dict()
    assert report.trace_norm_witness is None and report.blp_witness is None


def _rate_index(label: str) -> int:
    return int(label.rsplit("gamma_", 1)[1])


@given(data=st.data(), d=st.sampled_from([2, 3, 5]))
@settings(max_examples=25, deadline=None)
def test_permuting_the_rates_permutes_the_verdict_labels(data, d):
    coeffs = st.floats(min_value=-1.0, max_value=1.0)
    sources = [f"{data.draw(coeffs)!r} + {data.draw(coeffs)!r}*tanh(2*(t - 1))"
               for _ in range(d + 1)]
    perm = data.draw(st.permutations(range(d + 1)))
    before, after = (
        analyze(rate_set(d, srcs), t_max=2.0, steps=40, witness_attempts=4, refine_iters=5,
                blp_pairs=2)[1]
        for srcs in (sources, [sources[k] for k in perm])
    )
    assert [v.status for v in after.verdicts] == [v.status for v in before.verdicts]
    # rate k+1 of the permuted set is rate perm[k]+1 of the original
    for old, new in ((before.cp_divisible, after.cp_divisible),
                     (before.p_necessary, after.p_necessary)):
        assert {perm[_rate_index(v.label) - 1] + 1 for v in new.violations} == \
            {_rate_index(v.label) for v in old.violations}
