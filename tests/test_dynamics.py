import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from paulidyn.channel import choi_matrix
from paulidyn.dynamics import (
    NOT_APPLICABLE,
    VIOLATED,
    analyze,
    build_trajectory,
    channel_at,
    check_blp,
    check_cp_divisible,
    check_cptp_trajectory,
    check_frobenius_monotone,
    check_p_necessary,
    check_p_sufficient,
    check_weyl_sufficient,
    evolve_operator,
    find_p_divisibility_witness,
    generator_apply,
    intermediate_map,
    trajectory_to_csv,
    weyl_rates_from_trajectory,
)
from paulidyn.errors import EvaluationError, InvalidInputError, QuadratureError
from paulidyn.linalg import random_density_matrix, random_hermitian, trace_norm
from paulidyn.mub import dephase_all
from paulidyn.ratefn import preset_rates, rate_set
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

    def test_mus_are_rate_deviations(self):
        traj = build_trajectory(preset_rates("eternal-qubit"), t_max=1.0, steps=10)
        total = traj.gammas.sum(axis=0)
        assert np.abs(traj.mus - (traj.gammas - total)).max() == 0.0


class TestGenerator:
    def test_annihilates_identity(self, family3):
        rates = preset_rates("avg-decoherence", d=3)
        out = generator_apply(rates, family3, 0.7, np.eye(3))
        assert np.abs(out).max() <= 1e-14

    def test_qubit_sigma_form(self, family2, rng):
        rates = preset_rates("eternal-qubit")
        t = 0.9
        g = rates.sample(t)
        rho = random_density_matrix(2, rng)
        sigma_form = sum(
            0.5 * g[a - 1] * (PAULI[ALPHA_TO_PAULI[a]] @ rho @ PAULI[ALPHA_TO_PAULI[a]] - rho)
            for a in (1, 2, 3)
        )
        assert np.abs(generator_apply(rates, family2, t, rho) - sigma_form).max() <= 1e-13

    def test_eigen_action(self, family3):
        rates = preset_rates("eternal-general", d=3)
        t = 1.3
        g = np.array(rates.sample(t))
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
            ch = channel_at(traj, family, idx)
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
        ch = channel_at(traj, family3, idx)
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
            choi = choi_matrix(channel_at(traj, family2, idx))
            assert choi.is_positive()

    def test_cptp_negative_rate_violates_with_choi_agreement(self, family2):
        rates = preset_rates("semigroup", constants=(-1.0, 0.0, 0.0))
        traj = build_trajectory(rates, t_max=1.0, steps=10)
        verdict = check_cptp_trajectory(traj)
        assert verdict.status == VIOLATED
        assert verdict.first_violation_time == pytest.approx(traj.grid[1])
        for idx in (2, 10):
            choi = choi_matrix(channel_at(traj, family2, idx))
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
        v = intermediate_map(traj, i, j).as_channel(family3)
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
            v = intermediate_map(traj, i, j).as_channel(family2)
            grown = trace_norm(v(w.operator)) / trace_norm(w.operator)
            assert grown - 1.0 == pytest.approx(w.magnitude, rel=1e-6)

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


class TestAnalyzeAndExports:
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
