"""The Kossakowski pencil step certificate of the witness search.

With s = (psi (x) phi + phi (x) psi)/sqrt(2), sum_a dG_a Q_a(psi, phi) = <s|sum_a dG_a M_a|s>/2
for M_a = sum_l P_al (x) P_al, so a step whose pencil has no negative eigenvalue on Sym^2
is a positive map.  ``_steps_pencil_positive`` checks the Weyl-reduced block on the steps
that the pair sum of ``_step_pair_sums`` leaves open; when every step passes, route 2 of
``find_p_divisibility_witness`` does not run.
"""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import paulidyn.dynamics as dynamics
from paulidyn.dynamics import (
    _step_pair_sums,
    _steps_pencil_positive,
    _sym_pencil_blocks,
    analyze,
    build_trajectory,
)
from paulidyn.mub import mub_family
from paulidyn.ratefn import preset_rates, rate_set

TOL = 64 * np.finfo(float).eps


class _RouteTwoRan(Exception):
    pass


def _sym2_pencil_minimum(family, g):
    """lambda_min of sum_a g_a M_a on all of Sym^2, from the d^2 x d^2 projector sums."""
    d = family.dim
    proj = np.einsum("alm,aln->almn", family.bases, family.bases.conj())
    m = np.einsum("almn,alpq->ampnq", proj, proj).reshape(d + 1, d * d, d * d)
    swap = np.eye(d * d).reshape(d, d, d, d).transpose(0, 1, 3, 2).reshape(d * d, d * d)
    w, u = np.linalg.eigh((np.eye(d * d) + swap) / 2)
    sym = u[:, w > 0.5]
    return np.linalg.eigvalsh(sym.conj().T @ np.einsum("a,aij->ij", g, m) @ sym)[0]


def _block_minimum(blocks, g):
    return np.linalg.eigvalsh(np.einsum("a,ast->st", g, blocks))[0]


class TestReducedBlock:
    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_blocks_sum_to_twice_the_identity(self, d):
        # the MUBs form a 2-design: sum_a M_a = I + SWAP, which is 2 I on Sym^2
        blocks = _sym_pencil_blocks(mub_family(d))
        n = (d + 1) // 2
        assert blocks.shape == (d + 1, n, n)
        assert np.abs(blocks.sum(axis=0) - 2.0 * np.eye(n)).max() <= TOL
        # each C_a^dag C_a is Hermitian with spectrum in [0, 1]: 0 <= M_a <= I
        assert np.abs(blocks - blocks.conj().transpose(0, 2, 1)).max() <= TOL
        spectra = np.linalg.eigvalsh(blocks)
        assert spectra.min() >= -TOL and spectra.max() <= 1.0 + TOL

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_block_minimum_is_the_sym2_minimum(self, d):
        family = mub_family(d)
        blocks = _sym_pencil_blocks(family)
        rng = np.random.default_rng(d)
        for _ in range(20):
            g = rng.normal(0.5, 1.0, d + 1)
            full = _sym2_pencil_minimum(family, g)
            assert _block_minimum(blocks, g) == pytest.approx(full, abs=1e-12)


@given(d=st.sampled_from([3, 5, 7]),
       g=st.lists(st.floats(-2.0, 2.0, allow_subnormal=False), min_size=8, max_size=8))
@settings(max_examples=60, deadline=None)
def test_pencil_certifies_every_step_the_pair_sum_does(d, g):
    # M_a <= I and sum_a M_a = 2 I give lambda_min >= g_(1) + g_(2)
    g = np.array(g[:d + 1])
    low = np.sort(g)[:2].sum()
    assert _block_minimum(_sym_pencil_blocks(mub_family(d)), g) >= low - TOL * 8


@pytest.mark.parametrize("d, t_max, steps", [(3, 5.0, 400), (5, 1.0, 2000), (7, 1.0, 10_000)])
def test_avg_decoherence_loses_the_certificate_at_t_p(d, t_max, steps):
    # avg-decoherence stops being P-divisible at t_P = ln(2(d-1)/(d-2))/d; a step is a
    # grid average of the rates, so the first uncertified step [t_k, t_(k+1)] has
    # t_k - dt <= t_P <= t_(k+1)
    family = mub_family(d)
    traj = build_trajectory(preset_rates("avg-decoherence", d=d), t_max=t_max, steps=steps)
    increments = np.diff(traj.big_gammas, axis=1)
    minima = np.linalg.eigvalsh(np.einsum("ak,ast->kst", increments,
                                          _sym_pencil_blocks(family)))[:, 0]
    k = int(np.flatnonzero(minima < 0.0)[0])
    t_p = math.log(2 * (d - 1) / (d - 2)) / d
    dt = t_max / steps
    assert traj.grid[k] - dt <= t_p <= traj.grid[k + 1]

    def upto(j):
        return replace(traj, grid=traj.grid[:j + 1], gammas=traj.gammas[:, :j + 1],
                       big_gammas=traj.big_gammas[:, :j + 1], lambdas=traj.lambdas[:, :j + 1])

    assert _steps_pencil_positive(upto(k), family)
    assert not _steps_pencil_positive(upto(k + 1), family)


def test_an_overflowing_increment_is_not_certified():
    # increments that leave the double range scale to NaN, which eigvalsh may read as 0
    family = mub_family(3)
    traj = build_trajectory(preset_rates("semigroup", constants=(1.0, 0.5, 2.0, -0.9)),
                            t_max=1.0, steps=4)
    assert _steps_pencil_positive(traj, family)
    big = traj.big_gammas.copy()
    big[3, 2:] = [1.7e308, -1.7e308, -1.7e308]
    assert not _steps_pencil_positive(replace(traj, big_gammas=big), family)


class TestPencilSkip:
    """Semigroups whose steps the pair sum leaves open and the pencil certifies."""

    CONSTANTS = [(0.9, 0.7, 1.3, 0.55, 1.8, 0.61, 1.2, -0.6), (1.0, 0.4, 0.8, 1.5, 0.9, -0.5),
                 (1.0, 0.5, 2.0, -0.9)]

    @pytest.mark.parametrize("constants", CONSTANTS, ids=["d7", "d5", "d3"])
    def test_route_2_does_not_run(self, constants, monkeypatch):
        def refuse(*args, **kwargs):
            raise _RouteTwoRan("route 2 ran")

        rates = preset_rates("semigroup", constants=constants)
        family = mub_family(len(constants) - 1)
        traj = build_trajectory(rates, t_max=5.0, steps=400)
        assert not bool(np.all(_step_pair_sums(traj)[1] >= 0.0))
        assert _steps_pencil_positive(traj, family)
        with mock.patch.object(dynamics, "_steps_pencil_positive", lambda traj, fam: False):
            expected = analyze(rates, family)[1].to_json_dict()
        monkeypatch.setattr(dynamics, "_screen_pairs", refuse)
        monkeypatch.setattr(dynamics, "_seesaw", refuse)
        _, report = analyze(rates, family)
        assert report.to_json_dict() == expected
        assert report.trace_norm_witness is None and report.blp_witness is None

    def test_not_computed_when_the_pair_sum_certifies(self, monkeypatch):
        def refuse(family):
            raise _RouteTwoRan("pencil ran")

        monkeypatch.setattr(dynamics, "_sym_pencil_blocks", refuse)
        rates = preset_rates("semigroup", constants=(0.9, 0.7, 1.3, 0.55, 1.8, 0.61, 1.2, -0.3))
        analyze(rates, mub_family(7))
        with pytest.raises(_RouteTwoRan):
            analyze(preset_rates("avg-decoherence", d=3), mub_family(3), steps=40)


_NEGATIVE_TANH = st.tuples(*(st.floats(lo, hi, allow_subnormal=False)
                             for lo, hi in ((-1.0, -0.2), (-0.4, 0.4), (0.3, 2.0), (0.0, 3.0))))
_POSITIVE_TANH = st.tuples(*(st.floats(lo, hi, allow_subnormal=False)
                             for lo, hi in ((0.5, 2.0), (-0.3, 0.3), (0.3, 2.0), (0.0, 3.0))))


@given(data=st.data(), d=st.sampled_from([3, 5, 7]), tanh=st.booleans())
@settings(max_examples=40, deadline=None)
def test_pencil_certified_steps_give_the_report_of_the_full_search(data, d, tanh):
    # one rate negative enough to leave pair-sum steps open, d that stay positive
    if tanh:
        params = [data.draw(_NEGATIVE_TANH)] + data.draw(st.lists(_POSITIVE_TANH, min_size=d,
                                                                  max_size=d))
        rates = rate_set(d, [f"{a!r} + {b!r}*tanh({c!r}*(t - {e!r}))" for a, b, c, e in params])
    else:
        constants = [data.draw(st.floats(-1.2, -0.2, allow_subnormal=False))] + data.draw(
            st.lists(st.floats(0.2, 2.0, allow_subnormal=False), min_size=d, max_size=d))
        rates = preset_rates("semigroup", constants=constants)
    family = mub_family(d)
    traj = build_trajectory(rates, t_max=3.0, steps=100)
    assume(_steps_pencil_positive(traj, family))
    _, report = analyze(rates, family, t_max=3.0, steps=100)
    with mock.patch.object(dynamics, "_steps_pencil_positive", lambda traj, fam: False):
        _, searched = analyze(rates, family, t_max=3.0, steps=100)
    assert report.to_json_dict() == searched.to_json_dict()
    assert report.trace_norm_witness is None and report.blp_witness is None
