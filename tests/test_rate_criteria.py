"""The rate criteria as one function of the rate vector, and the hierarchy between them."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paulidyn.dynamics as dynamics
from paulidyn.dynamics import VIOLATED, Witness, analyze, check_weyl_sufficient
from paulidyn.errors import InternalConsistencyError, InvalidInputError
from paulidyn.ratefn import preset_rates

RATE_CRITERIA = ("cp_divisible", "p_necessary", "p_sufficient", "weyl_sufficient",
                 "frobenius_monotone")


def test_weyl_sufficient_rejects_malformed_rates():
    grid = np.linspace(0.0, 1.0, 5)
    rates = np.ones((8, 5))
    assert check_weyl_sufficient(rates, grid, 3).holds
    with_nan, with_minus_inf = rates.copy(), rates.copy()
    with_nan[3, 2] = np.nan
    with_minus_inf[0, 4] = -np.inf
    for bad in (np.ones(8), np.ones((8, 5, 1)), with_nan, with_minus_inf):
        with pytest.raises(InvalidInputError):
            check_weyl_sufficient(bad, grid, 3)


def test_unknown_rate_criterion_is_refused():
    with pytest.raises(ValueError, match="cp_map_valid"):
        dynamics._rate_verdict("cp_map_valid", np.zeros(2), np.ones((3, 2)))


@given(data=st.data(), d=st.sampled_from([2, 3, 5, 7]))
@settings(max_examples=300, deadline=None)
def test_raising_a_rate_never_lowers_a_rate_criterion(data, d):
    # every criterion is nondecreasing in each gamma_alpha; in floating point only the -mu
    # rows, fl(sum gamma) - gamma_alpha, can drop, by a few ulps of the rates' scale.  The
    # status is not monotone: a column that becomes applicable may be violated there.
    columns = data.draw(st.integers(1, 4))
    rate = st.one_of(st.floats(-2.0, 2.0),
                     st.sampled_from([0.0, -0.0, 1e-12, -1e-12, -2e-12]))
    size = (d + 1) * columns
    gammas = np.array(data.draw(st.lists(rate, min_size=size, max_size=size)))
    gammas = gammas.reshape(d + 1, columns)
    raised = gammas.copy()
    raised[data.draw(st.integers(0, d))] += data.draw(
        st.lists(st.floats(0.0, 2.0), min_size=columns, max_size=columns))
    grid = np.arange(float(columns))
    band = 4 * np.spacing(np.maximum(np.abs(gammas).sum(axis=0), np.abs(raised).sum(axis=0)))
    for criterion in RATE_CRITERIA:
        before, after = (dynamics._rate_verdict(criterion, grid, g).margin_series
                         for g in (gammas, raised))
        assert not (np.isfinite(before) & np.isnan(after)).any(), criterion
        both = np.isfinite(before) & np.isfinite(after)
        assert (after[both] >= before[both] - band[both]).all(), criterion


@pytest.fixture(scope="module")
def positive_semigroup_report():
    """A report on which every verdict holds and no witness is found."""
    return analyze(preset_rates("semigroup", constants=(1.0, 0.5, 2.0)))[1]


@pytest.mark.parametrize("premise, consequence", [
    (premise, consequence) for premise, implied in dynamics._IMPLIED.items()
    for consequence in implied + ("trace_norm_witness", "blp_witness")
])
def test_hierarchy_breach_names_its_premise(positive_semigroup_report, premise, consequence):
    report = positive_semigroup_report
    dynamics._enforce_hierarchy(report)
    # the premise and what it implies are left holding, every other premise fails, and
    # one consequence is broken
    broken = {name: replace(getattr(report, name), status=VIOLATED)
              for name in dynamics._IMPLIED
              if name != premise and name not in dynamics._IMPLIED[premise]}
    if consequence.endswith("_witness"):
        broken[consequence] = Witness(kind="blp", s=0.0, t=1.0, magnitude=1.0)
    else:
        broken[consequence] = replace(getattr(report, consequence), status=VIOLATED)
    with pytest.raises(InternalConsistencyError,
                       match=f"hierarchy violated: {premise} holds but {consequence} "):
        dynamics._enforce_hierarchy(replace(report, **broken))
