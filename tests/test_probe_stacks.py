"""The BLP probe and the Frobenius sampling evaluate their probe operators as stacks.

The per-operator loops they replaced are kept here as references: a stacked
distance table, witness and note must equal theirs bit for bit, whatever the
stack size, and the stacks must keep memory near the per-operator peak.
"""

import tracemalloc

import numpy as np
import pytest

import paulidyn.dynamics as dynamics
from paulidyn.dynamics import (
    BLP_ROUNDING_FLOOR,
    TIE_ULPS,
    TOL_WITNESS_NORM,
    Witness,
    _stacks,
    _trace_distances,
    build_trajectory,
    check_blp,
    check_frobenius_monotone,
    evolve_operator,
)
from paulidyn.linalg import random_density_matrix, random_hermitian
from paulidyn.mub import class_table, from_weyl_coefficients, mub_family, weyl_coefficients
from paulidyn.ratefn import preset_rates, rate_set


def reference_trace_distances(traj, family, delta):
    """One pair's ||X(t)||_1, computed on its own: the absolute eigenvalue sums of its
    orbit, built from its hermitized axis blocks with those below the rounding residue
    dropped (the per-pair form); block a keeps the class-a Weyl coefficients of delta."""
    d = traj.dim
    c = weyl_coefficients(delta)
    c[0, 0] = 0.0
    blocks = from_weyl_coefficients(class_table(family, np.eye(d + 1)) * c)
    norms = np.linalg.norm(blocks, axis=(-2, -1))
    residue = BLP_ROUNDING_FLOOR * np.finfo(float).eps * d * np.linalg.norm(norms)
    blocks[norms <= residue] = 0.0
    blocks = 0.5 * (blocks + np.conj(np.swapaxes(blocks, -1, -2)))
    orbit = np.tensordot(traj.lambdas.T, blocks, axes=1)
    return np.abs(np.linalg.eigvalsh(orbit)).sum(axis=1)


def reference_blp(traj, deltas, table):
    """The witness of the per-pair rise loop over the rows of ``table``."""
    d = traj.dim
    rel = np.zeros((len(deltas), traj.steps))
    for dists, row in zip(table, rel):
        rise = np.diff(dists)
        above = rise > BLP_ROUNDING_FLOOR * np.finfo(float).eps * d * dists[0]
        row[above] = rise[above] / np.maximum(dists[:-1][above], 1e-300)
    top = float(rel.max(initial=0.0))
    if top <= TOL_WITNESS_NORM:
        return None
    tied = rel >= top - TIE_ULPS * np.finfo(float).eps * (1.0 + top)
    k, idx = divmod(int(np.flatnonzero(tied)[0]), traj.steps)
    return Witness(kind="blp", s=float(traj.grid[idx]), t=float(traj.grid[idx + 1]),
                   magnitude=float(rel[k, idx]), operator=deltas[k],
                   detail="trace distance of an evolved state pair increased")


def reference_sampled_increase(traj, family, samples, seed):
    """The largest relative Frobenius-norm step of the sampled operators, one at a time."""
    worst = 0.0
    for x in random_hermitian(traj.dim, np.random.default_rng(seed), samples):
        norms = np.linalg.norm(evolve_operator(traj, family, x), axis=(1, 2))
        worst = max(worst, float((np.diff(norms) / np.maximum(norms[:-1], 1e-300)).max()))
    return worst


def tanh_trajectory(d, seed, steps):
    rng = np.random.default_rng(seed)
    sources = [f"{rng.uniform(-0.6, 1.2)!r} + {rng.uniform(-1.0, 1.0)!r}*"
               f"tanh({rng.uniform(0.3, 2.0)!r}*(t - {rng.uniform(0.0, 4.0)!r}))"
               for _ in range(d + 1)]
    return build_trajectory(rate_set(d, sources), t_max=5.0, steps=steps)


def probe_pairs(family, seed):
    """State pairs whose differences live on one axis (antipodal), on every axis
    (random), on two and on three axes (mixtures of antipodal pairs), and on none."""
    d = family.dim
    p = [[family.projector(a, l) for l in (0, 1)] for a in range(1, d + 2)]
    rhos = random_density_matrix(d, np.random.default_rng(seed), 9)
    pairs = [(p0, p1) for p0, p1 in p]
    pairs += [(rhos[k], rhos[k + 1]) for k in range(0, 8, 2)]
    for axes, weights in (((0, 1), (1.0, 0.3)), ((1, d), (1.0, 0.7)),
                          ((0, 1, 2), (1.0, 0.6, 0.25))):
        total = sum(weights)
        pairs.append(tuple(sum(w * p[a][l] for a, w in zip(axes, weights)) / total
                           for l in (0, 1)))
    pairs.append((rhos[8], rhos[8]))
    return pairs


def pair_deltas(pairs):
    return np.array([rho1 - rho2 for rho1, rho2 in pairs])


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


def witness_json(w):
    return None if w is None else w.to_json_dict()


class TestStackedBlp:
    @pytest.mark.parametrize("steps", [2, 120, 400, 10_000])
    @pytest.mark.parametrize("d", [2, 3, 5, 7, 13])
    def test_table_and_witness_equal_the_per_pair_loop(self, d, steps):
        family = mub_family(d)
        traj = tanh_trajectory(d, seed=d + steps, steps=steps)
        pairs = probe_pairs(family, seed=steps)
        deltas = pair_deltas(pairs)
        table = _trace_distances(traj, family, deltas)
        ref = np.array([reference_trace_distances(traj, family, delta) for delta in deltas])
        assert_same_bits(table, ref)
        assert not table[-1].any()  # the zero difference
        # with and without the antipodal pairs, whose rises are usually the largest
        for first in (0, d + 1):
            assert witness_json(check_blp(traj, family, pairs[first:])) == \
                witness_json(reference_blp(traj, deltas[first:], ref[first:]))

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_sampled_pairs_equal_the_per_pair_loop(self, d, seed):
        # check_blp's own pairs: every antipodal pair, then random ones
        family = mub_family(d)
        traj = tanh_trajectory(d, seed=seed, steps=400)
        b = family.bases[:, :2]
        projs = b[..., :, None] * b[..., None, :].conj()
        rhos = random_density_matrix(d, np.random.default_rng(seed), 2 * (20 - d - 1))
        deltas = np.concatenate((projs[:, 0] - projs[:, 1], rhos[0::2] - rhos[1::2]))
        # the antipodal distances are read off as 2 lambda_a
        ref = np.concatenate((2.0 * traj.lambdas, [reference_trace_distances(traj, family, delta)
                                                   for delta in deltas[d + 1:]]))
        assert witness_json(check_blp(traj, family, 20, seed)) == \
            witness_json(reference_blp(traj, deltas, ref))

    def test_one_operator_gives_one_row(self):
        family = mub_family(3)
        traj = tanh_trajectory(3, seed=1, steps=120)
        delta = pair_deltas(probe_pairs(family, seed=1))[-2]
        assert_same_bits(_trace_distances(traj, family, delta),
                         reference_trace_distances(traj, family, delta))

    @pytest.mark.parametrize("pairs", [0, []])
    def test_no_pairs_no_witness(self, pairs):
        family = mub_family(3)
        traj = tanh_trajectory(3, seed=1, steps=120)
        assert check_blp(traj, family, pairs) is None
        assert _trace_distances(traj, family, np.zeros((0, 3, 3))).shape == (0, 121)

    @pytest.mark.parametrize("spare", [-1, 0, 1])
    @pytest.mark.parametrize("items", [1, 2, 3])
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_stacks_split_at_the_budget_boundary(self, d, items, spare, monkeypatch):
        # an orbit's largest temporary: its (N+1) d^2 elements
        family = mub_family(d)
        traj = tanh_trajectory(d, seed=3, steps=120)
        pairs = probe_pairs(family, seed=3)
        deltas = pair_deltas(pairs)
        ref = np.array([reference_trace_distances(traj, family, delta) for delta in deltas])
        item = 121 * d * d
        monkeypatch.setattr(dynamics, "_STACK_ELEMENTS", items * item + spare)
        per_stack = max(1, items - (spare < 0))
        assert {s.stop - s.start for s in _stacks(5 * per_stack, item)} == {per_stack}
        assert_same_bits(_trace_distances(traj, family, deltas), ref)
        assert witness_json(check_blp(traj, family, pairs)) == \
            witness_json(reference_blp(traj, deltas, ref))

    @pytest.mark.parametrize("d", [2, 3, 5, 13])
    def test_any_budget_gives_the_same_table(self, d, monkeypatch):
        # budget 1 puts every orbit in a stack of its own, (d+1) d^2 splits the axis blocks
        family = mub_family(d)
        traj = tanh_trajectory(d, seed=4, steps=120)
        deltas = pair_deltas(probe_pairs(family, seed=4))
        ref = np.array([reference_trace_distances(traj, family, delta) for delta in deltas])
        for budget in (1, 2 * (d + 1) * d * d, 10**9):
            monkeypatch.setattr(dynamics, "_STACK_ELEMENTS", budget)
            assert_same_bits(_trace_distances(traj, family, deltas), ref)


class TestStackedFrobenius:
    @pytest.mark.parametrize("budget", [1, 2**16, 10**9])
    @pytest.mark.parametrize("d, steps", [(2, 120), (3, 400), (5, 400), (7, 120), (3, 10_000)])
    def test_note_equals_the_per_sample_loop(self, d, steps, budget, monkeypatch):
        family = mub_family(d)
        traj = build_trajectory(preset_rates("eternal-general", d=d), t_max=5.0, steps=steps)
        analytic = check_frobenius_monotone(traj)
        worst = reference_sampled_increase(traj, family, 8, 42)
        note = analytic.note + f" sampled 8 operators, max relative increase {worst:.3e}"
        monkeypatch.setattr(dynamics, "_STACK_ELEMENTS", budget)
        assert check_frobenius_monotone(traj, family, seed=42).note == note.strip()


@pytest.mark.parametrize("d, steps, loop_peak_mib", [(13, 400, 2.58), (3, 10_000, 4.15)])
def test_probe_memory_stays_near_the_per_operator_peak(d, steps, loop_peak_mib):
    # The per-operator loops peaked at 2.58 MiB (d=13) and 4.15 MiB (d=3, 10^4 steps)
    # under tracemalloc; the bounded stacks peak at 2.58 and 4.00 MiB.  Stacking all
    # 20 pairs and 8 samples at once peaks at 16.6 and 41.3 MiB.
    family = mub_family(d)
    traj = build_trajectory(preset_rates("eternal-general", d=d), t_max=5.0, steps=steps)

    def probe():
        check_frobenius_monotone(traj, family, seed=42)
        check_blp(traj, family, seed=42)

    probe()  # the first calls also import lazily
    tracemalloc.start()
    try:
        probe()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (loop_peak_mib + 1.0) * 2**20
