"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Tolerances and sample sizes are fixed here and must not be
relaxed; timed criteria assert their runtime budgets.
"""

import math
import time

import numpy as np

from paulidyn.channel import (
    channel_from_eigenvalues,
    channel_from_probabilities,
    choi_matrix,
    is_cp_fujiwara,
)
from paulidyn.cli import main as cli_main
from paulidyn.dynamics import (
    VIOLATED,
    analyze,
    build_trajectory,
    check_cptp_trajectory,
    check_p_necessary,
    check_p_sufficient,
    find_p_divisibility_witness,
    intermediate_map,
)
from paulidyn.mub import (
    commuting_classes,
    mub_family,
    unbiasedness_table,
    unitary_mixing_map,
    weyl_basis,
)
from paulidyn.ratefn import preset_rates, rate_set


def _report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_01_mub_construction():
    start = time.perf_counter()
    worst = 0.0
    sizes_ok = True
    for d in (2, 3, 5, 7):
        family = mub_family(d)
        sizes_ok &= family.n_bases == d + 1
        for (_, _, _, _, val) in unbiasedness_table(family):
            worst = max(worst, abs(val - 1.0 / d))
    elapsed = time.perf_counter() - start
    ok = sizes_ok and worst <= 1e-12 and elapsed < 1.0
    _report(1, "MUB construction d in {2,3,5,7}",
            ok, f"worst overlap dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_weyl_algebra():
    worst = 0.0
    for d in (2, 3, 5):
        wb = weyl_basis(d)
        for k in range(d):
            for l in range(d):
                adjoint = wb.omega ** (k * l) * wb.operators[-k, -l]  # W_(-k, -l), mod d
                dev = np.abs(wb.operators[k, l].conj().T - adjoint).max()
                worst = max(worst, dev)
                for r in range(d):
                    for s in range(d):
                        lhs = wb.operators[k, l] @ wb.operators[r, s]
                        rhs = wb.omega ** (k * s) * wb.operators[(k + r) % d, (l + s) % d]
                        worst = max(worst, np.abs(lhs - rhs).max())
    partition = {frozenset(c) for c in commuting_classes(weyl_basis(3))}
    expected = {
        frozenset({(0, 1), (0, 2)}),
        frozenset({(1, 0), (2, 0)}),
        frozenset({(1, 1), (2, 2)}),
        frozenset({(1, 2), (2, 1)}),
    }
    ok = worst <= 1e-13 and partition == expected
    _report(2, "Weyl relations and d=3 commuting classes", ok, f"worst relation dev {worst:.2e}")


def test_criterion_03_channel_spectral_identities():
    rng = np.random.default_rng(3)
    worst_action = 0.0
    worst_roundtrip = 0.0
    for d in (2, 3, 5):
        family = mub_family(d)
        powers = []
        for a in range(d + 1):
            acc = np.eye(d, dtype=complex)
            row = []
            for _ in range(d - 1):
                acc = acc @ family.unitaries[a]
                row.append(acc.copy())
            powers.append(row)
        for _ in range(500):
            p = rng.random(d + 2)
            p /= p.sum()
            ch = channel_from_probabilities(family, p)
            back = channel_from_eigenvalues(family, ch.lambdas)
            worst_roundtrip = max(worst_roundtrip, np.abs(back.probabilities - p).max())
            for a in range(d + 1):
                for u in powers[a]:
                    dev = np.abs(ch(u) - ch.lambdas[a] * u).max()
                    worst_action = max(worst_action, dev)
    ok = worst_action <= 1e-11 and worst_roundtrip <= 1e-12
    _report(3, "spectral identities on 500 random channels per d",
            ok, f"action dev {worst_action:.2e}, roundtrip dev {worst_roundtrip:.2e}")


def test_criterion_04_cp_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    disagreements = 0
    tested = 0
    for d in (2, 3, 5):
        family = mub_family(d)
        # Choi is linear in the quasi-probabilities: precompute the component
        # Choi matrices with the generic matrix-unit probe, then combine
        c_id = choi_matrix(lambda rho: rho, dim=d).matrix
        c_mix = [
            choi_matrix(unitary_mixing_map(family, a)).matrix / (d - 1)
            for a in range(1, d + 2)
        ]
        # certify the linear combination against the direct probe on samples
        for _ in range(3):
            lam = rng.uniform(-1.2, 1.2, d + 1)
            ch = channel_from_eigenvalues(family, lam)
            combined = ch.probabilities[0] * c_id + sum(
                ch.probabilities[a + 1] * c_mix[a] for a in range(d + 1)
            )
            direct = choi_matrix(ch).matrix
            assert np.abs(combined - direct).max() <= 1e-13
        for _ in range(1000):
            lam = rng.uniform(-1.2, 1.2, d + 1)
            ch = channel_from_eigenvalues(family, lam)
            check = is_cp_fujiwara(ch)
            if abs(check.margin) < 1e-8:
                continue
            tested += 1
            choi = ch.probabilities[0] * c_id + sum(
                ch.probabilities[a + 1] * c_mix[a] for a in range(d + 1)
            )
            psd = np.linalg.eigvalsh(0.5 * (choi + choi.conj().T))[0] >= -1e-10
            if psd != check.is_cp:
                disagreements += 1
    elapsed = time.perf_counter() - start
    ok = disagreements == 0 and elapsed < 30.0 and tested > 2500
    _report(4, "eigenvalue CP test == Choi PSD on 1000 spectra per d",
            ok, f"{tested} decisive samples, {disagreements} disagreements, {elapsed:.1f}s")


def test_criterion_05_eternal_qubit_reproduction():
    traj = build_trajectory(preset_rates("eternal-qubit"), t_max=5.0, steps=400)
    t = traj.grid
    lam12 = (1.0 + np.exp(-2.0 * t)) / 2.0
    dev = max(
        np.abs(traj.lambdas[0] - lam12).max(),
        np.abs(traj.lambdas[1] - lam12).max(),
        np.abs(traj.lambdas[2] - np.exp(-2.0 * t)).max(),
    )
    gdev = np.abs(traj.big_gammas[2] + np.log(np.cosh(t))).max()
    ok = dev <= 1e-9 and gdev <= 1e-9
    _report(5, "eternal-qubit closed forms over 400 grid points",
            ok, f"lambda dev {dev:.2e}, Gamma_3 dev {gdev:.2e}")


def test_criterion_06_eternal_general_d3():
    traj = build_trajectory(preset_rates("eternal-general", d=3), t_max=5.0, steps=400)
    negatives = (traj.gammas[:, 1:] < 0).sum(axis=0)
    two_negative = bool(np.all(negatives == 2))
    cp_ok = check_cptp_trajectory(traj).holds
    verdict = check_p_necessary(traj)
    margin_dev = np.abs(verdict.margin_series - (1.0 - np.tanh(traj.grid))).max()
    ok = two_negative and cp_ok and verdict.holds and margin_dev <= 1e-9
    _report(6, "d=3 two-negative-rate evolution", ok,
            f"negatives per t>0 all =2: {two_negative}, margin dev {margin_dev:.2e}")


def test_criterion_07_avg_decoherence_not_p_divisible():
    start = time.perf_counter()
    family = mub_family(3)
    rates = preset_rates("avg-decoherence", d=3)
    traj = build_trajectory(rates, t_max=5.0, steps=400)
    nec = check_p_necessary(traj)
    suf = check_p_sufficient(traj)
    t_star = math.log(2.0) / 3.0
    spacing = traj.grid[1] - traj.grid[0]
    crossing_found = (
        suf.status == VIOLATED and abs(suf.first_violation_time - t_star) <= spacing
    )
    witness = find_p_divisibility_witness(traj, family, attempts=2000, refine_iters=50, seed=42)
    witness_ok = witness is not None and witness.magnitude > 1e-9
    certified = False
    if witness_ok and witness.kind == "positivity":
        i = int(np.argmin(np.abs(traj.grid - witness.s)))
        j = int(np.argmin(np.abs(traj.grid - witness.t)))
        v = channel_from_eigenvalues(family, intermediate_map(traj, i, j).nus)
        out = v(np.outer(witness.state, witness.state.conj()))
        certified = np.linalg.eigvalsh(out)[0] < -1e-9
    elapsed = time.perf_counter() - start
    ok = nec.holds and crossing_found and witness_ok and certified and elapsed < 120.0
    detail = (
        f"t* found {suf.first_violation_time:.4f} vs ln2/3 {t_star:.4f}, "
        f"witness {witness.kind if witness else 'none'} "
        f"magnitude {witness.magnitude if witness else 0:.3e}, {elapsed:.1f}s"
    )
    _report(7, "averaged-dephasing d=3 is not P-divisible", ok, detail)


def _random_rate_sources(rng, count):
    sources = []
    for _ in range(count):
        a = rng.uniform(-0.6, 1.2)
        b = rng.uniform(-1.0, 1.0)
        c = rng.uniform(0.3, 2.0)
        e = rng.uniform(0.0, 4.0)
        sources.append(f"{a!r} + {b!r}*tanh({c!r}*(t - {e!r}))")
    return sources


def _assert_hierarchy(report):
    witnesses = (report.trace_norm_witness, report.blp_witness)
    if report.cp_divisible.holds:
        assert report.cp_map_valid.holds
        assert report.p_sufficient.holds
        assert report.p_necessary.holds
        assert report.weyl_sufficient.holds
        assert report.frobenius_monotone.holds
        assert witnesses == (None, None)
    if report.p_sufficient.holds:
        assert report.p_necessary.holds
        assert report.frobenius_monotone.holds
        assert witnesses == (None, None)


def test_criterion_08_logical_hierarchy():
    rng = np.random.default_rng(8)
    runs = 0
    presets = [
        (preset_rates("eternal-qubit"), 2),
        (preset_rates("eternal-general", d=3), 3),
        (preset_rates("avg-decoherence", d=2), 2),
        (preset_rates("avg-decoherence", d=3), 3),
        (preset_rates("semigroup", constants=(1.0, 1.0, 1.0)), 2),
        (preset_rates("semigroup", constants=(0.5, 1.0, 0.2, 0.8)), 3),
    ]
    families = {2: mub_family(2), 3: mub_family(3)}
    for rates, d in presets:
        _, report = analyze(rates, families[d], t_max=5.0, steps=100,
                            witness_attempts=300, blp_pairs=8, seed=8)
        _assert_hierarchy(report)
        runs += 1
    for d in (2, 3):
        for k in range(200):
            if k % 2 == 0:
                rates = preset_rates(
                    "semigroup", constants=rng.uniform(-0.5, 1.5, d + 1)
                )
            else:
                rates = rate_set(d, _random_rate_sources(rng, d + 1))
            _, report = analyze(rates, families[d], t_max=4.0, steps=80,
                                witness_attempts=200, blp_pairs=6, seed=8000 + k)
            _assert_hierarchy(report)
            runs += 1
    _report(8, "divisibility hierarchy never violated", True, f"{runs} runs")


def test_criterion_09_qubit_sufficiency():
    rng = np.random.default_rng(9)
    family = mub_family(2)
    n_target = 200
    satisfied = []
    violating = []
    seed_counter = 0
    while len(satisfied) < n_target or len(violating) < n_target:
        seed_counter += 1
        sources = _random_rate_sources(rng, 3)
        rates = rate_set(2, sources)
        traj = build_trajectory(rates, t_max=5.0, steps=120)
        g = traj.gammas
        pair_margin = min(
            (g[0] + g[1]).min(), (g[1] + g[2]).min(), (g[2] + g[0]).min()
        )
        if pair_margin >= 0.02 and len(satisfied) < n_target:
            satisfied.append((seed_counter, traj))
        elif pair_margin <= -0.02 and len(violating) < n_target:
            violating.append((seed_counter, traj))
        assert seed_counter < 5000, "rate-set sampling failed to fill both branches"

    false_alarms = []
    for tag, traj in satisfied:
        w = find_p_divisibility_witness(traj, family, attempts=2000, refine_iters=50, seed=tag)
        if w is not None:
            false_alarms.append(tag)
    found = 0
    missed = []
    for tag, traj in violating:
        w = find_p_divisibility_witness(traj, family, attempts=2000, refine_iters=50, seed=tag)
        if w is not None and w.magnitude > 1e-9:
            found += 1
        else:
            missed.append(tag)
    if missed:
        print(f"criterion 9: witness missed for generator tags {missed}")
    rate = found / n_target
    ok = not false_alarms and rate >= 0.95
    _report(9, "d=2 pair condition is exactly the witness boundary", ok,
            f"false alarms {len(false_alarms)}, hit rate {rate:.3f}")


def test_criterion_10_determinism(tmp_path):
    specs = [
        (["mub", "--d", "3"], ["mub_d3.json", "mub_d3_overlaps.csv"]),
        (["channel", "--d", "3", "--lambdas", "0.5,0.2,-0.1,0.3"], ["channel_d3.json"]),
        (
            ["dynamics", "--preset", "avg-decoherence", "--d", "3", "--steps", "60",
             "--seed", "7", "--attempts", "300", "--blp-pairs", "6"],
            ["trajectory.csv", "report.json"],
        ),
    ]
    identical = True
    for argv, filenames in specs:
        out_a = tmp_path / ("a" + argv[0])
        out_b = tmp_path / ("b" + argv[0])
        assert cli_main(argv + ["--out", str(out_a)]) == 0
        assert cli_main(argv + ["--out", str(out_b)]) == 0
        for name in filenames:
            identical &= (out_a / name).read_bytes() == (out_b / name).read_bytes()
    _report(10, "identical config and seed give byte-identical outputs", identical)
