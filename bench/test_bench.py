"""Self-test of the benchmark (not part of the package's test suite).

Run from the repository root::

    python3 -m pytest -q bench/test_bench.py

It checks that every workload emits exactly the metrics ``BENCHMARK.json``
declares, that each verdict oracle trips on an injected wrong result, that
the tracer survives a wrapped name that no longer exists, and that the
benchmark refuses to run where there is no program to measure.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import oracles
import run
from tracer import LAYERS, REPORTED, SPAN, Layer, Tracer
from workloads import WHY, WORKLOADS, Case, closed_form_rates, make_round

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_benchmark_json_matches_the_workloads():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == list(WHY.items())
    assert set(_declared("per_layer")) == set(REPORTED) | {"trace.overhead_frac"}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_workload_emits_every_metric(workload, trace):
    info, result = run.run(workload, seed=3, seconds=0.0, trace=bool(trace), tiny=True,
                           setup_repeats=1)
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for value in result["metrics"].values():
        assert isinstance(value["value"], float) and math.isfinite(value["value"])
    assert result["attempted"] >= 1
    assert result["correct"] and result["failed"] == 0, info["failed"]
    assert info["failed_frac"] == 0.0
    assert set(info["provenance"]) >= {"nproc", "blas", "numpy", "python", "git_sha", "seed",
                                       "percentile", "sandbox", "held_out_seed"}
    if not trace:
        assert set(info["raw_wall_time"]) == set(declared) - {"peak_rss_mb"} | {
            "analyze_s_p90", "host_factor_median", "startup_reference_s"}
    json.dumps(result, allow_nan=False)


# ---------------------------------------------------------------------------
# Oracles trip on injected wrong results
# ---------------------------------------------------------------------------


def _genuine(case):
    ctx = run.setup("preset-sweep", tiny=True)
    family = ctx.families[case.dim]
    traj, report = ctx.dynamics.analyze(run._rates(ctx, case), family, t_max=case.t_max,
                                        steps=case.steps, seed=case.seed)
    powers = oracles.unitary_powers(family.unitaries)
    return report.to_json_dict(), np.array(traj.grid), np.array(traj.lambdas), powers


AVG3 = Case("avg-decoherence-d3", 3, ("preset", "avg-decoherence", None), 5.0, 40, 11)
QUBIT = Case("eternal-qubit", 2, ("preset", "eternal-qubit", None), 5.0, 40, 12)
#: a d = 2 rate set whose pair sum gamma_2 + gamma_3 reaches -0.5
QUBIT_VIOLATING = Case("tanh-d2", 2, ("tanh", ((1.0, 0.0, 1.0, 0.0), (0.25, 0.0, 1.0, 0.0),
                                                (0.0, -0.75, 1.0, 1.0))), 5.0, 40, 13)


def _strip(key):
    def corrupt(report, grid, lambdas):
        report[key] = {"found": False}
    return corrupt


def _collapse_witness(key):
    """Point the witness at the identity map (s = t), which never breaks anything."""
    def corrupt(report, grid, lambdas):
        report[key]["t"] = report[key]["s"]
    return corrupt


def _shift_t_star(report, grid, lambdas):
    report["criteria"]["p_sufficient"]["first_violation_time"] += 2 * (grid[1] - grid[0])


def _flip(criterion, status):
    def corrupt(report, grid, lambdas):
        report["criteria"][criterion]["status"] = status
    return corrupt


def _nan_margin(report, grid, lambdas):
    report["criteria"]["p_necessary"]["margin"] = math.nan


def _null_margin(report, grid, lambdas):
    report["criteria"]["cp_map_valid"]["margin"] = None


def _perturb_lambdas(report, grid, lambdas):
    lambdas[2, 5] += 1e-6


def _inject_witness(report, grid, lambdas):
    report["trace_norm_witness"] = {"found": True, "kind": "trace-norm", "s": grid[1],
                                    "t": grid[3], "magnitude": 1.0,
                                    "operator": [[[1.0, 0.0], [0.0, 0.0]],
                                                 [[0.0, 0.0], [-1.0, 0.0]]]}


CORRUPTIONS = [
    (AVG3, "stripped witness", _strip("trace_norm_witness")),
    (AVG3, "collapsed witness", _collapse_witness("trace_norm_witness")),
    (AVG3, "shifted t*", _shift_t_star),
    (AVG3, "p_necessary flipped", _flip("p_necessary", "violated")),
    (AVG3, "cp_divisible flipped", _flip("cp_divisible", "holds")),
    (AVG3, "NaN margin", _nan_margin),
    (AVG3, "null margin", _null_margin),
    (QUBIT, "eigenvalues off the closed form", _perturb_lambdas),
    (QUBIT, "p_sufficient flipped", _flip("p_sufficient", "violated")),
    (QUBIT, "spurious witness", _inject_witness),
    (QUBIT_VIOLATING, "stripped qubit witness", _strip("trace_norm_witness")),
]


@pytest.mark.parametrize("case,label,corrupt", CORRUPTIONS, ids=[c[1] for c in CORRUPTIONS])
def test_each_oracle_trips_on_an_injected_wrong_result(case, label, corrupt):
    report, grid, lambdas, powers = _genuine(case)
    failures, _ = oracles.check(case, report, grid, lambdas, powers)
    assert failures == []
    report, lambdas = copy.deepcopy(report), lambdas.copy()
    corrupt(report, grid, lambdas)
    failures, _ = oracles.check(case, report, grid, lambdas, powers)
    assert failures, label


def test_qubit_case_is_judged_on_the_violating_side():
    report, grid, lambdas, powers = _genuine(QUBIT_VIOLATING)
    rates = closed_form_rates(QUBIT_VIOLATING, grid)
    assert (rates[1] + rates[2]).min() < -oracles.QUBIT_MARGIN
    failures, judged = oracles.check(QUBIT_VIOLATING, report, grid, lambdas, powers)
    assert judged and failures == []


def test_a_wrong_program_raises_failed_frac(monkeypatch):
    """The whole run, not only the oracle, reports a program that drops witnesses
    or moves the first violation of the pair condition."""
    paulidyn = run.import_paulidyn()
    original = paulidyn.dynamics.check_p_sufficient

    def shifted(traj):
        v = original(traj)
        if v.first_violation_time is None:
            return v
        return dataclasses.replace(v, first_violation_time=v.first_violation_time + 0.5)

    monkeypatch.setattr(paulidyn.dynamics, "check_p_sufficient", shifted)
    info, result = run.run("preset-sweep", seed=3, seconds=0.0, trace=False, tiny=True,
                           setup_repeats=1)
    assert info["failed_frac"] > 0 and not result["correct"]
    monkeypatch.setattr(paulidyn.dynamics, "check_p_sufficient", original)

    monkeypatch.setattr(paulidyn.dynamics, "find_p_divisibility_witness",
                        lambda *args, **kwargs: None)
    info, result = run.run("preset-sweep", seed=3, seconds=0.0, trace=False, tiny=True,
                           setup_repeats=1)
    assert info["failed"]["oracle"] > 0 and result["failed"] == info["failed"]["oracle"]


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


def test_tracer_survives_a_missing_wrapped_name():
    paulidyn = run.import_paulidyn()
    apply_before = paulidyn.channel.apply
    layers = tuple(
        Layer(layer.name, layer.mode, (("paulidyn.channel", "apply_renamed"),))
        if layer.name == "channel.apply" else layer
        for layer in LAYERS
    ) + (Layer("nomodule.f", SPAN, (("paulidyn.nomodule", "f"),)),)
    info, result = run.run("large-d", seed=3, seconds=0.0, trace=True, tiny=True,
                           setup_repeats=1, tracer=Tracer(layers))
    assert set(info["absent_layers"]) == {"channel.apply", "nomodule.f"}
    assert "channel.apply.s" not in result["metrics"]
    assert result["metrics"]["mub.dephase_all.calls"]["value"] > 0
    assert paulidyn.channel.apply is apply_before


def test_self_time_excludes_child_spans():
    tracer = Tracer(layers=(Layer("outer", SPAN, ()), Layer("inner", SPAN, ())))
    inner = tracer._span_wrapper(lambda: sum(range(10_000)), 2)
    outer = tracer._span_wrapper(lambda: inner() + inner(), 1)
    with tracer.analysis():
        outer()
    assert list(tracer.span_parent) == [-1, 0, 1, 1]
    assert list(tracer.calls) == [1, 1, 2]
    assert math.isclose(tracer.self_s[2], tracer.total_s[2])
    assert math.isclose(tracer.self_s[1], tracer.total_s[1] - tracer.total_s[2])
    assert math.isclose(tracer.self_s[0], tracer.total_s[0] - tracer.total_s[1])
    assert math.isclose(sum(tracer.self_s), tracer.total_s[0])


# ---------------------------------------------------------------------------
# No program, no result
# ---------------------------------------------------------------------------


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "qubit-screen", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no paulidyn package" in proc.stderr


def test_rounds_keep_their_mix_across_seeds():
    for workload in WORKLOADS:
        mixes = {tuple((c.label, c.dim, c.steps, c.t_max) for c in
                       make_round(workload, np.random.default_rng(seed)))
                 for seed in (1, 2, 3)}
        assert len(mixes) == 1, workload
