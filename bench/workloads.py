"""The benchmark's workloads: seeded generators of analysis cases.

A workload produces its cases in rounds.  Every round has the same mix of
presets, dimensions and sizes; only the seeded parts (random rate constants
and the analysis seed) are drawn afresh, so the median of a run that stops
after whole rounds does not depend on how many rounds fitted.  The program
sees only the generated inputs: preset names, constants, rate expressions,
sizes and seeds.

Why each workload exists is recorded in ``WHY`` (and in ``BENCHMARK.json``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PRESET_SWEEP = "preset-sweep"
FINE_GRID = "fine-grid"
LARGE_D = "large-d"
QUBIT_SCREEN = "qubit-screen"

WHY = {
    PRESET_SWEEP: "every preset at d 2-7, default budgets, 400 steps: the north-star "
                  "question; bound by the witness search and per-call overhead",
    FINE_GRID: "the paulidyn dynamics command at 10^4 steps, d 2-3: rate quadrature, "
               "BLP, Frobenius sampling and file output dominate",
    LARGE_D: "avg-decoherence and eternal-general at d 11 and 13, 400 steps: bound "
             "by the dephase_all contraction and eigvalsh kernels",
    QUBIT_SCREEN: "many fresh random d=2 tanh rate sets at 120 steps: new expressions "
                  "on a coarse grid, and the exact qubit witness oracle",
}
WORKLOADS = tuple(WHY)


@dataclass(frozen=True)
class Case:
    """One analysis.

    ``rates`` is ``("preset", name, constants)`` or ``("tanh", ((a, b, c, e), ...))``
    for rates ``a + b*tanh(c*(t - e))``; ``via_cli`` runs it as one
    ``paulidyn dynamics`` invocation instead of one ``analyze()`` call.
    """

    label: str
    dim: int
    rates: tuple
    t_max: float
    steps: int
    seed: int
    via_cli: bool = False


def tanh_sources(params) -> list:
    """Rate expressions for tanh parameters, in the criterion-9 format."""
    return [f"{a!r} + {b!r}*tanh({c!r}*(t - {e!r}))" for (a, b, c, e) in params]


def random_tanh_params(rng: np.random.Generator, count: int) -> tuple:
    """The criterion-9 rate generator: a + b tanh(c (t - e)) per rate."""
    out = []
    for _ in range(count):
        a = float(rng.uniform(-0.6, 1.2))
        b = float(rng.uniform(-1.0, 1.0))
        c = float(rng.uniform(0.3, 2.0))
        e = float(rng.uniform(0.0, 4.0))
        out.append((a, b, c, e))
    return tuple(out)


def _semigroup_constants(rng: np.random.Generator, d: int, negative: bool) -> tuple:
    """d+1 positive constants; with ``negative`` the last one is below zero."""
    values = [float(rng.uniform(0.2, 2.0)) for _ in range(d + 1)]
    if negative:
        values[-1] = float(rng.uniform(-0.5, -0.05))
    return tuple(values)


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _preset(name, constants=None):
    return ("preset", name, constants)


def make_round(workload: str, rng: np.random.Generator, tiny: bool = False) -> list:
    """The next round of cases of ``workload``.

    ``tiny`` keeps the mix but shrinks dimensions and grids so the self-test
    can run every workload in seconds.
    """
    if workload == PRESET_SWEEP:
        steps = 40 if tiny else 400
        dims = (3,) if tiny else (3, 5, 7)
        cases = [Case("eternal-qubit", 2, _preset("eternal-qubit"), 5.0, steps, _seed(rng))]
        for d in dims:
            cases.append(Case(f"eternal-general-d{d}", d, _preset("eternal-general"),
                              5.0, steps, _seed(rng)))
            cases.append(Case(f"avg-decoherence-d{d}", d, _preset("avg-decoherence"),
                              5.0, steps, _seed(rng)))
            negative = d != 5
            constants = _semigroup_constants(rng, d, negative)
            cases.append(Case(f"semigroup-d{d}{'-neg' if negative else ''}", d,
                              _preset("semigroup", constants), 5.0, steps, _seed(rng)))
        return cases
    if workload == FINE_GRID:
        steps = 200 if tiny else 10_000
        return [
            Case("eternal-qubit-t5", 2, _preset("eternal-qubit"), 5.0, steps,
                 _seed(rng), via_cli=True),
            Case("avg-decoherence-d3-t5", 3, _preset("avg-decoherence"), 5.0, steps,
                 _seed(rng), via_cli=True),
            Case("eternal-general-d3-t10", 3, _preset("eternal-general"), 10.0, steps,
                 _seed(rng), via_cli=True),
            Case("semigroup-d3-neg-t10", 3,
                 _preset("semigroup", _semigroup_constants(rng, 3, True)), 10.0, steps,
                 _seed(rng), via_cli=True),
            Case("tanh-d2-t10", 2, ("tanh", random_tanh_params(rng, 3)), 10.0, steps,
                 _seed(rng), via_cli=True),
            Case("tanh-d3-t5", 3, ("tanh", random_tanh_params(rng, 4)), 5.0, steps,
                 _seed(rng), via_cli=True),
        ]
    if workload == LARGE_D:
        steps = 40 if tiny else 400
        dims = (5,) if tiny else (11, 13)
        cases = []
        for d in dims:
            cases.append(Case(f"avg-decoherence-d{d}", d, _preset("avg-decoherence"),
                              5.0, steps, _seed(rng)))
            cases.append(Case(f"eternal-general-d{d}", d, _preset("eternal-general"),
                              5.0, steps, _seed(rng)))
        return cases
    if workload == QUBIT_SCREEN:
        count = 4 if tiny else 10
        steps = 40 if tiny else 120
        return [Case("tanh-d2", 2, ("tanh", random_tanh_params(rng, 3)), 5.0, steps, _seed(rng))
                for _ in range(count)]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def dims_of(workload: str, tiny: bool = False) -> tuple:
    """Every dimension a workload analyzes (the MUB families it reuses)."""
    cases = make_round(workload, np.random.default_rng(0), tiny=tiny)
    return tuple(sorted({c.dim for c in cases}))


def cli_argv(case: Case, out_dir) -> list:
    """``paulidyn dynamics`` arguments for a case (``--opt=value`` so that values
    starting with '-' are not taken for options)."""
    argv = ["dynamics", f"--t-max={case.t_max!r}", f"--steps={case.steps}",
            f"--seed={case.seed}", f"--out={out_dir}"]
    if case.rates[0] == "preset":
        _, name, constants = case.rates
        argv.append(f"--preset={name}")
        if name != "eternal-qubit":
            argv.append(f"--d={case.dim}")
        if constants is not None:
            argv.append("--c=" + ",".join(repr(c) for c in constants))
    else:
        argv.append(f"--d={case.dim}")
        argv += [f"--gamma={src}" for src in tanh_sources(case.rates[1])]
    return argv


def closed_form_rates(case: Case, grid: np.ndarray) -> np.ndarray:
    """The case's rates on ``grid`` from their closed forms, shape (d+1, N+1).

    Written independently of ``paulidyn.ratefn`` so it can serve as an oracle.
    """
    d = case.dim
    t = np.asarray(grid, dtype=float)
    if case.rates[0] == "tanh":
        return np.array([a + b * np.tanh(c * (t - e)) for (a, b, c, e) in case.rates[1]])
    _, name, constants = case.rates
    ones = np.ones_like(t)
    if name == "eternal-qubit":
        return np.array([ones, ones, -np.tanh(t)])
    if name == "eternal-general":
        lead = 1.0 + (d - 2) / d * np.tanh(t)
        tail = -(2.0 / d) * np.tanh(t)
        return np.array([lead, lead] + [tail] * (d - 1))
    if name == "avg-decoherence":
        x = np.exp(d * t)
        return np.array([ones] * d + [-(d - 1) * (x - 1.0) / (x + d - 1.0)])
    if name == "semigroup":
        return np.array([c * ones for c in constants])
    raise ValueError(f"no closed form for preset {name!r}")


#: first time the avg-decoherence pair condition fails at d = 3
AVG_DECOHERENCE_D3_T_STAR = math.log(2.0) / 3.0
