"""Verdict oracles: checks of one analysis that do not trust the analyzers.

An analysis passes only if every applicable check holds:

- no NaN or infinity anywhere in the report, the grid or the eigenvalues, and
  a null margin only where a criterion is ``not-applicable``;
- every returned witness re-certifies when its map is applied through the
  powers of the family's unitaries (not ``dephase_all``): a positivity witness
  needs a minimum eigenvalue below -1e-9, a trace-norm or BLP witness a
  relative trace-norm growth above 1e-9;
- ``cp_divisible`` is violated iff some closed-form rate is negative on the grid;
- eternal-qubit: eigenvalues within 1e-9 of (1 + e^-2t)/2, (1 + e^-2t)/2,
  e^-2t, ``p_sufficient`` holds and no witness is returned;
- avg-decoherence at d = 3: ``p_necessary`` holds, ``p_sufficient`` is first
  violated within one grid spacing of ln2/3, and a witness is returned;
- d = 2: a witness is returned iff the smallest pair sum of closed-form rates
  on the grid is negative.  A qubit Pauli map is positive iff every
  |lambda| <= 1 (Fujiwara and Algoet, PRA 59, 3290 (1999)), which for the
  intermediate maps is the pair condition.  Cases whose smallest pair sum is
  within ``QUBIT_MARGIN`` of zero are run but not judged.
"""

from __future__ import annotations

import math

import numpy as np

from workloads import AVG_DECOHERENCE_D3_T_STAR, Case, closed_form_rates

TOL_WITNESS_EIG = 1e-9
TOL_WITNESS_NORM = 1e-9
TOL_CLOSED_FORM = 1e-9
#: rates whose smallest grid value is this close to zero are not judged for CP divisibility
TOL_RATE_SIGN = 1e-9
QUBIT_MARGIN = 0.02


def unitary_powers(unitaries: np.ndarray) -> np.ndarray:
    """U_alpha^k for k = 1..d-1, shape (d+1, d-1, d, d)."""
    n, d, _ = unitaries.shape
    out = np.empty((n, d - 1, d, d), dtype=complex)
    for a in range(n):
        acc = np.eye(d, dtype=complex)
        for k in range(d - 1):
            acc = acc @ unitaries[a]
            out[a, k] = acc
    return out


def apply_pauli_map(lams: np.ndarray, powers: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The generalized Pauli map with eigenvalues ``lams`` applied to ``x``.

    The operators U_alpha^k / sqrt(d) (k = 1..d-1, all alpha) and the identity
    form an orthonormal operator basis on which the map is diagonal, so
    x -> tr(x)/d + sum_alpha lambda_alpha sum_k <U_alpha^k, x>/d U_alpha^k.
    This eigenvalue form stays accurate when every lambda is tiny, where the
    probability (Kraus) form cancels O(1) terms down to rounding noise.
    """
    d = x.shape[0]
    overlaps = np.einsum("akij,ij->ak", powers.conj(), x) / d  # <U^k, x> / d
    weights = np.asarray(lams)[:, None] * overlaps
    return np.trace(x) / d * np.eye(d) + np.einsum("ak,akmn->mn", weights, powers)


def trace_norm(x: np.ndarray) -> float:
    return float(np.linalg.svd(x, compute_uv=False).sum())


def _grid_index(grid: np.ndarray, t: float) -> int:
    i = int(np.argmin(np.abs(grid - t)))
    if abs(grid[i] - t) > 1e-12 * max(1.0, abs(t)):
        raise ValueError(f"witness time {t!r} is not a grid time")
    return i


def _complex_vector(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs])


def _complex_matrix(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def recertify(witness: dict, grid: np.ndarray, lambdas: np.ndarray,
              powers: np.ndarray) -> str | None:
    """None if the witness holds up, else why it does not."""
    kind = witness.get("kind")
    try:
        i = _grid_index(grid, witness["s"])
        j = _grid_index(grid, witness["t"])
    except (KeyError, ValueError) as exc:
        return f"{kind} witness has no valid time pair: {exc}"
    if kind == "positivity":
        psi = _complex_vector(witness["state"])
        nus = lambdas[:, j] / lambdas[:, i]
        out = apply_pauli_map(nus, powers, np.outer(psi, psi.conj()))
        low = float(np.linalg.eigvalsh(0.5 * (out + out.conj().T))[0])
        if not low < -TOL_WITNESS_EIG:
            return f"positivity witness re-certifies at min eigenvalue {low:.3e}"
        return None
    if kind == "trace-norm":
        x = _complex_matrix(witness["operator"])
        nus = lambdas[:, j] / lambdas[:, i]
        growth = trace_norm(apply_pauli_map(nus, powers, x)) / trace_norm(x) - 1.0
    elif kind == "blp":
        x = _complex_matrix(witness["operator"])
        before = trace_norm(apply_pauli_map(lambdas[:, i], powers, x))
        growth = trace_norm(apply_pauli_map(lambdas[:, j], powers, x)) / before - 1.0
    else:
        return f"unknown witness kind {kind!r}"
    if not growth > TOL_WITNESS_NORM:
        return f"{kind} witness re-certifies at relative growth {growth:.3e}"
    return None


def _non_finite(value, path="report"):
    """Paths of every NaN or infinite number inside a JSON-like value."""
    if isinstance(value, float):
        return [] if math.isfinite(value) else [path]
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in _non_finite(v, f"{path}.{k}")]
    if isinstance(value, list):
        return [p for i, v in enumerate(value) for p in _non_finite(v, f"{path}[{i}]")]
    return []


def _found(report: dict, key: str) -> bool:
    return bool(report[key].get("found"))


def check(case: Case, report: dict, grid: np.ndarray, lambdas: np.ndarray,
          powers: np.ndarray) -> tuple:
    """Judge one analysis.

    ``report`` is the report's JSON form, ``grid`` and ``lambdas`` the
    trajectory's time grid and eigenvalues (d+1, N+1) as the program produced
    them.  Returns ``(failures, qubit_judged)``: the list of failed checks
    (empty when the analysis passes) and whether the d = 2 witness oracle
    judged this case.
    """
    failures = []
    criteria = report["criteria"]

    bad = _non_finite(report)
    if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(lambdas))):
        bad.append("trajectory")
    if bad:
        failures.append("non-finite values at " + ", ".join(bad[:5]))
    for name, verdict in criteria.items():
        if verdict["margin"] is None and verdict["status"] != "not-applicable":
            failures.append(f"{name} has a null margin but status {verdict['status']!r}")

    for key in ("trace_norm_witness", "blp_witness"):
        if _found(report, key):
            why = recertify(report[key], grid, lambdas, powers)
            if why is not None:
                failures.append(f"{key}: {why}")

    rates = closed_form_rates(case, grid)
    low = float(rates.min())
    if abs(low) > TOL_RATE_SIGN:
        expected = "violated" if low < 0 else "holds"
        if criteria["cp_divisible"]["status"] != expected:
            failures.append(f"cp_divisible is {criteria['cp_divisible']['status']!r} but the "
                            f"smallest rate is {low:.3e}")

    preset = case.rates[1] if case.rates[0] == "preset" else None
    if preset == "eternal-qubit":
        e2 = np.exp(-2.0 * grid)
        expected = np.array([0.5 * (1.0 + e2), 0.5 * (1.0 + e2), e2])
        err = float(np.abs(lambdas - expected).max())
        if not err <= TOL_CLOSED_FORM:
            failures.append(f"eternal-qubit eigenvalues off their closed form by {err:.3e}")
        if criteria["p_sufficient"]["status"] != "holds":
            failures.append("eternal-qubit p_sufficient does not hold")
        if _found(report, "trace_norm_witness") or _found(report, "blp_witness"):
            failures.append("eternal-qubit returned a witness")
    if preset == "avg-decoherence" and case.dim == 3:
        if criteria["p_necessary"]["status"] != "holds":
            failures.append("avg-decoherence d=3 p_necessary does not hold")
        first = criteria["p_sufficient"]["first_violation_time"]
        spacing = float(grid[1] - grid[0])
        if (criteria["p_sufficient"]["status"] != "violated" or first is None
                or abs(first - AVG_DECOHERENCE_D3_T_STAR) > spacing):
            failures.append(f"avg-decoherence d=3 p_sufficient first violated at {first!r}, "
                            f"not within {spacing:.3e} of ln2/3")
        if not _found(report, "trace_norm_witness"):
            failures.append("avg-decoherence d=3 returned no witness")

    qubit_judged = False
    if case.dim == 2:
        pair_min = float(min((rates[a] + rates[b]).min() for a, b in ((0, 1), (1, 2), (0, 2))))
        if abs(pair_min) >= QUBIT_MARGIN:
            qubit_judged = True
            has_witness = _found(report, "trace_norm_witness")
            if pair_min < 0 and not has_witness:
                failures.append(f"d=2 smallest pair sum {pair_min:.3e} < 0 but no witness")
            if pair_min > 0 and (has_witness or _found(report, "blp_witness")):
                failures.append(f"d=2 smallest pair sum {pair_min:.3e} > 0 but a witness")
    return failures, qubit_judged
