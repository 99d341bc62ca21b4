"""Time-dependent generalized Pauli dynamics and its Markovianity analyzers.

A rate set gamma_1..gamma_{d+1} drives the commuting product evolution whose
map eigenvalues are lambda_alpha(t) = exp(G_alpha(t) - G(t)), with G_alpha the
running integral of gamma_alpha and G their sum.  Because every lambda stays
strictly positive, intermediate maps between two times exist and are again
generalized Pauli maps with eigenvalue ratios nu_alpha = lambda(t)/lambda(s);
all divisibility analysis happens on those exact spectral trajectories.

Checks implemented on a common time grid:

- map legitimacy (eigenvalue CP inequalities at every time),
- CP divisibility (all rates nonnegative),
- the necessary positive-divisibility inequalities (sums of d rates),
- the sufficient pair inequalities (valid when at most one rate is negative),
- the general Weyl-rate sufficient condition (sums over d-subsets),
- Frobenius-norm monotonicity,
- a seeded falsifier searching for intermediate maps that break positivity or
  increase a trace norm, and a sampled trace-distance (information back-flow)
  probe.

Verdicts carry signed margins; witness objects carry the concrete state or
operator achieving the violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import GenPauliChannel, channel_from_eigenvalues, cp_margins
from .errors import (
    DimensionError,
    InternalConsistencyError,
    InvalidInputError,
    QuadratureError,
)
from .linalg import as_square_matrix, random_density_matrix, random_pure_state, trace_norm
from .mub import MubFamily, axis_blocks, mub_family, spectral_apply
from .ratefn import RateSet, evaluate, running_integral

#: slack for inequality checks (separates float noise from violations)
TOL_CONDITION = 1e-12
#: a positivity witness must push an eigenvalue below this
TOL_WITNESS_EIG = 1e-9
#: a trace-norm witness must grow the norm by this relative amount
TOL_WITNESS_NORM = 1e-9
#: a BLP rise must also exceed this many ulps of d * (initial trace distance);
#: the evolved distance carries rounding error of that size once it has decayed
BLP_ROUNDING_FLOOR = 64

HOLDS = "holds"
VIOLATED = "violated"
NOT_APPLICABLE = "not-applicable"

_MAX_VIOLATION_RECORDS = 20


# ---------------------------------------------------------------------------
# Trajectory
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Trajectory:
    """Sampled rates, their running integrals, and map eigenvalues on a grid."""

    dim: int
    grid: np.ndarray        # (N+1,), grid[0] == 0
    gammas: np.ndarray      # (d+1, N+1) sampled rates
    big_gammas: np.ndarray  # (d+1, N+1) cumulative integrals, 0 at t=0
    lambdas: np.ndarray     # (d+1, N+1) exp(G_alpha - G), all > 0

    @property
    def steps(self) -> int:
        return self.grid.shape[0] - 1

    @property
    def log_lambdas(self) -> np.ndarray:
        """log lambda_alpha = G_alpha - G, finite where lambda underflows to 0."""
        return self.big_gammas - self.big_gammas.sum(axis=0)

    @property
    def mus(self) -> np.ndarray:
        """Generator eigenvalues gamma_alpha - sum(gamma)."""
        return self.gammas - self.gammas.sum(axis=0)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def build_trajectory(rates: RateSet, t_max: float, steps: int = 400,
                     tol: float = 1e-10) -> Trajectory:
    """Integrate the rate set cumulatively over a uniform grid on [0, t_max].

    Per rate, one array call samples it on the grid and integrates every
    subinterval to ``tol / steps`` in one adaptive-Simpson pass, so the
    accumulated error stays below ``tol``.
    """
    if not (math.isfinite(t_max) and t_max > 0):
        raise InvalidInputError(f"t_max must be positive and finite, got {t_max!r}")
    if steps < 2:
        raise InvalidInputError(f"steps must be >= 2, got {steps}")
    d = rates.dim
    grid = np.linspace(0.0, float(t_max), steps + 1)
    gammas = np.empty((d + 1, steps + 1))
    big = np.empty((d + 1, steps + 1))
    for a, expr in enumerate(rates.rates):
        try:
            gammas[a], big[a] = running_integral(expr, grid, tol / steps)
        except QuadratureError as exc:
            raise QuadratureError(f"rate gamma_{a + 1} failed: {exc}") from exc
    return Trajectory(
        dim=d, grid=_freeze(grid), gammas=_freeze(gammas),
        big_gammas=_freeze(big), lambdas=_freeze(np.exp(big - big.sum(axis=0))),
    )


def channel_at(traj: Trajectory, family: MubFamily, i: int) -> GenPauliChannel:
    """The dynamical map at grid index ``i`` as a static channel object."""
    return channel_from_eigenvalues(family, traj.lambdas[:, i])


@dataclass(frozen=True)
class IntermediateMap:
    """The connecting map between two grid times, via eigenvalue ratios.

    Exact because every lambda_alpha(s) is a positive exponential; by
    construction nu_alpha(t, s) * lambda_alpha(s) == lambda_alpha(t).
    """

    dim: int
    s: float
    t: float
    nus: np.ndarray  # (d+1,)

    def as_channel(self, family: MubFamily) -> GenPauliChannel:
        return channel_from_eigenvalues(family, self.nus)


def intermediate_map(traj: Trajectory, i: int, j: int) -> IntermediateMap:
    if not 0 <= i <= j <= traj.steps:
        raise InvalidInputError(f"need 0 <= i <= j <= {traj.steps}, got ({i}, {j})")
    nus = np.exp(traj.log_lambdas[:, j] - traj.log_lambdas[:, i])
    return IntermediateMap(dim=traj.dim, s=float(traj.grid[i]), t=float(traj.grid[j]),
                           nus=_freeze(nus))


# ---------------------------------------------------------------------------
# Generator action and spectral evolution of operators
# ---------------------------------------------------------------------------


def generator_apply(rates: RateSet, family: MubFamily, t: float, rho) -> np.ndarray:
    """The time-local generator sum_alpha gamma_alpha(t) (dephase_alpha - id).

    In eigenvalue form it scales axis alpha by mu_alpha = gamma_alpha - sum(gamma)
    and annihilates the identity part.
    """
    arr = as_square_matrix(rho)
    if arr.shape[0] != family.dim:
        raise DimensionError(f"state has dimension {arr.shape[0]}, family is {family.dim}")
    if rates.dim != family.dim:
        raise DimensionError(f"rate set is d={rates.dim}, family is d={family.dim}")
    g = np.array([evaluate(r, t) for r in rates.rates])
    return np.tensordot(g - g.sum(), axis_blocks(family, arr), axes=1)


def evolve_operator(traj: Trajectory, family: MubFamily, x) -> np.ndarray:
    """Apply the map at every grid time to one operator; returns (N+1, d, d)."""
    arr = as_square_matrix(x)
    if arr.shape[0] != family.dim or traj.dim != family.dim:
        raise DimensionError("operator, trajectory and family dimensions must agree")
    return spectral_apply(family, traj.lambdas.T, arr)


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    time: float
    label: str
    margin: float

    def to_json_dict(self) -> dict:
        return {"time": self.time, "label": self.label, "margin": self.margin}


@dataclass(frozen=True)
class Verdict:
    criterion: str
    status: str
    margin: float
    first_violation_time: float | None
    violations: tuple
    note: str = ""
    margin_series: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def holds(self) -> bool:
        return self.status == HOLDS

    def to_json_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "status": self.status,
            "margin": None if math.isnan(self.margin) else self.margin,
            "first_violation_time": self.first_violation_time,
            "violations": [v.to_json_dict() for v in self.violations],
            "note": self.note,
        }


def _collect_row_violations(grid, margins, labels, tol):
    """First and worst offending grid point for each violated row."""
    entries = []
    for r in range(margins.shape[0]):
        bad = np.flatnonzero(margins[r] < -tol)
        if bad.size == 0:
            continue
        first = int(bad[0])
        worst = int(bad[np.argmin(margins[r, bad])])
        entries.append(Violation(float(grid[first]), labels[r], float(margins[r, first])))
        if worst != first:
            entries.append(Violation(float(grid[worst]), labels[r], float(margins[r, worst])))
    entries.sort(key=lambda v: (v.time, v.label))
    return entries


def _verdict_from_margins(criterion, grid, margins, labels, tol=TOL_CONDITION, note=""):
    margins = np.asarray(margins, dtype=float)
    series = margins.min(axis=0)
    entries = _collect_row_violations(grid, margins, labels, tol)
    if entries:
        status = VIOLATED
        first_time = min(v.time for v in entries)
    else:
        status = HOLDS
        first_time = None
    return Verdict(
        criterion=criterion, status=status, margin=float(series.min()),
        first_violation_time=first_time,
        violations=tuple(entries[:_MAX_VIOLATION_RECORDS]), note=note,
        margin_series=series,
    )


def _conditional_verdict(criterion, grid, values, applicable, label, na_reason) -> Verdict:
    """Verdict on a sufficient condition that only applies at some grid times.

    ``values`` is the condition margin per grid time and ``label(i)`` names a
    violation at index i.  Times where the condition does not apply never
    count as violations; if there are any, the note says how many and why.
    """
    series = np.where(applicable, values, np.nan)
    bad = np.flatnonzero(applicable & (values < -TOL_CONDITION))
    entries = tuple(
        Violation(float(grid[i]), label(i), float(values[i]))
        for i in bad[:_MAX_VIOLATION_RECORDS]
    )
    n_na = int((~applicable).sum())
    note = f"not applicable at {n_na} of {len(grid)} grid times ({na_reason})" if n_na else ""
    if entries:
        status, first_time = VIOLATED, entries[0].time
        margin = float(np.nanmin(series))
    elif n_na:
        status, first_time = NOT_APPLICABLE, None
        margin = float(np.nanmin(series)) if applicable.any() else math.nan
    else:
        status, first_time = HOLDS, None
        margin = float(values.min())
    return Verdict(criterion, status, margin, first_time, entries, note, series)


# ---------------------------------------------------------------------------
# Grid condition checks
# ---------------------------------------------------------------------------


def check_cptp_trajectory(traj: Trajectory) -> Verdict:
    """Is the map legitimate (CP) at every grid time?

    Checks the two eigenvalue bounds on lambda(t); since every lambda is a
    positive exponential this is the exp(G) form of the same inequality.
    """
    return _verdict_from_margins(
        "cp_map_valid", traj.grid, np.vstack(cp_margins(traj.lambdas)),
        ["eigenvalue-sum lower bound", "eigenvalue-sum upper bound"],
    )


def check_cp_divisible(traj: Trajectory) -> Verdict:
    """CP-divisible iff every rate is nonnegative at every time."""
    labels = [f"gamma_{a + 1}" for a in range(traj.dim + 1)]
    return _verdict_from_margins("cp_divisible", traj.grid, traj.gammas, labels)


def _axis_mu_verdict(criterion: str, traj: Trajectory, label) -> Verdict:
    """Verdict on the per-axis margins -mu_alpha = sum(gamma) - gamma_alpha.

    ``label(a)`` names row a; the necessary P condition and the analytic
    Frobenius monotonicity are both this table.
    """
    labels = [label(a + 1) for a in range(traj.dim + 1)]
    return _verdict_from_margins(criterion, traj.grid, -traj.mus, labels)


def check_p_necessary(traj: Trajectory) -> Verdict:
    """Necessary for P-divisibility: sum of the other d rates >= 0, per axis."""
    return _axis_mu_verdict("p_necessary", traj, lambda a: f"sum of rates except gamma_{a}")


def _pairwise_margin_columns(gammas: np.ndarray, d: int):
    """Per-time minimum of gamma_a + (d-1) gamma_b over ordered pairs a != b.

    The minimum always pairs the smallest rate (weighted d-1) with the second
    smallest; returns (values, argmin_b, argmin_a).
    """
    order = np.argsort(gammas, axis=0)
    b_idx = order[0]
    a_idx = order[1]
    cols = np.arange(gammas.shape[1])
    values = gammas[a_idx, cols] + (d - 1) * gammas[b_idx, cols]
    return values, b_idx, a_idx


def check_p_sufficient(traj: Trajectory) -> Verdict:
    """Sufficient for P-divisibility: gamma_a + (d-1) gamma_b >= 0 for a != b.

    The derivation assumes at most one rate is strictly negative at a time;
    grid times with two or more negative rates are reported not-applicable
    rather than violated.
    """
    d = traj.dim
    g = traj.gammas
    values, b_idx, a_idx = _pairwise_margin_columns(g, d)
    return _conditional_verdict(
        "p_sufficient", traj.grid, values, (g < -TOL_CONDITION).sum(axis=0) <= 1,
        lambda i: f"gamma_{a_idx[i] + 1} + {d - 1}*gamma_{b_idx[i] + 1}",
        "more than one negative rate",
    )


def weyl_rates_from_trajectory(traj: Trajectory) -> np.ndarray:
    """Expand class-constant rates to the d^2-1 Weyl-operator rates.

    Each of the d+1 classes contributes d-1 identical member rates.
    """
    return np.repeat(traj.gammas, traj.dim - 1, axis=0)


def check_weyl_sufficient(weyl_gammas: np.ndarray, grid: np.ndarray, d: int) -> Verdict:
    """Sufficient condition on general Weyl rates: every d-subset sum >= 0.

    Applies when at most d-1 of the d^2-1 rates are negative at a time.  The
    minimal d-subset sum is the sum of the d smallest rates, so only that sum
    is checked.  For class-constant rates this reduces to the pair condition
    of :func:`check_p_sufficient`.
    """
    wg = np.asarray(weyl_gammas, dtype=float)
    if wg.shape[0] != d * d - 1:
        raise InvalidInputError(f"need {d * d - 1} Weyl rates for d={d}, got {wg.shape[0]}")
    if wg.shape[1] != np.asarray(grid).shape[0]:
        raise InvalidInputError("Weyl rate columns must match the grid length")
    return _conditional_verdict(
        "weyl_sufficient", grid, np.sort(wg, axis=0)[:d].sum(axis=0),
        (wg < -TOL_CONDITION).sum(axis=0) <= d - 1,
        lambda i: f"sum of {d} smallest Weyl rates", f"more than {d - 1} negative Weyl rates",
    )


def check_frobenius_monotone(traj: Trajectory, family: MubFamily | None = None,
                             samples: int = 8, seed: int = 2024) -> Verdict:
    """Monotonicity of the Frobenius norm under the evolution.

    Analytically, d/dt lambda_alpha^2 <= 0 iff mu_alpha <= 0, which is the
    same content as the necessary condition; the verdict is driven by that
    sign.  When a family is supplied, ``samples`` random Hermitian operators
    are also pushed through the grid as a numerical cross-check; a sampled
    increase while the analytic check holds is an internal error.
    """
    verdict = _axis_mu_verdict(
        "frobenius_monotone", traj, lambda a: f"-d/dt lambda_{a}^2 (sign of -mu_{a})"
    )
    if family is None or samples <= 0:
        return verdict
    rng = np.random.default_rng(seed)
    worst_rel = 0.0
    for _ in range(samples):
        g = rng.standard_normal((traj.dim, traj.dim)) + 1j * rng.standard_normal(
            (traj.dim, traj.dim)
        )
        x = 0.5 * (g + g.conj().T)
        orbit = evolve_operator(traj, family, x)
        norms = np.linalg.norm(orbit, axis=(1, 2))
        increases = np.diff(norms) / np.maximum(norms[:-1], 1e-300)
        worst_rel = max(worst_rel, float(increases.max()))
    if verdict.holds and worst_rel > TOL_WITNESS_NORM:
        raise InternalConsistencyError(
            f"Frobenius norm grew ({worst_rel:.3e}) although the analytic check holds"
        )
    note = verdict.note + f" sampled {samples} operators, max relative increase {worst_rel:.3e}"
    return Verdict(verdict.criterion, verdict.status, verdict.margin,
                   verdict.first_violation_time, verdict.violations, note.strip(),
                   verdict.margin_series)


# ---------------------------------------------------------------------------
# Witness searches
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    """A concrete divisibility violation.

    ``magnitude`` is kind-specific: the eigenvalue deficit below zero for
    ``positivity``, the relative trace-norm increase for ``trace-norm`` and
    ``blp``.
    """

    kind: str
    s: float
    t: float
    magnitude: float
    state: np.ndarray | None = None
    operator: np.ndarray | None = None
    detail: str = ""

    def to_json_dict(self) -> dict:
        def cplx(arr):
            return [[[float(c.real), float(c.imag)] for c in row] for row in arr]

        out = {
            "found": True,
            "kind": self.kind,
            "s": self.s,
            "t": self.t,
            "magnitude": self.magnitude,
            "detail": self.detail,
        }
        if self.state is not None:
            out["state"] = [[float(c.real), float(c.imag)] for c in self.state]
        if self.operator is not None:
            out["operator"] = cplx(self.operator)
        return out


def _min_eig_for_pairs(family: MubFamily, nus: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Smallest output eigenvalue for each (state, pair) combination.

    nus: (P, d+1) intermediate-map eigenvalues; states: (S, d) unit vectors.
    Returns (S, P).
    """
    projs = states[:, :, None] * states[:, None, :].conj()
    mats = spectral_apply(family, nus, projs)
    mats = 0.5 * (mats + np.conj(np.swapaxes(mats, -1, -2)))
    return np.linalg.eigvalsh(mats)[..., 0]


def _axis_scan(traj: Trajectory):
    """Largest eigenvalue ratio nu_alpha(t, s) > 1 over all grid pairs, per axis.

    A ratio above 1 certifies a trace-norm increase on the Hermitian axis
    operator U_alpha + U_alpha^dag.  O(N) per axis via the running min of log lambda.
    """
    log_lam = traj.log_lambdas
    log_ratios = log_lam[:, 1:] - np.minimum.accumulate(log_lam, axis=1)[:, :-1]
    a, rel_j = np.unravel_index(int(np.argmax(log_ratios)), log_ratios.shape)
    j = rel_j + 1
    i = int(np.argmin(log_lam[a, :j]))
    return float(np.exp(log_ratios[a, rel_j])), int(a), i, int(j)


def find_p_divisibility_witness(traj: Trajectory, family: MubFamily,
                                attempts: int = 2000, refine_iters: int = 50,
                                seed: int = 42, max_anchors: int = 40) -> Witness | None:
    """Search for an intermediate map that is not a positive map.

    Two routes, both certified by direct evaluation before being returned:

    - axis trace-norm scan: any eigenvalue trajectory that rises between two
      grid times inflates the trace norm of U_alpha + U_alpha^dag;
    - pure-state sampling: random states are pushed through intermediate maps
      between anchor grid times (coarse probing, then a concentrated budget on
      the worst pairs, then coordinate-descent polish of the best state).

    Returns the largest-magnitude witness found, or None after the budget is
    exhausted (which is inconclusive, not a proof of P-divisibility).
    """
    d = traj.dim
    if family.dim != d:
        raise DimensionError(f"family is d={family.dim}, trajectory is d={d}")
    witnesses = []

    # Route 1: closed-form scan for rising eigenvalue trajectories.
    ratio, a, i, j = _axis_scan(traj)
    if ratio - 1.0 > TOL_WITNESS_NORM:
        u = family.unitaries[a]
        x = u + u.conj().T
        v = intermediate_map(traj, i, j).as_channel(family)
        grown = trace_norm(v(x)) / trace_norm(x) - 1.0
        if abs(grown - (ratio - 1.0)) > 1e-6 * max(1.0, ratio):
            raise InternalConsistencyError(
                f"axis witness mismatch: spectral ratio {ratio - 1.0:.6e} vs direct {grown:.6e}"
            )
        if grown > TOL_WITNESS_NORM:
            witnesses.append(Witness(
                kind="trace-norm", s=float(traj.grid[i]), t=float(traj.grid[j]),
                magnitude=grown, operator=x,
                detail=f"axis operator U_{a + 1} + adjoint; eigenvalue ratio {ratio!r}",
            ))

    # Route 2: positivity of intermediate maps on sampled pure states.
    if attempts <= 0:
        return max(witnesses, key=lambda w: w.magnitude) if witnesses else None
    rng = np.random.default_rng(seed)
    n = traj.steps
    anchors = np.unique(np.round(np.linspace(0, n, min(max_anchors, n + 1))).astype(int))
    upper_i, upper_j = np.triu_indices(anchors.size, k=1)  # every anchor pair i < j
    pair_i, pair_j = anchors[upper_i], anchors[upper_j]
    log_lam = traj.log_lambdas
    nus = np.exp(log_lam[:, pair_j] - log_lam[:, pair_i]).T  # (P, d+1)

    n_probe = min(8, attempts)
    states = np.stack([random_pure_state(d, rng) for _ in range(n_probe)])
    eigs = _min_eig_for_pairs(family, nus, states)  # (S, P)
    best_state_idx, best_pair = np.unravel_index(int(np.argmin(eigs)), eigs.shape)
    best_eig = float(eigs[best_state_idx, best_pair])
    best_psi = states[best_state_idx]

    pair_rank = np.argsort(eigs.min(axis=0))
    top_pairs = pair_rank[: min(12, pair_rank.size)]
    nus_top = nus[top_pairs]

    remaining = attempts - n_probe
    chunk = 256
    while remaining > 0:
        take = min(chunk, remaining)
        remaining -= take
        states = np.stack([random_pure_state(d, rng) for _ in range(take)])
        eigs = _min_eig_for_pairs(family, nus_top, states)
        s_idx, p_idx = np.unravel_index(int(np.argmin(eigs)), eigs.shape)
        if float(eigs[s_idx, p_idx]) < best_eig:
            best_eig = float(eigs[s_idx, p_idx])
            best_psi = states[s_idx]
            best_pair = int(top_pairs[p_idx])

    # Coordinate polish of the best candidate state on its pair.
    nus_best = nus[[best_pair]]

    def eig_of(params: np.ndarray) -> float:
        psi = params[:d] + 1j * params[d:]
        norm = np.linalg.norm(psi)
        if norm < 1e-12:
            return np.inf
        return float(_min_eig_for_pairs(family, nus_best, (psi / norm)[None])[0, 0])

    params = np.concatenate([best_psi.real, best_psi.imag])
    step = 0.3
    for _ in range(refine_iters):
        improved = False
        for coord in range(2 * d):
            for sign in (1.0, -1.0):
                trial = params.copy()
                trial[coord] += sign * step
                val = eig_of(trial)
                if val < best_eig - 1e-15:
                    best_eig = val
                    params = trial
                    improved = True
                    break
        if not improved:
            step *= 0.5
            if step < 1e-10:
                break
    psi = params[:d] + 1j * params[d:]
    best_psi = psi / np.linalg.norm(psi)

    # The refined state may do even better on a different pair.
    eigs_all = _min_eig_for_pairs(family, nus, best_psi[None])[0]
    final_pair = int(np.argmin(eigs_all))

    gi, gj = int(pair_i[final_pair]), int(pair_j[final_pair])
    v = intermediate_map(traj, gi, gj).as_channel(family)
    certified = float(np.linalg.eigvalsh(v(np.outer(best_psi, best_psi.conj())))[0])
    if certified < -TOL_WITNESS_EIG:
        witnesses.append(Witness(
            kind="positivity", s=float(traj.grid[gi]), t=float(traj.grid[gj]),
            magnitude=-certified, state=best_psi,
            detail="intermediate map sends a pure state to an operator with a negative eigenvalue",
        ))

    if not witnesses:
        return None
    return max(witnesses, key=lambda w: w.magnitude)


def check_blp(traj: Trajectory, family: MubFamily, pairs=20, seed: int = 42) -> Witness | None:
    """Probe the trace distance of evolved state pairs for back-flow.

    ``pairs`` is either a count of sampled density-matrix pairs or an explicit
    list of (rho1, rho2) tuples.  Returns the largest relative increase found
    between consecutive grid times, or None.  A rise counts only when it
    exceeds ``BLP_ROUNDING_FLOOR`` ulps of d times the initial distance, so a
    distance that has decayed into rounding noise cannot fake back-flow.
    """
    d = traj.dim
    if isinstance(pairs, int):
        rng = np.random.default_rng(seed)
        # one antipodal pair per basis, then random mixed pairs
        pair_list = [
            (family.projector(a, 0), family.projector(a, 1)) for a in range(1, d + 2)
        ]
        while len(pair_list) < pairs:
            pair_list.append((random_density_matrix(d, rng), random_density_matrix(d, rng)))
        pair_list = pair_list[:pairs]
    else:
        pair_list = list(pairs)

    best = None
    for rho1, rho2 in pair_list:
        delta = as_square_matrix(rho1) - as_square_matrix(rho2)
        orbit = evolve_operator(traj, family, delta)
        orbit = 0.5 * (orbit + np.conj(np.swapaxes(orbit, -1, -2)))
        dists = np.abs(np.linalg.eigvalsh(orbit)).sum(axis=1)
        rise = np.diff(dists)
        floor = BLP_ROUNDING_FLOOR * np.finfo(float).eps * d * dists[0]
        rel = np.where(rise > floor, rise / np.maximum(dists[:-1], 1e-300), 0.0)
        idx = int(np.argmax(rel))
        if rel[idx] > TOL_WITNESS_NORM and (best is None or rel[idx] > best.magnitude):
            best = Witness(
                kind="blp", s=float(traj.grid[idx]), t=float(traj.grid[idx + 1]),
                magnitude=float(rel[idx]), operator=delta,
                detail="trace distance of an evolved state pair increased",
            )
    return best


# ---------------------------------------------------------------------------
# Full report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DivisibilityReport:
    dim: int
    t_max: float
    steps: int
    seed: int
    cp_map_valid: Verdict
    cp_divisible: Verdict
    p_necessary: Verdict
    p_sufficient: Verdict
    weyl_sufficient: Verdict
    frobenius_monotone: Verdict
    trace_norm_witness: Witness | None
    blp_witness: Witness | None

    def to_json_dict(self) -> dict:
        def witness_dict(w):
            return {"found": False} if w is None else w.to_json_dict()

        return {
            "dim": self.dim,
            "t_max": self.t_max,
            "steps": self.steps,
            "seed": self.seed,
            "criteria": {
                v.criterion: v.to_json_dict()
                for v in (
                    self.cp_map_valid, self.cp_divisible, self.p_necessary,
                    self.p_sufficient, self.weyl_sufficient, self.frobenius_monotone,
                )
            },
            "trace_norm_witness": witness_dict(self.trace_norm_witness),
            "blp_witness": witness_dict(self.blp_witness),
        }


def _enforce_hierarchy(report: DivisibilityReport):
    """Cross-check the implications that must hold on every run.

    Nonnegative rates imply a legitimate CP-divisible evolution, so every
    weaker property must hold and no witness may exist; the pair condition
    (when it holds everywhere) implies positive divisibility, with the same
    consequences.  A breach is a bug, never a physics finding.
    """
    r = report

    def fail(msg):
        raise InternalConsistencyError(f"divisibility hierarchy violated: {msg}")

    if r.cp_divisible.holds:
        if not r.cp_map_valid.holds:
            fail("CP-divisible but the map fails the CP inequalities")
        if not (r.p_sufficient.holds and r.p_necessary.holds and r.weyl_sufficient.holds):
            fail("CP-divisible but a P-divisibility condition is not 'holds'")
        if not r.frobenius_monotone.holds:
            fail("CP-divisible but the Frobenius norm is not monotone")
        if r.trace_norm_witness is not None or r.blp_witness is not None:
            fail("CP-divisible but a witness was produced")
    if r.p_sufficient.holds:
        if not r.p_necessary.holds:
            fail("sufficient pair condition holds but the necessary condition fails")
        if not r.frobenius_monotone.holds:
            fail("sufficient pair condition holds but the Frobenius norm is not monotone")
        if r.trace_norm_witness is not None or r.blp_witness is not None:
            fail("sufficient pair condition holds but a witness was produced")


def analyze(rates: RateSet, family: MubFamily | None = None, t_max: float = 5.0,
            steps: int = 400, seed: int = 42, tol: float = 1e-10,
            witness_attempts: int = 2000, refine_iters: int = 50,
            blp_pairs: int = 20) -> tuple:
    """Build the trajectory and run every analyzer; returns (trajectory, report)."""
    if family is None:
        family = mub_family(rates.dim)
    traj = build_trajectory(rates, t_max=t_max, steps=steps, tol=tol)
    report = DivisibilityReport(
        dim=traj.dim, t_max=float(t_max), steps=traj.steps, seed=seed,
        cp_map_valid=check_cptp_trajectory(traj),
        cp_divisible=check_cp_divisible(traj),
        p_necessary=check_p_necessary(traj),
        p_sufficient=check_p_sufficient(traj),
        weyl_sufficient=check_weyl_sufficient(
            weyl_rates_from_trajectory(traj), traj.grid, traj.dim
        ),
        frobenius_monotone=check_frobenius_monotone(traj, family, seed=seed),
        trace_norm_witness=find_p_divisibility_witness(
            traj, family, attempts=witness_attempts, refine_iters=refine_iters, seed=seed
        ),
        blp_witness=check_blp(traj, family, pairs=blp_pairs, seed=seed),
    )
    _enforce_hierarchy(report)
    return traj, report


def trajectory_to_csv(traj: Trajectory) -> str:
    """CSV with columns t, gamma_1.., Gamma_1.., lambda_1.. (17 significant digits)."""
    d = traj.dim
    cols = (
        ["t"]
        + [f"gamma_{a + 1}" for a in range(d + 1)]
        + [f"Gamma_{a + 1}" for a in range(d + 1)]
        + [f"lambda_{a + 1}" for a in range(d + 1)]
    )
    lines = [",".join(cols)]
    for i in range(traj.grid.shape[0]):
        row = (
            [traj.grid[i]]
            + list(traj.gammas[:, i])
            + list(traj.big_gammas[:, i])
            + list(traj.lambdas[:, i])
        )
        lines.append(",".join(format(x, ".17g") for x in row))
    return "\n".join(lines) + "\n"
