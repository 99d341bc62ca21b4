"""Time-dependent generalized Pauli dynamics and its Markovianity analyzers.

A rate set gamma_1..gamma_{d+1} drives the commuting product evolution whose
map eigenvalues are lambda_alpha(t) = exp(G_alpha(t) - G(t)), with G_alpha the
running integral of gamma_alpha and G their sum.  Because every lambda stays
strictly positive, intermediate maps between two times exist and are again
generalized Pauli maps with eigenvalue ratios nu_alpha = lambda(t)/lambda(s);
all divisibility analysis happens on those exact spectral trajectories.

Checks implemented on a common time grid:

- map legitimacy (eigenvalue CP inequalities at every time),
- the rate criteria, one function of the rate vector (``_rate_verdict``):
  CP divisibility (all rates nonnegative), the necessary positive-divisibility
  inequalities (sums of d rates), the sufficient pair inequalities and the
  Weyl-rate sufficient condition on the class rates (valid when at most one
  rate is negative), and the analytic sign of Frobenius-norm monotonicity
  (the necessary table again),
- the Weyl-rate sufficient condition on general Weyl rates (sums over
  d-subsets),
- a sampled Frobenius-norm cross-check,
- a seeded falsifier searching for intermediate maps that break positivity or
  increase a trace norm, skipped where two step certificates of Kossakowski's
  condition (the pair sum of the two smallest rate increments, then the
  Weyl-reduced pencil on the symmetric subspace) prove every grid map positive,
  and a trace-distance (information back-flow) probe on the antipodal state
  pair of every basis axis.

Verdicts carry signed margins; witness objects carry the concrete state or
operator achieving the violation.  ``_IMPLIED`` lists the implications between
the verdicts that every report is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import _distinct_axes, _freeze, cp_margins
from .errors import (
    DimensionError,
    EvaluationError,
    GridResolutionError,
    InternalConsistencyError,
    InvalidInputError,
    QuadratureError,
)
from .linalg import (as_square_matrix, complex_pairs, hermitian_check, lowest_eigenpairs,
                     random_density_matrix, random_hermitian, random_pure_state, trace_norm)
from .mub import (MubFamily, axis_blocks, class_sums, from_weyl_coefficients, mub_family,
                  spectral_apply, weyl_coefficients)
from .ratefn import RateSet, running_integral

#: slack for inequality checks (separates float noise from violations)
TOL_CONDITION = 1e-12
#: a positivity witness must push an eigenvalue below this
TOL_WITNESS_EIG = 1e-9
#: a trace-norm witness must grow the norm by this relative amount
TOL_WITNESS_NORM = 1e-9
#: a BLP rise must also exceed this many ulps of d * (initial trace distance);
#: the evolved distance carries rounding error of that size once it has decayed;
#: an axis block of a BLP pair below this many ulps of d * ||delta||_F is the
#: rounding residue of axis_blocks and counts as zero
BLP_ROUNDING_FLOOR = 64
#: the largest d whose BLP trace distances have a closed form (at most three nonzero
#: eigenvalues); above it the distances of pairs on several axes go through eigvalsh
CLOSED_FORM_MAX_DIM = 3
#: the witness search pairs at most this many grid times with each other
SCREEN_GRID = 401
#: seesaw chains the witness search refines at once
SEESAW_CHAINS = 12
#: from this d on, a see-saw step warm-starts :func:`lowest_eigenpairs` (one certified
#: shifted solve per chain) instead of a full ``eigh``; below it ``eigh`` is faster
SEESAW_SOLVE_DIM = 11
#: witness-search values this many ulps of their scale apart count as tied
TIE_ULPS = 64
#: elements in the largest temporary of one stack of probe operators or grid pairs
_STACK_ELEMENTS = 2**16
#: trajectory.csv rows built per block; bounds the arrays and strings held at once
_CSV_BLOCK_ROWS = 512

HOLDS = "holds"
VIOLATED = "violated"
NOT_APPLICABLE = "not-applicable"

_MAX_VIOLATION_RECORDS = 20


def _count(name: str, value, least: int = 0) -> int:
    """The one rule for every count, seed and grid index taken here: ``value`` as a plain
    int if it is a Python or NumPy integer >= ``least``, else :class:`InvalidInputError`.
    A bool is a flag, not a count, though ``bool`` subclasses ``int``."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= least:
        return int(value)
    raise InvalidInputError(f"{name} must be >= {least} and an integer, got {value!r}")


def _check_family(traj: Trajectory, family: MubFamily):
    """A family of another dimension than the trajectory's raises :class:`DimensionError`."""
    if family.dim != traj.dim:
        raise DimensionError(f"family is d={family.dim}, trajectory is d={traj.dim}")


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


def build_trajectory(rates: RateSet, t_max: float, steps: int = 400,
                     tol: float = 1e-10) -> Trajectory:
    """Integrate the rate set cumulatively over a uniform grid on [0, t_max].

    Per distinct rate source, one array call samples it on the grid and
    integrates every subinterval to ``tol / steps`` in one adaptive-Simpson
    pass, so the accumulated error stays below ``tol``; rates with the same
    source copy its rows, and a failing source is named by its first rate.  A
    map eigenvalue that overflows, or a log eigenvalue G_alpha - G beyond the
    double range, raises :class:`EvaluationError` naming it and the first
    such grid time.
    """
    if not (math.isfinite(t_max) and t_max > 0):
        raise InvalidInputError(f"t_max must be positive and finite, got {t_max!r}")
    steps = _count("steps", steps, least=2)
    d = rates.dim
    grid = np.linspace(0.0, float(t_max), steps + 1)
    gammas = np.empty((d + 1, steps + 1))
    big = np.empty((d + 1, steps + 1))
    first = {}  # source -> the first rate with it
    for a, expr in enumerate(rates.rates):
        b = first.setdefault(expr.source, a)
        if b < a:
            gammas[a], big[a] = gammas[b], big[b]
            continue
        try:
            gammas[a], big[a] = running_integral(expr, grid, tol / steps)
        except QuadratureError as exc:
            raise QuadratureError(f"rate gamma_{a + 1} failed: {exc}") from exc
    with np.errstate(over="ignore", invalid="ignore"):
        log_lambdas = big - big.sum(axis=0)
        lambdas = np.exp(log_lambdas)
    if not np.isfinite(lambdas).all():
        i, a = np.argwhere(~np.isfinite(lambdas.T))[0]  # first grid time, then first axis
        raise EvaluationError(f"map eigenvalue lambda_{a + 1} overflows at t={float(grid[i])!r}")
    if not np.isfinite(log_lambdas).all():
        i, a = np.argwhere(~np.isfinite(log_lambdas.T))[0]
        raise EvaluationError(f"log lambda_{a + 1} = G_{a + 1} - G leaves the double range "
                              f"at t={float(grid[i])!r}")
    return Trajectory(
        dim=d, grid=_freeze(grid), gammas=_freeze(gammas),
        big_gammas=_freeze(big), lambdas=_freeze(lambdas),
    )


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


def intermediate_map(traj: Trajectory, i: int, j: int) -> IntermediateMap:
    """The map from grid time i to grid time j.  A ratio beyond the double
    range (lambda underflowed and then recovered) raises :class:`EvaluationError`."""
    i, j = _count("i", i), _count("j", j)
    if not i <= j <= traj.steps:
        raise InvalidInputError(f"need 0 <= i <= j <= {traj.steps}, got ({i}, {j})")
    with np.errstate(over="ignore"):
        nus = np.exp(traj.log_lambdas[:, j] - traj.log_lambdas[:, i])
    if not np.isfinite(nus).all():
        a = int(np.argmin(np.isfinite(nus)))
        raise EvaluationError(
            f"eigenvalue ratio lambda_{a + 1}(t)/lambda_{a + 1}(s) overflows for "
            f"s={float(traj.grid[i])!r}, t={float(traj.grid[j])!r}")
    return IntermediateMap(dim=traj.dim, s=float(traj.grid[i]), t=float(traj.grid[j]),
                           nus=_freeze(nus))


# ---------------------------------------------------------------------------
# Spectral evolution of operators
# ---------------------------------------------------------------------------


def evolve_operator(traj: Trajectory, family: MubFamily, x) -> np.ndarray:
    """Apply the map at every grid time to one operator; returns (N+1, d, d)."""
    arr = as_square_matrix(x, family.dim)
    _check_family(traj, family)
    return spectral_apply(family, traj.lambdas.T, arr)


def _stacks(count: int, item_elements: int):
    """Slices of successive items, as many per slice (at least one) as keep
    ``item_elements`` per item within ``_STACK_ELEMENTS``."""
    step = max(1, _STACK_ELEMENTS // item_elements)
    return [slice(lo, lo + step) for lo in range(0, count, step)]


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


def _verdict(criterion, grid, margins, label, tol=TOL_CONDITION, applicable=None,
             na_reason="") -> Verdict:
    """Verdict on the margin rows ``margins`` (R, K) over the grid; ``label(r, i)`` names
    a violation of row r at column i.

    Without an ``applicable`` mask every row reports its first and its worst
    offending time, sorted.  A masked criterion is one row, judged only at its
    applicable columns: it reports its first offending times, and its note says
    how many columns it does not apply at and why.  Either way at most
    ``_MAX_VIOLATION_RECORDS`` violations are kept.
    """
    margins = np.asarray(margins, dtype=float)
    series = margins.min(axis=0)
    if applicable is None:
        entries = []
        for r, row in enumerate(margins):
            bad = np.flatnonzero(row < -tol)
            if bad.size:
                for i in dict.fromkeys((int(bad[0]), int(bad[np.argmin(row[bad])]))):
                    entries.append(Violation(float(grid[i]), label(r, i), float(row[i])))
        entries.sort(key=lambda v: (v.time, v.label))
    else:
        series = np.where(applicable, series, np.nan)
        entries = [Violation(float(grid[i]), label(0, i), float(series[i]))
                   for i in np.flatnonzero(series < -tol)[:_MAX_VIOLATION_RECORDS]]
    n_na = 0 if applicable is None else int((~applicable).sum())
    note = f"not applicable at {n_na} of {len(grid)} grid times ({na_reason})" if n_na else ""
    status = VIOLATED if entries else NOT_APPLICABLE if n_na else HOLDS
    margin = (float(series.min()) if not n_na  # nanmin may pick the other zero of a tie
              else float(np.nanmin(series)) if applicable.any() else math.nan)
    return Verdict(criterion, status, margin, entries[0].time if entries else None,
                   tuple(entries[:_MAX_VIOLATION_RECORDS]), note, series)


# ---------------------------------------------------------------------------
# Grid condition checks
# ---------------------------------------------------------------------------


def _rate_verdict(criterion: str, grid: np.ndarray, gammas: np.ndarray) -> Verdict:
    """The verdict of one rate criterion on a (d+1, K) rate array ``gammas``.

    Every criterion is a function of the rate vector at each column alone and
    is nondecreasing in every gamma_alpha; only the named one is computed:

    - ``cp_divisible``: every gamma_alpha, judged on the exact sign (a rate of
      -eps lowers the CP margin by about d * eps * t and the pair and necessary
      sums by up to d * eps, beyond what their slack absorbs);
    - ``p_necessary`` and ``frobenius_monotone`` (d/dt lambda_alpha^2 <= 0 iff
      mu_alpha <= 0): one row per axis, -mu_alpha = sum(gamma) - gamma_alpha;
    - ``p_sufficient``: gamma_a + (d-1) gamma_b over ordered pairs a != b, whose
      minimum pairs the smallest rate b with the second smallest a;
    - ``weyl_sufficient``: the sum of the d smallest of the d^2-1 Weyl rates, d-1
      copies of the smallest class rate and one of the next (without the copy).

    The two sufficient conditions assume at most one negative rate; columns with
    more are not applicable.  In floating point raising one gamma_alpha never
    makes a column inapplicable, and lowers a margin by at most 4 ulps of
    max(sum|gamma|, sum|gamma'|): only the -mu rows can drop, as they read
    fl(sum gamma) - gamma_alpha.
    """
    g, d = gammas, len(gammas) - 1
    if criterion == "cp_divisible":
        return _verdict(criterion, grid, g, lambda r, i: f"gamma_{r + 1}", tol=0.0)
    if criterion in ("p_necessary", "frobenius_monotone"):
        name = ("sum of rates except gamma_{a}" if criterion == "p_necessary"
                else "-d/dt lambda_{a}^2 (sign of -mu_{a})")
        return _verdict(criterion, grid, -(g - g.sum(axis=0)),
                        lambda r, i: name.format(a=r + 1))
    applicable = (g < -TOL_CONDITION).sum(axis=0) <= 1
    if criterion == "weyl_sufficient":
        return _weyl_verdict(grid, d, np.sort(g, axis=0)[[0] * (d - 1) + [1]], applicable)
    if criterion != "p_sufficient":
        raise ValueError(f"unknown rate criterion {criterion!r}")
    b_idx, a_idx = np.argsort(g, axis=0)[:2]
    cols = np.arange(g.shape[1])
    return _verdict(criterion, grid, [g[a_idx, cols] + (d - 1) * g[b_idx, cols]],
                    lambda r, i: f"gamma_{a_idx[i] + 1} + {d - 1}*gamma_{b_idx[i] + 1}",
                    applicable=applicable, na_reason="more than one negative rate")


def check_cptp_trajectory(traj: Trajectory) -> Verdict:
    """Is the map legitimate (CP) at every grid time?

    Checks the two eigenvalue bounds on lambda(t); since every lambda is a
    positive exponential this is the exp(G) form of the same inequality.
    """
    labels = ("eigenvalue-sum lower bound", "eigenvalue-sum upper bound")
    return _verdict("cp_map_valid", traj.grid, np.vstack(cp_margins(traj.lambdas)),
                    lambda r, i: labels[r])


def check_cp_divisible(traj: Trajectory) -> Verdict:
    """CP-divisible iff every rate is nonnegative at every time (exact sign)."""
    return _rate_verdict("cp_divisible", traj.grid, traj.gammas)


def check_p_necessary(traj: Trajectory) -> Verdict:
    """Necessary for P-divisibility: sum of the other d rates >= 0, per axis."""
    return _rate_verdict("p_necessary", traj.grid, traj.gammas)


def check_p_sufficient(traj: Trajectory) -> Verdict:
    """Sufficient for P-divisibility: gamma_a + (d-1) gamma_b >= 0 for a != b; grid
    times with two or more negative rates are not-applicable rather than violated."""
    return _rate_verdict("p_sufficient", traj.grid, traj.gammas)


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
    of :func:`check_p_sufficient`.  The rates must be a finite (d^2-1, len(grid))
    array, or :class:`InvalidInputError` is raised.
    """
    wg = np.asarray(weyl_gammas, dtype=float)
    if wg.ndim != 2:
        raise InvalidInputError(f"Weyl rates must be a 2-D array, got shape {wg.shape}")
    if wg.shape[0] != d * d - 1:
        raise InvalidInputError(f"need {d * d - 1} Weyl rates for d={d}, got {wg.shape[0]}")
    if wg.shape[1] != np.asarray(grid).shape[0]:
        raise InvalidInputError("Weyl rate columns must match the grid length")
    if not np.isfinite(wg).all():
        raise InvalidInputError("Weyl rates must be finite")
    return _weyl_verdict(grid, d, np.sort(wg, axis=0)[:d],
                         (wg < -TOL_CONDITION).sum(axis=0) <= d - 1)


def _weyl_verdict(grid: np.ndarray, d: int, smallest: np.ndarray, applicable) -> Verdict:
    """The verdict on ``smallest``, the d smallest Weyl rates in ascending rows."""
    return _verdict("weyl_sufficient", grid, [smallest.sum(axis=0)],
                    lambda r, i: f"sum of {d} smallest Weyl rates", applicable=applicable,
                    na_reason=f"more than {d - 1} negative Weyl rates")


def check_frobenius_monotone(traj: Trajectory, family: MubFamily | None = None,
                             samples: int = 8, seed: int = 2024) -> Verdict:
    """Monotonicity of the Frobenius norm under the evolution.

    Analytically, d/dt lambda_alpha^2 <= 0 iff mu_alpha <= 0, which is the
    same content as the necessary condition; the verdict is driven by that
    sign.  When a family is supplied, the norms of ``samples`` random Hermitian
    operators are also followed as a numerical cross-check, in closed form
    ||Phi_t(x)||_F^2 = d x0^2 + sum_a lambda_a(t)^2 ||B_a(x)||_F^2, with ||B_a||_F^2 a
    class sum of |c|^2 / d.  An increase while the analytic check holds raises
    :class:`GridResolutionError` when some lambda_a rises by more than ``TOL_WITNESS_NORM``
    over a grid step (the rates dip between grid times, where no sample sees it), and is
    an internal error otherwise.
    """
    samples, seed = _count("samples", samples), _count("seed", seed)
    verdict = _rate_verdict("frobenius_monotone", traj.grid, traj.gammas)
    if family is None or not samples:
        return verdict
    _check_family(traj, family)
    xs = random_hermitian(traj.dim, np.random.default_rng(seed), samples)
    squares = class_sums(family, np.abs(weyl_coefficients(xs)) ** 2 / traj.dim)
    norms = np.sqrt(squares[:, :1] + squares[:, 1:] @ traj.lambdas ** 2)
    increases = np.diff(norms, axis=-1) / np.maximum(norms[:, :-1], 1e-300)
    worst_rel = max(0.0, float(increases.max()))
    if verdict.holds and worst_rel > TOL_WITNESS_NORM:
        rises = np.diff(traj.log_lambdas, axis=1)
        a, i = np.unravel_index(int(np.argmax(rises)), rises.shape)
        rise = math.expm1(rises[a, i])
        if rise > TOL_WITNESS_NORM:
            raise GridResolutionError(
                f"lambda_{a + 1} rises by {rise:.3e} over the grid step "
                f"[{float(traj.grid[i])!r}, {float(traj.grid[i + 1])!r}], although the rates "
                f"at the grid times meet every rate criterion: the grid does not resolve the "
                f"rates; raise --steps")
        raise InternalConsistencyError(
            f"Frobenius norm grew ({worst_rel:.3e}) although the analytic check holds"
        )
    note = verdict.note + f" sampled {samples} operators, max relative increase {worst_rel:.3e}"
    return replace(verdict, note=note.strip())


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
        out = {
            "found": True,
            "kind": self.kind,
            "s": self.s,
            "t": self.t,
            "magnitude": self.magnitude,
            "detail": self.detail,
        }
        if self.state is not None:
            out["state"] = complex_pairs(self.state)
        if self.operator is not None:
            out["operator"] = complex_pairs(self.operator)
        return out


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
    with np.errstate(over="ignore"):  # an infinite ratio fails in intermediate_map
        return float(np.exp(log_ratios[a, rel_j])), int(a), i, int(j)


def _step_pair_sums(traj: Trajectory) -> tuple:
    """The per-step increments dG = diff(big_gammas), (d+1, N), and dG_(1) + dG_(2), (N,).

    A step's map exp(sum_a dG_a (D_a - id)) is positive if sum_a dG_a Q_a(psi, phi) >= 0
    for all orthonormal psi, phi (Kossakowski).  The d+1 MUBs form a 2-design, so
    sum_a Q_a = 1 and 0 <= Q_a <= 1/2: a pair sum dG_(1) + dG_(2) >= 0 makes the step
    positive.  Positive maps compose, so then every grid intermediate map is positive.
    """
    increments = np.diff(traj.big_gammas, axis=1)
    low = np.partition(increments, 1, axis=0)[:2]
    return increments, low[0] + low[1]


def _sym_pencil_blocks(family: MubFamily) -> np.ndarray:
    """C_a^dag C_a per basis a, (d+1, n, n) with n = (d+1)/2: M_a = sum_l P_al (x) P_al on
    the X (x) X-invariant part of Sym^2, for odd prime d.

    That part is spanned by v_0 = sum_m |m,m>/sqrt(d) and
    v_s = sum_m (|m,m+s> + |m+s,m>)/sqrt(2d), s = 1..(d-1)/2, and C[a, l, s] =
    <b_al (x) b_al|v_s>.  Every M_a commutes with W (x) W, and Z (x) Z carries each
    X (x) X eigenspace of Sym^2 onto the others (2 is invertible mod d), so the
    least eigenvalue of sum_a g_a C_a^dag C_a is that of sum_a g_a M_a on all of Sym^2.
    """
    d = family.dim
    n = (d + 1) // 2
    b = family.bases.conj()
    # <b (x) b|v_s> = sum_m conj(b_m b_(m+s)), times 1/sqrt(d) for s = 0 and 2/sqrt(2d) after
    c = np.einsum("alm,alsm->als", b, b[:, :, (np.arange(d) + np.arange(n)[:, None]) % d])
    c *= np.where(np.arange(n) == 0, 1.0 / math.sqrt(d), math.sqrt(2.0 / d))
    return c.conj().transpose(0, 2, 1) @ c


def _steps_pencil_positive(traj: Trajectory, family: MubFamily) -> bool:
    """Whether every grid step is certified positive: by the pair sum of
    :func:`_step_pair_sums`, or, on the steps that it leaves open, by the Kossakowski pencil.

    With s = (psi (x) phi + phi (x) psi)/sqrt(2), a unit vector in Sym^2 for orthonormal
    psi, phi, sum_a dG_a Q_a(psi, phi) = <s|sum_a dG_a M_a|s>/2, so a pencil
    lambda_min(sum_a dG_a M_a) >= 0 on Sym^2 (the reduced blocks of
    :func:`_sym_pencil_blocks`) makes the step positive.  M_a <= I and sum_a M_a = 2 I on
    Sym^2 make it at least dG_(1) + dG_(2), so it never certifies less than the pair sum.
    The worst pair-sum step goes first, alone, then the other open steps in one batch;
    each column is scaled by its largest |dG|, which keeps the sign and the range.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow leaves a step open
        increments, pairs = _step_pair_sums(traj)
    open_steps = np.flatnonzero(~(pairs >= 0.0))
    if not len(open_steps):
        return True
    worst = int(np.argmin(pairs))  # an open step; a NaN pair sum is the first taken
    blocks = _sym_pencil_blocks(family)
    for steps in ([worst], open_steps[open_steps != worst]):
        with np.errstate(invalid="ignore"):
            cols = increments[:, steps] / np.abs(increments[:, steps]).max(axis=0)
        if not np.isfinite(cols).all():  # eigvalsh may read NaN as 0
            return False
        pencil = (cols.T @ blocks.reshape(len(blocks), -1)).reshape((-1,) + blocks.shape[1:])
        if not np.all(np.linalg.eigvalsh(pencil)[:, 0] >= 0.0):
            return False
    return True


def _screen_pairs(log_lam: np.ndarray, group=None) -> tuple:
    """Grid index pairs (i < j), in (i, j) order, whose intermediate map is not CP.

    ``log_lam`` is (N+1, u), a column per class of :func:`_distinct_axes`, and ``group``
    the class of each of the d+1 axes (by default each column is an axis).  Every pair of
    at most SCREEN_GRID spread grid times is taken, plus every adjacent pair on a finer
    grid: positive maps compose, so a non-positive grid map implies a non-positive
    adjacent one.  CP maps are positive, so skipping them is exact.  nu rows expanded by
    ``group`` are, bit for bit, the (d+1, m) nu array of every axis.  Returns int32 arrays.
    """
    n = log_lam.shape[0] - 1
    group = np.arange(log_lam.shape[1]) if group is None else group
    sub = np.unique(np.round(np.linspace(0, n, min(SCREEN_GRID, n + 1))).astype(np.int32))
    # rows i, j in (i, j) order, int32 throughout: sub[r] pairs with each of sub[r + 1:]
    pairs = np.concatenate([np.repeat(sub[:-1], range(sub.size - 1, 0, -1))]
                           + [sub[r + 1:] for r in range(sub.size - 1)]).reshape(2, -1)
    if n + 1 > SCREEN_GRID:  # every adjacent pair (i, i+1) not in yet, first among those from i
        adj = np.setdiff1d(np.arange(n, dtype=np.int32), sub[:-1][np.diff(sub) == 1])
        pairs = np.insert(pairs, np.searchsorted(pairs[0], adj), [adj, adj + 1], axis=1)
    non_cp = np.concatenate([cp_margins(nus.T[group])[1] < 0  # sum across rows
                             for _, nus in _pair_chunks(log_lam, *pairs, len(group))])
    return pairs[0, non_cp], pairs[1, non_cp]


def _pair_chunks(log_lam: np.ndarray, pair_i: np.ndarray, pair_j: np.ndarray, width: int):
    """Yield (offset, nu rows) for the chunks of the grid pairs (i, j) that ``_stacks``
    cuts for a caller whose widest temporary holds ``width`` elements per pair."""
    for part in _stacks(len(pair_i), width):
        # np.take copies whole rows; int32 fancy indexing is 2-3x slower.  No name keeps
        # the chunk here, so a caller that drops it frees it before the next is made
        yield part.start, np.exp(np.take(log_lam, pair_j[part], 0)
                                 - np.take(log_lam, pair_i[part], 0))


def _best_pairs(log_lam: np.ndarray, pair_i: np.ndarray, pair_j: np.ndarray, q: np.ndarray,
                d: int):
    """Per row of ``q``, the least nu . q + 1/d over the pairs and the first pair reaching it;
    ``q`` is (S, u), folded onto the u class columns of ``log_lam``, so d is passed."""
    best, where = np.full(len(q), np.inf), np.zeros(len(q), dtype=int)
    for lo, nus in _pair_chunks(log_lam, pair_i, pair_j, max(len(q), q.shape[1])):
        vals = q @ nus.T
        k = vals.argmin(axis=1)
        low = vals[np.arange(len(q)), k]
        where, best = np.where(low < best, lo + k, where), np.minimum(low, best)
    return best + 1.0 / d, where


def _overlap_form(family: MubFamily, psi: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """q_a = sum_l |<b_al|psi>|^2 |<b_al|phi>|^2 - 1/d per row, so for unit vectors
    <phi|Phi_nu(psi psi^dag)|phi> = 1/d + nu . q; the sum over l is a class-a sum over the
    Weyl coefficients of psi psi^dag and phi phi^dag.  (S, d) -> (S, d+1)."""
    c_psi, c_phi = (weyl_coefficients(v[:, :, None] * v[:, None, :].conj()) for v in (psi, phi))
    return class_sums(family, (c_psi.conj() * c_phi).real)[:, 1:] / family.dim


def _rounding_band(nus: np.ndarray) -> np.ndarray:
    """TIE_ULPS ulps of 1 + sum|nu|, a bound on |1/d + nu . q| and on the response norm."""
    return TIE_ULPS * np.finfo(float).eps * (1.0 + np.abs(nus).sum(axis=-1))


def _class_eigenvalues(family: MubFamily, nus: np.ndarray) -> np.ndarray:
    """(1, nu) expanded to every Weyl coefficient [k, l] by class: (C, d+1) -> (C, d, d)."""
    return np.concatenate((np.ones((len(nus), 1)), nus), axis=1)[:, family.weyl_classes]


def _class_response(eig: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Phi_nu(psi psi^dag) per row: the Weyl coefficients of psi psi^dag scaled by the table
    ``eig`` of :func:`_class_eigenvalues`.  (C, d, d), (C, d) -> (C, d, d)."""
    return from_weyl_coefficients(eig * weyl_coefficients(psi[:, :, None] * psi[:, None, :].conj()))


def _seesaw(family: MubFamily, nus: np.ndarray, psi: np.ndarray, phi: np.ndarray,
            steps: int) -> tuple:
    """Lower <phi|Phi_nu(psi psi^dag)|phi> per row by see-saw steps; returns (psi, phi).

    A step sets phi, then psi, to the lowest eigenvector of the other's image.
    Phi is self-adjoint (real nu), so both halves lower the same form.  Stops
    after ``steps`` steps, or once no row gains more than its rounding band.
    Below d = SEESAW_SOLVE_DIM each half-step is a full ``eigh``.  From it on,
    :func:`lowest_eigenpairs` starts from the half's previous vector: one shifted
    solve, kept where a Cholesky factorization certifies its Rayleigh quotient
    within m = EIG_MARGIN x (mean absolute row sum) of the least eigenvalue, and
    ``eigh`` on the rows where it does not or whose warm vector is too far off for
    one solve.  So each half lowers the form to within m of what ``eigh`` gives.
    """
    value, band, eig = np.inf, _rounding_band(nus), _class_eigenvalues(family, nus)
    warm = family.dim >= SEESAW_SOLVE_DIM
    for _ in range(steps):
        phi = lowest_eigenpairs(_class_response(eig, psi), phi if warm else None)[1]
        low, psi = lowest_eigenpairs(_class_response(eig, phi), psi if warm else None)
        settled, value = np.all(low >= value - band), low
        if settled:
            break
    return psi, phi


def find_p_divisibility_witness(traj: Trajectory, family: MubFamily,
                                attempts: int = 64, refine_iters: int = 50,
                                seed: int = 42) -> Witness | None:
    """Search for an intermediate map that is not a positive map.

    Two routes, both certified by direct evaluation before being returned:

    - axis trace-norm scan: any eigenvalue trajectory that rises between two
      grid times inflates the trace norm of U_alpha + U_alpha^dag;
    - pure-state see-saw (d > 2; at d = 2 the scan is exact): each of
      ``attempts`` seeded start pairs (psi, phi) finds its best non-CP grid
      pair by the linear form <phi|Phi(psi psi^dag)|phi> = 1/d + nu . q; the
      SEESAW_CHAINS best chains take batched see-saw steps, then move to the
      pair where their states do best, until none moves.  From d =
      SEESAW_SOLVE_DIM on, a step's halves are warm-started certified solves
      (see :func:`_seesaw`), each within m = EIG_MARGIN x (mean absolute row
      sum) of an ``eigh`` step, with ``eigh`` as the fallback.  The screen, these
      scoring passes and the final tie scan take nu on the u <= d+1 distinct
      lambda rows of ``_distinct_axes`` only.  ``refine_iters`` caps the
      steps per round and the rounds; ``attempts = 0`` skips route 2.
      So does a trajectory whose every grid step ``_steps_pencil_positive``
      certifies positive, by the pair sum of ``_step_pair_sums`` or, on the steps
      it leaves open, by the pencil: then every grid map is positive, and route 2
      could only find nothing.

    Returns the largest-magnitude witness, or None (inconclusive, not a proof
    of P-divisibility).
    """
    d = traj.dim
    _check_family(traj, family)
    budget = "attempts and refine_iters"
    attempts, refine_iters = _count(budget, attempts), _count(budget, refine_iters)
    seed = _count("seed", seed)
    witnesses = []

    # Route 1: closed-form scan for rising eigenvalue trajectories.
    ratio, a, i, j = _axis_scan(traj)
    if ratio - 1.0 > TOL_WITNESS_NORM:
        u = family.unitaries[a]
        x = u + u.conj().T
        nus = intermediate_map(traj, i, j).nus
        # Phi(x) or its trace norm overflows for a finite ratio near the double range; with
        # 2^k > 2d >= ||x||_1 neither does on the exact x / 2^k, and as axis a has the largest
        # ratio at (i, j), no other axis sets off LAPACK's rescaling: the bits are x's if finite
        small = x / 2.0 ** (2 * d).bit_length()
        grown = trace_norm(spectral_apply(family, nus, small)) / trace_norm(small) - 1.0
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

    # Route 2: see-saw for a pure state that a non-CP intermediate map sends below zero.
    # A qubit Pauli map with nu > 0 is positive iff max nu <= 1, which route 1 decides;
    # if every grid step is certified positive, so is every grid map.
    search = d > 2 and attempts and not _steps_pencil_positive(traj, family)
    if search:
        axes, group = _distinct_axes(traj.log_lambdas)
        log_lam = np.ascontiguousarray(traj.log_lambdas[axes].T)  # (N+1, u): a column per class
        pair_i, pair_j = _screen_pairs(log_lam, group)
    if search and len(pair_i):
        psi, phi = np.split(random_pure_state(d, np.random.default_rng(seed), 2 * attempts), 2)
        phi = phi - (psi.conj() * phi).sum(axis=1, keepdims=True) * psi
        phi /= np.linalg.norm(phi, axis=1, keepdims=True)
        fold = np.eye(len(axes))[group]  # q @ fold sums q by class; q itself for singletons
        value, chain = _best_pairs(log_lam, pair_i, pair_j,
                                   _overlap_form(family, psi, phi) @ fold, d)
        top = np.argsort(value, kind="stable")[:SEESAW_CHAINS]
        chain, psi, phi = chain[top], psi[top], phi[top]
        for _ in range(refine_iters):
            nus = np.exp(log_lam[pair_j[chain]] - log_lam[pair_i[chain]])[:, group]
            psi, phi = _seesaw(family, nus, psi, phi, refine_iters)
            q = _overlap_form(family, psi, phi)
            value, best = _best_pairs(log_lam, pair_i, pair_j, q @ fold, d)
            moved = value < 1.0 / d + (nus * q).sum(axis=1) - _rounding_band(nus)
            if not moved.any():
                break
            chain = np.where(moved, best, chain)
        # the best chain's psi, on the earliest pair within rounding of its minimum
        nus = np.exp(log_lam[pair_j[chain]] - log_lam[pair_i[chain]])[:, group]
        q = _overlap_form(family, psi, phi)
        c = int(np.argmin((nus * q).sum(axis=1)))
        vals, form = np.empty(len(pair_i)), q[c] @ fold
        for lo, rows in _pair_chunks(log_lam, pair_i, pair_j, len(axes)):
            vals[lo:lo + len(rows)] = rows @ form
            del rows  # before the next chunk is made
        k = int(np.flatnonzero(vals <= vals.min() + _rounding_band(nus[c]))[0])
        gi, gj, best_psi = int(pair_i[k]), int(pair_j[k]), psi[c]
        v_rho = spectral_apply(family, intermediate_map(traj, gi, gj).nus,
                               np.outer(best_psi, best_psi.conj()))
        certified = float(np.linalg.eigvalsh(v_rho)[0])
        if certified < -TOL_WITNESS_EIG:
            witnesses.append(Witness(
                kind="positivity", s=float(traj.grid[gi]), t=float(traj.grid[gj]),
                magnitude=-certified, state=best_psi,
                detail="intermediate map sends a pure state to an operator with a negative "
                       "eigenvalue",
            ))
    return max(witnesses, key=lambda w: w.magnitude, default=None)


def _trace_distances(traj: Trajectory, family: MubFamily, deltas: np.ndarray) -> np.ndarray:
    """||X(t)||_1 at every grid time for each orbit X(t) = sum_a lambda_a(t) B_a(delta).

    ``deltas`` has shape (..., d, d), each traceless and Hermitian up to
    rounding; the result has shape (..., N+1).  Axis blocks below the
    rounding residue of :func:`axis_blocks` count as zero.  With one axis a
    left, ||X||_1 = lambda_a ||B_a||_1, read off the diagonal of B_a in basis
    a.  At d <= 3, X has at most three nonzero eigenvalues, the roots of
    x^3 - p x - c with p = Tr X^2 / 2 and c = Tr X^3 / 3, so
    ||X||_1 = 4 sqrt(p/3) cos(arccos(r) / 3) with r = 3 sqrt(3) |c| / (2 p^(3/2));
    c = 0 at d = 2.  The blocks are Hilbert-Schmidt orthogonal, so p is a
    weighted sum of lambda_a^2, and c is a cubic form in lambda.  Both are
    formed from lambda_a ||B_a||_F over its largest value at each time, taken
    in log space, so neither lambda^2 nor p^(3/2) underflows while lambda is
    a normal double.  Other orbits (d >= 5) are evolved and go through
    ``eigvalsh``.  The operators are taken in stacks sized by ``_stacks`` for
    the largest temporary per operator: the evolved orbit's (N+1) d^2 at
    d >= 5, the cubic's (N+1) (d+1)^2 at d <= 3, and never less than the
    (d+1) d^2 of its axis blocks.
    """
    d, n = traj.dim, traj.steps + 1
    flat = np.reshape(deltas, (-1, d, d))
    dists = np.empty((len(flat), n))
    log_lam = traj.log_lambdas
    closed = d <= CLOSED_FORM_MAX_DIM
    for part in _stacks(len(flat), max(n * ((d + 1) ** 2 if closed else d * d), (d + 1) * d * d)):
        stack, out = flat[part], dists[part]
        blocks = axis_blocks(family, stack)
        norms = np.linalg.norm(blocks, axis=(-2, -1))
        # each row's 2-norm as np.linalg.norm takes a vector's: the square root of one dot product
        size = np.sqrt((norms[:, None, :] @ norms[:, :, None])[:, 0, 0])
        live = norms > BLP_ROUNDING_FLOOR * np.finfo(float).eps * d * size[:, None]
        count = live.sum(axis=1)
        one = np.flatnonzero(count <= 1)
        if one.size:  # X = lambda_a B_a (or 0), and B_a is diagonal in basis a
            axis = live[one].argmax(axis=1)
            vecs = family.bases[axis]
            diag = np.einsum("pli,pij,plj->pl", vecs.conj(), stack[one], vecs).real
            trace = np.trace(stack[one], axis1=-2, axis2=-1).real / d
            scale = np.where(count[one] == 1, np.abs(diag - trace[:, None]).sum(axis=1), 0.0)
            out[one] = scale[:, None] * traj.lambdas[axis]
        rest = np.flatnonzero(count > 1)
        if closed:
            codes = live[rest] @ (1 << np.arange(d + 1))  # the same live axes share a form
            for code in dict.fromkeys(codes.tolist()):
                group = rest[codes == code]
                axes = np.flatnonzero(live[group[0]])
                out[group] = _cubic_distances(log_lam[axes], blocks[group][:, axes],
                                              norms[group][:, axes])
        elif rest.size:  # an antipodal pair alone in its stack leaves none to evolve
            orbit = spectral_apply(family, traj.lambdas.T, stack[rest])
            orbit = 0.5 * (orbit + np.conj(np.swapaxes(orbit, -1, -2)))
            out[rest] = np.abs(np.linalg.eigvalsh(orbit)).sum(axis=-1)
    return dists.reshape(np.shape(deltas)[:-2] + (n,))


def _cubic_distances(log_lam: np.ndarray, blocks: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """The d <= 3 closed form for a stack of orbits on the same k live axes:
    ``log_lam`` (k, N+1) of those axes, their ``blocks`` (S, k, d, d) and
    ``norms`` (S, k).  Returns (S, N+1).

    Each orbit's arrays are laid out as one orbit's would be on its own (time
    the fastest axis of y, ``outer`` row-major, ``cube`` a strided real view),
    so every sum runs in the same order and the result is the same bit for
    bit however the orbits are stacked.
    """
    log_w = log_lam + np.log(norms)[:, :, None]  # (S, k, N+1)
    top = log_w.max(axis=1)
    y = np.exp(log_w - top[:, None])  # largest entry 1 per time
    p = 0.5 * (y * y).sum(axis=1)
    dists = np.exp(top) * 2.0 * np.sqrt(p)  # ||X||_1 when c = 0
    if blocks.shape[-1] == 3:
        k = len(log_lam)
        unit = blocks / norms[:, :, None, None]
        cube = np.einsum("saij,sbjk,scki->sabc", unit, unit, unit).real  # Re Tr(B_a B_b B_c)
        y = np.swapaxes(y, 1, 2)  # (S, N+1, k)
        outer = (y[..., :, None] * y[..., None, :]).reshape(len(y), y.shape[1], -1)
        c = np.einsum("sta,sta->st", outer @ cube.reshape(len(y), -1, k), y) / 3.0
        r = np.minimum(1.0, 3.0 * math.sqrt(3.0) * np.abs(c) / (2.0 * p ** 1.5))
        dists *= 2.0 / math.sqrt(3.0) * np.cos(np.arccos(r) / 3.0)
    return dists


def check_blp(traj: Trajectory, family: MubFamily, pairs=None,
              seed: int = 42) -> Witness | None:
    """Probe the trace distance of evolved state pairs for back-flow.

    By default (``pairs=None``) the pairs are the antipodal pairs (P_a0, P_a1)
    of all d+1 bases, whose trace distance is exactly 2 lambda_a(t): back-flow
    on axis a is lambda_a rising, read off the trajectory with no operator
    evolved.  ``pairs`` may instead be a count (the antipodal pairs of the first
    that many bases, then seeded random density-matrix pairs) or an explicit
    list of (rho1, rho2) tuples of d x d operators of equal trace; their
    distances come from :func:`_trace_distances`, as one (pairs, N+1) table.
    Returns the largest relative increase found between consecutive grid
    times, or None; among rises within ``TIE_ULPS`` ulps of the largest, the
    earliest pair, then the earliest step, is reported.  A rise counts only
    when it exceeds ``BLP_ROUNDING_FLOOR`` ulps of d times the initial
    distance, so a distance that has decayed into rounding noise cannot fake
    back-flow.
    """
    d = traj.dim
    _check_family(traj, family)
    seed = _count("seed", seed)
    if isinstance(pairs, np.ndarray) and pairs.ndim == 0:
        pairs = pairs[()]  # a 0-d array is its one value
    if pairs is None or np.isscalar(pairs):
        count = d + 1 if pairs is None else _count("BLP pair count", pairs)
        # one antipodal pair per basis, then random mixed pairs (rho1, rho2 alternating)
        b = family.bases[:count, :2]  # vectors 0 and 1 of the first bases
        projs = b[..., :, None] * b[..., None, :].conj()
        deltas = projs[:, 0] - projs[:, 1]
        if count > len(b):
            rhos = random_density_matrix(d, np.random.default_rng(seed), 2 * (count - len(b)))
            deltas = np.concatenate((deltas, rhos[0::2] - rhos[1::2]))
    else:
        try:
            pairs = [(rho1, rho2) for rho1, rho2 in pairs]
        except (TypeError, ValueError):
            raise InvalidInputError(f"each BLP pair must be two {d} x {d} states") from None
        states = [(as_square_matrix(rho1, d), as_square_matrix(rho2, d)) for rho1, rho2 in pairs]
        if not all(hermitian_check(rho).is_hermitian for pair in states for rho in pair):
            raise InvalidInputError("the states of a BLP pair must be Hermitian")
        deltas = np.array([rho1 - rho2 for rho1, rho2 in states], dtype=complex).reshape(-1, d, d)
        if np.any(np.abs(np.trace(deltas, axis1=1, axis2=2)) > TOL_CONDITION):
            raise InvalidInputError("the two states of a BLP pair must have equal traces")
    dists = 2.0 * traj.lambdas if pairs is None else _trace_distances(traj, family, deltas)
    rel = np.diff(dists, axis=1)
    above = rel > BLP_ROUNDING_FLOOR * np.finfo(float).eps * d * dists[:, :1]
    # in place: the table is not read again
    np.divide(rel, np.maximum(dists[:, :-1], 1e-300, out=dists[:, :-1]), out=rel, where=above)
    rel[~above] = 0.0
    top = float(rel.max(initial=0.0))
    if top <= TOL_WITNESS_NORM:
        return None
    tied = rel >= top - TIE_ULPS * np.finfo(float).eps * (1.0 + top)
    k, idx = divmod(int(np.flatnonzero(tied)[0]), traj.steps)
    return Witness(
        kind="blp", s=float(traj.grid[idx]), t=float(traj.grid[idx + 1]),
        magnitude=float(rel[k, idx]), operator=deltas[k],
        detail="trace distance of an evolved state pair increased",
    )


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

    @property
    def verdicts(self) -> tuple:
        """The six grid verdicts, in report order."""
        return (self.cp_map_valid, self.cp_divisible, self.p_necessary,
                self.p_sufficient, self.weyl_sufficient, self.frobenius_monotone)

    def to_json_dict(self) -> dict:
        def witness_dict(w):
            return {"found": False} if w is None else w.to_json_dict()

        return {
            "dim": self.dim,
            "t_max": self.t_max,
            "steps": self.steps,
            "seed": self.seed,
            "criteria": {v.criterion: v.to_json_dict() for v in self.verdicts},
            "trace_norm_witness": witness_dict(self.trace_norm_witness),
            "blp_witness": witness_dict(self.blp_witness),
        }


#: premise -> the verdicts that must hold wherever it holds.  Nonnegative rates make the
#: evolution CP-divisible; each sufficient pair or Weyl condition makes it P-divisible.
#: A premise that holds also rules out every witness.  The strongest premise comes first,
#: so a breach names the strongest premise that holds.
_IMPLIED = {
    "cp_divisible": ("cp_map_valid", "p_necessary", "p_sufficient", "weyl_sufficient",
                     "frobenius_monotone"),
    "p_sufficient": ("p_necessary", "frobenius_monotone"),
    "weyl_sufficient": ("p_necessary", "frobenius_monotone"),
}


def _enforce_hierarchy(report: DivisibilityReport):
    """Cross-check the implications of ``_IMPLIED`` that must hold on every run.
    A breach is a bug, never a physics finding."""
    for premise, implied in _IMPLIED.items():
        if not getattr(report, premise).holds:
            continue
        for name in implied:
            status = getattr(report, name).status
            if status != HOLDS:
                raise InternalConsistencyError(
                    f"divisibility hierarchy violated: {premise} holds but {name} is {status}")
        for name in ("trace_norm_witness", "blp_witness"):
            if getattr(report, name) is not None:
                raise InternalConsistencyError(
                    f"divisibility hierarchy violated: {premise} holds but {name} was found")


def analyze(rates: RateSet, family: MubFamily | None = None, t_max: float = 5.0,
            steps: int = 400, seed: int = 42, tol: float = 1e-10,
            witness_attempts: int = 64, refine_iters: int = 50,
            blp_pairs: int | None = None) -> tuple:
    """Build the trajectory and run every analyzer on the calling thread, in report
    order; returns (trajectory, report).  ``blp_pairs`` is :func:`check_blp`'s
    ``pairs``: by default back-flow is read off lambda on every axis.
    """
    seed = _count("seed", seed)
    if family is None:
        family = mub_family(rates.dim)
    traj = build_trajectory(rates, t_max=t_max, steps=steps, tol=tol)
    report = DivisibilityReport(
        dim=traj.dim, t_max=float(t_max), steps=traj.steps, seed=seed,
        cp_map_valid=check_cptp_trajectory(traj),
        cp_divisible=check_cp_divisible(traj),
        p_necessary=check_p_necessary(traj),
        p_sufficient=check_p_sufficient(traj),
        weyl_sufficient=_rate_verdict("weyl_sufficient", traj.grid, traj.gammas),
        frobenius_monotone=check_frobenius_monotone(traj, family, seed=seed),
        trace_norm_witness=find_p_divisibility_witness(
            traj, family, attempts=witness_attempts, refine_iters=refine_iters, seed=seed
        ),
        blp_witness=check_blp(traj, family, pairs=blp_pairs, seed=seed),
    )
    _enforce_hierarchy(report)
    return traj, report


def trajectory_to_csv(traj: Trajectory) -> str:
    """CSV with columns t, gamma_1.., Gamma_1.., lambda_1.., each value format(x, ".17g"):
    the blocks of :func:`trajectory_csv_blocks` joined."""
    return "".join(trajectory_csv_blocks(traj))


def trajectory_csv_blocks(traj: Trajectory):
    """The text of :func:`trajectory_to_csv` as it is built: the header line, then the
    rows in blocks of ``_CSV_BLOCK_ROWS``, so a writer holds one block at a time.

    Within a block each distinct column (by bit pattern, so 0.0 and -0.0 stay
    apart) is formatted once, and a constant column one value, by
    ``csvtext.format_values``, an exact vectorized ``%.17g``: the 17 digits of
    ``x = M * 2**(e - 53)`` are ``round-half-even(M * C)`` with
    ``C = 2**(e - 53) * 10**(16 - k)`` held as an exact double-double, and
    Dekker's TwoProduct bounds the error of the product's fraction by
    ``2**-45``.  Values within ``2**-30`` of a tie, exact ties included, and
    non-finite values go through Python's ``"%.17g"``.  The one assumption is
    that each numpy float64 ufunc call is one IEEE-754 round-to-nearest
    operation.  The text is byte-identical to formatting value by value.  On
    the four 10^4-step tables of the fine-grid benchmark (d <= 3) it takes
    26-30 ms, against 51-63 ms with Python's ``%`` per distinct column (min of
    9 interleaved calls on a shared 2-vCPU host).
    """
    cols = ["t"] + [f"{name}_{a + 1}" for name in ("gamma", "Gamma", "lambda")
                    for a in range(traj.dim + 1)]
    yield ",".join(cols) + "\n"
    for start in range(0, len(traj.grid), _CSV_BLOCK_ROWS):
        yield _csv_block(traj, slice(start, start + _CSV_BLOCK_ROWS))


def _csv_block(traj: Trajectory, span: slice) -> str:
    """The rows of trajectory.csv in ``span``; its arrays are released on return."""
    # imported here: a process that writes no trajectory does not load the kernel
    from .csvtext import format_values

    block = np.vstack((traj.grid[span], traj.gammas[:, span], traj.big_gammas[:, span],
                       traj.lambdas[:, span]))
    bits, rows = block.view(np.int64), block.shape[1]
    constant = (bits == bits[:, :1]).all(axis=1)
    firsts, group = _distinct_axes(block)
    x = np.concatenate([block[k, :1] if constant[k] else block[k] for k in firsts])
    del block, bits  # x holds the distinct values: release the block before the text
    values = format_values(x)
    text, at = [], 0
    for k in firsts:
        text.append(values[at:at + 1] * rows if constant[k] else values[at:at + rows])
        at += 1 if constant[k] else rows
    lines = list(map(",".join, zip(*[text[g] for g in group])))
    lines.append("")  # the block's last newline, without a second copy of its text
    return "\n".join(lines)
