"""Monte Carlo verification of the bracketing bounds and min-max coverage.

Data are generated from the group-confounder model the method assumes: a
latent confounder drawn once per unit and reused across periods, a time
profile that may amplify it after the intervention, independent noise, and
the treatment effect added only to the treated-after cell. Replications
use per-replication child seeds of one named generator (PCG64), so runs
reproduce across platforms and are order-independent.

The engine works a fixed-size chunk of replications at a time. Each
replication takes its standard normal and exponential draws from its own
generator, one call per run of same-kind draws (:func:`_draw`); the
chunk's six cells are then built with array arithmetic (numpy's normal is
loc + scale * z, its exponential scale * z) and reduced once (cell means,
SEs, arm points, min-max intervals as arrays). Every result is
bit-identical to drawing and reducing one replication at a time.

A run large enough to pay for a fork is split into contiguous replication
ranges (:func:`_ranges`): the calling process runs the first, and a
forked child runs each of the others, writing its cell means (and SEs)
into arrays in anonymous shared memory made before the fork. The caller
reaps each child in turn and checks every chunk, its own and the
children's, in replication order, so results and errors are the same for
any number of ranges and no error crosses a process boundary. On Python
3.12 and later ``os.fork`` warns (DeprecationWarning) when the process has
other OS threads, such as numpy's BLAS pool; the warning is not silenced
here.

What grows with ``reps``: :func:`verify_bracketing` keeps both arm points,
16 bytes a replication; a child's results take 48 bytes a replication of
its range (96 with SEs, in coverage mode) until they are consumed;
:func:`synthetic_control_comparison` draws three arrays of 8 bytes a
replication. The chunk buffers and :func:`coverage_experiment` in one
process do not grow.
An allocation that cannot be made raises OutOfDomainError naming ``reps``.
"""

from __future__ import annotations

import itertools
import math
import mmap
import os
import signal
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bracketing import bracket_bounds
from .errors import InvalidScenarioError, InvariantError, OutOfDomainError
from .estimation import did_of_means, did_variance, wald_ends, wald_z

GROUPS = ("lc", "t", "uc")
TIME_EFFECTS = ("additive", "linear_interaction", "convex_after")


@dataclass(frozen=True)
class ConfounderSpec:
    """Latent-confounder distribution per group, ordered lc <= t <= uc.

    kind="normal": lc/t/uc are means with common sd.
    kind="exponential": lc/t/uc are scales (sd ignored).
    """

    kind: str
    lc: float
    t: float
    uc: float
    sd: float = 1.0

    def __post_init__(self):
        if self.kind not in ("normal", "exponential"):
            raise InvalidScenarioError(f"unknown confounder kind {self.kind!r}")
        if not self.lc <= self.t <= self.uc:
            raise InvalidScenarioError(
                f"confounder parameters must be ordered lc <= t <= uc, got "
                f"({self.lc}, {self.t}, {self.uc})"
            )
        if self.kind == "normal" and self.sd < 0:
            raise InvalidScenarioError("normal confounder sd must be >= 0")
        if self.kind == "exponential" and self.lc <= 0:
            raise InvalidScenarioError("exponential scales must be positive")


@dataclass(frozen=True)
class DriftSpec:
    """After-period confounder drift (latent value change), normal per group.

    The bracketing bounds survive drift when the drift distributions are
    themselves ordered lc <= t <= uc; a violated ordering is allowed here
    but flagged, so the effect of breaking the condition can be studied.
    """

    lc: float
    t: float
    uc: float
    sd: float = 0.0

    def __post_init__(self):
        if self.sd < 0:
            raise InvalidScenarioError("drift sd must be >= 0")

    def ordered(self) -> bool:
        return self.lc <= self.t <= self.uc


@dataclass(frozen=True)
class Scenario:
    """One data-generating configuration for the Monte Carlo experiments."""

    effect: float
    confounder: ConfounderSpec
    time_effect: str
    noise_sd: float = 0.0
    n_per_cell: int = 100
    tau: float = 0.0      # additive common time shift
    gamma: float = 0.0    # interaction slope for linear_interaction
    drift: Optional[DriftSpec] = None

    def __post_init__(self):
        if self.time_effect not in TIME_EFFECTS:
            raise InvalidScenarioError(f"unknown time effect {self.time_effect!r}")
        if self.noise_sd < 0:
            raise InvalidScenarioError("noise_sd must be >= 0")
        if self.n_per_cell < 1:
            raise InvalidScenarioError("n_per_cell must be >= 1")
        if (
            self.time_effect == "convex_after"
            and self.confounder.kind == "exponential"
            and self.confounder.uc >= 1.0
        ):
            raise InvalidScenarioError(
                "convex_after with exponential confounders needs scales < 1 "
                "for a finite after-period mean"
            )

    def assumption_flags(self) -> tuple:
        if self.drift is not None and not self.drift.ordered():
            return ("AssumptionViolation:drift_ordering",)
        return ()


def _time_profile(scenario: Scenario, u: np.ndarray, period: int) -> np.ndarray:
    if scenario.time_effect == "additive":
        return u + scenario.tau * period
    if scenario.time_effect == "linear_interaction":
        return u * (1.0 + scenario.gamma * period)
    return np.exp(u) if period == 1 else u  # convex_after


# The six cells of one replication, in buffer order: lc0, lc1, t0, t1, uc0, uc1.
CELLS = tuple((group, period) for group in GROUPS for period in (0, 1))
LC0, LC1, T0, T1, UC0, UC1 = range(len(CELLS))

# Replications are built in a (chunk, 6, n) float64 buffer of about this
# many bytes and reduced a chunk at a time, so the buffers do not grow with
# reps. Their standard draws sit in a second buffer of 3 to 12 rows a
# replication, half to twice this size. Larger chunks save no measurable
# time and raise peak RSS: a 1 MiB buffer (and std's temporary of the same
# size) cost coverage mode 1.5 MB.
CHUNK_BYTES = 1 << 18


def chunk_len(n_per_cell: int) -> int:
    """Replications per chunk for cells of ``n_per_cell`` draws."""
    return max(1, CHUNK_BYTES // (len(CELLS) * n_per_cell * 8))


# The generator method that takes each kind of draw standard; _build_cells
# does numpy's loc and scale arithmetic on them chunk-wide.
_STANDARD_DRAWS = {"normal": "standard_normal", "exponential": "standard_exponential"}


def _draw_plan(scenario: Scenario) -> tuple:
    """Draws per group and the runs of same-kind draws of one replication.

    Per group the draws are: confounder, drift (if any), then the before
    and the after noise (if any), ``n_per_cell`` values each. This order is
    part of the output. Each run is (generator method, slice of the
    replication's draw rows) and is taken in one generator call.
    """
    per_group = 1 + (scenario.drift is not None) + 2 * bool(scenario.noise_sd)
    kinds = ([scenario.confounder.kind] + ["normal"] * (per_group - 1)) * len(GROUPS)
    runs = []
    start = 0
    for kind, run in itertools.groupby(kinds):
        stop = start + len(list(run))
        runs.append((_STANDARD_DRAWS[kind], slice(start, stop)))
        start = stop
    return per_group, tuple(runs)


def _normal(z: np.ndarray, loc: float, scale: float) -> np.ndarray:
    """numpy's normal(loc, scale) from standard draws ``z``, in place."""
    z *= scale
    z += loc
    return z


def _build_cells(scenario: Scenario, raw: np.ndarray, out: np.ndarray) -> None:
    """Turn a chunk's standard draws ``raw`` (chunk, draws, n) into its cells.

    ``out`` is (chunk, 6, n), cells in CELLS order; ``raw`` is overwritten.
    Every value goes through the float operations a one-replication-at-a-time
    draw would, so the cells are bit-identical to it.
    """
    spec, drift, noise = scenario.confounder, scenario.drift, scenario.noise_sd
    per_group = raw.shape[1] // len(GROUPS)
    for k, group in enumerate(GROUPS):
        rows = iter(raw[:, k * per_group : (k + 1) * per_group].swapaxes(0, 1))
        u0 = next(rows)
        if spec.kind == "normal":
            _normal(u0, getattr(spec, group), spec.sd)
        else:
            u0 *= getattr(spec, group)
        if drift is not None:
            u1 = _normal(next(rows), getattr(drift, group), drift.sd)
            np.add(u0, u1, out=u1)
        else:
            u1 = u0
        eps0 = _normal(next(rows), 0.0, noise) if noise else 0.0
        eps1 = _normal(next(rows), 0.0, noise) if noise else 0.0
        np.add(_time_profile(scenario, u0, 0), eps0, out=out[:, 2 * k])
        np.add(_time_profile(scenario, u1, 1), eps1, out=out[:, 2 * k + 1])
        if group == "t":
            out[:, 2 * k + 1] += scenario.effect


def _reduce(buf: np.ndarray, with_se: bool) -> tuple:
    """Cell means (reps, 6) and, if asked, cell SEs; SEs are 0.0 for one draw a cell."""
    means = buf.mean(axis=-1)
    if not with_se:
        return means, None
    n = buf.shape[-1]
    if n == 1:
        return means, np.zeros_like(means)
    return means, buf.std(axis=-1, ddof=1) / math.sqrt(n)


def _check_finite(values: np.ndarray, labels, start: int) -> None:
    """Raise OutOfDomainError naming the first replication and column that is not finite.

    ``values`` has one row a replication, from replication ``start`` on,
    and one column for each of ``labels``.
    """
    bad = ~np.isfinite(values)
    if bad.any():
        rep, k = (int(i) for i in np.argwhere(bad)[0])
        raise OutOfDomainError(
            f"replication {start + rep}: {labels[k]} is {float(values[rep, k])!r}; "
            "the scenario's outcomes overflow float64"
        )


CELL_MEANS = tuple(f"cell {group}{period} mean" for group, period in CELLS)
CELL_SES = tuple(f"cell {group}{period} SE" for group, period in CELLS)
ARM_ENDS = (
    "lower-control arm's lower end",
    "lower-control arm's upper end",
    "upper-control arm's lower end",
    "upper-control arm's upper end",
)


def _draw(root: np.random.SeedSequence, runs: tuple, raw: np.ndarray) -> None:
    """Fill ``raw`` (reps, draws, n) with the standard draws of its replications.

    Each replication seeds a PCG64 generator from the next child that
    ``root`` spawns, then takes each run of same-kind draws of ``runs``
    (:func:`_draw_plan`) in one generator call.
    """
    for rows, child in zip(raw, root.spawn(len(raw))):
        rng = np.random.default_rng(child)
        for method, span in runs:
            getattr(rng, method)(out=rows[span])


def _replicate_range(scenario: Scenario, lo: int, hi: int, seed: int, with_se: bool, size: int):
    """Yield (means, ses) for each chunk of ``size`` replications of ``[lo, hi)``.

    Replication i draws from the i-th PCG64 child of ``SeedSequence(seed)``,
    whatever the chunk length and wherever the range starts: children are
    spawned chunk by chunk from ``SeedSequence(seed, n_children_spawned=lo)``,
    and successive ``spawn`` calls continue the same sequence of children.
    numpy's overflow warnings are silenced, not printed: :func:`_replicate`
    checks the results.
    """
    n = scenario.n_per_cell
    per_group, runs = _draw_plan(scenario)
    root = np.random.SeedSequence(seed, n_children_spawned=lo)
    length = min(size, hi - lo)
    buf = np.empty((length, len(CELLS), n))
    raw = np.empty((length, per_group * len(GROUPS), n))
    for start in range(lo, hi, size):
        chunk, draws = buf[: hi - start], raw[: hi - start]
        _draw(root, runs, draws)
        with np.errstate(over="ignore", invalid="ignore"):
            _build_cells(scenario, draws, chunk)
            yield _reduce(chunk, with_se)


# A run splits into contiguous replication ranges, one process each, only
# when every range gets at least MIN_RANGE_REPS replications: a fork and its
# reap cost about 4 ms, 1000 linear_interaction replications about 50 ms.
# MAX_RANGES caps the processes of one run.
MIN_RANGE_REPS = 1000
MAX_RANGES = 4


def _usable_cpus() -> int:
    """CPUs this process may run on (1 where the platform cannot say)."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    return len(getaffinity(0)) if getaffinity else 1


def _ranges(reps: int, size: int) -> list:
    """The [lo, hi) replication ranges of one run, each starting on a chunk boundary.

    One range, so one process, unless ``os.fork`` exists, no other Python
    thread is alive (forking a threaded process can deadlock the child)
    and at least two CPUs are usable.
    """
    count = 1
    if hasattr(os, "fork") and threading.active_count() == 1:
        count = min(MAX_RANGES, reps // MIN_RANGE_REPS, _usable_cpus())
    chunks = -(-reps // size)
    count = max(1, min(count, chunks))
    bounds = [min(reps, chunks * k // count * size) for k in range(count + 1)]
    return list(zip(bounds, bounds[1:]))


def _allocated(reps: int, nbytes: int, allocate, *args):
    """``allocate(*args)``, which asks ``nbytes`` for ``reps`` replications.

    An allocation that cannot be made raises OutOfDomainError naming both.
    """
    try:
        return allocate(*args)
    except (MemoryError, OverflowError, OSError, ValueError):
        raise OutOfDomainError(
            f"reps={reps} asks for {nbytes} bytes of memory, more than can be allocated"
        ) from None


def _fork_range(scenario: Scenario, lo: int, hi: int, seed: int, with_se: bool, size: int,
                reps: int) -> tuple:
    """Run replications [lo, hi) of a ``reps`` run in a forked child; return (pid, results).

    ``results`` is (1 or 2, hi - lo, 6) float64 in anonymous shared memory,
    made before the fork: the cell means, then the SEs if ``with_se``. The
    child fills it and leaves with ``os._exit``, status 0 once the range is
    done and 1 on any exception; it never returns into the caller.
    """
    nbytes = (1 + with_se) * (hi - lo) * len(CELLS) * 8
    shared = _allocated(reps, nbytes, mmap.mmap, -1, nbytes)
    results = np.frombuffer(shared).reshape(1 + with_se, hi - lo, len(CELLS))
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            chunks = _replicate_range(scenario, lo, hi, seed, with_se, size)
            for start, chunk in zip(range(0, hi - lo, size), chunks):
                for out, rows in zip(results, chunk):
                    out[start : start + len(rows)] = rows
            status = 0
        finally:
            os._exit(status)
    return pid, results


def _reaped(children: list, size: int, with_se: bool):
    """Yield the chunks of ``children``, (pid, lo, hi, results) each, in order.

    Each child is waited for and taken off the list before its chunks are
    yielded; one that did not exit with status 0 raises InvariantError.
    """
    while children:
        pid, lo, hi, results = children[0]
        status = os.waitpid(pid, 0)[1]
        del children[0]
        if status:
            raise InvariantError(
                f"the process running replications {lo} to {hi - 1} ended without its results"
            )
        means, ses = results if with_se else (results[0], None)
        for k in range(0, hi - lo, size):
            yield means[k : k + size], None if ses is None else ses[k : k + size]


def _replicate(scenario: Scenario, reps: int, seed: int, with_se: bool):
    """Yield (means, ses) for each chunk of ``reps`` replications, in order.

    The run's ranges (:func:`_ranges`) after the first are each started in
    a forked child; the caller's process runs the first range, then yields
    each child's chunks in turn (:func:`_reaped`).

    Every chunk is checked here, in replication order: a scenario whose
    outcomes overflow (``exp`` of a large confounder) raises
    OutOfDomainError naming the first replication and cell whose mean or
    SE is not finite, the same for any number of ranges. Underflow is left
    alone: ``exp`` of a very negative value is a valid 0.0. A child not yet
    reaped when this returns or raises is killed and reaped.
    """
    size = min(reps, chunk_len(scenario.n_per_cell))
    (lo, hi), *later = _ranges(reps, size)
    children = []
    try:
        for start, stop in later:
            pid, results = _fork_range(scenario, start, stop, seed, with_se, size, reps)
            children.append((pid, start, stop, results))
        chunks = itertools.chain(
            _replicate_range(scenario, lo, hi, seed, with_se, size),
            _reaped(children, size, with_se),
        )
        for start, (means, ses) in zip(itertools.count(0, size), chunks):
            _check_finite(means, CELL_MEANS, start)
            if ses is not None:
                _check_finite(ses, CELL_SES, start)
            yield means, ses
    finally:
        for pid, *_ in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _arms(cells: np.ndarray, combine) -> tuple:
    """``combine`` applied to the four cells of each arm: (vs lower, vs upper)."""
    t0, t1 = cells[:, T0], cells[:, T1]
    return (
        combine(t0, t1, cells[:, LC0], cells[:, LC1]),
        combine(t0, t1, cells[:, UC0], cells[:, UC1]),
    )


# The fewest replications each experiment accepts. One bracket replication
# has no spread (mcse would be 0 and the verdict would carry no slack).
MIN_REPS = {"bracket": 2, "coverage": 100, "synthetic_control": 1}


def check_reps(mode: str, reps: int) -> None:
    """Raise OutOfDomainError when ``reps`` is below ``mode``'s minimum."""
    if reps < MIN_REPS[mode]:
        raise OutOfDomainError(f"reps must be >= {MIN_REPS[mode]} in {mode} mode, got {reps}")


def check_seed(seed: int) -> None:
    """Raise OutOfDomainError for a negative seed, which SeedSequence refuses."""
    if seed < 0:
        raise OutOfDomainError(f"seed must be >= 0, got {seed}")


@dataclass(frozen=True)
class McReport:
    reps: int
    true_effect: float
    mean_effect_lc: float
    mcse_lc: float
    mean_effect_uc: float
    mcse_uc: float
    bracket_holds: bool
    flags: tuple = ()


def _mc_summary(points: np.ndarray, arm: str):
    """Mean and Monte Carlo SE of one arm's points.

    Finite cells can still give points that overflow, or whose spread
    overflows when squared; that raises OutOfDomainError instead of a
    non-finite report.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(points.mean())
        mcse = float(points.std(ddof=1) / math.sqrt(points.size))
    for what, value in (("mean effect", mean), ("Monte Carlo SE", mcse)):
        if not math.isfinite(value):
            raise OutOfDomainError(
                f"{arm} arm's {what} over {points.size} replications is {value!r}; "
                "the scenario's outcomes overflow float64"
            )
    return mean, mcse


def verify_bracketing(scenario: Scenario, reps: int, seed: int) -> McReport:
    """Average both arm estimators over replications and check the bounds.

    bracket_holds allows three Monte Carlo standard errors of slack on
    each side, so a true boundary case (additive time effect) still
    registers as holding. A scenario with confounder drift is run as it
    is: a violated drift ordering shows in ``flags`` (AssumptionViolation),
    so the resulting bracket failure is observed, not asserted away.
    """
    check_reps("bracket", reps)
    check_seed(seed)
    lc, uc = _allocated(reps, 16 * reps, np.empty, (2, reps))
    start = 0
    for means, _ in _replicate(scenario, reps, seed, with_se=False):
        stop = start + len(means)
        with np.errstate(over="ignore", invalid="ignore"):  # _mc_summary checks
            lc[start:stop], uc[start:stop] = _arms(means, did_of_means)
        start = stop
    mean_lc, mcse_lc = _mc_summary(lc, "lower-control")
    mean_uc, mcse_uc = _mc_summary(uc, "upper-control")
    slack = 3.0 * max(mcse_lc, mcse_uc)
    lo, hi = bracket_bounds(mean_lc, mean_uc)
    return McReport(
        reps=reps,
        true_effect=scenario.effect,
        mean_effect_lc=mean_lc,
        mcse_lc=mcse_lc,
        mean_effect_uc=mean_uc,
        mcse_uc=mcse_uc,
        bracket_holds=(lo - slack <= scenario.effect <= hi + slack),
        flags=scenario.assumption_flags(),
    )


@dataclass(frozen=True)
class CoverageResult:
    coverage: float
    mcse: float
    reps: int
    alpha: float


def _minmax_intervals(scenario: Scenario, reps: int, alpha: float, seed: int):
    """Yield each chunk's min-max intervals: (lower, upper), one entry a replication.

    Each arm's interval is wald_ends around the arm's point, with did_se's
    SE, as in wald_ci; the arms combine as in minmax_ci, by the minimum of the
    lower endpoints and the maximum of the upper ones. Finite cells can
    still give a point or a variance that overflows, so each endpoint is
    checked: one that is not finite raises OutOfDomainError naming the
    replication.
    """
    z = wald_z(alpha)
    start = 0
    for means, ses in _replicate(scenario, reps, seed, with_se=True):
        ends = []
        with np.errstate(over="ignore", invalid="ignore"):
            for point, variance in zip(_arms(means, did_of_means), _arms(ses, did_variance)):
                ends += wald_ends(point, np.sqrt(variance), z)
        _check_finite(np.stack(ends, axis=1), ARM_ENDS, start)
        lower_lc, upper_lc, lower_uc, upper_uc = ends
        start += len(means)
        yield np.minimum(lower_lc, lower_uc), np.maximum(upper_lc, upper_uc)


def coverage_experiment(
    scenario: Scenario, reps: int, alpha: float, seed: int
) -> CoverageResult:
    """Fraction of replications whose min-max interval contains the effect."""
    check_reps("coverage", reps)
    check_seed(seed)
    effect = scenario.effect
    hits = sum(
        int(np.count_nonzero((lower <= effect) & (effect <= upper)))
        for lower, upper in _minmax_intervals(scenario, reps, alpha, seed)
    )
    coverage = hits / reps
    mcse = math.sqrt(coverage * (1.0 - coverage) / reps)
    return CoverageResult(coverage=coverage, mcse=mcse, reps=reps, alpha=alpha)


# Appendix-style synthetic-control comparison: exponential confounders with
# these scales in the lower and upper control groups, identity before and
# exponential after.
SYNTH_LOWER_SCALE = 0.2
SYNTH_UPPER_SCALE = 0.5


def check_synth_tau(tau: float) -> None:
    """Raise OutOfDomainError unless ``tau`` lies strictly between the control scales."""
    if not SYNTH_LOWER_SCALE < tau < SYNTH_UPPER_SCALE:
        raise OutOfDomainError(
            f"tau must lie strictly between {SYNTH_LOWER_SCALE} and {SYNTH_UPPER_SCALE}"
        )


@dataclass(frozen=True)
class SynthControlResult:
    tau: float
    weight_lower: float
    weight_upper: float
    synthetic_before_mean: float
    synthetic_after_mean: float
    counterfactual_after_mean: float
    bias: float


def synthetic_control_comparison(
    tau: float, analytic: bool = True, reps: int = 1_000_000, seed: int = 0
) -> SynthControlResult:
    """Bias of the before-period-matching convex combination of controls.

    The weights are the unique convex pair on the control scales that
    reproduces the treated group's before-period mean tau; the comparison
    is between that combination's after-period mean and the treated
    group's counterfactual after-period mean. Analytic mode uses
    E[exp(U)] = 1/(1 - scale); Monte Carlo mode estimates the same means
    from draws.
    """
    check_synth_tau(tau)
    span = SYNTH_UPPER_SCALE - SYNTH_LOWER_SCALE
    w_lower = (SYNTH_UPPER_SCALE - tau) / span
    w_upper = (tau - SYNTH_LOWER_SCALE) / span
    if analytic:
        synth_before = w_lower * SYNTH_LOWER_SCALE + w_upper * SYNTH_UPPER_SCALE
        synth_after = w_lower / (1.0 - SYNTH_LOWER_SCALE) + w_upper / (1.0 - SYNTH_UPPER_SCALE)
        counterfactual = 1.0 / (1.0 - tau)
    else:
        check_reps("synthetic_control", reps)
        check_seed(seed)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        u_lower, u_upper, u_treated = (
            _allocated(reps, 8 * reps, rng.exponential, scale, reps)
            for scale in (SYNTH_LOWER_SCALE, SYNTH_UPPER_SCALE, tau)
        )
        synth_before = w_lower * float(u_lower.mean()) + w_upper * float(u_upper.mean())
        synth_after = w_lower * float(np.exp(u_lower).mean()) + w_upper * float(
            np.exp(u_upper).mean()
        )
        counterfactual = float(np.exp(u_treated).mean())
    return SynthControlResult(
        tau=tau,
        weight_lower=w_lower,
        weight_upper=w_upper,
        synthetic_before_mean=synth_before,
        synthetic_after_mean=synth_after,
        counterfactual_after_mean=counterfactual,
        bias=synth_after - counterfactual,
    )


def shipped_scenarios() -> dict:
    """Named scenarios used by the CLI and the acceptance experiments."""
    return {
        "additive": Scenario(
            effect=1.0,
            confounder=ConfounderSpec("normal", 0.0, 1.0, 2.0, sd=1.0),
            time_effect="additive",
            tau=0.5,
            noise_sd=0.5,
            n_per_cell=200,
        ),
        "linear_interaction": Scenario(
            effect=1.0,
            confounder=ConfounderSpec("normal", 0.0, 1.0, 2.0, sd=1.0),
            time_effect="linear_interaction",
            gamma=0.5,
            noise_sd=0.5,
            n_per_cell=100,
        ),
        "linear_interaction_neg": Scenario(
            effect=1.0,
            confounder=ConfounderSpec("normal", 0.0, 1.0, 2.0, sd=1.0),
            time_effect="linear_interaction",
            gamma=-0.5,
            noise_sd=0.5,
            n_per_cell=100,
        ),
        "convex_after": Scenario(
            effect=1.0,
            confounder=ConfounderSpec("exponential", 0.2, 0.3, 0.4),
            time_effect="convex_after",
            noise_sd=0.5,
            n_per_cell=200,
        ),
        "time_varying": Scenario(
            effect=1.0,
            confounder=ConfounderSpec("normal", 0.0, 0.5, 1.0, sd=0.5),
            time_effect="convex_after",
            noise_sd=0.5,
            n_per_cell=200,
            drift=DriftSpec(lc=0.0, t=0.1, uc=0.2, sd=0.1),
        ),
    }
