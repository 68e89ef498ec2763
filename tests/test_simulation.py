import contextlib
import dataclasses
import errno
import math
import os
import threading
import time
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_captured
from didbracket import simulation
from didbracket.errors import InvalidScenarioError, OutOfDomainError
from didbracket.estimation import did_of_means, normal_quantile
from didbracket.model import PeriodSummary
from didbracket.simulation import (
    ConfounderSpec,
    DriftSpec,
    McReport,
    Scenario,
    chunk_len,
    coverage_experiment,
    shipped_scenarios,
    synthetic_control_comparison,
    verify_bracketing,
)


def linear_scenario(gamma=0.5, noise=0.5, n=100):
    return Scenario(
        effect=1.0,
        confounder=ConfounderSpec("normal", 0.0, 1.0, 2.0, sd=1.0),
        time_effect="linear_interaction",
        gamma=gamma,
        noise_sd=noise,
        n_per_cell=n,
    )


# --- scenario validation -----------------------------------------------------


def test_scenario_rejects_unordered_confounders():
    with pytest.raises(InvalidScenarioError):
        ConfounderSpec("normal", 2.0, 1.0, 0.0)


def test_scenario_rejects_bad_kind_and_time_effect():
    with pytest.raises(InvalidScenarioError):
        ConfounderSpec("uniform", 0.0, 1.0, 2.0)
    with pytest.raises(InvalidScenarioError):
        Scenario(
            effect=1.0,
            confounder=ConfounderSpec("normal", 0.0, 1.0, 2.0),
            time_effect="quadratic",
        )


def test_convex_after_needs_small_exponential_scales():
    with pytest.raises(InvalidScenarioError):
        Scenario(
            effect=1.0,
            confounder=ConfounderSpec("exponential", 0.2, 0.5, 1.0),
            time_effect="convex_after",
        )


def test_misordered_drift_is_flagged_not_rejected():
    scenario = Scenario(
        effect=1.0,
        confounder=ConfounderSpec("normal", 0.0, 0.5, 1.0, sd=0.5),
        time_effect="convex_after",
        noise_sd=0.1,
        n_per_cell=50,
        drift=DriftSpec(lc=0.3, t=0.1, uc=0.0, sd=0.05),
    )
    assert scenario.assumption_flags() == ("AssumptionViolation:drift_ordering",)


# --- one replication -----------------------------------------------------------


def _one_replication(scenario, seed):
    """Cell means and SEs, each of shape (6,), of replication 0 from ``seed``."""
    (means, ses), = simulation._replicate(scenario, 1, seed, with_se=True)
    return means[0], ses[0]


def test_replication_reproducible():
    scenario = linear_scenario()
    a = _one_replication(scenario, seed=7)
    b = _one_replication(scenario, seed=7)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    c = _one_replication(scenario, seed=8)
    assert not np.array_equal(a[0], c[0])


def test_additive_profile_cancels_confounder_exactly():
    # With an additive time effect and no noise the confounder drops out of
    # each arm estimate, for any draws.
    scenario = Scenario(
        effect=1.0,
        confounder=ConfounderSpec("normal", 0.0, 1.0, 2.0, sd=1.0),
        time_effect="additive",
        tau=0.7,
        noise_sd=0.0,
        n_per_cell=37,
    )
    means, _ = _one_replication(scenario, seed=11)
    lc, uc = simulation._arms(means[np.newaxis], did_of_means)
    assert lc[0] == pytest.approx(1.0, abs=1e-12)
    assert uc[0] == pytest.approx(1.0, abs=1e-12)


def test_degenerate_cells_are_exact():
    scenario = Scenario(
        effect=2.0,
        confounder=ConfounderSpec("normal", 0.5, 0.5, 0.5, sd=0.0),
        time_effect="additive",
        tau=0.25,
        noise_sd=0.0,
        n_per_cell=1,
    )
    means, ses = _one_replication(scenario, seed=1)
    assert means[simulation.LC0] == pytest.approx(0.5)
    assert means[simulation.LC1] == pytest.approx(0.75)
    assert means[simulation.T1] == pytest.approx(2.75)
    assert ses[simulation.UC1] == 0.0


# --- bracketing verification -------------------------------------------------


def test_verify_bracketing_matches_closed_form():
    # E[arm vs lower] = effect + gamma * (t_mean - lc_mean) = 1.5;
    # E[arm vs upper] = effect + gamma * (t_mean - uc_mean) = 0.5.
    report = verify_bracketing(linear_scenario(), reps=3000, seed=42)
    assert abs(report.mean_effect_lc - 1.5) <= 3 * report.mcse_lc
    assert abs(report.mean_effect_uc - 0.5) <= 3 * report.mcse_uc
    assert report.bracket_holds


def test_flipped_gamma_flips_bracket_orientation():
    report = verify_bracketing(linear_scenario(gamma=-0.5), reps=3000, seed=42)
    assert abs(report.mean_effect_lc - 0.5) <= 3 * report.mcse_lc
    assert abs(report.mean_effect_uc - 1.5) <= 3 * report.mcse_uc
    assert report.mean_effect_lc < 1.0 < report.mean_effect_uc
    assert report.bracket_holds


def test_additive_scenario_unbiased_both_arms():
    report = verify_bracketing(shipped_scenarios()["additive"], reps=2000, seed=3)
    assert abs(report.mean_effect_lc - 1.0) <= 3 * report.mcse_lc
    assert abs(report.mean_effect_uc - 1.0) <= 3 * report.mcse_uc
    assert report.bracket_holds


def test_verify_bracketing_requires_reps():
    with pytest.raises(OutOfDomainError):
        verify_bracketing(linear_scenario(), reps=0, seed=1)


@pytest.mark.parametrize(
    "experiment",
    [
        lambda: verify_bracketing(linear_scenario(), reps=10, seed=-1),
        lambda: coverage_experiment(linear_scenario(), reps=100, alpha=0.05, seed=-1),
        lambda: synthetic_control_comparison(0.35, analytic=False, reps=10, seed=-1),
    ],
    ids=["verify_bracketing", "coverage_experiment", "synthetic_control_comparison"],
)
def test_library_entry_points_refuse_a_negative_seed(experiment):
    with pytest.raises(OutOfDomainError, match=r"^seed must be >= 0, got -1$"):
        experiment()


def test_verify_bracketing_rejects_a_single_replication():
    # One draw has no spread: mcse would be 0 and the verdict would have no slack.
    with pytest.raises(OutOfDomainError, match="reps must be >= 2"):
        verify_bracketing(linear_scenario(), reps=1, seed=1)
    report = verify_bracketing(linear_scenario(), reps=2, seed=1)
    assert report.mcse_lc > 0 and report.mcse_uc > 0


# --- coverage ----------------------------------------------------------------


def test_coverage_separated_bracket_near_one():
    result = coverage_experiment(linear_scenario(), reps=400, alpha=0.05, seed=5)
    assert result.coverage >= 0.95 - 2 * result.mcse


def test_coverage_noiseless_is_exact():
    scenario = Scenario(
        effect=1.0,
        confounder=ConfounderSpec("normal", 0.0, 1.0, 2.0, sd=1.0),
        time_effect="additive",
        tau=0.5,
        noise_sd=0.0,
        n_per_cell=500,
    )
    result = coverage_experiment(scenario, reps=200, alpha=0.05, seed=9)
    assert result.coverage == 1.0


def test_coverage_guarantee_holds_at_alpha_half():
    result = coverage_experiment(
        shipped_scenarios()["additive"], reps=500, alpha=0.5, seed=17
    )
    assert result.coverage >= 0.5 - 2 * result.mcse


def test_coverage_requires_min_reps():
    with pytest.raises(OutOfDomainError):
        coverage_experiment(linear_scenario(), reps=50, alpha=0.05, seed=1)


@pytest.mark.parametrize(
    "experiment, message",
    [
        (lambda sc: coverage_experiment(sc, reps=100, alpha=0.05, seed=1),
         r"^replication 0: upper-control arm's lower end is inf; "),
        (lambda sc: verify_bracketing(sc, reps=100, seed=1),
         r"^lower-control arm's mean effect over 100 replications is inf; "),
    ],
)
def test_finite_cells_with_overflowing_arms_are_out_of_domain(experiment, message):
    # One draw a cell keeps every cell finite. The upper arm's DiD point,
    # (t1 - t0) - (uc1 - uc0) = 1.7e308 + 1.7e308, is not; the lower arm's
    # points are finite, but their sum over the replications is not.
    scenario = Scenario(
        effect=1.0,
        confounder=ConfounderSpec("normal", -9e307, -8.5e307, 8.5e307, sd=0.0),
        time_effect="additive",
        noise_sd=0.5,
        n_per_cell=1,
        drift=DriftSpec(0.0, 1.7e308, -1.7e308),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfDomainError, match=message):
            experiment(scenario)


# --- time-varying confounders ------------------------------------------------


def test_time_varying_bracket_holds_under_ordered_drift():
    report = verify_bracketing(
        shipped_scenarios()["time_varying"], reps=3000, seed=13
    )
    assert report.flags == ()
    assert report.bracket_holds


def test_time_varying_zero_drift_matches_plain_check():
    base = shipped_scenarios()["time_varying"]
    zero_drift = Scenario(
        effect=base.effect,
        confounder=base.confounder,
        time_effect=base.time_effect,
        noise_sd=base.noise_sd,
        n_per_cell=base.n_per_cell,
        drift=DriftSpec(0.0, 0.0, 0.0, sd=0.0),
    )
    no_drift = Scenario(
        effect=base.effect,
        confounder=base.confounder,
        time_effect=base.time_effect,
        noise_sd=base.noise_sd,
        n_per_cell=base.n_per_cell,
    )
    a = verify_bracketing(zero_drift, reps=2000, seed=21)
    b = verify_bracketing(no_drift, reps=2000, seed=22)
    # Identical data-generating processes; only the draw streams differ.
    tol_lc = 3 * (a.mcse_lc + b.mcse_lc)
    tol_uc = 3 * (a.mcse_uc + b.mcse_uc)
    assert abs(a.mean_effect_lc - b.mean_effect_lc) <= tol_lc
    assert abs(a.mean_effect_uc - b.mean_effect_uc) <= tol_uc


def test_time_varying_violation_reported_not_asserted():
    base = shipped_scenarios()["time_varying"]
    violated = Scenario(
        effect=base.effect,
        confounder=base.confounder,
        time_effect=base.time_effect,
        noise_sd=base.noise_sd,
        n_per_cell=base.n_per_cell,
        drift=DriftSpec(lc=0.6, t=0.3, uc=0.0, sd=0.1),
    )
    report = verify_bracketing(violated, reps=1000, seed=2)
    assert "AssumptionViolation:drift_ordering" in report.flags
    # bracket_holds may be False here; the report carries it either way.
    assert isinstance(report.bracket_holds, bool)


# --- synthetic-control comparison --------------------------------------------


def test_synthetic_control_analytic_midpoint():
    result = synthetic_control_comparison(0.35, analytic=True)
    assert result.weight_lower == pytest.approx(0.5)
    assert result.weight_upper == pytest.approx(0.5)
    assert result.synthetic_before_mean == pytest.approx(0.35)
    assert result.synthetic_after_mean == pytest.approx(1.625)
    assert result.counterfactual_after_mean == pytest.approx(1.0 / 0.65)
    assert result.bias == pytest.approx(1.625 - 1.0 / 0.65, abs=1e-12)
    assert result.bias > 0  # opposite sign from the source's stated direction


def test_synthetic_control_before_mean_matches_everywhere():
    for tau in (0.21, 0.3, 0.42, 0.49):
        result = synthetic_control_comparison(tau, analytic=True)
        assert result.synthetic_before_mean == pytest.approx(tau, abs=1e-12)


def test_synthetic_control_endpoint_degeneracy():
    result = synthetic_control_comparison(0.2001, analytic=True)
    assert result.weight_lower == pytest.approx(1.0, abs=1e-2)
    assert result.weight_upper == pytest.approx(0.0, abs=1e-2)
    assert abs(result.bias) < 1e-3


def test_synthetic_control_monte_carlo_agrees():
    analytic = synthetic_control_comparison(0.35, analytic=True)
    mc = synthetic_control_comparison(0.35, analytic=False, reps=400_000, seed=99)
    assert mc.synthetic_after_mean == pytest.approx(analytic.synthetic_after_mean, abs=0.02)
    assert mc.counterfactual_after_mean == pytest.approx(
        analytic.counterfactual_after_mean, abs=0.02
    )
    assert mc.bias == pytest.approx(analytic.bias, abs=0.03)


def test_synthetic_control_domain():
    for tau in (0.2, 0.5, 0.1, 0.7):
        with pytest.raises(OutOfDomainError):
            synthetic_control_comparison(tau)


def test_mcse_scales_with_reps():
    small = verify_bracketing(linear_scenario(), reps=500, seed=31)
    large = verify_bracketing(linear_scenario(), reps=4000, seed=31)
    assert large.mcse_lc < small.mcse_lc
    expected_ratio = math.sqrt(500 / 4000)
    assert large.mcse_lc / small.mcse_lc == pytest.approx(expected_ratio, rel=0.35)


# --- batched engine against the one-replication-at-a-time oracle -------------
#
# The oracle is the engine as it was before replications were batched: one
# generator per replication, one PeriodSummary per cell, scalar arithmetic.
# Every comparison is exact (==): batching must not change a single bit.


def _oracle_profile(scenario, u, period):
    if scenario.time_effect == "additive":
        return u + scenario.tau * period
    if scenario.time_effect == "linear_interaction":
        return u * (1.0 + scenario.gamma * period)
    return np.exp(u) if period == 1 else u


def _oracle_cell(values):
    n = values.size
    se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return PeriodSummary(mean=float(values.mean()), se=se, total_weight=float(n))


def _oracle_cells(scenario, rng):
    n = scenario.n_per_cell
    spec = scenario.confounder
    cells = {}
    for group in ("lc", "t", "uc"):
        if spec.kind == "normal":
            u0 = rng.normal(getattr(spec, group), spec.sd, n)
        else:
            u0 = rng.exponential(getattr(spec, group), n)
        if scenario.drift is not None:
            u1 = u0 + rng.normal(getattr(scenario.drift, group), scenario.drift.sd, n)
        else:
            u1 = u0
        eps0 = rng.normal(0.0, scenario.noise_sd, n) if scenario.noise_sd else np.zeros(n)
        eps1 = rng.normal(0.0, scenario.noise_sd, n) if scenario.noise_sd else np.zeros(n)
        y0 = _oracle_profile(scenario, u0, 0) + eps0
        y1 = _oracle_profile(scenario, u1, 1) + eps1
        if group == "t":
            y1 = y1 + scenario.effect
        cells[(group, 0)] = _oracle_cell(y0)
        cells[(group, 1)] = _oracle_cell(y1)
    return cells


def _oracle_reps(scenario, reps, seed):
    for child in np.random.SeedSequence(seed).spawn(reps):
        yield _oracle_cells(scenario, np.random.default_rng(child))


def _oracle_arms(cells):
    t0, t1 = cells[("t", 0)], cells[("t", 1)]
    out = []
    for group in ("lc", "uc"):
        c0, c1 = cells[(group, 0)], cells[(group, 1)]
        point = (t1.mean - t0.mean) - (c1.mean - c0.mean)
        se = math.sqrt(sum(c.se * c.se for c in (t0, t1, c0, c1)))
        out.append((point, se))
    return out


def _oracle_report(scenario, reps, seed):
    points = np.array([[p for p, _ in _oracle_arms(c)] for c in _oracle_reps(scenario, reps, seed)])
    summary = []
    for arm in points.T:
        summary += [float(arm.mean()), float(arm.std(ddof=1) / math.sqrt(arm.size))]
    mean_lc, mcse_lc, mean_uc, mcse_uc = summary
    slack = 3.0 * max(mcse_lc, mcse_uc)
    lo, hi = min(mean_lc, mean_uc), max(mean_lc, mean_uc)
    return McReport(
        reps=reps, true_effect=scenario.effect, mean_effect_lc=mean_lc, mcse_lc=mcse_lc,
        mean_effect_uc=mean_uc, mcse_uc=mcse_uc,
        bracket_holds=(lo - slack <= scenario.effect <= hi + slack),
        flags=scenario.assumption_flags(),
    )


def _oracle_minmax(scenario, reps, alpha, seed):
    z = normal_quantile(1.0 - alpha / 2.0)
    lower, upper = [], []
    for cells in _oracle_reps(scenario, reps, seed):
        (p_lc, se_lc), (p_uc, se_uc) = _oracle_arms(cells)
        lower.append(min(p_lc - z * se_lc, p_uc - z * se_uc))
        upper.append(max(p_lc + z * se_lc, p_uc + z * se_uc))
    return lower, upper


def _engine_cells(scenario, reps, seed, with_se):
    chunks = list(simulation._replicate(scenario, reps, seed, with_se))
    means = np.concatenate([m for m, _ in chunks])
    ses = np.concatenate([s for _, s in chunks]) if with_se else None
    return means, ses


def _engine_minmax(scenario, reps, alpha, seed):
    chunks = list(simulation._minmax_intervals(scenario, reps, alpha, seed))
    return (np.concatenate([lo for lo, _ in chunks]).tolist(),
            np.concatenate([hi for _, hi in chunks]).tolist())


@st.composite
def scenarios(draw):
    kind = draw(st.sampled_from(["normal", "exponential"]))
    time_effect = draw(st.sampled_from(simulation.TIME_EFFECTS))
    if kind == "normal":
        lc, t, uc = sorted(draw(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3)))
        confounder = ConfounderSpec("normal", lc, t, uc, sd=draw(st.floats(0.0, 2.0)))
    else:
        top = 0.99 if time_effect == "convex_after" else 3.0
        lc, t, uc = sorted(draw(st.lists(st.floats(0.01, top), min_size=3, max_size=3)))
        confounder = ConfounderSpec("exponential", lc, t, uc)
    drift = draw(st.none() | st.builds(
        DriftSpec, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
        sd=st.floats(0.0, 1.0),
    ))
    return Scenario(
        effect=draw(st.floats(-3.0, 3.0)),
        confounder=confounder,
        time_effect=time_effect,
        noise_sd=draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 2.0)),
        n_per_cell=draw(st.sampled_from([1, 2]) | st.integers(1, 40)),
        tau=draw(st.floats(-2.0, 2.0)),
        gamma=draw(st.floats(-1.0, 1.0)),
        drift=drift,
    )


def _assert_engine_matches_oracle(scenario, reps, seed, alpha):
    means, ses = _engine_cells(scenario, reps, seed, with_se=True)
    means_only, no_ses = _engine_cells(scenario, reps, seed, with_se=False)
    oracle = list(_oracle_reps(scenario, reps, seed))
    cells = simulation.CELLS
    assert means.tolist() == [[c[k].mean for k in cells] for c in oracle]
    assert ses.tolist() == [[c[k].se for k in cells] for c in oracle]
    assert means_only.tolist() == means.tolist() and no_ses is None
    points = np.column_stack(simulation._arms(means, did_of_means)).tolist()
    assert points == [[p for p, _ in _oracle_arms(c)] for c in oracle]
    assert verify_bracketing(scenario, reps, seed) == _oracle_report(scenario, reps, seed)
    assert _engine_minmax(scenario, reps, alpha, seed) == _oracle_minmax(
        scenario, reps, alpha, seed
    )


@given(
    scenario=scenarios(),
    reps=st.integers(2, 13),
    seed=st.integers(0, 2**32 - 1),
    chunk=st.integers(1, 6),
    alpha=st.sampled_from([0.05, 0.5, 0.9]) | st.floats(0.001, 0.999),
)
@settings(max_examples=80, deadline=None)
def test_engine_matches_oracle(scenario, reps, seed, chunk, alpha):
    # A buffer budget of `chunk` replications, so reps falls below, on and
    # across chunk boundaries.
    budget = chunk * len(simulation.CELLS) * 8 * scenario.n_per_cell
    with mock.patch.object(simulation, "CHUNK_BYTES", budget):
        assert chunk_len(scenario.n_per_cell) == chunk
        _assert_engine_matches_oracle(scenario, reps, seed, alpha)


@pytest.mark.parametrize("kind", ["normal", "exponential"])
@pytest.mark.parametrize("time_effect", simulation.TIME_EFFECTS)
@pytest.mark.parametrize("drift", [None, DriftSpec(0.0, 0.1, 0.3, sd=0.2)])
@pytest.mark.parametrize("noise_sd", [0.0, 0.5])
@pytest.mark.parametrize("n", [1, 2])
def test_engine_matches_oracle_on_every_model_branch(kind, time_effect, drift, noise_sd, n):
    scales = (0.1, 0.3, 0.6) if kind == "exponential" else (-0.5, 0.0, 0.8)
    scenario = Scenario(
        effect=1.0, confounder=ConfounderSpec(kind, *scales, sd=0.7),
        time_effect=time_effect, noise_sd=noise_sd, n_per_cell=n, tau=-0.4, gamma=0.6,
        drift=drift,
    )
    _assert_engine_matches_oracle(scenario, reps=5, seed=2024, alpha=0.1)


@pytest.mark.parametrize("n", [500, 10_000])
def test_engine_matches_oracle_around_the_real_chunk_length(n):
    # The module's own byte budget: reps one below, equal to and one above a
    # chunk, then three chunks; 10,000 draws a cell reduces long rows too.
    scenario = linear_scenario(n=n)
    size = chunk_len(n)
    assert size <= 12
    for reps in (size - 1, size, size + 1, 3 * size):
        _assert_engine_matches_oracle(scenario, max(reps, 2), seed=reps, alpha=0.05)


def test_coverage_experiment_matches_oracle():
    for name, scenario in shipped_scenarios().items():
        for alpha in (0.05, 0.5, 0.9):
            lower, upper = _oracle_minmax(scenario, 100, alpha, seed=3)
            hits = sum(lo <= scenario.effect <= hi for lo, hi in zip(lower, upper))
            result = coverage_experiment(scenario, 100, alpha, seed=3)
            assert result.coverage == hits / 100, (name, alpha)


def test_memory_does_not_grow_with_reps():
    scenario = shipped_scenarios()["linear_interaction"]
    verify_bracketing(scenario, 2, seed=1)  # warm caches outside the measurement

    def peak(reps):
        tracemalloc.start()
        try:
            verify_bracketing(scenario, reps, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(2_000), peak(8_000)
    assert large - small <= 512 * 1024, (small, large)


# --- one generator call per run of same-kind draws ---------------------------


class _CountingGenerator:
    """A Generator that adds one to ``counts[-1]`` for every method call."""

    def __init__(self, rng, counts):
        self._rng = rng
        self._counts = counts

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self._counts[-1] += 1
            return method(*args, **kwargs)

        return counted


@pytest.mark.parametrize(
    "name, runs",
    [("additive", 1), ("linear_interaction", 1), ("linear_interaction_neg", 1),
     ("time_varying", 1), ("convex_after", 6)],
)
def test_each_replication_draws_once_per_run_of_same_kind_draws(monkeypatch, name, runs):
    # All-normal scenarios are one run; convex_after alternates an exponential
    # confounder with its normal noise in each of the three groups.
    scenario = shipped_scenarios()[name]
    expected = verify_bracketing(scenario, 7, seed=5)
    real = np.random.default_rng
    counts = []

    def counting_rng(seed):
        counts.append(0)
        return _CountingGenerator(real(seed), counts)

    monkeypatch.setattr(simulation.np.random, "default_rng", counting_rng)
    assert verify_bracketing(scenario, 7, seed=5) == expected
    assert len(counts) == 7  # one generator a replication
    assert max(counts) <= runs, counts


# --- replication ranges in forked processes ----------------------------------


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def split_into(ranges, min_reps=1):
    """Let a run use ``ranges`` CPUs, ``min_reps`` replications a range at least."""
    with mock.patch.object(simulation, "_usable_cpus", return_value=ranges), \
            mock.patch.object(simulation, "MIN_RANGE_REPS", min_reps):
        yield


@contextlib.contextmanager
def counting_forks():
    """List the pid of each child this process forks; a child's own copy gets its 0."""
    forks = []
    real = os.fork

    def fork():
        forks.append(real())
        return forks[-1]

    with mock.patch.object(simulation.os, "fork", fork):
        yield forks


@pytest.mark.parametrize(
    "reps, size, cpus, expected",
    [
        (10_000, 54, 2, [(0, 5022), (5022, 10_000)]),
        (10_000, 54, 8, [(0, 2484), (2484, 5022), (5022, 7506), (7506, 10_000)]),
        (10_000, 54, 1, [(0, 10_000)]),
        (1_999, 27, 4, [(0, 1_999)]),
        (2_000, 27, 4, [(0, 999), (999, 2_000)]),
    ],
)
def test_ranges_start_on_chunk_boundaries_and_pay_for_their_fork(reps, size, cpus, expected):
    with mock.patch.object(simulation, "_usable_cpus", return_value=cpus):
        ranges = simulation._ranges(reps, size)
    assert ranges == expected
    assert all(lo % size == 0 for lo, _ in ranges)


@given(
    scenario=scenarios(),
    reps=st.integers(2, 13),
    seed=st.integers(0, 2**32 - 1),
    chunk=st.integers(1, 6),
    ranges=st.sampled_from([2, 3]),
    alpha=st.sampled_from([0.05, 0.5, 0.9]) | st.floats(0.001, 0.999),
)
@settings(max_examples=40, deadline=None)
def test_split_engine_matches_oracle(scenario, reps, seed, chunk, ranges, alpha):
    # 2 or 3 ranges of 1 to 6 chunks: every range boundary is a chunk
    # boundary, and the last chunk of a range may be short.
    budget = chunk * len(simulation.CELLS) * 8 * scenario.n_per_cell
    with mock.patch.object(simulation, "CHUNK_BYTES", budget), split_into(ranges):
        assert len(simulation._ranges(reps, chunk)) == min(ranges, -(-reps // chunk))
        _assert_engine_matches_oracle(scenario, reps, seed, alpha)
    assert_no_child_process()


def test_split_runs_fork_and_match_one_process():
    scenario = shipped_scenarios()["linear_interaction"]
    one = verify_bracketing(scenario, 3000, seed=4)
    with split_into(3, min_reps=1000), counting_forks() as forks:
        assert verify_bracketing(scenario, 3000, seed=4) == one
    assert len(forks) == 2
    assert_no_child_process()


FAIL_AT = 2_000


def _poisoned_check_finite(*replications):
    """``_check_finite`` that sees an infinite first cell mean at each of ``replications``."""
    real = simulation._check_finite

    def check(values, labels, start):
        hit = [i - start for i in replications if start <= i < start + len(values)]
        if hit and labels is simulation.CELL_MEANS:
            values = values.copy()
            values[hit, 0] = math.inf
        real(values, labels, start)

    return check


@pytest.mark.parametrize("replications", [(FAIL_AT,), (FAIL_AT, 2_900), (300, FAIL_AT)])
@pytest.mark.parametrize("mode", ["bracket", "coverage"])
def test_an_error_in_a_childs_range_is_the_one_process_error(replications, mode):
    # Replication 2000 falls in the child's range [1512, 3000); when the
    # parent's range [0, 1512) fails too, its error is the one raised.
    scenario = shipped_scenarios()["linear_interaction" if mode == "bracket" else "additive"]

    def run():
        with mock.patch.object(simulation, "_check_finite", _poisoned_check_finite(*replications)):
            if mode == "bracket":
                verify_bracketing(scenario, 3000, seed=8)
            else:
                coverage_experiment(scenario, 3000, 0.05, seed=8)

    with split_into(1, min_reps=1000), pytest.raises(OutOfDomainError) as one:
        run()
    with split_into(2, min_reps=1000), counting_forks() as forks, \
            pytest.raises(OutOfDomainError) as split:
        run()
    assert len(forks) == 1
    assert_no_child_process()
    assert str(split.value) == str(one.value)
    assert str(one.value).startswith(f"replication {replications[0]}: cell lc0 mean is inf; ")


def test_the_cli_reports_a_childs_error_as_one_process_does(tmp_path):
    argv = ["simulate", "--scenario", "linear_interaction", "--reps", "3000", "--seed", "8"]
    results = []
    for cpus in (1, 2):
        out = tmp_path / f"out{cpus}"
        with mock.patch.object(simulation, "_check_finite", _poisoned_check_finite(FAIL_AT)), \
                split_into(cpus, min_reps=1000):
            results.append(run_captured(argv + ["--out-dir", str(out)]))
        assert not out.exists()
        assert_no_child_process()
    code, stdout, stderr = results[0]
    assert results[1] == results[0]
    assert (code, stdout) == (3, "")
    assert stderr.startswith(f"OutOfDomain: replication {FAIL_AT}: cell lc0 mean is inf; ")
    assert stderr.count("\n") == 1


def test_a_consumer_that_stops_early_leaves_no_child_process():
    scenario = shipped_scenarios()["linear_interaction"]
    with split_into(3, min_reps=1000), counting_forks() as forks:
        chunks = simulation._replicate(scenario, 3000, 1, with_se=False)
        next(chunks)
        chunks.close()
        assert len(forks) == 2
    assert_no_child_process()


def test_a_child_that_dies_is_an_invariant_error():
    scenario = shipped_scenarios()["linear_interaction"]
    real = simulation._replicate_range

    def replicate_range(scenario, lo, *rest):
        if lo:  # a child's range, run only in the child: it dies before sending a chunk
            os._exit(1)
        yield from real(scenario, lo, *rest)

    with split_into(2, min_reps=1000), \
            mock.patch.object(simulation, "_replicate_range", replicate_range):
        with pytest.raises(simulation.InvariantError, match=r"replications 1512 to 2999 ended"):
            verify_bracketing(scenario, 3000, seed=2)
    assert_no_child_process()


def test_a_run_started_from_a_second_thread_does_not_fork():
    scenario = shipped_scenarios()["linear_interaction"]
    expected = verify_bracketing(scenario, 3000, seed=6)
    results = []
    worker = threading.Thread(target=lambda: results.append(verify_bracketing(scenario, 3000, 6)))
    with split_into(2, min_reps=1000), \
            mock.patch.object(simulation.os, "fork", side_effect=AssertionError("forked")):
        worker.start()
        worker.join(timeout=60)
    assert not worker.is_alive()
    assert results == [expected]


@pytest.mark.skipif(not hasattr(os, "waitid"), reason="needs os.waitid")
def test_a_child_finishes_its_range_before_its_chunks_are_consumed():
    # With SEs and one draw a cell, the child's 13,617 replications make
    # 1.3 MB of results, more than a 1 MiB pipe would hold.
    scenario = dataclasses.replace(shipped_scenarios()["additive"], n_per_cell=1)
    with split_into(2, min_reps=1000), counting_forks() as forks:
        chunks = simulation._replicate(scenario, 30_000, 3, with_se=True)
        try:
            next(chunks)
            [pid] = forks
            deadline = time.monotonic() + 30
            while True:
                info = os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT | os.WNOHANG)
                if info is not None or time.monotonic() > deadline:
                    break
                time.sleep(0.01)
            assert info is not None, "the child was still running after 30 s"
            assert (info.si_code, info.si_status) == (os.CLD_EXITED, 0)
        finally:
            chunks.close()
    assert_no_child_process()


@pytest.mark.parametrize("with_se, per_replication", [(False, 48), (True, 96)])
def test_a_child_holds_its_results_in_shared_memory(with_se, per_replication):
    # 48 bytes a replication for its six cell means, 96 with their SEs.
    scenario = shipped_scenarios()["linear_interaction"]
    with split_into(1):
        expected = list(simulation._replicate(scenario, 3000, 5, with_se))
    sizes = []
    real = simulation.mmap.mmap

    def recording_mmap(fileno, length, *args, **kwargs):
        sizes.append(length)
        return real(fileno, length, *args, **kwargs)

    with split_into(3, min_reps=1000), \
            mock.patch.object(simulation.mmap, "mmap", recording_mmap):
        ranges = simulation._ranges(3000, chunk_len(scenario.n_per_cell))
        chunks = list(simulation._replicate(scenario, 3000, 5, with_se))
    assert_no_child_process()
    assert len(ranges) == 3
    assert sizes == [per_replication * (hi - lo) for lo, hi in ranges[1:]]
    for (means, ses), (want_means, want_ses) in zip(chunks, expected, strict=True):
        assert np.array_equal(means, want_means)
        assert (ses is None and want_ses is None) or np.array_equal(ses, want_ses)


def _overcommits_without_limit():
    """True where Linux grants any allocation (vm.overcommit_memory = 1)."""
    try:
        return Path("/proc/sys/vm/overcommit_memory").read_text().strip() == "1"
    except OSError:
        return False


HUGE_REPS = [
    pytest.param(10**12, marks=pytest.mark.skipif(
        _overcommits_without_limit(), reason="the kernel would grant terabytes")),
    10**20,
]


@pytest.mark.parametrize("reps", HUGE_REPS)
@pytest.mark.parametrize("mode, flags, cpus", [
    ("bracket", ["--scenario", "linear_interaction"], 2),
    ("synthetic_control", ["--tau", "0.35"], 1),
    ("coverage", ["--scenario", "additive"], 2),  # one process allocates nothing a replication
])
def test_reps_too_many_to_allocate_exit_3_with_one_line(tmp_path, reps, mode, flags, cpus):
    out = tmp_path / "out"
    argv = ["simulate", "--mode", mode, *flags, "--reps", str(reps), "--out-dir", str(out)]
    with split_into(cpus, min_reps=1000):
        code, stdout, stderr = run_captured(argv)
    assert (code, stdout) == (3, "")
    assert stderr.startswith(f"OutOfDomain: reps={reps} asks for ")
    assert stderr.endswith(" bytes of memory, more than can be allocated\n")
    assert stderr.count("\n") == 1
    assert not out.exists()
    assert_no_child_process()


def test_a_failed_shared_allocation_leaves_no_child_process():
    # The second child's results cannot be allocated once the first is running.
    scenario = shipped_scenarios()["linear_interaction"]
    real = simulation.mmap.mmap
    calls = []

    def second_fails(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise OSError(errno.ENOMEM, os.strerror(errno.ENOMEM))
        return real(*args, **kwargs)

    with split_into(3, min_reps=1000), counting_forks() as forks, \
            mock.patch.object(simulation.mmap, "mmap", second_fails), \
            pytest.raises(OutOfDomainError, match=r"^reps=3000 asks for 96192 bytes "):
        coverage_experiment(scenario, 3000, 0.05, seed=1)
    assert len(forks) == 1
    assert_no_child_process()
