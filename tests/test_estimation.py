import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from didbracket.errors import (
    EmptyGroupError,
    MissingDataError,
    MissingSEError,
    NonpositiveDenominatorError,
    OutOfDomainError,
)
from didbracket.estimation import (
    did_point,
    did_se,
    normal_cdf,
    normal_quantile,
    pct_change,
    pct_change_se_delta,
    pct_ci_scaled,
    poisson_rate_se,
    wald_ci,
    weighted_period_mean,
)
from didbracket.model import (
    ConfInterval,
    PanelDataset,
    PanelRecord,
    PeriodRange,
    PeriodSummary,
)

from conftest import make_panel


def summaries(means, ses):
    return tuple(
        PeriodSummary(mean=m, se=s, total_weight=1.0) for m, s in zip(means, ses)
    )


# --- normal quantile ---------------------------------------------------------


def test_quantile_median_is_zero():
    assert normal_quantile(0.5) == 0.0


def test_quantile_matches_published_value():
    assert normal_quantile(0.975) == pytest.approx(1.95996398, abs=1e-6)
    assert normal_quantile(0.025) == pytest.approx(-1.95996398, abs=1e-6)


def test_quantile_against_high_precision_oracle():
    # Oracle: mpmath's erfinv at 40 digits, evaluated over the documented domain.
    mpmath.mp.dps = 40
    grid = [1e-10, 1e-8, 1e-6, 1e-4, 1e-3, 0.01, 0.025, 0.1, 0.25, 0.4, 0.5]
    grid += [1.0 - p for p in grid]
    for p in sorted(set(grid)):
        exact = float(mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(p) - 1))
        assert abs(normal_quantile(p) - exact) <= 1e-8, p


# Range keeps float(1 - p) exact enough; extreme tails are covered by the
# oracle grid test above, which never forms the complement.
@given(st.floats(min_value=1e-6, max_value=1 - 1e-6))
def test_quantile_antisymmetry(p):
    assert normal_quantile(p) == pytest.approx(-normal_quantile(1 - p), abs=1e-9)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1, math.nan])
def test_quantile_domain(p):
    with pytest.raises(OutOfDomainError):
        normal_quantile(p)


# Exact bits of the quantile at the shipped alphas and at one p in each
# AS241 branch (central edge, r <= 5, r > 5). Every interval in the reports
# is built from these, so an interpreter whose quantile differs in the last
# bit fails here instead of changing output bytes.
@pytest.mark.parametrize(
    "p, bits",
    [
        (0.975, "0x1.f5c0331eeff82p+0"),
        (0.95, "0x1.a515209676ab8p+0"),
        (0.995, "0x1.49b4c64d6915fp+1"),
        (0.5 + 0.425, "0x1.7085226d3e524p+0"),
        (1e-10, "-0x1.97203597a2154p+2"),
        (1e-300, "-0x1.286074064c26ep+5"),
    ],
)
def test_quantile_bits_pinned(p, bits):
    assert normal_quantile(p).hex() == bits


def test_cdf_quantile_roundtrip():
    for p in (0.001, 0.3, 0.5, 0.8, 0.999):
        assert normal_cdf(normal_quantile(p)) == pytest.approx(p, abs=1e-12)


def test_normal_tail():
    z = normal_quantile(1 - 0.05 / 2)
    assert 1.9599 <= z <= 1.9600


# --- weighted period mean ----------------------------------------------------


def test_weighted_mean_two_units_hand_computed():
    # (2.0 * 1e6 + 6.0 * 3e6) / 4e6 = 5.0
    panel = make_panel({"a": {2000: 2.0}}, population=1_000_000)
    records = list(panel.records) + list(
        make_panel({"b": {2000: 6.0}}, population=3_000_000).records
    )
    from didbracket.model import PanelDataset

    summary = weighted_period_mean(PanelDataset(records), {"a", "b"}, PeriodRange(2000, 2000))
    assert summary.mean == pytest.approx(5.0)
    assert summary.total_weight == pytest.approx(4_000_000)


def test_weighted_mean_singleton():
    panel = make_panel({"a": {2000: 4.7}}, population=123_456)
    summary = weighted_period_mean(panel, {"a"}, PeriodRange(2000, 2000))
    assert summary.mean == pytest.approx(4.7)
    assert summary.total_weight == 123_456


def test_weighted_mean_missing_se_flagged_not_fatal():
    from didbracket.model import PanelDataset, PanelRecord

    panel = PanelDataset(
        [
            PanelRecord("a", 2000, 2.0, 1000, se=0.1),
            PanelRecord("a", 2001, 2.0, 1000, se=None),
        ]
    )
    summary = weighted_period_mean(panel, {"a"}, PeriodRange(2000, 2001))
    assert summary.se is None
    assert summary.mean == pytest.approx(2.0)


def test_weighted_mean_missing_data():
    panel = make_panel({"a": {2000: 2.0}})
    with pytest.raises(MissingDataError):
        weighted_period_mean(panel, {"a"}, PeriodRange(2000, 2001))


def test_weighted_mean_empty_group():
    panel = make_panel({"a": {2000: 2.0}})
    with pytest.raises(EmptyGroupError):
        weighted_period_mean(panel, set(), PeriodRange(2000, 2000))


@given(
    rates=st.lists(st.floats(min_value=0, max_value=50), min_size=1, max_size=8),
)
def test_weighted_mean_equal_weights_is_unweighted(rates):
    panel = make_panel({f"u{i}": {2000: r} for i, r in enumerate(rates)})
    summary = weighted_period_mean(
        panel, {f"u{i}" for i in range(len(rates))}, PeriodRange(2000, 2000)
    )
    assert summary.mean == pytest.approx(sum(rates) / len(rates), abs=1e-9)


def _reference_weighted_period_mean(records, group, period):
    """The original two-pass loop over a (unit, year) index, kept as an oracle."""
    index = {(r.unit_id, r.year): r for r in records}
    units = sorted(group)
    missing = [(u, y) for u in units for y in period.years() if (u, y) not in index]
    if missing:
        raise MissingDataError(missing)
    total_weight = 0.0
    weighted_sum = 0.0
    var_sum = 0.0
    all_se = True
    for unit in units:
        for year in period.years():
            rec = index[(unit, year)]
            w = float(rec.population)
            total_weight += w
            weighted_sum += w * rec.rate
            if rec.se is None:
                all_se = False
            elif all_se:
                var_sum += (w * rec.se) ** 2
    mean = weighted_sum / total_weight
    se = math.sqrt(var_sum) / total_weight if all_se else None
    return PeriodSummary(mean=mean, se=se, total_weight=total_weight)


ORACLE_UNITS = ("u0", "u1", "u2", "u3", "u4")
ORACLE_YEARS = range(2000, 2006)


@settings(max_examples=300)
@given(
    cells=st.lists(st.sampled_from(("se", "se", "se", "no_se", "gap")), min_size=30,
                   max_size=30),
    group=st.sets(st.sampled_from(ORACLE_UNITS + ("zz",)), min_size=1),
    start=st.integers(1999, 2005),
    length=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_weighted_mean_matches_reference_loop(cells, group, start, length, seed):
    # Hypothesis draws the layout (gaps, missing SEs, group, period); the
    # values come from a seeded generator, so that sums depend on their order.
    rng = random.Random(seed)
    keys = [(u, y) for u in ORACLE_UNITS for y in ORACLE_YEARS]
    records = [
        PanelRecord(u, y, rng.uniform(0, 60), rng.randint(1, 40_000_000),
                    se=rng.uniform(0, 5) if kind == "se" else None)
        for (u, y), kind in zip(keys, cells)
        if kind != "gap"
    ]
    rng.shuffle(records)  # input order must not matter
    period = PeriodRange(start, start + length)
    try:
        expected = _reference_weighted_period_mean(records, group, period)
    except MissingDataError as exc:
        with pytest.raises(MissingDataError) as err:
            weighted_period_mean(PanelDataset(records), group, period)
        assert err.value.missing == exc.missing
        assert str(err.value) == str(exc)
        return
    got = weighted_period_mean(PanelDataset(records), group, period)
    # Exact equality: the summation order is part of the output.
    assert got.mean == expected.mean
    assert got.se == expected.se
    assert got.total_weight == expected.total_weight


# --- poisson rate SE ---------------------------------------------------------


@pytest.mark.parametrize(
    "deaths,population,expected",
    [(100, 1_000_000, 1.0), (0, 5_000_000, 0.0), (400, 4_000_000, 0.5)],
)
def test_poisson_rate_se(deaths, population, expected):
    assert poisson_rate_se(deaths, population) == pytest.approx(expected)


def test_poisson_rate_se_domain():
    with pytest.raises(OutOfDomainError):
        poisson_rate_se(-1, 100)
    with pytest.raises(OutOfDomainError):
        poisson_rate_se(1, 0)


# --- DiD point and SE --------------------------------------------------------


def test_did_point_published_rows():
    rows = summaries((4.7, 6.1, 5.2, 5.3), (0, 0, 0, 0))
    assert did_point(*rows) == pytest.approx(1.3)
    rows = summaries((4.7, 6.1, 2.7, 3.2), (0, 0, 0, 0))
    assert did_point(*rows) == pytest.approx(0.9)


@given(
    a=st.floats(-50, 50), b=st.floats(-50, 50), d=st.floats(-10, 10)
)
def test_did_point_parallel_trends_is_zero(a, b, d):
    rows = summaries((a, a + d, b, b + d), (0, 0, 0, 0))
    assert did_point(*rows) == pytest.approx(0.0, abs=1e-9)


@given(
    means=st.tuples(*(st.floats(-20, 20) for _ in range(4))),
    shift=st.floats(-10, 10),
    before_shift=st.floats(-10, 10),
    after_shift=st.floats(-10, 10),
)
def test_did_point_antisymmetry_and_shift_invariance(means, shift, before_shift, after_shift):
    tb, ta, cb, ca = means
    base = did_point(*summaries((tb, ta, cb, ca), (0,) * 4))
    swapped = did_point(*summaries((cb, ca, tb, ta), (0,) * 4))
    assert swapped == pytest.approx(-base, abs=1e-9)
    shifted = did_point(*summaries((tb + shift, ta + shift, cb + shift, ca + shift), (0,) * 4))
    assert shifted == pytest.approx(base, abs=1e-9)
    # common time effect: the same per-period constant added to both groups
    timed = did_point(
        *summaries(
            (tb + before_shift, ta + after_shift, cb + before_shift, ca + after_shift),
            (0,) * 4,
        )
    )
    assert timed == pytest.approx(base, abs=1e-9)


@pytest.mark.parametrize(
    "ses,expected",
    [((0.1, 0.1, 0.1, 0.1), 0.2), ((0, 0, 0, 0), 0.0), ((3, 4, 0, 0), 5.0)],
)
def test_did_se_values(ses, expected):
    assert did_se(*summaries((1, 2, 3, 4), ses)) == pytest.approx(expected)


def test_did_se_missing():
    rows = summaries((1, 2, 3, 4), (0.1, 0.1, 0.1, 0.1))
    broken = (rows[0], rows[1], PeriodSummary(3.0, None, 1.0), rows[3])
    with pytest.raises(MissingSEError):
        did_se(*broken)


@given(
    base=st.floats(0.01, 5.0),
    bump=st.floats(0.0, 5.0),
    cell=st.integers(min_value=0, max_value=3),
)
def test_did_se_monotone_in_each_se(base, bump, cell):
    ses = [base] * 4
    lo = did_se(*summaries((0, 0, 0, 0), ses))
    ses[cell] += bump
    hi = did_se(*summaries((0, 0, 0, 0), ses))
    assert hi >= lo


# --- Wald CI -----------------------------------------------------------------


def test_wald_ci_published_row():
    # SE back-derived from the published interval around the upper-arm point.
    ci = wald_ci(1.3, 0.2040817, 0.05)
    assert ci.lower == pytest.approx(0.9, abs=0.001)
    assert ci.upper == pytest.approx(1.7, abs=0.001)


def test_wald_ci_degenerate():
    ci = wald_ci(2.5, 0.0, 0.05)
    assert (ci.lower, ci.upper) == (2.5, 2.5)


def test_wald_ci_standard_normal():
    ci = wald_ci(0.0, 1.0, 0.05)
    assert ci.lower == pytest.approx(-1.95996, abs=1e-4)
    assert ci.upper == pytest.approx(1.95996, abs=1e-4)


@given(point=st.floats(-10, 10), se=st.floats(0, 5), alpha=st.floats(0.001, 0.5))
def test_wald_ci_width_and_nesting(point, se, alpha):
    ci = wald_ci(point, se, alpha)
    z = normal_quantile(1 - alpha / 2)
    assert ci.width() == pytest.approx(2 * z * se, rel=1e-12, abs=1e-12)
    wider = wald_ci(point, se, alpha / 2)
    assert wider.lower <= ci.lower and ci.upper <= wider.upper


# --- percent change ----------------------------------------------------------


def test_pct_change_published_rows():
    t_b, c_b, c_a = summaries((4.7, 5.2, 5.3), (0, 0, 0))
    pct, denom = pct_change(1.3, t_b, c_b, c_a)
    assert denom == pytest.approx(4.8)
    assert pct == pytest.approx(27.083, abs=0.001)

    t_b, c_b, c_a = summaries((4.7, 4.2, 4.4), (0, 0, 0))
    pct, denom = pct_change(1.2, t_b, c_b, c_a)
    assert denom == pytest.approx(4.9)
    assert pct == pytest.approx(24.49, abs=0.01)


def test_pct_change_zero_effect():
    t_b, c_b, c_a = summaries((4.7, 5.2, 5.3), (0, 0, 0))
    assert pct_change(0.0, t_b, c_b, c_a)[0] == 0.0


def test_pct_change_nonpositive_denominator():
    t_b, c_b, c_a = summaries((1.0, 5.0, 1.0), (0, 0, 0))
    with pytest.raises(NonpositiveDenominatorError):
        pct_change(1.0, t_b, c_b, c_a)


# --- delta-method SE ---------------------------------------------------------


def kappa(tb, ta, cb, ca):
    return 100.0 * ((ta - tb) - (ca - cb)) / (tb + (ca - cb))


def fd_gradient_se(means, ses, h=1e-6):
    """Independent oracle: central finite differences of kappa."""
    grads = []
    for i in range(4):
        up = list(means)
        down = list(means)
        up[i] += h
        down[i] -= h
        grads.append((kappa(*up) - kappa(*down)) / (2 * h))
    return math.sqrt(sum((g * s) ** 2 for g, s in zip(grads, ses)))


def test_delta_se_zero_when_no_sampling_error():
    rows = summaries((4, 5, 2, 2), (0, 0, 0, 0))
    assert pct_change_se_delta(*rows) == 0.0


def test_delta_se_matches_finite_differences_at_spec_point():
    means, ses = (4.0, 5.0, 2.0, 2.0), (0.1, 0.1, 0.1, 0.1)
    rows = summaries(means, ses)
    got = pct_change_se_delta(*rows)
    want = fd_gradient_se(means, ses)
    assert got == pytest.approx(want, rel=1e-6)


@settings(max_examples=200)
@given(
    tb=st.floats(1.0, 20.0),
    ta=st.floats(-20.0, 20.0),
    cb=st.floats(-5.0, 5.0),
    ca=st.floats(-5.0, 5.0),
    ses=st.tuples(*(st.floats(0.0, 2.0) for _ in range(4))),
)
def test_delta_se_matches_finite_differences_everywhere(tb, ta, cb, ca, ses):
    denom = tb + (ca - cb)
    if denom < 0.5:  # keep the denominator bounded away from zero
        return
    means = (tb, ta, cb, ca)
    rows = summaries(means, ses)
    got = pct_change_se_delta(*rows)
    want = fd_gradient_se(means, ses)
    # abs floor absorbs finite-difference roundoff when the gradient vanishes
    assert got == pytest.approx(want, rel=1e-6, abs=1e-6)


@given(
    base=st.floats(0.01, 1.0),
    bump=st.floats(0.0, 1.0),
    cell=st.integers(min_value=0, max_value=3),
)
def test_delta_se_monotone_in_each_se(base, bump, cell):
    means = (4.0, 5.0, 2.0, 2.5)
    ses = [base] * 4
    lo = pct_change_se_delta(*summaries(means, ses))
    ses[cell] += bump
    hi = pct_change_se_delta(*summaries(means, ses))
    assert hi >= lo - 1e-12


def test_delta_se_matches_monte_carlo_sd():
    # Simulation oracle: empirical SD of kappa under normal cell noise.
    means = np.array([4.0, 5.0, 2.0, 2.0])
    se = 0.1
    rows = summaries(tuple(means), (se,) * 4)
    predicted = pct_change_se_delta(*rows)
    rng = np.random.default_rng(20080828)
    draws = rng.normal(means[:, None], se, size=(4, 200_000))
    kappas = kappa(draws[0], draws[1], draws[2], draws[3])
    assert float(np.std(kappas, ddof=1)) == pytest.approx(predicted, rel=0.02)


# --- percent CI scaling ------------------------------------------------------


def test_pct_ci_scaled_published_rows():
    ci = pct_ci_scaled(ConfInterval(0.9, 1.7, 0.95), 4.8)
    assert ci.lower == pytest.approx(18.75)
    assert ci.upper == pytest.approx(35.42, abs=0.01)
    ci = pct_ci_scaled(ConfInterval(0.9, 1.5, 0.95), 4.9)
    assert ci.lower == pytest.approx(18.37, abs=0.01)
    assert ci.upper == pytest.approx(30.61, abs=0.01)


def test_pct_ci_scaled_degenerate_and_domain():
    ci = pct_ci_scaled(ConfInterval(0.0, 0.0, 0.95), 3.7)
    assert (ci.lower, ci.upper) == (0.0, 0.0)
    with pytest.raises(NonpositiveDenominatorError):
        pct_ci_scaled(ConfInterval(0.0, 1.0, 0.95), 0.0)


# --- values that overflow float64 ---------------------------------------------


def test_a_summary_that_overflows_names_its_group_and_period():
    period = PeriodRange(2000, 2001)
    huge_se = make_panel({"a": {2000: 1.0, 2001: 1.0}, "b": {2000: 1.0}}, se=1e300)
    with pytest.raises(OutOfDomainError, match=r"^a over 2000-2001: SE is inf; "):
        weighted_period_mean(huge_se, {"a"}, period)
    # A missing unit-year still wins, so a placebo study excludes the unit.
    with pytest.raises(MissingDataError, match="b:2001"):
        weighted_period_mean(huge_se, {"a", "b"}, period)
    huge_rate = make_panel({"a": {2000: 1e305, 2001: 1.0}})
    with pytest.raises(OutOfDomainError, match=r"^a over 2000-2001: mean is inf; "):
        weighted_period_mean(huge_rate, {"a"}, period)


def test_a_large_group_is_named_by_its_first_eight_units():
    period = PeriodRange(2000, 2000)
    units = [f"u{i:02d}" for i in range(10)]
    panel = make_panel({u: {2000: 1e305} for u in units})
    with pytest.raises(OutOfDomainError) as err:
        weighted_period_mean(panel, set(units), period)
    assert str(err.value).startswith(
        "u00, u01, u02, u03, u04, u05, u06, u07 (+2 more) over 2000-2000: mean is inf; "
    )


@pytest.mark.parametrize("b", [1e-100, 1e-200])
def test_pct_se_delta_that_overflows_is_inf(b):
    # The denominator b is the treated before-mean here. At 1e-100 a gradient
    # term's square overflows; at 1e-200 b * b itself underflows to 0.
    t_b, t_a, c_b, c_a = summaries((b, 1.0, 1.0, 1.0), (1.0, 1.0, 1.0, 1.0))
    assert pct_change_se_delta(t_b, t_a, c_b, c_a) == math.inf
