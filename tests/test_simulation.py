import dataclasses
import itertools
import math
import threading
import time
from statistics import NormalDist

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import expit

from trialbench import (
    AnalysisPlan,
    ConfigError,
    DegenerateFitError,
    FitError,
    ConfoundingViolation,
    CovariateLaw,
    ScenarioConfig,
    TransportViolation,
    d1,
    generate,
    normalize_row,
    preset,
    run_monte_carlo,
    true_values,
    truth_table,
)
from trialbench.scenarios import PRESETS
from trialbench import glm, simulation
from trialbench.inference import keyed_seed
from trialbench.simulation import replicate_estimates

from conftest import PEAK_KIB, children, run_fresh

D1_MEAN1 = 3.8026246797750964
D1_MEAN0 = 1.401312339887548
D1_ATE = 2.401312339887548


def gaussian_scenario() -> ScenarioConfig:
    return ScenarioConfig(
        covariates=CovariateLaw(kind="gaussian", dim=1),
        participation=(-0.4, 0.8),
        trial_arm_prob=0.5,
        emulation_propensity=(-0.2, 0.6),
        outcome_intercept=1.0,
        outcome_x=(1.0,),
        outcome_treatment=2.0,
        outcome_tx=(1.0,),
    )


def test_generate_is_deterministic():
    a = generate(d1(), (500, 700), seed=123)
    b = generate(d1(), (500, 700), seed=123)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.s, b.s)
    assert np.array_equal(a.a, b.a)
    assert np.array_equal(a.y, b.y)
    c = generate(d1(), (500, 700), seed=124)
    assert not np.array_equal(a.y, c.y)


def test_generate_layout_and_sizes():
    d = generate(d1(), (500, 700), seed=1)
    assert d.n == 1200
    assert np.all(d.s[:500] == 1)
    assert np.all(d.s[500:] == 0)
    assert d.n_trial == 500
    assert d.n_emulation == 700
    assert d.covariate_names == ("X1",)


def test_generate_matches_emulation_covariate_shift():
    d = generate(d1(), (1000, 100_000), seed=5)
    share = float(np.mean(d.x[d.s == 0, 0]))
    assert share == pytest.approx(0.401312339887548, abs=0.01)


def test_generate_rejects_empty_study():
    with pytest.raises(ConfigError, match="'n' must be an integer of at least 1"):
        generate(d1(), (0, 100), seed=1)


def test_d1_truths_are_exact():
    t = true_values(d1())
    assert t.method == "enumeration"
    assert t.mean1 == pytest.approx(D1_MEAN1, abs=1e-12)
    assert t.mean0 == pytest.approx(D1_MEAN0, abs=1e-12)
    assert t.ate == pytest.approx(D1_ATE, abs=1e-12)
    assert t.condition_exchangeability and t.condition_transport
    assert t.restriction_holds


def test_truth_table_rows_flags_and_means():
    rows = {
        "TT": (D1_MEAN1, True, True, True),
        "FT": (4.302624679775096, False, True, False),
        "TF": (4.127729697671427, True, False, False),
        "FF": (4.627729697671427, False, False, False),
    }
    for row, (mean1, exch, transport, holds) in rows.items():
        t = true_values(truth_table(row))
        assert t.mean1 == pytest.approx(mean1, abs=1e-12), row
        assert t.condition_exchangeability is exch, row
        assert t.condition_transport is transport, row
        assert t.restriction_holds is holds, row


def test_enumeration_truth_matches_brute_force():
    cfg = truth_table("FF")
    rng = np.random.default_rng(99)
    draws = 2_000_000
    x = (rng.random((draws, 1)) < 0.5).astype(float)
    uc = (rng.random(draws) < cfg.confounding.u_prob).astype(float)
    ut = (rng.random(draws) < cfg.transport.u_prob).astype(float)
    in_emulation = rng.random(draws) >= expit(cfg.participation_logit(x, ut))
    m1 = cfg.outcome_mean_given(x[in_emulation], 1.0, uc[in_emulation], ut[in_emulation])
    brute = float(np.mean(m1))
    mc_se = float(np.std(m1, ddof=1) / np.sqrt(m1.size))
    exact = true_values(cfg).mean1
    assert abs(brute - exact) < 5.0 * mc_se


def test_gaussian_truths_match_quadrature():
    cfg = gaussian_scenario()
    t = true_values(cfg, draws=2_000_000, seed=7)
    assert t.method == "importance"

    def stay_out(x):
        return (1.0 - expit(-0.4 + 0.8 * x)) * stats.norm.pdf(x)

    denominator = integrate.quad(stay_out, -10, 10)[0]
    x_mean = integrate.quad(lambda x: x * stay_out(x), -10, 10)[0] / denominator
    # mean1 = 1 + E[x | s=0] + 2 + E[x | s=0]
    expected1 = 3.0 + 2.0 * x_mean
    expected0 = 1.0 + x_mean
    assert t.mean1 == pytest.approx(expected1, abs=max(4.0 * t.mc_error[1], 1e-4))
    assert t.mean0 == pytest.approx(expected0, abs=max(4.0 * t.mc_error[0], 1e-4))
    assert all(e > 0 for e in t.mc_error)


def gaussian_violations(**violations) -> ScenarioConfig:
    return dataclasses.replace(gaussian_scenario(), **violations)


TRANSPORT = TransportViolation(u_prob=0.3, effect_on_participation=1.0, effect_on_y=1.5)
CONFOUNDING = ConfoundingViolation(u_prob=0.3, effect_on_treatment=1.2, effect_on_y=0.8)


def test_gaussian_transport_truths_match_quadrature():
    t = true_values(gaussian_violations(transport=TRANSPORT), draws=2_000_000, seed=7)
    assert t.method == "importance"

    # Pr[x, u_t | s=0] is proportional to Pr[u_t] phi(x) Pr[S = 0 | x, u_t]:
    # sum over both u_t levels of the integral over x.
    def integral(f):
        return sum(
            prob * integrate.quad(
                lambda x: f(x, u) * (1.0 - expit(-0.4 + 0.8 * x + u)) * stats.norm.pdf(x),
                -10,
                10,
            )[0]
            for u, prob in ((0.0, 0.7), (1.0, 0.3))
        )

    denominator = integral(lambda x, u: 1.0)
    expected1 = integral(lambda x, u: 3.0 + 2.0 * x + 1.5 * u) / denominator
    expected0 = integral(lambda x, u: 1.0 + x + 1.5 * u) / denominator
    assert t.mean1 == pytest.approx(expected1, abs=max(4.0 * t.mc_error[1], 1e-4))
    assert t.mean0 == pytest.approx(expected0, abs=max(4.0 * t.mc_error[0], 1e-4))
    assert t.ate == pytest.approx(expected1 - expected0, abs=max(4.0 * t.mc_error[2], 1e-4))


def test_gaussian_confounding_shifts_both_means_and_leaves_the_ate():
    # u_c is independent of x and of the study, and both arms' outcomes
    # take the same shift, effect_on_y u_c.
    clean = true_values(gaussian_scenario(), draws=2_000_000, seed=7)
    t = true_values(gaussian_violations(confounding=CONFOUNDING), draws=2_000_000, seed=7)
    shift = 0.8 * 0.3
    assert t.mean1 == pytest.approx(clean.mean1 + shift, abs=4.0 * t.mc_error[1])
    assert t.mean0 == pytest.approx(clean.mean0 + shift, abs=4.0 * t.mc_error[0])
    assert t.mean1 - clean.mean1 == pytest.approx(t.mean0 - clean.mean0, abs=1e-12)
    assert t.ate == pytest.approx(clean.ate, abs=1e-12)
    assert t.mc_error[2] == pytest.approx(clean.mc_error[2], rel=1e-9)


@pytest.mark.parametrize(
    "violations, exchangeability, transport",
    [
        ({}, True, True),
        ({"confounding": CONFOUNDING}, False, True),
        ({"transport": TRANSPORT}, True, False),
        ({"confounding": CONFOUNDING, "transport": TRANSPORT}, False, False),
        ({"transport": TransportViolation(effect_on_y=0.0)}, True, True),
        ({"confounding": ConfoundingViolation(effect_on_treatment=0.0)}, True, True),
    ],
)
def test_gaussian_violation_flags(violations, exchangeability, transport):
    t = true_values(gaussian_violations(**violations), draws=1000, seed=7)
    assert t.condition_exchangeability is exchangeability
    assert t.condition_transport is transport
    assert t.restriction_holds is (exchangeability and transport)


def test_generate_with_gaussian_violations_reproduces_its_bits():
    cfg = gaussian_violations(confounding=CONFOUNDING, transport=TRANSPORT)
    a = generate(cfg, (500, 700), seed=123)
    b = generate(cfg, (500, 700), seed=123)
    for name in ("x", "s", "a", "y"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.x.shape == (1200, 1)
    assert np.array_equal(a.s, np.repeat([1, 0], [500, 700]))
    # The violations' u's take part: without them the same seed draws other data.
    clean = generate(gaussian_scenario(), (500, 700), seed=123)
    assert not np.array_equal(a.y, clean.y)
    c = generate(cfg, (500, 700), seed=124)
    assert not np.array_equal(a.y, c.y)


def test_replicate_estimates_keys_and_order_independence():
    cfg = d1()
    plan = AnalysisPlan(outcome_kind="continuous", estimators=("phi", "chi"), arms=(1,))
    late = replicate_estimates(cfg, (800, 800), seed=4, index=5, plan=plan, restriction=True)
    early = replicate_estimates(cfg, (800, 800), seed=4, index=3, plan=plan, restriction=True)
    again = replicate_estimates(cfg, (800, 800), seed=4, index=5, plan=plan, restriction=True)
    assert late == again
    assert late != early
    assert sorted(late) == [
        "chi(1)",
        "chi(1).se",
        "delta(1)",
        "delta(1).se",
        "phi(1)",
        "phi(1).se",
        "restriction_p(1)",
    ]


def test_run_monte_carlo_smoke_fields():
    report = run_monte_carlo(
        d1(), reps=50, n=(2000, 2000), seed=11, arms=(0, 1), restriction=True
    )
    assert report.reps == 50
    assert report.failures == 0
    assert {(s.estimator, s.arm) for s in report.series} == {
        (e, a) for e in ("phi", "chi", "psi") for a in (0, 1)
    }
    for s in report.series:
        assert s.reps_used == 50
        assert abs(s.bias) < 0.25
        assert 0.0 < s.empirical_sd < 0.5
        assert 0.5 < s.coverage <= 1.0
    assert set(report.delta_rejection) == {0, 1}
    assert set(report.restriction_rejection) == {0, 1}
    assert report.scenario == d1().to_dict()


def test_run_monte_carlo_counts_failures_and_aborts_past_half(monkeypatch):
    real = simulation.replicate_estimates

    def flaky(cfg, n, seed, index, plan, **kwargs):
        if index % 3 == 0:
            raise DegenerateFitError("forced failure")
        return real(cfg, n, seed, index, plan, **kwargs)

    def broken(*args, **kwargs):
        raise DegenerateFitError("forced failure")

    kwargs = dict(reps=6, n=(300, 300), seed=4, estimators=("phi",), arms=(1,), restriction=False)
    monkeypatch.setattr(simulation, "replicate_estimates", flaky)
    report = run_monte_carlo(d1(), **kwargs)
    assert report.failures == 2
    assert report.series_for("phi", 1).reps_used == 4
    monkeypatch.setattr(simulation, "replicate_estimates", broken)
    with pytest.raises(FitError, match="simulation aborted: 4 of 4 replicates"):
        run_monte_carlo(d1(), **kwargs)


def test_run_monte_carlo_echoes_normalized_misspec():
    report = run_monte_carlo(
        d1(),
        reps=5,
        n=(500, 500),
        seed=2,
        misspec=["outcome_s0"],
        estimators=("phi",),
        arms=(1,),
        restriction=False,
    )
    assert report.misspec == {"outcome_s0": ["X1"]}
    assert report.restriction_rejection is None
    assert report.delta_rejection == {}


def test_run_monte_carlo_checks_misspec_before_the_truths(monkeypatch):
    def no_truths(*args, **kwargs):
        pytest.fail("true_values ran before the misspec names were checked")

    monkeypatch.setattr(simulation, "true_values", no_truths)
    with pytest.raises(ConfigError, match="outcome_sX"):
        run_monte_carlo(gaussian_scenario(), reps=2, n=(50, 50), seed=1, misspec=["outcome_sX"])



@pytest.mark.parametrize("ridge", [float("nan"), -1.0])
def test_run_monte_carlo_refuses_a_bad_ridge_before_any_work(monkeypatch, ridge):
    def no_work(*args, **kwargs):
        pytest.fail("the study ran with a ridge the plan refuses")

    for name in ("true_values", "generate", "run_plan"):
        monkeypatch.setattr(simulation, name, no_work)
    with pytest.raises(ValueError, match="'ridge'"):
        run_monte_carlo(d1(), reps=2, n=(50, 50), seed=1, ridge=ridge)


@pytest.mark.parametrize("level", [0.0, 1.0, -0.5, 1.5, float("nan")])
def test_run_monte_carlo_refuses_a_level_outside_0_1_before_any_work(monkeypatch, level):
    # Such a level used to report coverage 0 and delta rejections of 0 or 1.
    def no_work(*args, **kwargs):
        pytest.fail("the study ran at a level outside (0, 1)")

    for name in ("true_values", "generate", "run_plan"):
        monkeypatch.setattr(simulation, name, no_work)
    with pytest.raises(ValueError, match="'level' must be inside"):
        run_monte_carlo(d1(), reps=4, n=(500, 500), seed=1, restriction=False, level=level)


def test_negative_seed_is_refused_before_any_draw(monkeypatch):
    # numpy's own refusal named no argument, and came after the truths thread began.
    def no_work(*args, **kwargs):
        pytest.fail("a draw ran with a negative seed")

    for name in ("true_values", "_draw_stream", "run_plan"):
        monkeypatch.setattr(simulation, name, no_work)
    with pytest.raises(ValueError, match="'seed'"):
        generate(d1(), (100, 100), -1)
    before = threading.active_count()
    with pytest.raises(ValueError, match="'seed'"):
        run_monte_carlo(d1(), reps=2, n=(100, 100), seed=-1)
    assert threading.active_count() == before


@pytest.mark.parametrize("law", [d1(), gaussian_scenario()])
@pytest.mark.parametrize("draws", [0, -5])
def test_true_values_refuses_fewer_than_one_draw(monkeypatch, law, draws):
    # A Gaussian law with no draws divided 0 by 0, then subtracted None.
    def no_work(*args, **kwargs):
        pytest.fail("the truths ran without a draw")

    for name in ("_enumeration_truths", "_importance_truths"):
        monkeypatch.setattr(simulation, name, no_work)
    with pytest.raises(ValueError, match="'draws'"):
        true_values(law, draws=draws)


@pytest.mark.parametrize("violation", [ConfoundingViolation, TransportViolation])
def test_violations_share_their_u_prob_check_and_active_rule(violation):
    other = "effect_on_treatment" if violation is ConfoundingViolation else "effect_on_participation"
    assert violation().active
    assert not violation(**{other: 0.0}).active
    assert not violation(effect_on_y=0.0).active
    assert violation(**{other: -0.5}, effect_on_y=2.0).active
    for u_prob in (0.0, 1.0):
        with pytest.raises(ConfigError, match="u_prob"):
            violation(u_prob=u_prob)


def test_scenario_conditions_hold_where_no_violation_is_active():
    assert d1().conditions == (True, True)
    assert truth_table("FT").conditions == (False, True)
    assert truth_table("TF").conditions == (True, False)
    assert truth_table("FF").conditions == (False, False)
    inert = d1(confounding=ConfoundingViolation(effect_on_y=0.0))
    assert inert.conditions == (True, True)
    truths = true_values(inert)
    assert (truths.condition_exchangeability, truths.restriction_holds) == (True, True)

def loop_binary_cells(cfg):
    """The support built one tuple at a time, the oracle of _binary_cells."""

    def levels(violation):
        return (0.0, 1.0) if violation is not None else (0.0,)

    def prob(violation, level):
        if violation is None:
            return 1.0
        return violation.u_prob if level == 1.0 else 1.0 - violation.u_prob

    rows = []
    for xv in itertools.product((0.0, 1.0), repeat=cfg.k):
        px = 1.0
        for q, val in zip(cfg.covariates.p, xv):
            px *= q if val == 1.0 else 1.0 - q
        for uc in levels(cfg.confounding):
            for ut in levels(cfg.transport):
                w = px * prob(cfg.confounding, uc) * prob(cfg.transport, ut)
                rows.append((*xv, uc, ut, w))
    arr = np.asarray(rows)
    return arr[:, : cfg.k], arr[:, cfg.k], arr[:, cfg.k + 1], arr[:, cfg.k + 2]


def loop_enumeration_truths(cfg):
    """The enumeration truths with the restriction checked one covariate
    pattern, arm and study at a time, the oracle of _enumeration_truths."""
    x, uc, ut, prior = loop_binary_cells(cfg)
    p_s1 = glm.expit(cfg.participation_logit(x, ut))
    w_s0 = prior * (1.0 - p_s1)
    w_s0 = w_s0 / np.sum(w_s0)
    mean1 = float(w_s0 @ cfg.outcome_mean_given(x, 1.0, uc, ut))
    mean0 = float(w_s0 @ cfg.outcome_mean_given(x, 0.0, uc, ut))
    max_gap = 0.0
    for xv in itertools.product((0.0, 1.0), repeat=cfg.k):
        cell = np.all(x == xv, axis=1)
        for a in (0.0, 1.0):
            means = {}
            for s in (0, 1):
                if s == 1:
                    w = prior[cell] * p_s1[cell]
                else:
                    p_a1 = glm.expit(cfg.emulation_treatment_logit(x[cell], uc[cell])).ravel()
                    pa = p_a1 if a == 1.0 else 1.0 - p_a1
                    w = prior[cell] * (1.0 - p_s1[cell]) * pa
                with np.errstate(invalid="ignore"):  # a study that never sees the cell
                    w = w / np.sum(w)
                means[s] = float(w @ cfg.outcome_mean_given(x[cell], a, uc[cell], ut[cell]))
            max_gap = max(max_gap, abs(means[1] - means[0]))  # max skips a nan gap
    exchangeable, transports = cfg.conditions
    return simulation.Truths(
        mean0=mean0,
        mean1=mean1,
        ate=mean1 - mean0,
        condition_exchangeability=exchangeable,
        condition_transport=transports,
        restriction_holds=max_gap < 1e-12,
        method="enumeration",
    )


def random_binary_law(seed: int) -> ScenarioConfig:
    """A law of 1 to 6 binary covariates; each violation absent, active, or
    present with one of its two effects 0."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 7))

    def coefficients(size):
        return tuple(float(v) for v in rng.normal(0.0, 0.7, size))

    def violation(cls):
        form = int(rng.integers(3))
        if form == 0:
            return None
        effects = list(coefficients(2))
        if form == 2:
            effects[int(rng.integers(2))] = 0.0
        return cls(float(rng.uniform(0.1, 0.9)), *effects)

    return ScenarioConfig(
        covariates=CovariateLaw(kind="binary", p=tuple(float(q) for q in rng.uniform(0.1, 0.9, k))),
        participation=coefficients(k + 1),
        trial_arm_prob=float(rng.uniform(0.2, 0.8)),
        emulation_propensity=coefficients(k + 1),
        outcome_intercept=coefficients(1)[0],
        outcome_x=coefficients(k),
        outcome_treatment=coefficients(1)[0],
        outcome_tx=coefficients(k),
        outcome_kind=("continuous", "binary")[int(rng.integers(2))],
        confounding=violation(ConfoundingViolation),
        transport=violation(TransportViolation),
    )


def saturated_law(which: str) -> ScenarioConfig:
    """A law of 3 binary covariates with a logit of 40 on X1, where expit is
    exactly 1: in participation with the transport violation active, or in
    the emulation propensity with confounding active. The emulation never
    sees X1 = 1, or never leaves it untreated; the other patterns break
    the restriction."""
    logit = (0.0, 40.0, -0.2, 0.1)
    other = (0.1, 0.3, -0.2, 0.1)
    return ScenarioConfig(
        covariates=CovariateLaw(kind="binary", p=(0.4, 0.5, 0.6)),
        participation=logit if which == "participation" else other,
        trial_arm_prob=0.5,
        emulation_propensity=logit if which == "propensity" else other,
        outcome_intercept=1.0,
        outcome_x=(0.5, -0.4, 0.3),
        outcome_treatment=2.0,
        outcome_tx=(0.2, 0.1, -0.1),
        confounding=ConfoundingViolation() if which == "propensity" else None,
        transport=TransportViolation() if which == "participation" else None,
    )


ORACLE_LAWS = {
    **PRESETS,
    **{f"random-{seed}": (lambda seed=seed: random_binary_law(seed)) for seed in range(60)},
    **{f"saturated-{which}": (lambda which=which: saturated_law(which))
       for which in ("participation", "propensity")},
}


@pytest.mark.parametrize("law", list(ORACLE_LAWS))
def test_binary_support_equals_the_nested_loops_bit_for_bit(monkeypatch, law):
    cfg = ORACLE_LAWS[law]()
    assert repr(true_values(cfg)) == repr(loop_enumeration_truths(cfg))
    built = generate(cfg, (300, 400), seed=11)
    monkeypatch.setattr(simulation, "_binary_cells", loop_binary_cells)
    looped = generate(cfg, (300, 400), seed=11)
    for column in ("x", "s", "a", "y"):
        got, want = getattr(built, column), getattr(looped, column)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), column


def test_generate_builds_a_binary_support_once_for_both_studies(monkeypatch):
    # The support depends on the law alone; each study used to build its own.
    built = []
    binary_cells = simulation._binary_cells

    def counted(cfg):
        built.append(cfg)
        return binary_cells(cfg)

    monkeypatch.setattr(simulation, "_binary_cells", counted)
    generate(d1(), (300, 400), seed=11)
    assert len(built) == 1


def test_random_oracle_laws_cover_every_violation_form_and_outcome_kind():
    laws = [ORACLE_LAWS[f"random-{seed}"]() for seed in range(60)]
    assert {law.outcome_kind for law in laws} == {"continuous", "binary"}
    for name in ("confounding", "transport"):
        forms = {
            None if v is None else v.active for v in (getattr(law, name) for law in laws)
        }
        assert forms == {None, True, False}, name
    assert {t.restriction_holds for t in map(true_values, laws)} == {True, False}


@pytest.mark.parametrize("which", ["participation", "propensity"])
def test_a_pattern_one_study_never_sees_leaves_the_other_gaps_standing(which):
    truths = true_values(saturated_law(which))
    assert np.isfinite([truths.mean0, truths.mean1]).all()
    assert not truths.restriction_holds


WIDE_BINARY_TRUTHS = """
from trialbench import ConfoundingViolation, CovariateLaw, ScenarioConfig, TransportViolation
from trialbench import true_values

k = 16
law = ScenarioConfig(
    covariates=CovariateLaw(kind="binary", p=tuple(0.3 + 0.02 * j for j in range(k))),
    participation=(-0.4, *(0.1 * (-1) ** j for j in range(k))),
    trial_arm_prob=0.5,
    emulation_propensity=(-0.2, *(0.05 * j / k for j in range(k))),
    outcome_intercept=1.0,
    outcome_x=tuple(0.2 for _ in range(k)),
    outcome_treatment=2.0,
    outcome_tx=tuple(0.1 for _ in range(k)),
    confounding=ConfoundingViolation(),
    transport=TransportViolation(),
)
print(true_values(law).restriction_holds)
"""


def test_binary_truths_of_sixteen_covariates_run_in_bounded_time():
    # 2**18 support rows. Checking the restriction one pattern at a time cost
    # about 3.4 times more per covariate, 3.7-4.0 s at 12 covariates (one BLAS
    # thread, 2 vCPUs), which puts 16 at minutes; as arrays it takes 0.1 s.
    assert run_fresh(WIDE_BINARY_TRUTHS, timeout=60).strip() == "False"


TRUTHS_MEMORY = PEAK_KIB + """
from trialbench import CovariateLaw, ScenarioConfig, true_values

law = ScenarioConfig(
    covariates=CovariateLaw(kind="gaussian", dim=3),
    participation=(-0.3, 0.5, -0.4, 0.2),
    trial_arm_prob=0.5,
    emulation_propensity=(0.1, 0.3, 0.3, -0.2),
    outcome_intercept=-0.2,
    outcome_x=(0.5, -0.3, 0.4),
    outcome_treatment=0.7,
    outcome_tx=(0.2, 0.0, -0.3),
    outcome_kind="binary",
)
before = peak_kib()
true_values(law)
print((peak_kib() - before) / 1024)
"""


def test_importance_truths_run_in_bounded_memory():
    # The default 10M draws in blocks of 2^16 rows grew the peak by 12.4-12.5
    # MB on a 2-vCPU machine; chunks of 2^18 rows grew it by 23.8-24.0 MB.
    # The bound allows a third over 12.5 MB.
    assert float(run_fresh(TRUTHS_MEMORY, timeout=120)) < 17.0  # megabytes of peak growth


# The script above, running the default truths beside a few large replicates.
MONTE_CARLO_MEMORY = TRUTHS_MEMORY.replace("true_values", "run_monte_carlo").replace(
    "run_monte_carlo(law)", "run_monte_carlo(law, reps=3, n=(10_000, 10_000), seed=3)"
)


def test_monte_carlo_with_truths_beside_runs_in_bounded_memory():
    # The default 10M truth draws on their thread beside 3 replicates of
    # (10k, 10k) rows grew the peak by 22.0-23.2 MB on a 2-vCPU machine at its
    # default BLAS threads (truths alone: 12.5 MB); with chunks of 2^18 rows
    # it grew by 33.2-35.5 MB. The bound allows a third over 23 MB.
    assert float(run_fresh(MONTE_CARLO_MEMORY, timeout=120)) < 31.0  # megabytes of peak growth


def serial_importance_truths(cfg, draws, seed):
    """The importance truths as one serial loop, drawing and weighing each
    chunk in turn with the scenario's one-arm formulas: the oracle that the
    lean pass must match bit for bit."""
    rng = np.random.default_rng(seed)
    rng_c, rng_t = (np.random.default_rng(keyed_seed(seed, i)) for i in (1, 2))
    total = total_sq = 0.0
    sums = np.zeros((3, 3))
    shift = None
    for start in range(0, draws, simulation._TRUTH_CHUNK):
        size = min(simulation._TRUTH_CHUNK, draws - start)
        x = rng.standard_normal((size, cfg.covariates.dim))
        uc = simulation._draw_u(cfg.confounding, size, rng_c)
        ut = simulation._draw_u(cfg.transport, size, rng_t)
        w = 1.0 - glm.expit(cfg.participation_logit(x, ut))
        m1 = cfg.outcome_mean_given(x, 1.0, uc, ut)
        m0 = cfg.outcome_mean_given(x, 0.0, uc, ut)
        values = np.stack([m0, m1, m1 - m0])
        if shift is None:
            shift = values @ w / np.sum(w)
        centred, w2 = values - shift[:, None], w * w
        total += float(np.sum(w))
        total_sq += float(np.sum(w2))
        sums += np.stack([values @ w, centred @ w2, centred**2 @ w2])
    means = sums[0] / total
    gap = means - shift
    spread = sums[2] - 2.0 * gap * sums[1] + gap**2 * total_sq
    errors = np.sqrt(np.maximum(spread, 0.0)) / total
    (mean0, mean1, ate), (err0, err1, err_ate) = means.tolist(), errors.tolist()
    exchangeability = cfg.confounding is None or not cfg.confounding.active
    transport = cfg.transport is None or not cfg.transport.active
    return simulation.Truths(
        mean0=mean0,
        mean1=mean1,
        ate=ate,
        condition_exchangeability=exchangeability,
        condition_transport=transport,
        restriction_holds=exchangeability and transport,
        method="importance",
        mc_error=(err0, err1, err_ate),
    )


def gaussian_law(dim, outcome_kind, **violations) -> ScenarioConfig:
    slopes = (0.8, -0.5, 0.3)[:dim]
    return ScenarioConfig(
        covariates=CovariateLaw(kind="gaussian", dim=dim),
        participation=(-0.4, *slopes),
        trial_arm_prob=0.5,
        emulation_propensity=(-0.2, *(0.6 * b for b in slopes)),
        outcome_intercept=-0.3,
        outcome_x=(1.0, 0.4, -0.7)[:dim],
        outcome_treatment=0.9,
        outcome_tx=(-0.6, 0.0, 0.5)[:dim],
        outcome_kind=outcome_kind,
        **violations,
    )


# Every pair of (violations, outcome kind, dimension) occurs at least once.
TRUTH_LAWS = {
    "clean-binary-1": gaussian_law(1, "binary"),
    "clean-continuous-3": gaussian_law(3, "continuous"),
    "confounding-binary-3": gaussian_law(3, "binary", confounding=CONFOUNDING),
    "confounding-continuous-1": gaussian_law(1, "continuous", confounding=CONFOUNDING),
    "transport-binary-1": gaussian_law(1, "binary", transport=TRANSPORT),
    "transport-continuous-3": gaussian_law(3, "continuous", transport=TRANSPORT),
    "both-binary-3": gaussian_law(3, "binary", confounding=CONFOUNDING, transport=TRANSPORT),
    "both-continuous-1": gaussian_law(
        1, "continuous", confounding=CONFOUNDING, transport=TRANSPORT
    ),
}
CHUNK = simulation._TRUTH_CHUNK


@pytest.mark.parametrize("draws", [1, 1000, CHUNK, CHUNK + 1, 3 * CHUNK - 5])
@pytest.mark.parametrize("law", list(TRUTH_LAWS))
def test_importance_truths_equal_the_serial_loop_bit_for_bit(law, draws):
    cfg = TRUTH_LAWS[law]
    got = true_values(cfg, draws=draws, seed=31)
    want = serial_importance_truths(cfg, draws, 31)
    for field in dataclasses.fields(simulation.Truths):
        assert getattr(got, field.name) == getattr(want, field.name), field.name


@pytest.mark.parametrize("block", [2**12, 2**18])
def test_importance_truths_draw_the_same_streams_whatever_the_block_size(monkeypatch, block):
    # The oracle above follows _TRUTH_CHUNK, so it cannot see a pass that
    # reads the streams in another order; only the grouping of sums may differ.
    cfg, draws = TRUTH_LAWS["both-binary-3"], 3 * 2**16 + 5
    want = true_values(cfg, draws=draws, seed=31)
    monkeypatch.setattr(simulation, "_TRUTH_CHUNK", block)
    got = true_values(cfg, draws=draws, seed=31)
    for field in dataclasses.fields(simulation.Truths):
        value = getattr(want, field.name)
        if isinstance(value, str | bool):
            assert getattr(got, field.name) == value, field.name
        else:
            assert getattr(got, field.name) == pytest.approx(value, rel=1e-12), field.name


MC_LAW = TRUTH_LAWS["both-binary-3"]


@pytest.mark.parametrize("workers", [1, 2])
def test_run_monte_carlo_leaves_no_thread_or_process_behind(workers):
    threads, processes = threading.active_count(), children()
    run_monte_carlo(MC_LAW, reps=2, n=(300, 300), seed=5, truth_draws=3 * CHUNK - 5,
                    workers=workers)
    assert (threading.active_count(), children()) == (threads, processes)


def _abort_replicates(monkeypatch, wait_for=None):
    """Make every replicate fail to fit, once the file ``wait_for`` exists if given."""

    def failing(*args, **kwargs):
        if wait_for is not None:
            while not wait_for.exists():
                time.sleep(0.01)
            time.sleep(0.5)  # for the parent to receive what the file announces
        raise FitError("injected fit failure")

    monkeypatch.setattr(simulation, "replicate_estimates", failing)


def test_run_monte_carlo_stops_its_truths_when_the_replicates_abort(monkeypatch, tmp_path):
    # Each block of the truths appends a line, and sleeps: all 153 blocks of
    # the default draws would take over 7 s.
    blocks = tmp_path / "blocks"
    truth_terms = ScenarioConfig.truth_terms

    def counted(*args, **kwargs):
        with open(blocks, "a") as fh:
            fh.write("block\n")
        time.sleep(0.05)
        return truth_terms(*args, **kwargs)

    monkeypatch.setattr(ScenarioConfig, "truth_terms", counted)
    _abort_replicates(monkeypatch)
    processes = children()
    with pytest.raises(FitError, match="simulation aborted"):
        run_monte_carlo(MC_LAW, reps=4, n=(300, 300), seed=5, workers=2)
    assert children() == processes
    ran = blocks.read_text().count("block") if blocks.exists() else 0
    time.sleep(0.2)
    # No block after the return, and fewer than the default 10M draws make.
    assert (blocks.read_text().count("block") if blocks.exists() else 0) == ran
    assert ran < math.ceil(10_000_000 / simulation._TRUTH_CHUNK)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("replicates", ["fit", "abort"])
def test_run_monte_carlo_raises_the_truths_error_first(monkeypatch, tmp_path, replicates, workers):
    failed = tmp_path / "failed"
    calls = []
    truth_terms = ScenarioConfig.truth_terms

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            failed.touch()
            raise RuntimeError("injected failure")
        return truth_terms(*args, **kwargs)

    monkeypatch.setattr(ScenarioConfig, "truth_terms", failing)
    if replicates == "abort":
        _abort_replicates(monkeypatch, wait_for=failed if workers > 1 else None)
    threads, processes = threading.active_count(), children()
    with pytest.raises(RuntimeError, match="injected failure"):
        run_monte_carlo(MC_LAW, reps=2, n=(300, 300), seed=5, truth_draws=3 * CHUNK - 5,
                        workers=workers)
    assert (threading.active_count(), children()) == (threads, processes)


def test_an_aborting_monte_carlo_run_names_the_same_replicate_on_two_workers(monkeypatch):
    estimates = simulation.replicate_estimates

    def failing_after_0(cfg, n, seed, index, plan, **kwargs):
        if index > 0:
            raise DegenerateFitError(f"replicate {index} failed")
        return estimates(cfg, n, seed, index, plan, **kwargs)

    monkeypatch.setattr(simulation, "replicate_estimates", failing_after_0)
    messages = set()
    for workers in (1, 2):
        with pytest.raises(FitError) as raised:
            run_monte_carlo(MC_LAW, reps=6, n=(300, 300), seed=5, truth_draws=1000,
                            workers=workers)
        messages.add(str(raised.value))
    assert messages == {"simulation aborted: 4 of 5 replicates failed to fit"}


def test_run_monte_carlo_matches_its_truths_and_replicates_run_alone():
    draws, n, seed, reps = 3 * CHUNK - 5, (300, 300), 5, 4
    report = run_monte_carlo(MC_LAW, reps=reps, n=n, seed=seed, truth_draws=draws)
    truths = true_values(MC_LAW, draws=draws)
    for field in dataclasses.fields(simulation.Truths):
        assert getattr(report.truths, field.name) == getattr(truths, field.name), field.name

    plan = AnalysisPlan(outcome_kind=MC_LAW.outcome_kind)
    records = [
        replicate_estimates(MC_LAW, n, seed, i, plan, restriction=True) for i in range(reps)
    ]
    assert report.failures == 0
    z = NormalDist().inv_cdf(0.975)
    for s in report.series:
        label = f"{s.estimator}({s.arm})"
        values = np.asarray([r[label] for r in records])
        ses = np.asarray([r[f"{label}.se"] for r in records])
        truth = truths.mean(s.arm)
        assert s.truth == truth
        assert s.mean_estimate == float(np.mean(values))
        assert s.bias == float(np.mean(values) - truth)
        assert s.empirical_sd == float(np.std(values, ddof=1))
        assert s.mean_std_error == float(np.mean(ses))
        assert s.coverage == float(np.mean(np.abs(values - truth) <= z * ses))
        assert s.reps_used == reps


def test_confounded_row_biases_phi_not_chi():
    report = run_monte_carlo(
        truth_table("FT"),
        reps=40,
        n=(8000, 8000),
        seed=21,
        estimators=("phi", "chi"),
        arms=(1,),
        restriction=False,
    )
    phi = report.series_for("phi", 1)
    chi = report.series_for("chi", 1)
    assert abs(phi.bias) > 6.0 * phi.empirical_sd / np.sqrt(phi.reps_used)
    assert abs(chi.bias) < 4.0 * chi.empirical_sd / np.sqrt(chi.reps_used)


def test_transport_row_biases_chi_not_phi():
    report = run_monte_carlo(
        truth_table("TF"),
        reps=40,
        n=(8000, 8000),
        seed=22,
        estimators=("phi", "chi"),
        arms=(1,),
        restriction=False,
    )
    phi = report.series_for("phi", 1)
    chi = report.series_for("chi", 1)
    assert abs(chi.bias) > 6.0 * chi.empirical_sd / np.sqrt(chi.reps_used)
    assert abs(phi.bias) < 4.0 * phi.empirical_sd / np.sqrt(phi.reps_used)


@pytest.mark.parametrize(
    "drop,unbiased",
    [
        (["outcome_pooled"], True),
        (["participation", "propensity_pooled"], True),
        (["participation", "propensity_pooled", "outcome_pooled"], False),
    ],
)
def test_psi_double_robustness_pairing(drop, unbiased):
    report = run_monte_carlo(
        d1(),
        reps=40,
        n=(8000, 8000),
        seed=23,
        misspec=drop,
        estimators=("psi",),
        arms=(1,),
        restriction=False,
    )
    psi = report.series_for("psi", 1)
    mcse = psi.empirical_sd / np.sqrt(psi.reps_used)
    if unbiased:
        assert abs(psi.bias) < 4.0 * mcse
    else:
        assert abs(psi.bias) > 6.0 * mcse


def test_scenario_config_round_trip():
    cfg = truth_table("FF")
    rebuilt = ScenarioConfig.from_dict(cfg.to_dict())
    assert rebuilt == cfg
    assert ScenarioConfig.from_dict(gaussian_scenario().to_dict()) == gaussian_scenario()


def test_scenario_config_validation():
    with pytest.raises(ConfigError, match="participation"):
        ScenarioConfig(
            covariates=CovariateLaw(kind="binary", p=(0.5,)),
            participation=(-0.4,),
            trial_arm_prob=0.5,
            emulation_propensity=(-0.2, 0.6),
            outcome_intercept=1.0,
            outcome_x=(1.0,),
            outcome_treatment=2.0,
            outcome_tx=(1.0,),
        )
    with pytest.raises(ConfigError, match="trial_arm_prob"):
        d1_dict = d1().to_dict()
        d1_dict["trial_arm_prob"] = 1.0
        ScenarioConfig.from_dict(d1_dict)
    with pytest.raises(ConfigError, match="u_prob"):
        ConfoundingViolation(u_prob=0.0)
    with pytest.raises(ConfigError, match="u_prob"):
        TransportViolation(u_prob=1.5)
    with pytest.raises(ConfigError, match="kind"):
        CovariateLaw(kind="uniform")
    with pytest.raises(ConfigError, match="bad scenario config"):
        ScenarioConfig.from_dict({"covariates": {"kind": "binary"}})


def test_covariate_law_rejects_fields_of_the_other_kind():
    with pytest.raises(ConfigError, match="dim"):
        CovariateLaw(kind="binary", p=(0.5, 0.5), dim=2)
    with pytest.raises(ConfigError, match="p"):
        CovariateLaw(kind="gaussian", p=(0.3,), dim=1)


INFEASIBLE_DRAW = """
from trialbench import ConfigError, ScenarioConfig, generate
law = ScenarioConfig.from_dict({
    "covariates": {"kind": "gaussian", "dim": 1},
    "participation": [-40.0, 0.0],
    "trial_arm_prob": 0.5,
    "emulation_propensity": [0.0, 0.0],
    "outcome_intercept": 0.0,
    "outcome_x": [0.0],
    "outcome_treatment": 0.0,
    "outcome_tx": [0.0],
})
try:
    generate(law, (10, 10), 1)
except ConfigError as exc:
    print(exc)
"""


def test_infeasible_participation_law_stops_with_config_error():
    # Participation log-odds -40 leaves the trial no mass, so accept-reject
    # would spin forever; a subprocess with a timeout keeps a hang from
    # stalling the suite.
    out = run_fresh(INFEASIBLE_DRAW, timeout=60)
    assert "cannot fill the trial study" in out
    assert "rate 0" in out


def test_row_name_normalization():
    assert normalize_row("(F,T)") == "FT"
    assert normalize_row("f t") == "FT"
    with pytest.raises(ConfigError, match="two T/F letters"):
        normalize_row("TTT")


def test_presets_cover_named_scenarios():
    assert sorted(PRESETS) == [
        "D1",
        "TRUTH_TABLE_FF",
        "TRUTH_TABLE_FT",
        "TRUTH_TABLE_TF",
        "TRUTH_TABLE_TT",
    ]
    assert preset("d1") == d1()
    assert preset("truth_table_ft") == truth_table("FT")
    with pytest.raises(ConfigError, match="available"):
        preset("D2")
