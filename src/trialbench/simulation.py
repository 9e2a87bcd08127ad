"""Synthetic scenarios, ground truths, and the Monte Carlo driver.

A scenario fixes the joint law of (x, s, a, y) plus optional violations:

* confounding: an unmeasured binary u_c raises both the emulation
  treatment log-odds and the outcome mean, so treatment exchangeability
  fails inside the emulation while the trial stays clean (randomization
  ignores u_c).
* transport: an unmeasured binary u_t raises both the participation
  log-odds and the outcome mean, so outcome means stop transporting
  between studies given the measured covariates.

The two u's are independent of each other and of x, each present in both
studies; only the pairing of effects creates the violation. Sampling is
study-conditional: the trial stream draws from the law given s = 1 and the
emulation stream from the law given s = 0, with fixed sizes, mirroring
separately sampled studies. Truths come from exact enumeration when the
covariates are binary and from a large importance-weighted Monte Carlo
otherwise.
"""

from __future__ import annotations

import threading
from contextvars import ContextVar
from dataclasses import astuple, dataclass
from statistics import NormalDist
from typing import Mapping, Sequence

import numpy as np

from .data import OUTCOME_KINDS, Dataset
from .diagnostics import restriction_test
from .errors import ConfigError
from .estimators import (
    ESTIMATOR_NAMES,
    AnalysisPlan,
    run_plan_with,
)
from .glm import expit
from .inference import _check_level, check_seed, keyed_seed, run_replicates, sandwich_se
from .jsonfields import dump, parse
from .nuisance import fit_nuisances, normalize_drop


@dataclass(frozen=True)
class CovariateLaw:
    """Covariate distribution: independent binaries or standard normals."""

    kind: str  # "binary" | "gaussian"
    p: tuple[float, ...] = (0.5,)  # binary only: Pr[x_j = 1]
    dim: int = 1  # gaussian only

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", tuple(self.p))
        if self.kind not in ("binary", "gaussian"):
            raise ConfigError(f"covariate kind must be binary or gaussian, got {self.kind!r}")
        if self.kind == "binary":
            if not self.p:
                raise ConfigError("binary covariate law needs at least one probability")
            if any(not (0.0 < q < 1.0) for q in self.p):
                raise ConfigError("binary covariate probabilities must be inside (0, 1)")
            if self.dim != 1:
                raise ConfigError("binary covariates take their count from p, not from dim")
        else:
            if self.dim < 1:
                raise ConfigError("gaussian covariate law needs dim >= 1")
            if self.p != (0.5,):
                raise ConfigError("gaussian covariates take no probabilities p")

    @property
    def k(self) -> int:
        return len(self.p) if self.kind == "binary" else self.dim


@dataclass(frozen=True)
class _Violation:
    """An unmeasured binary u, present with probability ``u_prob``, that
    moves the outcome and one other part of the law (the subclass's two
    effects, after ``u_prob``). The condition it breaks fails only when both
    effects are nonzero."""

    u_prob: float = 0.5

    def __post_init__(self) -> None:
        if not (0.0 < self.u_prob < 1.0):
            raise ConfigError("u_prob must be inside (0, 1)")

    @property
    def active(self) -> bool:
        return 0.0 not in astuple(self)[1:]


@dataclass(frozen=True)
class ConfoundingViolation(_Violation):
    """Unmeasured u_c -> emulation treatment and outcome."""

    effect_on_treatment: float = 1.0
    effect_on_y: float = 1.0


@dataclass(frozen=True)
class TransportViolation(_Violation):
    """Unmeasured u_t -> study participation and outcome."""

    effect_on_participation: float = 1.0
    effect_on_y: float = 1.0


@dataclass(frozen=True)
class ScenarioConfig:
    """Full generative law for one scenario.

    ``participation`` and ``emulation_propensity`` are logit-scale
    coefficient vectors (intercept first, one slope per covariate). The
    outcome mean is intercept + x'beta_x + a * (effect + x'beta_ax) plus
    violation shifts; continuous outcomes add Gaussian noise, binary
    outcomes pass the mean expression through expit.
    """

    covariates: CovariateLaw
    participation: tuple[float, ...]
    trial_arm_prob: float
    emulation_propensity: tuple[float, ...]
    outcome_intercept: float
    outcome_x: tuple[float, ...]
    outcome_treatment: float
    outcome_tx: tuple[float, ...]
    noise_sd: float = 1.0
    outcome_kind: str = "continuous"
    confounding: ConfoundingViolation | None = None
    transport: TransportViolation | None = None

    def __post_init__(self) -> None:
        for name in ("participation", "emulation_propensity", "outcome_x", "outcome_tx"):
            object.__setattr__(self, name, tuple(float(v) for v in getattr(self, name)))
        k = self.covariates.k
        if len(self.participation) != k + 1:
            raise ConfigError(f"participation needs {k + 1} coefficients (intercept first)")
        if len(self.emulation_propensity) != k + 1:
            raise ConfigError(
                f"emulation_propensity needs {k + 1} coefficients (intercept first)"
            )
        if len(self.outcome_x) != k or len(self.outcome_tx) != k:
            raise ConfigError(f"outcome_x and outcome_tx need {k} coefficients")
        if not (0.0 < self.trial_arm_prob < 1.0):
            raise ConfigError("trial_arm_prob must be inside (0, 1)")
        if self.noise_sd < 0.0:
            raise ConfigError("noise_sd must be non-negative")
        if self.outcome_kind not in OUTCOME_KINDS:
            raise ConfigError(f"'outcome_kind' must be one of {list(OUTCOME_KINDS)}")

    @property
    def k(self) -> int:
        return self.covariates.k

    @property
    def conditions(self) -> tuple[bool, bool]:
        """Whether (emulation exchangeability, transport) hold under the law."""
        return tuple(v is None or not v.active for v in (self.confounding, self.transport))

    def covariate_names(self) -> tuple[str, ...]:
        return tuple(f"X{j + 1}" for j in range(self.k))

    def outcome_location(self, x: np.ndarray, a: np.ndarray | float,
                         uc: np.ndarray | float, ut: np.ndarray | float) -> np.ndarray:
        """Outcome mean (continuous) or logit of the mean (binary)."""
        x = np.atleast_2d(x)
        loc = (
            self.outcome_intercept
            + x @ np.asarray(self.outcome_x)
            + np.asarray(a) * (self.outcome_treatment + x @ np.asarray(self.outcome_tx))
        )
        if self.confounding is not None:
            loc = loc + self.confounding.effect_on_y * np.asarray(uc)
        if self.transport is not None:
            loc = loc + self.transport.effect_on_y * np.asarray(ut)
        return loc

    def outcome_mean_given(self, x, a, uc, ut) -> np.ndarray:
        loc = self.outcome_location(x, a, uc, ut)
        return expit(loc) if self.outcome_kind == "binary" else loc

    def arm_means(self, x: np.ndarray, uc: np.ndarray | None, ut: np.ndarray | None,
                  out: np.ndarray) -> None:
        """Write ``outcome_mean_given`` at a = 0 and at a = 1, bit for bit, and
        their difference into the three rows of ``out`` (3, len(x)).

        Each product of x is formed once for both arms. The u of an absent
        violation is ignored and may be None.
        """
        m0, m1, diff = out
        np.add(self.outcome_intercept, x @ np.asarray(self.outcome_x), out=m0)
        np.add(self.outcome_treatment, x @ np.asarray(self.outcome_tx), out=m1)
        m1 += m0
        for violation, u in ((self.confounding, uc), (self.transport, ut)):
            if violation is not None:
                shift = violation.effect_on_y * u
                m0 += shift
                m1 += shift
        if self.outcome_kind == "binary":
            expit(m0, out=m0)
            expit(m1, out=m1)
        np.subtract(m1, m0, out=diff)

    def participation_logit(self, x: np.ndarray, ut: np.ndarray | float) -> np.ndarray:
        coef = np.asarray(self.participation)
        lp = coef[0] + np.atleast_2d(x) @ coef[1:]
        if self.transport is not None:
            lp = lp + self.transport.effect_on_participation * np.asarray(ut)
        return lp

    def emulation_treatment_logit(self, x: np.ndarray, uc: np.ndarray | float) -> np.ndarray:
        coef = np.asarray(self.emulation_propensity)
        lp = coef[0] + np.atleast_2d(x) @ coef[1:]
        if self.confounding is not None:
            lp = lp + self.confounding.effect_on_treatment * np.asarray(uc)
        return lp

    def to_dict(self) -> dict:
        return dump(self)

    @classmethod
    def from_dict(cls, raw: Mapping) -> ScenarioConfig:
        return parse(cls, raw, "bad scenario config")


@dataclass(frozen=True)
class Truths:
    """Scenario ground truths in the emulation population."""

    mean0: float
    mean1: float
    ate: float
    condition_exchangeability: bool  # no unmeasured confounding in the emulation
    condition_transport: bool  # outcome means transport across studies
    restriction_holds: bool
    method: str  # "enumeration" | "importance"
    mc_error: tuple[float, float, float] = (0.0, 0.0, 0.0)  # (mean0, mean1, ate)

    def mean(self, arm: int) -> float:
        return self.mean1 if arm == 1 else self.mean0


def _binary_cells(cfg: ScenarioConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Joint support (x, u_c, u_t) with prior weights, binary covariates only.

    The covariate patterns run in lexicographic order, the first covariate
    slowest. The rows of one pattern are consecutive, one per level of
    (u_c, u_t) with u_t fastest; an absent violation's u is 0.
    """
    k = cfg.k
    bits = (np.arange(2**k)[:, None] >> np.arange(k - 1, -1, -1)) & 1
    px = np.ones(2**k)
    for column, q in zip(bits.T, cfg.covariates.p):
        px *= np.where(column == 1, q, 1.0 - q)
    (uc, pc), (ut, pt) = (
        ((0.0,), (1.0,)) if v is None else ((0.0, 1.0), (1.0 - v.u_prob, v.u_prob))
        for v in (cfg.confounding, cfg.transport)
    )
    # Axes (pattern, u_c, u_t); the prior multiplies in that order.
    prior = px[:, None, None] * np.reshape(pc, (-1, 1)) * np.asarray(pt)
    uc = np.broadcast_to(np.reshape(uc, (-1, 1)), prior.shape).ravel()
    ut = np.broadcast_to(np.asarray(ut), prior.shape).ravel()
    x = np.repeat(bits.astype(float), prior[0].size, axis=0)
    return x, uc, ut, prior.ravel()


def _draw_u(violation, size: int, rng: np.random.Generator) -> np.ndarray:
    """The violation's unmeasured binary u; all zeros when there is none."""
    if violation is None:
        return np.zeros(size)
    return (rng.random(size) < violation.u_prob).astype(float)


# Accept-reject draws stop once the acceptance rate is surely below this.
_MIN_ACCEPTANCE = 1e-6


def _draw_stream(
    cfg: ScenarioConfig, s: int, size: int, rng: np.random.Generator, support: tuple | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw (x, u_c, u_t) from the law conditional on study s; a binary law
    draws from its ``support`` (_binary_cells)."""
    if support is not None:
        x, uc, ut, prior = support
        p_s1 = expit(cfg.participation_logit(x, ut))
        w = prior * (p_s1 if s == 1 else 1.0 - p_s1)
        w = w / np.sum(w)
        idx = rng.choice(len(w), size=size, p=w)
        return x[idx], uc[idx], ut[idx]

    # Gaussian covariates: accept-reject against Pr[S = s | x, u_t].
    xs: list[np.ndarray] = []
    uts: list[np.ndarray] = []
    got = drawn = 0
    batch = max(4 * size, 1024)
    while got < size:
        x = rng.standard_normal((batch, cfg.covariates.dim))
        ut = _draw_u(cfg.transport, batch, rng)
        p_s1 = expit(cfg.participation_logit(x, ut))
        accept = rng.random(batch) < (p_s1 if s == 1 else 1.0 - p_s1)
        xs.append(np.compress(accept, x, axis=0))
        uts.append(np.compress(accept, ut))
        got += int(np.sum(accept))
        drawn += batch
        # (got + 3) / drawn bounds the acceptance rate from above (the rule of
        # three when nothing is accepted); below the floor the study would
        # need over a million proposals per row, so stop instead of spinning.
        if got < size and (got + 3) / drawn < _MIN_ACCEPTANCE:
            raise ConfigError(
                f"scenario cannot fill the {'trial' if s == 1 else 'emulation'} study: "
                f"{got} of {drawn} proposed rows accepted (rate {got / drawn:.3g}); "
                "its participation law gives that study almost no mass"
            )
    x = np.vstack(xs)[:size]
    ut = np.concatenate(uts)[:size]
    # u_c is independent of s given (x, u_t): draw after acceptance.
    return x, _draw_u(cfg.confounding, size, rng), ut


def generate(
    cfg: ScenarioConfig,
    n: tuple[int, int],
    seed: int | np.random.SeedSequence,
) -> Dataset:
    """Draw a composite sample: n = (trial size, emulation size).

    Trial rows come first. Each study has its own RNG stream keyed off the
    seed, so the same seed always yields the bit-identical dataset.
    """
    n1, n0 = int(n[0]), int(n[1])
    if n1 < 1 or n0 < 1:
        raise ConfigError(f"both study sizes must be positive, got {n!r}")
    check_seed(seed)
    support = _binary_cells(cfg) if cfg.covariates.kind == "binary" else None  # for both studies
    parts = []  # (x, s, a, y) of each study
    for stream, (s, size) in enumerate(((1, n1), (0, n0))):
        rng = np.random.default_rng(keyed_seed(seed, stream))
        x, uc, ut = _draw_stream(cfg, s, size, rng, support)
        p_a = cfg.trial_arm_prob if s == 1 else expit(cfg.emulation_treatment_logit(x, uc))
        a = (rng.random(size) < p_a).astype(np.int64)
        loc = cfg.outcome_location(x, a.astype(float), uc, ut)
        if cfg.outcome_kind == "continuous":
            y = loc + cfg.noise_sd * rng.standard_normal(size)
        else:
            y = (rng.random(size) < expit(loc)).astype(float)
        parts.append((x, np.full(size, s, dtype=np.int64), a, y))
    x, s, a, y = zip(*parts)
    return Dataset(
        x=np.vstack(x),
        s=np.concatenate(s),
        a=np.concatenate(a),
        y=np.concatenate(y),
        covariate_names=cfg.covariate_names(),
    )


def _enumeration_truths(cfg: ScenarioConfig) -> Truths:
    x, uc, ut, prior = _binary_cells(cfg)
    p_s1 = expit(cfg.participation_logit(x, ut))
    w0 = prior * (1.0 - p_s1)
    w_s0 = w0 / np.sum(w0)
    # Restriction check: E[y | x, s, a] equal across studies for every (x, a),
    # with one row per covariate pattern (see _binary_cells). A pattern that
    # one study never sees (its weights round to 0) has no gap.
    by_pattern = (2**cfg.k, -1)
    w1 = (prior * p_s1).reshape(by_pattern)  # a independent of (u_c, u_t) in the trial
    n1 = w1.sum(axis=1)
    p_a1 = expit(cfg.emulation_treatment_logit(x, uc))
    means, max_gap = [], 0.0
    for a, pa in ((0.0, 1.0 - p_a1), (1.0, p_a1)):
        mean = cfg.outcome_mean_given(x, a, uc, ut)
        means.append(float(w_s0 @ mean))
        w0a, mean = (w0 * pa).reshape(by_pattern), mean.reshape(by_pattern)
        n0 = w0a.sum(axis=1)
        seen = (n1 > 0.0) & (n0 > 0.0)
        gap = np.vecdot(w1, mean)[seen] / n1[seen] - np.vecdot(w0a, mean)[seen] / n0[seen]
        max_gap = max(max_gap, float(np.abs(gap).max(initial=0.0)))
    mean0, mean1 = means

    exchangeable, transports = cfg.conditions
    return Truths(
        mean0=mean0,
        mean1=mean1,
        ate=mean1 - mean0,
        condition_exchangeability=exchangeable,
        condition_transport=transports,
        restriction_holds=max_gap < 1e-12,
        method="enumeration",
    )


# Importance draws are weighted this many rows at a time, so memory stays
# flat whatever the number of draws.
_TRUTH_CHUNK = 1 << 18


# The stop signal of the truths that run_monte_carlo runs on a thread of its
# own: once the Event is set, they end before their next chunk. Other
# callers of true_values have none.
_truths_stop: ContextVar[threading.Event | None] = ContextVar("truths_stop", default=None)


class _TruthsStopped(Exception):
    """The truths were stopped between chunks; nothing reads their result."""


def _importance_truths(cfg: ScenarioConfig, draws: int, seed: int) -> Truths:
    """Weight prior draws of (x, u_c, u_t) by Pr[S = 0 | x, u_t], chunk by chunk.

    x comes from ``seed``'s stream and u_c, u_t from child streams of their
    own. For each v in (y(0), y(1), their difference) the chunks add up
    w v and, about a shift c (the first chunk's mean), w^2 (v - c) and
    w^2 (v - c)^2, which give sum w^2 (v - mean)^2 for the Monte Carlo error.

    Each chunk is drawn and weighed in turn on one thread. Each stream has
    that one consumer and the sums are added in chunk order, so the truths
    do not depend on what other threads run beside them: the same seed gives
    the same bits. One chunk of draws is alive at a time. In
    ``run_monte_carlo``'s truths thread the loop checks its stop signal
    before each chunk.
    """
    rng = np.random.default_rng(seed)
    rng_c, rng_t = (np.random.default_rng(keyed_seed(seed, i)) for i in (1, 2))

    def draw(size: int):
        return (
            rng.standard_normal((size, cfg.covariates.dim)),
            None if cfg.confounding is None else _draw_u(cfg.confounding, size, rng_c),
            None if cfg.transport is None else _draw_u(cfg.transport, size, rng_t),
        )

    total = total_sq = 0.0
    sums = np.zeros((3, 3))  # rows: w v, w^2 (v - c), w^2 (v - c)^2
    shift = values = None

    def weigh(x, uc, ut) -> None:
        nonlocal total, total_sq, shift, values
        w = cfg.participation_logit(x, ut)
        np.subtract(1.0, expit(w, out=w), out=w)
        if values is None or values.shape[1] != len(w):
            values = np.empty((3, len(w)))  # rows: y(0), y(1), their difference
        cfg.arm_means(x, uc, ut, out=values)
        weight = np.sum(w)
        values_w = values @ w
        if shift is None:
            shift = values_w / weight
        total += float(weight)
        sums[0] += values_w
        w *= w
        total_sq += float(np.sum(w))
        values -= shift[:, None]
        sums[1] += values @ w
        np.square(values, out=values)
        sums[2] += values @ w

    sizes = [min(_TRUTH_CHUNK, draws - start) for start in range(0, draws, _TRUTH_CHUNK)]
    stop = _truths_stop.get()
    for size in sizes:
        if stop is not None and stop.is_set():
            raise _TruthsStopped
        weigh(*draw(size))
    means = sums[0] / total
    gap = means - shift
    spread = sums[2] - 2.0 * gap * sums[1] + gap**2 * total_sq
    errors = np.sqrt(np.maximum(spread, 0.0)) / total
    (mean0, mean1, ate), (err0, err1, err_ate) = means.tolist(), errors.tolist()
    exchangeable, transports = cfg.conditions
    return Truths(
        mean0=mean0,
        mean1=mean1,
        ate=ate,
        condition_exchangeability=exchangeable,
        condition_transport=transports,
        restriction_holds=exchangeable and transports,
        method="importance",
        mc_error=(err0, err1, err_ate),
    )


def true_values(
    cfg: ScenarioConfig, draws: int = 10_000_000, seed: int = 2_000_003
) -> Truths:
    """Ground-truth potential-outcome means in the emulation population.

    Binary covariates are enumerated exactly; Gaussian covariates use
    ``draws`` importance-weighted samples and report the Monte Carlo error.
    """
    if draws < 1:
        raise ValueError(f"'draws' must be at least 1, got {draws}")
    if cfg.covariates.kind == "binary":
        return _enumeration_truths(cfg)
    return _importance_truths(cfg, draws, seed)


@dataclass(frozen=True)
class SeriesStats:
    """Aggregates for one estimator-arm pair across replicates."""

    estimator: str
    arm: int
    truth: float
    mean_estimate: float
    bias: float
    empirical_sd: float
    mean_std_error: float
    coverage: float
    reps_used: int


@dataclass(frozen=True)
class MCReport:
    """Everything run_monte_carlo measured; jsonfields.dump gives its JSON."""

    scenario: dict
    truths: Truths
    reps: int
    n: tuple[int, int]
    seed: int
    level: float
    misspec: dict
    series: tuple[SeriesStats, ...]
    delta_rejection: dict[int, float]
    restriction_rejection: dict[int, float] | None
    failures: int

    def series_for(self, estimator: str, arm: int) -> SeriesStats:
        for s in self.series:
            if s.estimator == estimator and s.arm == arm:
                return s
        raise KeyError(f"no series for {estimator}({arm})")


def replicate_estimates(
    cfg: ScenarioConfig,
    n: tuple[int, int],
    seed: int,
    index: int,
    plan: AnalysisPlan,
    *,
    restriction: bool = False,
) -> dict[str, float]:
    """One replicate: generate, fit, estimate. Keyed RNG stream per index.

    Returns labels from the plan mapped to values, each "<label>.se" mapped
    to its sandwich standard error, and optionally "restriction_p(arm)"
    entries. Raises FitError when any model cannot be fitted.
    """
    d = generate(cfg, n, keyed_seed(seed, index))
    nu = fit_nuisances(d, cfg.outcome_kind, ridge=plan.ridge, drop=plan.drop)
    estimates = run_plan_with(d, nu, plan)
    out: dict[str, float] = {}
    for label, est in estimates.items():
        out[label] = est.value
        out[f"{label}.se"] = sandwich_se(est)
    if restriction:
        for arm in plan.arms:
            result = restriction_test(d, arm, outcome_kind=cfg.outcome_kind, ridge=plan.ridge)
            out[f"restriction_p({arm})"] = result.test.p_value
    return out


def run_monte_carlo(
    cfg: ScenarioConfig,
    reps: int,
    n: tuple[int, int],
    seed: int,
    *,
    misspec: Mapping[str, Sequence[str]] | Sequence[str] | None = None,
    estimators: Sequence[str] = ESTIMATOR_NAMES,
    arms: Sequence[int] = (0, 1),
    level: float = 0.95,
    restriction: bool = True,
    restriction_threshold: float = 0.05,
    ridge: float = 0.0,
    truth_draws: int = 10_000_000,
) -> MCReport:
    """Replicate the scenario and summarize estimator behavior against truth.

    Reports per estimator and arm: bias, empirical sd, mean sandwich
    standard error, and coverage of the level-``level`` sandwich interval;
    plus the rejection rate of the benchmarking delta (phi minus chi,
    tested against zero at ``level``) and optionally of the restriction
    test. Replicates whose fits fail are dropped and counted; more than
    reps/2 failures, or fewer than two replicates left to keep, aborts.

    The truths (``true_values``) run on one background thread while this
    thread runs the replicates. The two share no data and each keeps its own
    random streams, so the report does not depend on their timing. When the
    replicates raise, the truths stop at their next chunk; the thread is
    joined before this returns or raises, and an error of the truths wins
    over the replicates' error, as when the truths ran first.
    """
    if reps < 2:
        raise ConfigError("need at least 2 replicates")
    _check_level(level)
    check_seed(seed)
    # The replicates return p-values; only this driver reads the threshold.
    if restriction and not 0.0 < restriction_threshold < 1.0:
        raise ValueError(f"threshold must be inside (0, 1), got {restriction_threshold!r}")
    # Check the misspecified model and covariate names before any work.
    misspec_echo = {
        name: list(cols)
        for name, cols in normalize_drop(misspec, cfg.covariate_names()).items()
    }
    plan = AnalysisPlan(
        outcome_kind=cfg.outcome_kind,
        estimators=tuple(estimators),
        arms=tuple(arms),
        ridge=ridge,
        drop=dict(misspec) if isinstance(misspec, Mapping) else misspec,
    )
    z = NormalDist().inv_cdf(0.5 + level / 2.0)

    stop = threading.Event()
    outcome: list = []  # the truths, or what computing them raised

    def truths_beside() -> None:
        _truths_stop.set(stop)
        try:
            outcome.append(true_values(cfg, draws=truth_draws))
        except BaseException as exc:  # raised on the calling thread
            outcome.append(exc)

    worker = threading.Thread(target=truths_beside, daemon=True)
    worker.start()
    try:
        columns, failures = run_replicates(
            lambda indices: [replicate_estimates(cfg, n, seed, i, plan, restriction=restriction)
                             for i in indices],
            reps, 1, "simulation",  # chunks of one replicate
        )
        worker.join()
    finally:
        if worker.is_alive():  # the replicates raised, or a Ctrl-C came while waiting
            stop.set()
            worker.join()
        (truths,) = outcome
        # An error of the truths wins, as if they had run before the replicates.
        if isinstance(truths, BaseException) and not isinstance(truths, _TruthsStopped):
            raise truths
    used = reps - failures
    series: list[SeriesStats] = []
    for name in plan.estimators:
        for arm in plan.arms:
            label = f"{name}({arm})"
            values, ses = columns[label], columns[f"{label}.se"]
            truth = truths.mean(arm)
            covered = np.abs(values - truth) <= z * ses
            series.append(
                SeriesStats(
                    estimator=name,
                    arm=arm,
                    truth=truth,
                    mean_estimate=float(np.mean(values)),
                    bias=float(np.mean(values) - truth),
                    empirical_sd=float(np.std(values, ddof=1)),
                    mean_std_error=float(np.mean(ses)),
                    coverage=float(np.mean(covered)),
                    reps_used=used,
                )
            )

    delta_rejection: dict[int, float] = {}
    for arm, (label, _, _) in plan.contrasts()["delta"].items():
        ses = columns[f"{label}.se"]
        tested = ses > 0
        rejected = np.abs(columns[label][tested] / ses[tested]) > z
        delta_rejection[arm] = float(np.mean(rejected)) if rejected.size else float("nan")

    restriction_rejection: dict[int, float] | None = None
    if restriction:
        restriction_rejection = {}
        for arm in plan.arms:
            ps = columns[f"restriction_p({arm})"]
            restriction_rejection[arm] = float(np.mean(ps < restriction_threshold))

    return MCReport(
        scenario=cfg.to_dict(),
        truths=truths,
        reps=reps,
        n=(int(n[0]), int(n[1])),
        seed=int(seed),
        level=level,
        misspec=misspec_echo,
        series=tuple(series),
        delta_rejection=delta_rejection,
        restriction_rejection=restriction_rejection,
        failures=failures,
    )
