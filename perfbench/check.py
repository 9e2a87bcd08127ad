"""Correctness checks on the reports the benchmark's commands write.

Each check returns a list of failure messages; an empty list passes.

Quantities that do not depend on random draws are compared with reference
values at a tight tolerance. It is a tolerance, not bit equality, because
the BLAS thread count already moves last digits. Quantities that depend on
bootstrap or Monte Carlo draws are checked against statistical bands that a
correct program passes on any seed, so a change in how draws are made is not
a failure but a wrong estimator is.
"""

from __future__ import annotations

import math

# Point estimates on data/d1_fixture.csv with the analyze_d1 plan.
FIXTURE_REFERENCE = {
    "phi(0)": 1.3893502765905086,
    "phi(1)": 3.7707011025884456,
    "chi(0)": 1.4075211557180234,
    "chi(1)": 3.8092054542340485,
    "psi(0)": 1.3981706725338525,
    "psi(1)": 3.788777851496019,
    "ate_phi": 2.381350825997937,
    "ate_chi": 2.401684298516025,
    "ate_psi": 2.3906071789621666,
    "delta(0)": -0.018170879127514805,
    "delta(1)": -0.03850435164560295,
    "restriction_p(0)": 0.3881067935602004,
    "restriction_p(1)": 0.06025782094689518,
}
# Relative to max(|reference|, 1), so near-zero deltas get an absolute bound.
FIXTURE_RTOL = 1e-9

# Importance-sampled truths of the simulate_gauss scenario (default draws and
# seed), each with its Monte Carlo error.
GAUSS_TRUTHS = {"mean0": (0.3458767053642182, 4.73e-05), "mean1": (0.5107737809115964, 6.53e-05)}

# Monte Carlo standard errors allowed between a correct estimator's mean and
# the truth. At 25 replicates (t with 24 df) a correct program exceeds six
# with probability about 3e-6 per check.
MCSE_BAND = 6.0


def _close(got: float, ref: float, rtol: float) -> bool:
    return abs(got - ref) <= rtol * max(abs(ref), 1.0)


def fixture_values(report: dict) -> dict[str, float]:
    """The deterministic point estimates of an analysis report, by label."""
    out = {
        f"{name}({arm})": entry["value"]
        for name, arms in report["estimates"].items()
        for arm, entry in arms.items()
    }
    for name, entry in (report["contrasts"]["ate"] or {}).items():
        out[f"ate_{name}"] = entry["value"]
    for arm, entry in (report["contrasts"]["benchmarking"] or {}).items():
        out[f"delta({arm})"] = entry["value"]
    for test in report["diagnostics"]["restriction"] or ():
        out[f"restriction_p({test['arm']})"] = test["test"]["p_value"]
    return out


def check_analysis(report: dict, bootstrap: int) -> list[str]:
    errors = []
    values = fixture_values(report)
    for label, ref in FIXTURE_REFERENCE.items():
        got = values.get(label)
        if got is None or not _close(got, ref, FIXTURE_RTOL):
            errors.append(f"{label} = {got!r}, reference {ref!r}")
    # Bootstrap SE against sandwich SE: the bootstrap SE's relative standard
    # deviation is about 1/sqrt(2(B-1)); 0.05 allows their finite-n gap.
    band = MCSE_BAND / math.sqrt(2 * (bootstrap - 1)) + 0.05
    entries = [
        (f"{name}({arm})", e) for name, arms in report["estimates"].items() for arm, e in arms.items()
    ]
    entries += [(f"ate_{n}", e) for n, e in (report["contrasts"]["ate"] or {}).items()]
    entries += [(f"delta({a})", e) for a, e in (report["contrasts"]["benchmarking"] or {}).items()]
    for label, entry in entries:
        boot = entry.get("bootstrap")
        if boot is None:
            errors.append(f"{label}: no bootstrap interval")
            continue
        ratio = boot["std_error"] / entry["sandwich"]["std_error"]
        if abs(ratio - 1.0) > band:
            errors.append(f"{label}: bootstrap/sandwich SE ratio {ratio:.3f} outside 1 +- {band:.3f}")
    return errors


def _series(report: dict) -> dict[str, dict]:
    return {f"{s['estimator']}({s['arm']})": s for s in report["result"]["series"]}


def _bias_within(series: dict, label: str, truth_error: float) -> list[str]:
    s = series.get(label)
    if s is None:
        return [f"{label}: missing from the report"]
    mcse = math.hypot(s["empirical_sd"] / math.sqrt(s["reps_used"]), truth_error)
    if not abs(s["bias"]) <= MCSE_BAND * mcse:
        return [f"{label}: bias {s['bias']:.3g} beyond {MCSE_BAND:g} x MCSE {mcse:.3g}"]
    return []


def _check_reps(report: dict, reps: int) -> list[str]:
    got = report["result"]["reps"]
    return [] if got == reps else [f"report ran {got} replicates, asked for {reps}"]


def check_simulate_gauss(report: dict, reps: int) -> list[str]:
    errors = _check_reps(report, reps)
    truths = report["result"]["truths"]
    if truths["method"] != "importance":
        errors.append(f"truths by {truths['method']}, expected importance")
    for arm, key in enumerate(("mean0", "mean1")):
        ref, err = GAUSS_TRUTHS[key]
        if not abs(truths[key] - ref) <= MCSE_BAND * math.hypot(err, truths["mc_error"][arm]):
            errors.append(f"truth {key} = {truths[key]!r}, reference {ref!r}")
    # Every estimator is correctly specified here: per-arm logistic outcome
    # models, logistic participation and propensity, no violations.
    series = _series(report)
    for estimator in ("phi", "chi", "psi"):
        for arm in (0, 1):
            errors += _bias_within(series, f"{estimator}({arm})", truths["mc_error"][arm])
    return errors
