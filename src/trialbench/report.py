"""Report assembly, JSON schema validation, and plain-text summaries.

The JSON layout is versioned (``schema_version``) and pinned by the
report_schema.json shipped inside the package; every report written by the
command line is validated against that schema before it reaches disk. The
check is a small draft-07 validator, not a schema library: it implements
exactly the keywords the shipped schema uses and raises ValueError on any
other, so no constraint of the schema passes unchecked. A report that breaks
the schema raises ReportSchemaError with a one-line message naming the JSON
path and the rule. Timestamps are the only content that changes between
identical runs.

A report dict holds the result records themselves (configs, intervals,
tests, restriction and overlap results, validation and Monte Carlo
reports); ``_report`` adds the envelope every report shares and turns the
whole dict into JSON values once, with ``jsonfields.dump``.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .config import AnalysisConfig, SimulationConfig, ValidateConfig
from .data import Dataset, ValidationReport, validate
from .diagnostics import overlap_summary, restriction_test
from .errors import ReportSchemaError, ValidationFailure
from .estimators import AnalysisPlan, EstimateWithIF, run_plan_with
from .inference import BootstrapResult, TestResult, bootstrap, sandwich_ci, wald_test
from .jsonfields import dump
from .nuisance import fit_nuisances
from .simulation import MCReport, run_monte_carlo

SCHEMA_VERSION = 1

_AGREE_TEXT = (
    "The emulation estimate and the trial-transported estimate are statistically "
    "compatible. Treating that agreement as support for both identification "
    "conditions is reasonable but not guaranteed: violations can offset each "
    "other, and averaging over covariates can hide conditional differences."
)
_DISAGREE_TEXT = (
    "The emulation estimate and the trial-transported estimate differ by more "
    "than sampling variability explains. At least one identification condition "
    "fails, and the data alone cannot say which: the emulation may be "
    "confounded by something unmeasured, the two study populations may not be "
    "exchangeable enough for outcome means to transport, or both. Deciding "
    "among those explanations takes subject-matter knowledge, not more testing "
    "of this dataset."
)
_NOT_ASSESSED_TEXT = (
    "Benchmarking was not assessed: it needs both the emulation-only and the "
    "trial-transported estimators on at least one common treatment arm."
)


_SCHEMA_PATH = Path(__file__).with_name("report_schema.json")

# The draft-07 keywords of the shipped schema. Of these, the annotations
# $schema, title and definitions check nothing; any keyword outside this set
# raises, so no constraint can pass unchecked.
_KEYWORDS = frozenset(
    {
        "$schema",
        "title",
        "definitions",
        "type",
        "properties",
        "required",
        "additionalProperties",
        "propertyNames",
        "items",
        "enum",
        "const",
        "oneOf",
        "$ref",
        "exclusiveMinimum",
        "exclusiveMaximum",
    }
)


def _is_number(value) -> bool:
    # JSON true and false load as Python bools, which are ints too.
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "number": _is_number,
    # Draft 7 counts a float with no fractional part, such as 1.0, as an integer.
    "integer": lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()),
}


def _equal(a, b) -> bool:
    """JSON equality, as ``enum`` and ``const`` use it: true is not 1, 1.0 is 1."""
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool) and a == b
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    return a == b


def _resolve(root: dict, ref: str):
    """The sub-schema a local JSON-pointer ``$ref`` such as ``#/definitions/x`` names."""
    if not ref.startswith("#"):
        raise ValueError(f"report schema: only local $ref is supported, got {ref!r}")
    node = root
    for part in ref[1:].split("/")[1:]:
        node = node[part.replace("~1", "/").replace("~0", "~")]
    return node


def _first_error(value, schema, root: dict, path: tuple) -> tuple[tuple, str] | None:
    """The first rule of ``schema`` that ``value`` breaks, as (JSON path, rule), or None."""
    if schema is True:
        return None
    if schema is False:
        return path, "not allowed"
    unknown = schema.keys() - _KEYWORDS
    if unknown:
        raise ValueError(f"report schema keyword(s) {sorted(unknown)} not supported")
    if "$ref" in schema:
        # Draft 7 ignores every keyword beside a $ref.
        return _first_error(value, _resolve(root, schema["$ref"]), root, path)
    if "type" in schema:
        names = [schema["type"]] if isinstance(schema["type"], str) else schema["type"]
        if not any(_TYPES[name](value) for name in names):
            return path, f"not of type {' or '.join(names)}"
    if "enum" in schema and not any(_equal(value, option) for option in schema["enum"]):
        return path, f"not one of {json.dumps(schema['enum'])}"
    if "const" in schema and not _equal(value, schema["const"]):
        return path, f"not equal to {json.dumps(schema['const'])}"
    if _is_number(value) and (
        value <= schema.get("exclusiveMinimum", -float("inf"))
        or value >= schema.get("exclusiveMaximum", float("inf"))
    ):
        return path, "out of range"
    if "oneOf" in schema:
        errors = [_first_error(value, option, root, path) for option in schema["oneOf"]]
        matched = errors.count(None)
        if matched > 1:
            return path, f"matches {matched} alternatives of oneOf, not exactly one"
        if matched == 0:
            # The alternative that got deepest into the value is the one meant.
            return max(errors, key=lambda error: len(error[0]))
    if isinstance(value, list) and "items" in schema:
        if not isinstance(schema["items"], (dict, bool)):
            raise ValueError("report schema: only a single schema is supported for items")
        for i, item in enumerate(value):
            error = _first_error(item, schema["items"], root, (*path, str(i)))
            if error is not None:
                return error
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                return path, f"missing required property {json.dumps(key)}"
        properties = schema.get("properties", {})
        for key, item in value.items():
            if "propertyNames" in schema:
                error = _first_error(key, schema["propertyNames"], root, (*path, key))
                if error is not None:
                    return error[0], f"property name {error[1]}"
            rule = properties.get(key, schema.get("additionalProperties", True))
            error = _first_error(item, rule, root, (*path, key))
            if error is not None:
                return error
    return None


def load_report_schema() -> dict:
    return json.loads(_SCHEMA_PATH.read_text(encoding="utf-8"))


def validate_against(instance, schema: dict) -> None:
    """Check ``instance`` against the draft-07 ``schema``.

    Raises ReportSchemaError naming the first broken rule and its JSON path,
    and ValueError when the schema uses a keyword this validator lacks.
    """
    error = _first_error(instance, schema, schema, ("report",))
    if error is not None:
        path, rule = error
        raise ReportSchemaError(f"{'.'.join(path)}: {rule}")


def validate_report(report: dict) -> None:
    """Check a report against the shipped schema; raises ReportSchemaError on mismatch."""
    validate_against(report, load_report_schema())


def _report(kind: str, config: AnalysisConfig | SimulationConfig | ValidateConfig, **body) -> dict:
    """The JSON-ready report of ``kind``: the envelope every report shares,
    then the blocks of ``body``."""
    metadata = {
        "tool": "trialbench",
        "version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "config": config,
    }
    return dump({"schema_version": SCHEMA_VERSION, "kind": kind, "metadata": metadata, **body})


def _bootstrap_entry(
    br: BootstrapResult | None, point: float, level: float
) -> dict | None:
    if br is None:
        return None
    interval = br.percentile_interval(point, level)
    return {
        "std_error": interval.std_error,
        "lower": interval.lower,
        "upper": interval.upper,
        "level": level,
        "requested": br.requested,
        "used": int(br.replicates.size),
        "failures": br.failures,
        "seed": br.seed,
        "method": "bootstrap-percentile",
    }


def _estimate_entry(
    est: EstimateWithIF,
    level: float,
    boot: dict[str, BootstrapResult] | None,
    warnings: list[str],
    with_test: bool = False,
) -> dict:
    interval = sandwich_ci(est, level)
    br = boot.get(est.label) if boot else None
    entry: dict = {
        "value": est.value,
        "n_effective": est.n_effective,
        "sandwich": interval,
        "bootstrap": _bootstrap_entry(br, est.value, level),
    }
    if br is not None and interval.std_error > 0:
        ratio = abs(br.std_error - interval.std_error) / interval.std_error
        if ratio > 0.25:
            warnings.append(
                f"{est.label}: bootstrap and sandwich standard errors disagree by "
                f"{100 * ratio:.0f}% ({br.std_error:.4g} vs {interval.std_error:.4g})"
            )
    if with_test:
        entry["test"] = wald_test(est, 0.0)
    return entry


def build_analysis_report(config: AnalysisConfig, d: Dataset) -> dict:
    """Run the full analysis and assemble the JSON-ready report dict.

    Raises ValidationFailure when the dataset fails a hard check; fit and
    positivity errors propagate from the layers that raise them.
    """
    report_validation = validate(d)
    if not report_validation.ok:
        messages = "; ".join(c.message for c in report_validation.failures)
        raise ValidationFailure(f"dataset failed validation: {messages}")

    warnings: list[str] = [f"validation: {c.message}" for c in report_validation.warnings]

    plan = AnalysisPlan(
        outcome_kind=config.outcome_kind,
        estimators=config.estimators,
        arms=config.arms,
        ridge=config.ridge,
        hajek=config.hajek,
    )
    nu = fit_nuisances(d, config.outcome_kind, ridge=config.ridge)
    estimates = run_plan_with(d, nu, plan)

    boot: dict[str, BootstrapResult] | None = None
    if config.bootstrap > 0:
        boot = bootstrap(d, plan, config.bootstrap, config.seed)
        failures = next(iter(boot.values())).failures
        if failures:
            warnings.append(
                f"bootstrap: {failures} of {config.bootstrap} replicates failed to fit "
                "and were dropped"
            )

    nuisance_block = nu.summaries()
    for name, entry in nuisance_block.items():
        if entry.get("converged") is False:
            warnings.append(f"nuisance: {name} did not converge")

    estimates_block: dict = {}
    for name in config.estimators:
        estimates_block[name] = {
            str(arm): _estimate_entry(estimates[f"{name}({arm})"], config.level, boot, warnings)
            for arm in config.arms
        }

    both_arms = 0 in config.arms and 1 in config.arms
    ate_block = None
    ate_reason = None
    if both_arms:
        ate_block = {
            name: _estimate_entry(estimates[f"ate_{name}"], config.level, boot, warnings)
            for name in config.estimators
        }
    else:
        ate_reason = "treatment effects need both arms; config requested only " + str(
            list(config.arms)
        )

    has_delta = "phi" in config.estimators and "chi" in config.estimators
    benchmarking_block = None
    benchmarking_reason = None
    delta_tests: dict[int, TestResult] = {}
    if has_delta:
        benchmarking_block = {}
        for arm in config.arms:
            entry = _estimate_entry(
                estimates[f"delta({arm})"], config.level, boot, warnings, with_test=True
            )
            benchmarking_block[str(arm)] = entry
            delta_tests[arm] = entry["test"]
    else:
        missing = [e for e in ("phi", "chi") if e not in config.estimators]
        benchmarking_reason = (
            "benchmarking contrasts the emulation-only and trial-transported "
            f"estimators; config omitted {missing}"
        )

    restriction_block = None
    if config.restriction:
        restriction_block = [
            restriction_test(
                d,
                arm,
                config.include_interactions,
                outcome_kind=config.outcome_kind,
                threshold=config.restriction_threshold,
                ridge=config.ridge,
            )
            for arm in config.arms
        ]

    overlap_block = None
    if config.overlap:
        overlap_block = overlap_summary(d, nu, config.weight_threshold)

    alpha = 1.0 - config.level
    if not has_delta:
        verdict = "not-assessed"
        narrative = _NOT_ASSESSED_TEXT
    else:
        # A NaN p-value compares false, so it does not reject.
        rejected = any(t.p_value < alpha for t in delta_tests.values())
        verdict = "incompatible" if rejected else "compatible"
        narrative = _DISAGREE_TEXT if rejected else _AGREE_TEXT

    return _report(
        "analysis",
        config,
        validation=report_validation,
        estimates=estimates_block,
        contrasts={
            "ate": ate_block,
            "ate_omitted_reason": ate_reason,
            "benchmarking": benchmarking_block,
            "benchmarking_omitted_reason": benchmarking_reason,
        },
        diagnostics={"restriction": restriction_block, "overlap": overlap_block},
        nuisance=nuisance_block,
        interpretation={"benchmarking_verdict": verdict, "narrative": narrative},
        warnings=warnings,
    )


def build_simulation_report(config: SimulationConfig, result: MCReport) -> dict:
    return _report("simulation", config, result=result)


def build_validation_report(config: ValidateConfig, result: ValidationReport) -> dict:
    return _report("validation", config, validation=result)


def run_simulation_config(config: SimulationConfig) -> MCReport:
    return run_monte_carlo(
        config.law,
        config.reps,
        config.n,
        config.seed,
        misspec=config.misspec,
        estimators=config.estimators,
        arms=config.arms,
        level=config.level,
        restriction=config.restriction,
        restriction_threshold=config.restriction_threshold,
        ridge=config.ridge,
        truth_draws=config.truth_draws,
    )


def write_report(report: dict, path: str) -> None:
    """Schema-check then write; a schema mismatch is a bug, not user error."""
    validate_report(report)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _fmt(value, digits: int = 4) -> str:
    if value is None:
        return "n/a"
    return f"{value:.{digits}f}"


def render_analysis_summary(report: dict) -> str:
    """Human-readable companion to the JSON report."""
    meta = report["metadata"]
    cfg = meta["config"]
    lines: list[str] = []
    lines.append(f"trialbench {meta['version']} analysis of {cfg['input']}")
    lines.append(f"generated {meta['created_utc']}")
    lines.append("")

    shape = next(
        (c["message"] for c in report["validation"]["checks"] if c["name"] == "shape"),
        "",
    )
    lines.append(f"data: {shape}")
    lines.append("")

    level_pct = f"{100 * cfg['level']:g}%"
    lines.append(f"potential-outcome means in the emulation population ({level_pct} CI)")
    for name, arms in report["estimates"].items():
        for arm, entry in sorted(arms.items()):
            sw = entry["sandwich"]
            line = (
                f"  {name}({arm}) = {_fmt(entry['value'])}"
                f"  se {_fmt(sw['std_error'])}"
                f"  [{_fmt(sw['lower'])}, {_fmt(sw['upper'])}]"
            )
            if entry.get("bootstrap"):
                bs = entry["bootstrap"]
                line += f"  bootstrap se {_fmt(bs['std_error'])}"
            lines.append(line)
    lines.append("")

    contrasts = report["contrasts"]
    if contrasts["ate"] is not None:
        lines.append("treatment effects (arm 1 minus arm 0)")
        for name, entry in contrasts["ate"].items():
            sw = entry["sandwich"]
            lines.append(
                f"  {name}: {_fmt(entry['value'])}"
                f"  se {_fmt(sw['std_error'])}"
                f"  [{_fmt(sw['lower'])}, {_fmt(sw['upper'])}]"
            )
        lines.append("")
    else:
        lines.append(f"treatment effects omitted: {contrasts['ate_omitted_reason']}")
        lines.append("")

    if contrasts["benchmarking"] is not None:
        lines.append("benchmarking delta (emulation-only minus trial-transported)")
        for arm, entry in sorted(contrasts["benchmarking"].items()):
            test = entry["test"]
            lines.append(
                f"  arm {arm}: delta = {_fmt(entry['value'])}"
                f"  se {_fmt(entry['sandwich']['std_error'])}"
                f"  z = {_fmt(test['statistic'], 3)}"
                f"  p = {_fmt(test['p_value'], 4)}"
            )
        lines.append("")
    else:
        lines.append(f"benchmarking omitted: {contrasts['benchmarking_omitted_reason']}")
        lines.append("")

    diag = report["diagnostics"]
    if diag["restriction"] is not None:
        lines.append("observed-data restriction (study adds no mean shift given covariates)")
        for entry in diag["restriction"]:
            test = entry["test"]
            lines.append(
                f"  arm {entry['arm']}: chi2({test['df']}) = {_fmt(test['statistic'], 3)}"
                f"  p = {_fmt(test['p_value'], 4)}  -> {entry['status']}"
            )
        lines.append("")
    if diag["overlap"] is not None:
        ov = diag["overlap"]
        flagged = ", ".join(
            f"{k} {v['count_above']}" for k, v in ov["weights"].items() if v["count_above"] > 0
        )
        lines.append(
            f"overlap: max weight {_fmt(ov['max_weight'], 2)}"
            + (
                f"; rows above threshold {ov['weight_threshold']:g}: {flagged}"
                if flagged
                else f"; no weights above threshold {ov['weight_threshold']:g}"
            )
        )
        lines.append("")

    lines.append("interpretation")
    lines.append(f"  {report['interpretation']['narrative']}")
    lines.append("")

    if report["warnings"]:
        lines.append("warnings")
        for w in report["warnings"]:
            lines.append(f"  - {w}")
        lines.append("")

    return "\n".join(lines)


def render_validation_summary(report: dict) -> str:
    validation = report["validation"]
    lines = [
        f"trialbench {report['metadata']['version']} validation of "
        f"{report['metadata']['config']['input']}"
    ]
    for check in validation["checks"]:
        lines.append(f"  [{check['status']}] {check['name']}: {check['message']}")
    lines.append("")
    lines.append("dataset is usable" if validation["ok"] else "dataset failed validation")
    lines.append("")
    return "\n".join(lines)


def render_simulation_summary(report: dict) -> str:
    result = report["result"]
    truths = result["truths"]
    lines: list[str] = []
    n_trial, n_emulation = result["n"]
    lines.append(
        f"trialbench {report['metadata']['version']} simulation: {result['reps']} "
        f"replicates, n = {n_trial} trial, {n_emulation} emulation, seed {result['seed']}"
    )
    lines.append(f"generated {report['metadata']['created_utc']}")
    lines.append(
        f"truths ({truths['method']}): mean1 = {_fmt(truths['mean1'])}, "
        f"mean0 = {_fmt(truths['mean0'])}, effect = {_fmt(truths['ate'])}"
    )
    lines.append(
        "conditions: exchangeability "
        + ("holds" if truths["condition_exchangeability"] else "violated")
        + ", transport "
        + ("holds" if truths["condition_transport"] else "violated")
        + ", restriction "
        + ("holds" if truths["restriction_holds"] else "fails")
    )
    if result["misspec"]:
        models = ", ".join(
            f"{name} ({', '.join(cols) or 'no covariate dropped'})"
            for name, cols in result["misspec"].items()
        )
        lines.append(f"misspecified models: {models}")
    lines.append("")
    lines.append("  estimator  arm      bias        sd   mean se  coverage")
    for s in result["series"]:
        lines.append(
            f"  {s['estimator']:>9}  {s['arm']:>3}"
            f"  {s['bias']:>9.5f}  {s['empirical_sd']:>8.5f}"
            f"  {s['mean_std_error']:>8.5f}  {s['coverage']:>8.3f}"
        )
    lines.append("")
    for arm, rate in sorted(result["delta_rejection"].items()):
        lines.append(f"benchmarking delta rejection rate, arm {arm}: {_fmt(rate, 3)}")
    if result["restriction_rejection"] is not None:
        for arm, rate in sorted(result["restriction_rejection"].items()):
            lines.append(f"restriction rejection rate, arm {arm}: {_fmt(rate, 3)}")
    if result["failures"]:
        lines.append(f"replicates dropped for fit failures: {result['failures']}")
    lines.append("")
    return "\n".join(lines)
