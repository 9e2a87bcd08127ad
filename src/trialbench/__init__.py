"""Benchmark an observational trial emulation against its index trial.

The package estimates potential-outcome means in the emulation population
three ways: from the emulation alone (``estimate_phi``), by transporting
the randomized trial (``estimate_chi``), and from the pooled sample
(``estimate_psi``). Their difference is the benchmarking contrast; the
diagnostics module tests the observable restriction behind it; the
simulation module measures everything against scenarios with known truth.
"""

# The one source of the version: pyproject.toml reads it from here, and every
# report's metadata records it.
__version__ = "0.1.0"

from .data import (
    ColumnSchema,
    Dataset,
    ValidationReport,
    load_dataset,
    save_dataset,
    validate,
)
from .diagnostics import OverlapReport, RestrictionResult, overlap_summary, restriction_test
from .errors import (
    ConfigError,
    DataError,
    DegenerateFitError,
    DegenerateTestError,
    DomainError,
    FitError,
    IncompatibleEstimatesError,
    ParseError,
    PositivityError,
    ReportSchemaError,
    SchemaError,
    SeparationError,
    SingularDesignError,
    TrialbenchError,
    ValidationFailure,
    WorkerError,
)
from .estimators import (
    ESTIMATOR_NAMES,
    AnalysisPlan,
    EstimateWithIF,
    contrast,
    estimate_chi,
    estimate_phi,
    estimate_psi,
    run_plan,
    run_plan_with,
)
from .inference import (
    BootstrapResult,
    Interval,
    TestResult,
    bootstrap,
    sandwich_ci,
    sandwich_se,
    wald_test,
)
from .nuisance import MODEL_NAMES, NuisanceSet, fit_nuisances
from .scenarios import PRESETS, d1, normalize_row, preset, truth_table
from .simulation import (
    ConfoundingViolation,
    CovariateLaw,
    MCReport,
    ScenarioConfig,
    TransportViolation,
    Truths,
    generate,
    run_monte_carlo,
    true_values,
)

__all__ = [
    "AnalysisPlan",
    "BootstrapResult",
    "ColumnSchema",
    "ConfigError",
    "ConfoundingViolation",
    "CovariateLaw",
    "DataError",
    "Dataset",
    "DegenerateFitError",
    "DegenerateTestError",
    "DomainError",
    "ESTIMATOR_NAMES",
    "EstimateWithIF",
    "FitError",
    "IncompatibleEstimatesError",
    "Interval",
    "MCReport",
    "MODEL_NAMES",
    "NuisanceSet",
    "OverlapReport",
    "PRESETS",
    "ParseError",
    "PositivityError",
    "ReportSchemaError",
    "RestrictionResult",
    "ScenarioConfig",
    "SchemaError",
    "SeparationError",
    "SingularDesignError",
    "TestResult",
    "TransportViolation",
    "TrialbenchError",
    "Truths",
    "ValidationFailure",
    "ValidationReport",
    "WorkerError",
    "bootstrap",
    "contrast",
    "d1",
    "estimate_chi",
    "estimate_phi",
    "estimate_psi",
    "fit_nuisances",
    "generate",
    "load_dataset",
    "normalize_row",
    "overlap_summary",
    "preset",
    "restriction_test",
    "run_monte_carlo",
    "run_plan",
    "run_plan_with",
    "sandwich_ci",
    "sandwich_se",
    "save_dataset",
    "true_values",
    "truth_table",
    "validate",
    "wald_test",
]
