"""Relative-risk estimation for two-group right-censored time-to-event
data under the proportional-risk assumption, with a parametric competitor
and a Monte-Carlo evaluation harness.

The package exports the README's workflow: data I/O, the NPPR fit and its
bootstrap, RD/NNT, the EU and Cox fits, the report, the study entry points,
the types they return and the two errors. Everything else is imported from
its module (``proprisk.nppr``, ``proprisk.models``, ...)."""

from .bootstrap import BootstrapConfig, BootstrapResult, percentile_bootstrap
from .errors import EstimationError, ValidationError
from .models import CoxFit, PprFit, cox_two_group, fit_ppr
from .nppr import NpprResult, RiskDifferenceCurve, nppr_fit, risk_difference_curve
from .reporting import build_report, emit_report, read_dataset_csv, report_to_json
from .simulate import Model, Scenario, default_grid, make_scenario, simulate_dataset
from .study import ScenarioResult, run_scenario
from .survival import ConfidenceInterval, Dataset

__all__ = [
    # data
    "Dataset", "read_dataset_csv",
    # the NPPR fit, its bootstrap interval and RD/NNT
    "nppr_fit", "NpprResult", "BootstrapConfig", "percentile_bootstrap", "BootstrapResult",
    "ConfidenceInterval", "risk_difference_curve", "RiskDifferenceCurve",
    # the EU competitor and the Cox cross-check
    "fit_ppr", "PprFit", "cox_two_group", "CoxFit",
    # the fit report
    "build_report", "report_to_json", "emit_report",
    # the study
    "Model", "Scenario", "make_scenario", "default_grid", "simulate_dataset", "run_scenario",
    "ScenarioResult",
    # errors
    "ValidationError", "EstimationError",
]

__version__ = "0.1.0"
