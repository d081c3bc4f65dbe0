"""Relative-risk estimation for two-group right-censored time-to-event
data under the proportional-risk assumption, with a parametric competitor
and a Monte-Carlo evaluation harness."""

from .bootstrap import (
    BootstrapConfig,
    BootstrapResult,
    empirical_quantile,
    percentile_bootstrap,
)
from .errors import EstimationError, ValidationError
from .models import (
    CoxFit,
    EuParams,
    PprFit,
    WeibullPhParams,
    cox_two_group,
    eu_cdf,
    eu_log_likelihood,
    eu_quantile,
    fit_ppr,
    fit_ppr_batch,
    weibull_ph_cdf,
    weibull_ph_quantile,
)
from .nppr import (
    NpprEstimate,
    NpprResult,
    PointwiseSet,
    RiskDifferenceCurve,
    build_event_time_set,
    nppr_fit,
    nppr_point_estimate,
    pointwise_log_rr,
    risk_difference_curve,
)
from .reporting import (
    build_report,
    emit_report,
    read_dataset_csv,
    report_to_json,
    write_dataset_csv,
)
from .simulate import (
    Model,
    Scenario,
    calibrate_censoring,
    censoring_probability,
    default_grid,
    load_grid,
    make_scenario,
    simulate_dataset,
    standard_params,
)
from .study import ScenarioResult, run_scenario, summarize_grid
from .survival import (
    ConfidenceInterval,
    Dataset,
    kaplan_meier,
    validate_dataset,
)

__version__ = "0.1.0"
