"""Synthetic two-group survival data under the proportional-risk (EU) and
proportional-hazards (Weibull) generating models, with censoring-rate
calibration.

Per participant: group ~ Bernoulli(1/2) by inverse transform, event time T
from the group's model CDF by inverse transform, censoring time
C ~ Uniform(0, c_max); observed time is min(T, C) and status is 1 iff
T <= C. One c_max per scenario, calibrated so that P(C < T) hits the target
rate with T drawn from the equal-probability mixture of the two groups.

Randomness: replicate r of a scenario draws random((3, n)) from
SeedSequence(scenario.seed, spawn_key=(r, 0)); replicates are reproducible
independently of execution order and of the batch simulate_replicates
transforms them in (simulate_dataset is a batch of one).

default_grid() builds the study's 90 cells at call time from EFFECTS,
CENSOR_RATES, SAMPLE_SIZES and the parameter constants below. Grid files
for load_grid hold scenarios as JSON objects, field for field; the README
lists the fields.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from enum import Enum
from typing import Union

import numpy as np

from .errors import ValidationError
from .models import (
    EuParams,
    WeibullPhParams,
    _brentq,
    eu_quantile,
    weibull_ph_quantile,
)
from .survival import Dataset


class Model(str, Enum):
    PPR_EU = "ppr_eu"
    WEIBULL_PH = "weibull_ph"


ModelParams = Union[EuParams, WeibullPhParams]

# Parameter grid of the two generating models: shared shape, control-group
# scale, and the treatment scale for each nominal effect beta (rr = exp(-beta)).
EFFECTS = (0.0, 0.5, 0.25, -0.25, -0.5)
CENSOR_RATES = (0.30, 0.50, 0.70)
SAMPLE_SIZES = (500, 100, 50)

EU_ALPHA = 0.859
EU_THETA0 = 0.009
EU_THETA1 = {0.0: 0.009, 0.5: 0.005, 0.25: 0.007, -0.25: 0.012, -0.5: 0.016}

WEIBULL_K = 0.916
WEIBULL_LAMBDA0 = 88.296
WEIBULL_LAMBDA1 = {0.0: 88.296, 0.5: 145.575, 0.25: 113.374, -0.25: 68.765, -0.5: 53.554}


def standard_params(model: Model, effect_beta: float) -> ModelParams:
    """Bundled generating-model parameters for one nominal effect of EFFECTS."""
    if effect_beta not in EFFECTS:
        raise ValueError(f"no bundled parameters for effect_beta {effect_beta}; "
                         f"pass params, or use one of EFFECTS {EFFECTS}")
    if model is Model.PPR_EU:
        return EuParams(EU_ALPHA, EU_THETA1[effect_beta], EU_THETA0)
    return WeibullPhParams(WEIBULL_K, WEIBULL_LAMBDA1[effect_beta], WEIBULL_LAMBDA0)


@dataclass(frozen=True)
class Scenario:
    """One cell of the simulation grid."""

    model: Model
    effect_beta: float
    params: ModelParams
    censor_rate: float
    n_participants: int
    censor_cmax: float
    seed: int = 0


def _check_params(params: ModelParams) -> None:
    for name, value in asdict(params).items():
        if not 0.0 < value < math.inf:
            raise ValueError(f"model parameter {name} must be positive and finite, got {value}")


def _gammainc(a: float, x: float) -> float:
    """Regularised lower incomplete gamma P(a, x) for a > 0, x >= 0: the
    series for x < a + 1, else the continued fraction of Q = 1 - P by
    Lentz's method (Numerical Recipes, 2nd ed., section 6.2)."""
    if x <= 0.0:
        return 0.0
    eps, tiny = 2.0**-52, 1e-300
    log_pre = a * math.log(x) - x - math.lgamma(a)
    if x < a + 1.0:
        term = total = 1.0 / a
        for n in range(1, 10_000):
            term *= x / (a + n)
            total += term
            if abs(term) < abs(total) * eps:
                break
        return total * math.exp(log_pre)
    if not log_pre > -745.0:  # Q underflows (or x is infinite): P is 1
        return 1.0
    b = x + 1.0 - a
    c, d = 1.0 / tiny, 1.0 / b
    h = d
    for i in range(1, 10_000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) >= tiny else tiny)
        c = b + an / c
        c = c if abs(c) >= tiny else tiny
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            break
    return 1.0 - math.exp(log_pre) * h


def _survival_integral(model: Model, params: ModelParams, group: int, c: float) -> float:
    """Integral of one group's survival function S_g over [0, c]."""
    if model is Model.PPR_EU:
        alpha, theta = params.alpha, params.theta(group)
        end = 1.0 / theta
        if c >= end:
            return end * alpha / (alpha + 1.0)
        return c - (theta * c) ** alpha * c / (alpha + 1.0)
    a, lam = 1.0 / params.k, params.scale(group)
    return lam / params.k * math.gamma(a) * _gammainc(a, (c / lam) ** params.k)


def censoring_probability(model: Model, params: ModelParams, c_max: float) -> float:
    """P(C < T) for C ~ Uniform(0, c_max), T from the 50/50 group mixture.

    Equals (1/c) * integral_0^c S_mix(u) du, in closed form: for EU,
    c - (theta*c)^alpha * c/(alpha+1) up to the support end 1/theta and
    alpha/(theta*(alpha+1)) beyond it; for Weibull,
    (lambda/k) * Gamma(1/k) * P(1/k, (c/lambda)^k).
    """
    total = _survival_integral(model, params, 1, c_max) + _survival_integral(model, params, 0, c_max)
    return 0.5 * total / c_max


def calibrate_censoring(model: Model, params: ModelParams, target_rate: float) -> float:
    """Uniform upper bound c_max achieving the target censoring rate.

    P(C < T) decreases monotonically from 1 (c_max -> 0) to 0, so the root
    is bracketed by doubling and solved by Brent's method; the achieved
    probability matches the target far inside the 1e-4 tolerance. Raises
    ValueError for a target outside (0, 1), a non-positive parameter, or a
    target that no c_max in [1e-8, 1e12] reaches.
    """
    if not 0.0 < target_rate < 1.0:
        raise ValueError("target_rate must be in (0, 1)")
    _check_params(params)
    excess = lambda c: censoring_probability(model, params, c) - target_rate
    hi = 1.0
    while (f_hi := excess(hi)) > 0.0:
        hi *= 2.0
        if hi > 1e12:
            raise ValueError("censoring target unreachable")
    if (f_lo := excess(1e-8)) < 0.0:
        raise ValueError("censoring target unreachable")
    # one lane: the bracket [1e-8, hi] and the values at its ends
    ends = np.array([[1e-8], [hi], [f_lo], [f_hi]])
    c_max = _brentq(lambda c, lanes: np.array([excess(float(c[0]))]), *ends, xtol=1e-9, rtol=1e-12)
    return float(c_max[0])


def make_scenario(
    model: Model,
    effect_beta: float,
    censor_rate: float,
    n_participants: int,
    seed: int = 0,
    censor_cmax: float | None = None,
    params: ModelParams | None = None,
) -> Scenario:
    """Scenario from the bundled parameter grid, calibrating c_max on demand.

    ValueError for an n_participants that is not a whole number from 1 to
    below 2**32 (a bootstrap resample's row indices are below 2**32), a
    censor_rate outside (0, 1), a non-finite effect_beta, an effect_beta
    outside EFFECTS without ``params``, or a model parameter or censor_cmax
    that is not positive and finite.
    """
    model = Model(model)
    n = float(n_participants)
    if not n.is_integer():
        raise ValueError(f"n_participants must be a whole number, got {n_participants}")
    if not 1 <= n < 2**32:
        raise ValueError(f"n_participants must be at least 1 and below 2**32, got {n_participants}")
    effect_beta, censor_rate = float(effect_beta), float(censor_rate)
    if not math.isfinite(effect_beta):
        raise ValueError(f"effect_beta must be finite, got {effect_beta}")
    if not 0.0 < censor_rate < 1.0:
        raise ValueError(f"censor_rate must be in (0, 1), got {censor_rate}")
    if params is None:
        params = standard_params(model, effect_beta)
    _check_params(params)
    if censor_cmax is None:
        censor_cmax = calibrate_censoring(model, params, censor_rate)
    elif not 0.0 < censor_cmax < math.inf:
        raise ValueError(f"censor_cmax must be positive and finite, got {censor_cmax}")
    return Scenario(
        model=model,
        effect_beta=effect_beta,
        params=params,
        censor_rate=censor_rate,
        n_participants=int(n),
        censor_cmax=censor_cmax,
        seed=seed,
    )


def simulate_replicates(scenario: Scenario, reps) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Replicates ``reps`` as (time, status, group), each (len(reps), n)."""
    u = np.empty((len(reps), 3, scenario.n_participants))
    for i, rep in enumerate(reps):
        np.random.default_rng(np.random.SeedSequence(scenario.seed, spawn_key=(rep, 0))).random(out=u[i])
    group = (u[:, 0] > 0.5).astype(np.int64)  # inverse transform of Bernoulli(1/2)

    quantile = eu_quantile if scenario.model is Model.PPR_EU else weibull_ph_quantile
    t_event = np.empty(group.shape)
    for g in (0, 1):
        mask = group == g
        if np.any(mask):
            # a boolean-mask copy, not a strided view: the same loop and bits as one replicate
            t_event[mask] = quantile(scenario.params, g, u[:, 1][mask])

    t_censor = scenario.censor_cmax * u[:, 2]
    status = (t_event <= t_censor).astype(np.int64)
    return np.minimum(t_event, t_censor), status, group


def simulate_dataset(scenario: Scenario, replicate_seed: int) -> Dataset:
    """One simulated study; deterministic given (scenario.seed, replicate_seed)."""
    return Dataset.from_columns(*(col[0] for col in simulate_replicates(scenario, [replicate_seed])))


# ---------------------------------------------------------------------------
# Scenario deserialization: the JSON grid format mirrors Scenario 1:1.
# ---------------------------------------------------------------------------

def scenario_from_dict(obj: dict) -> Scenario:
    """Scenario from its JSON object; ValueError where :func:`make_scenario`
    rejects its fields."""
    model = Model(obj["model"])
    p = obj["params"]
    if model is Model.PPR_EU:
        params: ModelParams = EuParams(p["alpha"], p["theta1"], p["theta0"])
    else:
        params = WeibullPhParams(p["k"], p["lambda1"], p["lambda0"])
    return make_scenario(
        model=model,
        effect_beta=obj["effect_beta"],
        censor_rate=obj["censor_rate"],
        n_participants=obj["n_participants"],
        seed=int(obj.get("seed", 0)),
        censor_cmax=obj.get("censor_cmax"),
        params=params,
    )


def load_grid(path) -> list[Scenario]:
    """Scenario list from a JSON grid file (a list of scenario objects, or
    one object). A file that cannot be read or does not describe valid
    scenarios raises ValidationError naming the file."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
        scenarios = [scenario_from_dict(obj) for obj in ([raw] if isinstance(raw, dict) else raw)]
    except KeyError as exc:
        raise ValidationError(f"{path}: missing field {exc}") from exc
    except (OSError, OverflowError, TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    return scenarios


def reseed(scenarios: list[Scenario], base_seed: int) -> list[Scenario]:
    """Derive a distinct per-scenario seed from one base seed."""
    out = []
    for i, s in enumerate(scenarios):
        derived = int(np.random.SeedSequence(base_seed, spawn_key=(i,)).generate_state(1)[0])
        out.append(replace(s, seed=derived))
    return out


def default_grid() -> list[Scenario]:
    """The 90-cell study grid: both models x EFFECTS x CENSOR_RATES x
    SAMPLE_SIZES, in that nesting order, calibrating c_max once per
    (model, effect, rate)."""
    scenarios = []
    for model in (Model.PPR_EU, Model.WEIBULL_PH):
        for effect in EFFECTS:
            params = standard_params(model, effect)
            for rate in CENSOR_RATES:
                c_max = calibrate_censoring(model, params, rate)
                for n in SAMPLE_SIZES:
                    scenarios.append(
                        Scenario(model, effect, params, rate, n, c_max, seed=0)
                    )
    return scenarios
