"""Convergence analyzer for series with recursively defined terms.

Given a defining function f and a seed x0, the series is sum of the orbit
x0, f(x0), f(f(x0)), ... The package parses f from a small expression
language, iterates orbits at extended precision, and classifies the series
as convergent, divergent, or inconclusive via explicit rules with numeric
witnesses.
"""

from .classify import (
    ABSOLUTE_BOUND_RULE,
    ALTERNATING_RULE,
    ANALYTIC_RULE,
    AnalysisError,
    AnalysisReport,
    AnalyticRuleError,
    CONVERGENT,
    DERIVATIVE_RULE,
    DIVERGENT,
    DerivativeEstimate,
    ExponentSearchResult,
    INCONCLUSIVE,
    LIMIT_EXPONENT_RULE,
    LimitProbe,
    MAJORANT_RULE,
    MINORANT_RULE,
    MajorantSpec,
    PrecisionGuardError,
    Verdict,
    analytic_rule,
    analyze,
    check_monotone,
    derivative_rule,
    estimate_derivative_at_zero,
    limit_exponent_rule,
    majorant_rule,
    probe_limit,
    search_exponent,
    signed_rule,
)
from .estimate import (
    AsymptoticFit,
    SumEstimate,
    fit_power_law,
    sum_estimate,
)
from .expr import (
    DEFAULT_PRECISION,
    EvalDomainError,
    ExprError,
    ExprSyntaxError,
    FunctionDef,
    MIN_PRECISION,
    context,
    evaluator,
    parse,
    parse_constant,
    render,
    taylor_polynomial,
)
from .grids import GridSpec, PROBE_GRID, Samples, seed_grid
from .orbit import (
    CsvRows,
    HypothesisReport,
    Mode,
    Orbit,
    OrbitStatus,
    iterate,
    validate_hypotheses,
    validated_region,
    write_csv,
)

__version__ = "0.1.0"
