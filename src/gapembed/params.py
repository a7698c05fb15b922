"""Multi-level parameter calculus for the renormalization hierarchy.

One hierarchy level carries a rank floor R and derived scales T = lam^R,
Delta = T^delta, Gamma = T^gamma, Phi = T^phi, Psi = (Gamma*Phi)^(1/2) and a
trap probability bound w = T^(-omega), where lam = 2^(1/2).  Since these
quantities overflow floats for modest base sizes, each one is stored as its
exact base-lam logarithm (a Fraction); floats are produced only for reports.

Level stepping multiplies R by tau and updates the slope and cleanness
bounds additively:

    sigma' = sigma + Lambda * slb^-3 * Delta/Gamma
    q'     = q + Delta' / T

Lambda has no canonical value; it is fixed at 10 (`LAMBDA`).  The float
factor Lambda * slb^-3 = Lambda * (2m)^3 of every step caps m at about 1.3e102.

`level_table` makes one level at a time: the `params` subcommand opens --out
and --report first, then writes each CSV row as its level is made, holding
about one level.  Stepping facts are computed only on request
(`LevelParams.stepping_violations`).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import Iterator, Optional

from .errors import InputBoundsError

#: Lambda in the slope step sigma' = sigma + Lambda * slb^-3 * Delta/Gamma
LAMBDA = Fraction(10)

# Exact-comparison guard: beyond this many bits, fall back to float logs
# (the margin at that magnitude dwarfs float error).
_EXACT_CMP_BIT_LIMIT = 4_000_000


def lam_pow(exponent: Fraction) -> float:
    """lam^exponent as a float; overflow gives inf, underflow gives 0.0."""
    try:
        return 2.0 ** (float(exponent) / 2)
    except OverflowError:
        return math.inf if exponent > 0 else 0.0


def report_float(x: Fraction) -> float:
    """x as a float for reports; a value past the float range gives +-inf."""
    if abs(x) <= sys.float_info.max:
        return float(x)
    return math.inf if x > 0 else -math.inf


def cmp_lam_pow(exponent: Fraction, value: Fraction) -> int:
    """Sign of lam^exponent - value, exact whenever the comparison is close.

    Far-apart comparisons use float logs; near-ties fall back to the exact
    integer comparison 2^p vs value^(2q) for exponent = p/q.
    """
    if value <= 0:
        return 1
    log2_val = math.log2(value.numerator) - math.log2(value.denominator)
    try:
        diff = float(exponent) / 2 - log2_val
    except OverflowError:  # |exponent| beyond any float: its sign decides
        return 1 if exponent > 0 else -1
    if abs(diff) > 1e-9:
        return 1 if diff > 0 else -1
    p, q = exponent.numerator, exponent.denominator
    est_bits = abs(p) + 2 * q * (
        value.numerator.bit_length() + value.denominator.bit_length()
    )
    if est_bits > _EXACT_CMP_BIT_LIMIT:
        return 1 if diff > 0 else -1
    lhs = Fraction(2) ** p
    rhs = value ** (2 * q)
    return (lhs > rhs) - (lhs < rhs)


@dataclass(frozen=True)
class ExponentTuple:
    """The seven tunable exponents of the hierarchy.

    lam = 2^(1/2) and the polynomial degree c1 = 2 are fixed.  All fields are
    exact rationals, each read as `Fraction(str(value))`: an int, a Fraction,
    a string such as "7/4" or "0.15", or a float through its shortest decimal
    text.  Any other value (a bool, None, "1/0") raises ValueError or
    ZeroDivisionError, and a value <= 0 raises InputBoundsError.
    """

    delta: Fraction
    gamma: Fraction
    phi: Fraction
    tau: Fraction
    tau_prime: Fraction
    omega: Fraction
    chi: Fraction

    def __post_init__(self):
        for field in fields(self):
            val = Fraction(str(getattr(self, field.name)))
            if val <= 0:
                raise InputBoundsError(f"exponent {field.name} must be positive")
            object.__setattr__(self, field.name, val)

    @property
    def tau_bar(self) -> Optional[Fraction]:
        """2*tau / (tau - 1); undefined at tau = 1."""
        if self.tau == 1:
            return None
        return 2 * self.tau / (self.tau - 1)


#: The feasible tuple used throughout reports and tests.
DEFAULT_EXPONENTS = ExponentTuple(
    delta=Fraction(3, 20),
    gamma=Fraction(9, 50),
    phi=Fraction(6, 25),
    tau=Fraction(7, 4),
    tau_prime=Fraction(5, 2),
    omega=Fraction(9, 2),
    chi=Fraction(3, 200),
)


@dataclass(frozen=True)
class ConstraintCheck:
    """Outcome of one named feasibility constraint.

    Each side is an exact value, a list of them, or None; the JSON report
    gives them as floats, and a value past the float range as the string
    "inf" or "-inf", the CSV's spelling, so the report stays strict JSON.
    """

    name: str
    lhs: object
    rhs: object
    ok: bool

    def to_json(self) -> dict:
        def value(x):
            f = report_float(x)
            return f if math.isfinite(f) else str(f)

        def side(v):
            if isinstance(v, list):
                return [value(x) for x in v]
            return None if v is None else value(v)

        return {
            "constraint": self.name, "lhs": side(self.lhs), "rhs": side(self.rhs), "ok": self.ok
        }


@dataclass(frozen=True)
class ExponentReport:
    checks: tuple[ConstraintCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def violations(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.checks if not c.ok)

    def to_json(self) -> list[dict]:
        return [c.to_json() for c in self.checks]


CONSTRAINT_NAMES = (
    "tau-range",
    "tau-prime-range",
    "exponent-order",
    "tau-phi-cap",
    "phi-below-tau-delta",
    "gamma-spacing",
    "omega-trap-floor",
    "omega-correlated-floor",
    "omega-emerging-floor",
    "tau-prime-floor",
    "chi-gap-cap",
    "chi-delta-cap",
    "chi-omega-cap",
)


def verify_exponents(e: ExponentTuple) -> ExponentReport:
    """Check the thirteen feasibility constraints by exact rational arithmetic.

    Chain constraints record their member values; simple inequalities record
    both sides.  Failure is a value, never an exception.
    """
    d, g, f = e.delta, e.gamma, e.phi
    t, tp, w, x = e.tau, e.tau_prime, e.omega, e.chi
    tb = e.tau_bar
    checks = [
        ConstraintCheck("tau-range", t, [1, 2], 1 < t < 2),
        ConstraintCheck("tau-prime-range", tp, [t, t * t], t < tp < t * t),
        ConstraintCheck("exponent-order", [d, g, f], [0, 1], 0 < d < g < f < 1),
        ConstraintCheck("tau-phi-cap", t, 2 - f, t <= 2 - f),
        ConstraintCheck("phi-below-tau-delta", f, t * d, f < t * d),
        ConstraintCheck("gamma-spacing", 2 * (g - d), f - g, 2 * (g - d) == f - g),
        ConstraintCheck("omega-trap-floor", 2 * g - t * d + 1, w, 2 * g - t * d + 1 < w),
        ConstraintCheck(
            "omega-correlated-floor", 4 * (g + d), w * (4 - t), 4 * (g + d) < w * (4 - t)
        ),
        ConstraintCheck(
            "omega-emerging-floor", 4 * g + 6 * d + tp, 2 * w, 4 * g + 6 * d + tp < 2 * w
        ),
        ConstraintCheck("tau-prime-floor", t * (d + 1), tp, t * (d + 1) < tp),
        ConstraintCheck("chi-gap-cap", t * x, g - d, t * x < g - d),
        ConstraintCheck(
            "chi-delta-cap",
            None if tb is None else tb * x,
            1 - t * d,
            tb is not None and tb * x < 1 - t * d,
        ),
        ConstraintCheck(
            "chi-omega-cap",
            None if tb is None else tb * x,
            w - 2 * t * d,
            tb is not None and tb * x < w - 2 * t * d,
        ),
    ]
    return ExponentReport(tuple(checks))


@dataclass(frozen=True)
class LevelParams:
    """The full parameter vector of one hierarchy level.

    Pure powers of lam (T, Delta, Gamma, Phi, Psi, w) are exposed as floats
    but held exactly by the log_* Fraction properties; the slope bounds
    sigma_x, sigma_y and cleanness bounds q_tri, q_inv evolve additively and
    are plain floats.  w_log is None at the base level, where w = 0 exactly.
    """

    level: int
    R: Fraction
    exponents: ExponentTuple
    slb: Fraction
    sigma_x: float
    sigma_y: float
    q_tri: float
    q_inv: float
    w_log: Optional[Fraction]

    # Exact base-lam logarithms of the derived scales; that of T is R.
    @property
    def log_Delta(self) -> Fraction:
        return self.exponents.delta * self.R

    @property
    def log_Gamma(self) -> Fraction:
        return self.exponents.gamma * self.R

    @property
    def log_Phi(self) -> Fraction:
        return self.exponents.phi * self.R

    @property
    def log_Psi(self) -> Fraction:
        return (self.exponents.gamma + self.exponents.phi) * self.R / 2

    @property
    def T(self) -> float:
        return lam_pow(self.R)

    @property
    def Delta(self) -> float:
        return lam_pow(self.log_Delta)

    @property
    def Gamma(self) -> float:
        return lam_pow(self.log_Gamma)

    @property
    def Phi(self) -> float:
        return lam_pow(self.log_Phi)

    @property
    def Psi(self) -> float:
        return lam_pow(self.log_Psi)

    @property
    def w(self) -> float:
        return 0.0 if self.w_log is None else lam_pow(self.w_log)

    def stepping_violations(self) -> list[str]:
        """Names of the stepping facts that fail at this level: "delta-ratio"
        (Delta_k / Delta_{k+1} = lam^(delta*R*(1 - tau)) < slb^2/2, compared
        exactly in exponent space), then the slope and cleanness bounds."""
        bad = []
        if cmp_lam_pow(self.log_Delta * (1 - self.exponents.tau), self.slb**2 / 2) >= 0:
            bad.append("delta-ratio")
        if not 1 / (2 * self.R) <= Fraction(self.sigma_x) / 2:
            bad.append("sigma_x-floor")
        if not Fraction(self.sigma_x) / 2 <= self.slb <= Fraction(self.sigma_x):
            bad.append("slb-between")
        if not self.sigma_y >= 2:
            bad.append("sigma_y-floor")
        if not Fraction(self.sigma_x) * Fraction(self.sigma_y) < 1 - self.slb:
            bad.append("slope-product")
        if not self.q_tri < 0.05:
            bad.append("q-tri-cap")
        if not self.q_inv < 0.55:
            bad.append("q-inv-cap")
        return bad


def base_params(m: int, exponents: ExponentTuple = DEFAULT_EXPONENTS) -> LevelParams:
    """Level-1 parameters for gap bound m: slb = sigma_x = 1/2m, sigma_y = m,
    R1 = 2m, q_tri = 0, q_inv = 0.5, w = 0."""
    if m < 2:
        raise InputBoundsError("base level needs m >= 2 (sigma_y >= 2)")
    if LAMBDA * (2 * m) ** 3 > sys.float_info.max:
        raise InputBoundsError("base level needs m <= about 1.3e102 (Lambda * (2m)^3 a float)")
    return LevelParams(
        level=1,
        R=Fraction(2 * m),
        exponents=exponents,
        slb=Fraction(1, 2 * m),
        sigma_x=1.0 / (2 * m),
        sigma_y=float(m),
        q_tri=0.0,
        q_inv=0.5,
        w_log=None,
    )


def _step(params: LevelParams) -> LevelParams:
    e = params.exponents
    R_next = params.R * e.tau
    # sigma' = sigma + Lambda * slb^-3 * Delta/Gamma, same additive term both axes.
    bump = float(LAMBDA / params.slb**3) * lam_pow(
        (e.delta - e.gamma) * params.R
    )
    # q' = q + Delta'/T = q + lam^(R*(delta*tau - 1))
    q_bump = lam_pow((e.delta * e.tau - 1) * params.R)
    return replace(
        params,
        level=params.level + 1,
        R=R_next,
        sigma_x=params.sigma_x + bump,
        sigma_y=params.sigma_y + bump,
        q_tri=params.q_tri + q_bump,
        q_inv=params.q_inv + q_bump,
        w_log=-e.omega * R_next,
    )


def level_table(base: LevelParams, k_max: int) -> Iterator[LevelParams]:
    """The k_max levels from `base` on, made one at a time: `base`, then one
    step per level (levels 1..k_max from a level-1 base).  `base.exponents`
    must pass `verify_exponents`; an infeasible tuple raises here, at the
    call, not at the first level."""
    report = verify_exponents(base.exponents)
    if not report.passed:
        raise InputBoundsError(
            "exponent tuple infeasible: " + ", ".join(report.violations)
        )
    return _levels(base, k_max)


def _levels(params: LevelParams, k_max: int) -> Iterator[LevelParams]:
    for k in range(k_max):
        if k:
            params = _step(params)
        yield params
