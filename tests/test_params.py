import math
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapembed import (
    DEFAULT_EXPONENTS,
    ExponentTuple,
    base_params,
    level_table,
    verify_exponents,
)
from gapembed.errors import InputBoundsError
from gapembed.params import cmp_lam_pow, lam_pow

STEPPING_FACTS = ("delta-ratio", "sigma_x-floor", "slb-between", "sigma_y-floor",
                  "slope-product", "q-tri-cap", "q-inv-cap")


def test_default_tuple_passes_all_constraints():
    report = verify_exponents(DEFAULT_EXPONENTS)
    assert report.passed
    assert len(report.checks) == 13
    assert DEFAULT_EXPONENTS.tau_bar == F(14, 3)


def test_tau_two_names_tau_range():
    report = verify_exponents(replace(DEFAULT_EXPONENTS, tau=F(2)))
    assert "tau-range" in report.violations


def test_gamma_perturbation_names_spacing():
    report = verify_exponents(replace(DEFAULT_EXPONENTS, gamma=F("0.19")))
    assert report.violations == ("gamma-spacing",)


def test_positive_fields_required():
    with pytest.raises(InputBoundsError):
        ExponentTuple(F(0), F(1, 2), F(3, 5), F(3, 2), F(2), F(4), F(1, 100))


def test_report_json_schema():
    for entry in verify_exponents(DEFAULT_EXPONENTS).to_json():
        assert set(entry) == {"constraint", "lhs", "rhs", "ok"}
        assert isinstance(entry["ok"], bool)


# ------------------------------------------------------------- levels


def test_level_one_is_base():
    base = base_params(10)
    assert list(level_table(base, 1))[-1] == base
    assert base.R == 20 and base.slb == F(1, 20)
    assert base.sigma_x == 0.05 and base.sigma_y == 10.0
    assert base.q_tri == 0.0 and base.q_inv == 0.5 and base.w == 0.0
    # level 1 fails only the delta ratio: no slope or cleanness bound
    assert base.stepping_violations() == ["delta-ratio"]


def test_level_two_rank():
    p2 = list(level_table(base_params(10), 2))[-1]
    assert p2.R == F(35)
    assert p2.level == 2


def test_rank_closed_form():
    base = base_params(6)
    for k in range(1, 9):
        pk = list(level_table(base, k))[-1]
        assert pk.R == F(12) * F(7, 4) ** (k - 1)


def test_exponent_space_identities():
    # gamma-spacing makes Delta/Gamma == (Gamma/Phi)^(1/2) exact in exponents.
    p = list(level_table(base_params(8), 5))[-1]
    lhs = p.log_Delta - p.log_Gamma
    rhs = (p.log_Gamma - p.log_Phi) / 2
    assert lhs == rhs
    assert p.log_Psi == (p.log_Gamma + p.log_Phi) / 2
    assert p.w_log == -DEFAULT_EXPONENTS.omega * p.R


def test_base_params_bounds_m_by_the_float_range():
    # Lambda * slb^-3 = Lambda * (2m)^3, a float factor of every step, stays finite.
    assert len(list(level_table(base_params(10**102), 3))) == 3
    with pytest.raises(InputBoundsError, match="1.3e102"):
        base_params(10**103)


def test_infeasible_tuple_propagates():
    bad = replace(DEFAULT_EXPONENTS, tau=F(2))
    with pytest.raises(InputBoundsError, match="tau-range"):
        level_table(base_params(4, bad), 3)


def test_level_table_and_horizon_m10():
    base = base_params(10)
    rows = list(level_table(base, 8))
    assert [p.level for p in rows] == list(range(1, 9))
    # q and sigma are nondecreasing in the level
    for p_lo, p_hi in zip(rows, rows[1:]):
        assert p_hi.q_tri >= p_lo.q_tri and p_hi.q_inv >= p_lo.q_inv
        assert p_hi.sigma_x >= p_lo.sigma_x and p_hi.sigma_y >= p_lo.sigma_y
    # at m = 10 the additive slope correction is enormous: level 2 already
    # violates the slope product
    assert "slope-product" in rows[1].stepping_violations()
    # the facts are named, each at most once, in the order they are checked
    for p in rows:
        names = p.stepping_violations()
        assert names == [n for n in STEPPING_FACTS if n in names]


def test_large_scale_exponents_stay_exact():
    # w underflows any float at deep levels; the log representation does not.
    p = list(level_table(base_params(10), 9))[-1]
    assert p.w == 0.0  # underflow in the float view
    assert p.w_log is not None and p.w_log < -4000  # exact in exponent space


# ------------------------------------------------------------- exact compare


def test_cmp_lam_pow_exact_cases():
    assert cmp_lam_pow(F(2), F(2)) == 0  # lam^2 == 2
    assert cmp_lam_pow(F(2), F(3)) == -1
    assert cmp_lam_pow(F(2), F(1)) == 1
    assert cmp_lam_pow(F(0), F(1)) == 0
    assert cmp_lam_pow(F(-2), F(1, 2)) == 0
    assert cmp_lam_pow(F(1, 2), F(2)) == -1  # 2^(1/4) < 2
    assert cmp_lam_pow(F(-10000), F(1, 10**9)) == -1  # far below any float range
    # exponents whose own float() overflows
    assert cmp_lam_pow(F(10**400), F(10**9)) == 1
    assert cmp_lam_pow(F(-(10**400)), F(1, 10**9)) == -1


@settings(max_examples=200, deadline=None)
@given(st.fractions(min_value=-60, max_value=60), st.fractions(min_value="1/1000", max_value=1000))
def test_cmp_lam_pow_matches_float(exponent, value):
    got = cmp_lam_pow(exponent, value)
    ref = 2.0 ** (float(exponent) / 2) - float(value)
    if abs(ref) > 1e-6:
        assert got == (1 if ref > 0 else -1)


def test_lam_pow_overflow_inf():
    assert lam_pow(F(10**6)) == math.inf
    assert lam_pow(F(-10**6)) == 0.0
    assert lam_pow(F(10**400)) == math.inf
    assert lam_pow(F(-(10**400))) == 0.0
