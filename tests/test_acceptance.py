"""Acceptance criteria, one test per criterion, each printing a PASS line.

Tolerances are pinned here: exact equality for combinatorial criteria,
binomial z-windows for the statistical ones (criteria 7-9 use fixed seeds so
the suite is deterministic).  Runtime bounds are asserted where specified.
"""

import json
import math
import random
import time
from dataclasses import replace
from fractions import Fraction as F

import pytest

from gapembed import (
    BinarySequence,
    brute_force_reachable,
    check_embedding,
    compound_walls,
    construct_base_path,
    embeddable_prefix,
    extract_embedding,
    rect_reachable,
    verify_exponents,
    DEFAULT_EXPONENTS,
    ExponentTuple,
    Interval,
    WallValue,
)
from gapembed.cli import main
from gapembed.experiments import (
    TrialPlan,
    estimate_embed_prob,
    hole_frequency_check,
    wall_frequency_check,
)
from gapembed.params import CONSTRAINT_NAMES

from conftest import run_capped_sequence


def _report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


def _random_instances(count, max_x, max_y, max_m, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        nx = rng.randint(1, max_x)
        ny = rng.randint(1, max_y)
        m = rng.randint(1, max_m)
        X = BinarySequence(rng.getrandbits(nx), nx)
        Y = BinarySequence(rng.getrandbits(ny), ny)
        out.append((X, Y, m))
    return out


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    checked = 0
    for xb in range(2**6):
        X = BinarySequence(xb, 6)
        for yb in range(2**3):
            Y = BinarySequence(yb, 3)
            reach = brute_force_reachable(X, Y, 2, 3)
            for row in range(4):
                _, frontier = embeddable_prefix(X, Y, 2, row)
                assert set(frontier.positions()) == reach[row]
            checked += 1
    assert checked == 512
    for X, Y, m in _random_instances(500, 14, 7, 3, seed=101):
        L = len(Y)
        reach = brute_force_reachable(X, Y, m, L)
        for row in range(L + 1):
            _, frontier = embeddable_prefix(X, Y, m, row)
            assert set(frontier.positions()) == reach[row]
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    _report(1, f"DP equals DFS on 512 exhaustive + 500 random instances ({elapsed:.1f}s)")


def test_criterion_2_monotonicity():
    start = time.perf_counter()
    for X, Y, m in _random_instances(1000, 14, 7, 3, seed=202):
        L = len(Y)
        ok, _ = embeddable_prefix(X, Y, m, L)
        ok_m1, _ = embeddable_prefix(X, Y, m + 1, L)
        ok_shorter, _ = embeddable_prefix(X, Y, m, L - 1)
        if ok:
            assert ok_m1, (X, Y, m)
            assert ok_shorter, (X, Y, m)
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    _report(2, f"m- and L-monotonicity on 1000 instances, zero violations ({elapsed:.1f}s)")


def test_criterion_3_round_trip():
    feasible = 0
    pools = [
        _random_instances(500, 14, 7, 3, seed=101),
        _random_instances(1000, 14, 7, 3, seed=202),
    ]
    for X, Y, m in (inst for pool in pools for inst in pool):
        ok, _ = embeddable_prefix(X, Y, m)
        path = extract_embedding(X, Y, m)
        assert (path is not None) == ok
        if path is not None:
            assert check_embedding(X, Y, path)
            feasible += 1
    assert feasible > 0
    _report(3, f"extract/check round trip on {feasible} feasible instances")


def test_criterion_4_base_path_construction():
    start = time.perf_counter()
    rng = random.Random(404)
    built = 0
    while built < 1000:
        m = rng.randint(3, 6)
        b = rng.randint(1, 6)
        a = rng.randint(m * (b - 1) + 1, 2 * m * b)
        u0, u1 = rng.randint(0, 10), rng.randint(0, 10)
        X = run_capped_sequence(rng, u0 + a, m - 1)
        Y = None
        for _ in range(64):
            cand = run_capped_sequence(rng, u1 + b, m - 1)
            if cand.symbol(u1 + b) == X.symbol(u0 + a):
                Y = cand
                break
        if Y is None:
            continue
        u, v = (u0, u1), (u0 + a, u1 + b)
        path = construct_base_path(u, v, X, Y, m)
        prev = u
        for point in path[1:]:
            assert 1 <= point[0] - prev[0] <= 3 * m
            assert point[1] == prev[1] + 1
            assert X.symbol(point[0]) == Y.symbol(point[1])
            prev = point
        assert prev == v
        assert rect_reachable(X, Y, u, v, 3 * m)
        built += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30
    _report(4, f"1000 hop rectangles built and DP-confirmed, 100% ({elapsed:.1f}s)")


# One mutation per constraint.  Exact isolation is impossible for some
# targets (the constraints are coupled: any tau >= 2 also breaks the
# tau-phi cap since phi > 0; gamma <= delta also breaks the chi gap cap;
# and so on), so each entry freezes the full violation set computed by
# exact rational arithmetic; the targeted constraint is always present.
MUTATIONS = [
    ("tau-range", {"tau": F(2)}, {"tau-range", "tau-phi-cap", "chi-gap-cap"}),
    ("tau-prime-range", {"tau_prime": F("3.2")}, {"tau-prime-range"}),
    (
        "exponent-order",
        {"delta": F("0.15"), "gamma": F("0.15"), "phi": F("0.15")},
        {"exponent-order", "chi-gap-cap"},
    ),
    ("tau-phi-cap", {"phi": F(13, 50), "gamma": F(14, 75)}, {"tau-phi-cap"}),
    (
        "phi-below-tau-delta",
        {"tau": F("1.55"), "tau_prime": F("2.3")},
        {"phi-below-tau-delta"},
    ),
    ("gamma-spacing", {"gamma": F("0.19")}, {"gamma-spacing"}),
    (
        "omega-trap-floor",
        dict(delta=F("0.01"), gamma=F("0.012"), phi=F("0.016"), tau=F("1.75"),
             tau_prime=F("1.8"), omega=F(1), chi=F("0.001")),
        {"omega-trap-floor"},
    ),
    (
        "omega-correlated-floor",
        dict(delta=F("0.48"), gamma=F("0.485"), phi=F("0.495"), tau=F("1.5"),
             tau_prime=F("2.23"), omega=F("1.5"), chi=F("0.003")),
        {"omega-correlated-floor", "omega-emerging-floor"},
    ),
    ("omega-emerging-floor", {"omega": F("1.8")}, {"omega-emerging-floor"}),
    ("tau-prime-floor", {"tau_prime": F("1.9")}, {"tau-prime-floor"}),
    ("chi-gap-cap", {"chi": F("0.02")}, {"chi-gap-cap"}),
    (
        "chi-delta-cap",
        dict(delta=F("0.08"), gamma=F("0.3"), phi=F("0.74"), tau=F("1.1"),
             tau_prime=F("1.2"), omega=F("4.5"), chi=F("0.05")),
        {"phi-below-tau-delta", "chi-delta-cap"},
    ),
    (
        "chi-omega-cap",
        dict(delta=F("0.395"), gamma=F("0.44"), phi=F("0.53"), tau=F("1.4"),
             tau_prime=F("1.955"), omega=F("1.33"), chi=F("0.032")),
        {"omega-emerging-floor", "chi-omega-cap"},
    ),
]


def test_criterion_5_exponent_feasibility():
    start = time.perf_counter()
    report = verify_exponents(DEFAULT_EXPONENTS)
    assert report.passed and len(report.checks) == 13
    assert {c.name for c in report.checks} == set(CONSTRAINT_NAMES)
    assert len(MUTATIONS) == 13
    assert {target for target, _, _ in MUTATIONS} == set(CONSTRAINT_NAMES)
    for target, changes, expected in MUTATIONS:
        if len(changes) == 7:
            mutated = ExponentTuple(**changes)
        else:
            mutated = replace(DEFAULT_EXPONENTS, **changes)
        got = set(verify_exponents(mutated).violations)
        assert target in got, f"{target} not flagged"
        assert got == expected, f"{target}: {got} != {expected}"
    elapsed = time.perf_counter() - start
    assert elapsed < 1
    _report(5, "default tuple passes; 13 targeted mutations match frozen sets")


def test_criterion_6_compound_rank_law():
    rng = random.Random(606)
    R = 12
    checked = 0
    while checked < 10_000:
        r1 = rng.randint(R, 3 * R)
        r2 = rng.randint(R, 3 * R)
        phi = rng.randint(2, 256)
        d = rng.randint(0, phi)
        w1 = WallValue(Interval(0, 3), r1)
        w2 = WallValue(Interval(3 + d, 6 + d), r2)
        out = compound_walls([w1, w2], phi=phi, r_star=3 * R + 1)
        pair = [cw for cw in out if cw.ctype[0] == r1 and cw.ctype[1] == r2]
        assert pair, "expected the ordered pair to compound"
        cw = pair[0]
        i = cw.ctype[2]
        # defining property of the distance index
        if d in (0, 1):
            assert i == d
        else:
            assert 2**i <= d * d < 2 ** (i + 1)
        assert cw.rank == r1 + r2 - i
        # rank window [r1 + r2 - log_lam(phi), r1 + r2]
        assert 2**i <= phi * phi
        assert cw.rank <= r1 + r2
        checked += 1
    _report(6, "compound rank law on 10^4 generated pairs, zero violations")


def test_criterion_7_hole_frequency():
    rep = hole_frequency_check(m=4, samples=10_000, seed=707)
    assert 0.485 <= rep.rate <= 0.515, rep.rate
    _report(7, f"fitting-hole start rate {rep.rate:.4f} within [0.485, 0.515]")


def test_criterion_8_wall_frequency_dual_hypothesis():
    rep = wall_frequency_check(m=4, l=4, samples=1_000_000, seed=808)
    sigma = math.sqrt(rep.p_counted * (1 - rep.p_counted) / rep.samples)
    assert abs(rep.rate - rep.p_counted) <= 5 * sigma
    # the report carries the comparison against the 2^-l figure; at this
    # sample size the two hypotheses are clearly separated (documented
    # discrepancy, not a failure)
    assert rep.p_nominal == 2.0**-4
    assert rep.z_nominal > 10
    _report(
        8,
        f"rate {rep.rate:.6f} within 5 sigma of 2^-(l-1)={rep.p_counted}; "
        f"z against 2^-l={rep.p_nominal} is {rep.z_nominal:.1f}",
    )


def test_criterion_9_m1_analytic_curve():
    start = time.perf_counter()
    for L in range(1, 13):
        row = estimate_embed_prob(TrialPlan(master_seed=909, trials=10_000, m=1, L=L))
        p = 2.0**-L
        sigma = math.sqrt(p * (1 - p) / row.trials)
        assert abs(row.p_hat - p) <= 4 * sigma, (L, row.p_hat, p)
    elapsed = time.perf_counter() - start
    assert elapsed < 30
    _report(9, f"m=1 curve matches 2^-L within 4 sigma for L=1..12 ({elapsed:.1f}s)")


def test_criterion_10_simulate_determinism(tmp_path, capsys):
    args = [
        "simulate", "--m-range", "1..3", "--L-range", "4..6",
        "--trials", "60", "--seed", "1234",
    ]
    outputs = []
    for jobs in ("1", "2", "1"):
        out_file = tmp_path / f"run{len(outputs)}.csv"
        code = main(args + ["--jobs", jobs, "--out", str(out_file)])
        assert code == 0
        outputs.append(out_file.read_bytes())
    capsys.readouterr()
    assert outputs[0] == outputs[1] == outputs[2]
    _report(10, "byte-identical CSV across repeated runs and jobs=1 vs jobs=2")
