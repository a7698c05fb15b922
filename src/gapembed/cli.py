"""Command-line interface: embed, analyze, params, simulate, selftest.

Batch and non-interactive.  Exit codes are a stable contract: 0 for success
or a true decision, 1 for a legitimate negative (not embeddable, constraint
failures, failed selftest), 2 for usage or input errors.

Every run emits a metadata preamble (version, seed, rng id) so outputs are
self-describing; nothing in the output depends on time or scheduling.  The
environment variable GAPEMBED_SEED supplies the default seed; --seed
overrides it.  A --config file of key=value pairs may set any flag of the
subcommand, required ones included; its lines go ahead of the command line,
so explicit flags win, and an unknown key exits 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from . import __version__
from .engine import (
    brute_force_reachable,
    check_embedding,
    embeddable_prefix,
    extract_embedding,
)
from .errors import GapembedError
from .experiments import (
    TrialPlan,
    estimate_embed_prob,
    hole_frequency_check,
    rows_to_csv,
    sweep,
    wall_frequency_check,
)
from .params import (
    DEFAULT_EXPONENTS,
    ExponentTuple,
    base_params,
    lam_pow,
    level_table,
    verify_exponents,
)
from .rng import RNG_ID
from .sequences import BinarySequence, load_sequence_file
from .walls import Interval, find_fitting_hole, find_walls, spanning_sequence

ENV_SEED = "GAPEMBED_SEED"

PARAMS_CSV_HEADER = "level,R,T,Δ,Γ,Φ,Ψ,w,qtri,qinv,sigx,sigy"


def _meta(seed=None) -> dict:
    meta = {"version": __version__, "rng_id": RNG_ID}
    if seed is not None:
        meta["seed"] = seed
    return meta


def _default_seed() -> int:
    raw = os.environ.get(ENV_SEED)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise GapembedError(f"{ENV_SEED} must be an integer, got {raw!r}")


def _parse_range(text: str) -> list[int]:
    """Inclusive 'A..B' ranges; a bare integer is a singleton."""
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            a, b = int(lo), int(hi)
            if b < a:
                raise GapembedError(f"empty range {text!r}")
            return list(range(a, b + 1))
        return [int(text)]
    except ValueError:
        raise GapembedError(f"malformed range {text!r}; expected A..B or an integer")


def _config_argv(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Put the --config file's key=value lines ahead of argv as flag tokens.

    argparse keeps the last value of a repeated flag, so explicit flags win.
    A true value on a store_true flag gives the bare flag, a false one
    nothing; a key that names no flag of the subcommand is an error.
    """
    subparsers = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    if not argv or argv[0] not in subparsers.choices:
        return argv
    command = subparsers.choices[argv[0]]
    pre = argparse.ArgumentParser(prog=f"{parser.prog} {argv[0]}", add_help=False)
    pre.add_argument("--config", default=None)
    path = pre.parse_known_args(argv[1:])[0].config
    if path is None:
        return argv
    flags = {
        a.dest: a
        for a in command._actions
        if a.option_strings and a.dest not in ("help", "config")
    }
    tokens = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise GapembedError(f"{path}:{lineno}: expected key=value")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            action = flags.get(key.replace("-", "_"))
            if action is None:
                raise GapembedError(f"{path}:{lineno}: unknown key {key!r} for {argv[0]}")
            if action.nargs != 0:
                tokens.append(f"{action.option_strings[0]}={val}")
            elif val.lower() in ("1", "true", "yes", "on"):
                tokens.append(action.option_strings[0])
            elif val.lower() not in ("0", "false", "no", "off"):
                raise GapembedError(f"{path}:{lineno}: {key} takes true or false")
    return [argv[0], *tokens, *argv[1:]]


def _load_exponents(path: str) -> ExponentTuple:
    fields = ("delta", "gamma", "phi", "tau", "tau_prime", "omega", "chi")
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise GapembedError(f"{path}: expected a JSON object of exponents")
        missing = [f for f in fields if f not in data]
        if missing:
            raise GapembedError(f"exponents file lacks fields: {', '.join(missing)}")
        return ExponentTuple(**{f: Fraction(str(data[f])) for f in fields})
    except (ValueError, ZeroDivisionError) as exc:
        raise GapembedError(f"{path}: {exc}") from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _open_out(path):
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w", encoding="utf-8"), True


# ---------------------------------------------------------------- embed


def cmd_embed(args) -> int:
    X = load_sequence_file(args.x)
    Y = load_sequence_file(args.y)
    L = args.L if args.L is not None else len(Y)
    if args.witness:
        frontier, path = extract_embedding(X, Y, args.m, L, with_frontier=True)
        ok = not frontier.is_empty()
    else:
        ok, frontier = embeddable_prefix(X, Y, args.m, L)
        path = None
    if args.format == "json":
        doc = {
            "meta": _meta(),
            "embeddable": ok,
            "m": args.m,
            "L": L,
            "frontier": frontier.to_json(),
        }
        if args.witness:
            doc["path"] = path.to_json() if path else None
        print(json.dumps(doc))
    else:
        print(f"# gapembed {__version__}")
        print("embeddable" if ok else "not embeddable")
        if path is not None:
            print("steps " + " ".join(str(n) for n in path.steps))
    return 0 if ok else 1


# ---------------------------------------------------------------- analyze


def cmd_analyze(args) -> int:
    if args.holes and not args.y:
        print("error: --holes requires --y", file=sys.stderr)
        return 2
    X = load_sequence_file(args.x)
    m = args.m
    delta = args.delta if args.delta is not None else float(lam_pow(Fraction(3, 10) * m))
    out = [json.dumps({"meta": _meta()})]
    x_walls = find_walls(X, m, "v")
    for w in x_walls:
        out.append(json.dumps(w.to_json()))
    Y = None
    if args.y:
        Y = load_sequence_file(args.y)
        for w in find_walls(Y, m, "h"):
            out.append(json.dumps(w.to_json()))
    if args.holes:
        slb = Fraction(1, 2 * m)
        for w in x_walls:
            hole = find_fitting_hole(
                w, Interval(0, max(len(Y) - 1, 0), closed=True), X, Y, slb
            )
            if hole is not None:
                out.append(
                    json.dumps(
                        {
                            "kind": "hole",
                            "orientation": "h",
                            "left": hole.interval.left,
                            "right": hole.interval.right,
                            "through_left": w.body.left,
                            "through_right": w.body.right,
                        }
                    )
                )
    if args.span:
        for rec in _span_records(X, x_walls, m, delta):
            out.append(json.dumps(rec))
    print("\n".join(out))
    return 0


def _span_records(X, walls, m, delta):
    """Spanning sequences for maximal wall clusters delimited by external
    gaps of size >= delta (or the ends of the visible window); `walls` come
    in `find_walls` order."""
    clusters = []  # [left, running right end] of each cluster
    for w in walls:
        if not clusters or w.body.left - clusters[-1][1] >= delta:
            clusters.append([w.body.left, w.body.right])
        else:
            clusters[-1][1] = max(clusters[-1][1], w.body.right)
    for left, right in clusters:
        try:
            span = spanning_sequence(Interval(left, right), X, m)
        except GapembedError as exc:
            yield {"kind": "span-error", "left": left, "right": right, "error": str(exc)}
            continue
        yield {
            "kind": "span",
            "left": left,
            "right": right,
            "walls": [[w.body.left, w.body.right] for w in span],
        }


# ---------------------------------------------------------------- params


def cmd_params(args) -> int:
    exponents = (
        _load_exponents(args.exponents) if args.exponents else DEFAULT_EXPONENTS
    )
    report = verify_exponents(exponents)
    lines = [f"# gapembed {__version__} params m={args.m} levels={args.levels}"]
    lines.append(PARAMS_CSV_HEADER)
    if report.passed:
        base = base_params(args.m, exponents)
        for p, _facts in level_table(exponents, base, args.levels):
            R = float(p.R) if p.R <= sys.float_info.max else math.inf  # as lam_pow
            lines.append(
                f"{p.level},{R!r},{p.T!r},{p.Delta!r},{p.Gamma!r},"
                f"{p.Phi!r},{p.Psi!r},{p.w!r},{p.q_tri!r},{p.q_inv!r},"
                f"{p.sigma_x!r},{p.sigma_y!r}"
            )
    out, close_out = _open_out(args.out)
    try:
        out.write("\n".join(lines) + "\n")
    finally:
        if close_out:
            out.close()
    report_text = json.dumps(report.to_json())
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report_text + "\n")
    else:
        if args.out in (None, "-"):
            print()  # blank line between the CSV block and the JSON report
        print(report_text)
    return 0 if report.passed else 1


# ---------------------------------------------------------------- simulate


def cmd_simulate(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    if args.check == "walls":
        report = wall_frequency_check(args.m_check, args.l, args.samples, seed)
        print(json.dumps({"meta": _meta(seed), **report.to_json()}))
        return 0
    if args.check == "holes":
        report = hole_frequency_check(args.m_check, args.samples, seed)
        print(json.dumps({"meta": _meta(seed), **report.to_json()}))
        return 0
    m_values = _parse_range(args.m_range)
    L_values = _parse_range(args.L_range)
    rows = sweep(m_values, L_values, args.trials, seed, args.x_length, jobs=args.jobs)
    if args.format == "json":
        lines = [json.dumps({"meta": _meta(seed)})]
        lines += [json.dumps(row.to_json()) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = rows_to_csv(rows, version=__version__)
    out, close_out = _open_out(args.out)
    try:
        out.write(text)
    finally:
        if close_out:
            out.close()
    return 0


# ---------------------------------------------------------------- selftest


def cmd_selftest(args) -> int:
    print(f"# gapembed {__version__} selftest rng_id={RNG_ID}")
    failures = 0

    def check(name: str, ok: bool) -> None:
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        failures += not ok

    # frontier DP equals exhaustive DFS on every tiny instance
    ok = True
    for xb in range(2**6):
        X = BinarySequence(xb, 6)
        for yb in range(2**3):
            Y = BinarySequence(yb, 3)
            reach = brute_force_reachable(X, Y, 2, 3)
            for row in range(4):
                _, frontier = embeddable_prefix(X, Y, 2, row)
                if set(frontier.positions()) != reach[row]:
                    ok = False
    check("oracle-equivalence 6x3 m=2", ok)

    check("default exponents feasible", verify_exponents(DEFAULT_EXPONENTS).passed)

    ok = True
    for t in range(50):
        plan = TrialPlan(master_seed=7, trials=1, m=3, L=6, x_length=18)
        X, Y = plan.trial_sequences(t)
        embeds, _ = embeddable_prefix(X, Y, 3, 6)
        if embeds:
            path = extract_embedding(X, Y, 3, 6)
            ok = ok and path is not None and check_embedding(X, Y, path)
    check("witness round trip", ok)

    row = estimate_embed_prob(TrialPlan(master_seed=11, trials=200, m=1, L=2))
    ok = abs(row.p_hat - 0.25) < 0.12
    check("m=1 analytic rate", ok)

    return 1 if failures else 0


# ---------------------------------------------------------------- wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gapembed",
        description="Bounded-gap embedding solver, structure analyzer, "
        "parameter calculus, and Monte Carlo harness.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("embed", help="decide embeddability of a Y prefix into X")
    p.add_argument("--x", required=True, help="X sequence file")
    p.add_argument("--y", required=True, help="Y sequence file")
    p.add_argument("--m", type=int, required=True, help="gap bound")
    p.add_argument("--L", type=int, default=None, help="prefix length (default len(Y))")
    p.add_argument("--witness", action="store_true", help="print a witnessing path")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("analyze", help="emit wall/hole/span structure reports")
    p.add_argument("--x", required=True)
    p.add_argument("--y", default=None)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--holes", action="store_true", help="search holes (needs --y)")
    p.add_argument("--span", action="store_true", help="emit spanning sequences")
    p.add_argument("--delta", type=float, default=None, help="external gap threshold")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("params", help="level parameter table and constraint report")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--levels", type=_positive_int, required=True)
    p.add_argument("--exponents", default=None, help="JSON file of exponent values")
    p.add_argument("--out", default=None, help="CSV destination (default stdout)")
    p.add_argument("--report", default=None, help="constraint JSON destination")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("simulate", help="embedding probability sweeps and checks")
    p.add_argument("--m-range", dest="m_range", default="1..4")
    p.add_argument("--L-range", dest="L_range", default="16..16")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None, help=f"default ${ENV_SEED} or 0")
    p.add_argument("--x-length", dest="x_length", type=int, default=None)
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.add_argument("--check", choices=("walls", "holes"), default=None)
    p.add_argument("--m-check", dest="m_check", type=int, default=4)
    p.add_argument("--l", type=int, default=4, help="wall size for --check walls")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("selftest", help="quick internal consistency battery")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_config_argv(parser, argv))
        return args.func(args)
    except (GapembedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

if __name__ == "__main__":
    sys.exit(main())
