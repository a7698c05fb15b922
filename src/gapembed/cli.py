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
import functools
import json
import os
import sys
from fractions import Fraction

from . import RNG_ID, __version__
from .engine import (
    brute_force_reachable,
    check_embedding,
    embeddable_prefix,
    extract_embedding,
)
from .errors import GapembedError
from .params import (
    DEFAULT_EXPONENTS,
    ExponentTuple,
    base_params,
    lam_pow,
    level_table,
    report_float,
    verify_exponents,
)
from .sequences import BinarySequence, load_sequence_file
from .walls import Interval, find_fitting_hole, find_walls, spanning_sequence, wall_spans

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
            if b - a >= sys.maxsize:
                raise GapembedError(f"range {text!r} has too many values")
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
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise GapembedError(f"{path}: {exc}") from None
    tokens = []
    for lineno, line in enumerate(lines, start=1):
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


def _gap_threshold(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not value >= 0:  # also refuses NaN, which fails every comparison
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _write_out(path, text: str) -> None:
    """Write text to the file at path, or to stdout for None or "-"."""
    if path in (None, "-"):
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


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
            doc["path"] = path.to_json() if path is not None else None
        print(json.dumps(doc))
    else:
        print(f"# gapembed {__version__}")
        print("embeddable" if ok else "not embeddable")
        if path is not None:
            print(" ".join(["steps", *map(str, path.steps)]))
    return 0 if ok else 1


# ---------------------------------------------------------------- analyze


def cmd_analyze(args) -> int:
    if args.holes and not args.y:
        print("error: --holes requires --y", file=sys.stderr)
        return 2
    # Every input is read before the first line, so an input error leaves
    # stdout empty; from then on each record is written as it is made.
    X = load_sequence_file(args.x)
    Y = load_sequence_file(args.y) if args.y else None
    m = args.m
    delta = args.delta if args.delta is not None else float(lam_pow(Fraction(3, 10) * m))
    out = sys.stdout
    out.write(json.dumps({"meta": _meta()}) + "\n")
    out.writelines(_wall_lines(X.text, m, "v"))
    if Y is not None:
        out.writelines(_wall_lines(Y.text, m, "h"))
    if not (args.holes or args.span):
        return 0
    x_walls = find_walls(X, m, "v")
    if args.holes:
        # A wall's first hole depends only on the wall's symbol: search once
        # per symbol and reuse the interval for every later wall.
        holes = {}
        for w in x_walls:
            c, d = w.body.left, w.body.right
            symbol = X.text[c]
            if symbol not in holes:
                holes[symbol] = find_fitting_hole(w, range(len(Y)), X, Y)
            hole = holes[symbol]
            if hole is not None:
                out.write(
                    f'{{"kind": "hole", "orientation": "h", "left": {hole.left}, '
                    f'"right": {hole.right}, "through_left": {c}, "through_right": {d}}}\n'
                )
    if args.span:
        out.writelines(json.dumps(rec) + "\n" for rec in _span_records(X, x_walls, m, delta))
    return 0


def _wall_lines(text, m, orientation):
    """The JSON line of each wall of `text`, laid out as `json.dumps` writes
    `WallValue.to_json()`, read straight off the run scan."""
    head = f'{{"orientation": "{orientation}", "left": '
    tail = f', "rank": {2 * m}, "kind": "base-run"}}\n'
    for left, right in wall_spans(text, m):
        yield f'{head}{left}, "right": {right}{tail}'


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
    # A cluster starts and ends with a wall of size >= m, hence with a size-m
    # wall: the precondition of spanning_sequence, which therefore never raises.
    for left, right in clusters:
        span = spanning_sequence(Interval(left, right), X, m)
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
        for p, _facts in level_table(base_params(args.m, exponents), args.levels):
            lines.append(
                f"{p.level},{report_float(p.R)!r},{p.T!r},{p.Delta!r},{p.Gamma!r},"
                f"{p.Phi!r},{p.Psi!r},{p.w!r},{p.q_tri!r},{p.q_inv!r},"
                f"{p.sigma_x!r},{p.sigma_y!r}"
            )
    _write_out(args.out, "\n".join(lines) + "\n")
    report_text = json.dumps(report.to_json()) + "\n"
    report_path = args.report or None  # --report= also means stdout
    if report_path in (None, "-") and args.out in (None, "-"):
        report_text = "\n" + report_text  # blank line between CSV and report
    _write_out(report_path, report_text)
    return 0 if report.passed else 1


# ---------------------------------------------------------------- simulate


def cmd_simulate(args) -> int:
    # `experiments` imports numpy; only simulate and selftest load it.
    from .experiments import hole_frequency_check, rows_to_csv, sweep, wall_frequency_check

    seed = args.seed if args.seed is not None else _default_seed()
    if args.check is not None:
        if args.check == "walls":
            report = wall_frequency_check(args.m_check, args.l, args.samples, seed)
        else:
            report = hole_frequency_check(args.m_check, args.samples, seed)
        text = json.dumps({"meta": _meta(seed), **report.to_json()}) + "\n"
    else:
        m_values = _parse_range(args.m_range)
        L_values = _parse_range(args.L_range)
        rows = sweep(m_values, L_values, args.trials, seed, args.x_length, jobs=args.jobs)
        if args.format == "json":
            lines = [json.dumps({"meta": _meta(seed)})]
            lines += [json.dumps(row.to_json()) for row in rows]
            text = "\n".join(lines) + "\n"
        else:
            text = rows_to_csv(rows)
    _write_out(args.out, text)
    return 0


# ---------------------------------------------------------------- selftest


def cmd_selftest(args) -> int:
    from .experiments import TrialPlan, estimate_embed_prob

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
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--holes", action="store_true", help="search holes (needs --y)")
    p.add_argument("--span", action="store_true", help="emit spanning sequences")
    p.add_argument("--delta", type=_gap_threshold, default=None, help="external gap threshold")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("params", help="level parameter table and constraint report")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--levels", type=_positive_int, required=True)
    p.add_argument("--exponents", default=None, help="JSON file of exponent values")
    p.add_argument("--out", default=None, help="CSV destination (default stdout)")
    p.add_argument("--report", default=None, help="constraint JSON destination (default or -: stdout)")
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


# One parser per process, built by the first `main` call.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_config_argv(parser, argv))
        return args.func(args)
    except (GapembedError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2

if __name__ == "__main__":
    sys.exit(main())
