"""Benchmark of the gapembed command line, driven in-process.

Run from the repository root:

    python3 bench/run.py --workload mc_short --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 0

Each workload (see workloads.py and README.md) is a round of CLI calls made
with `gapembed.cli.main(argv)` in this process, stdout captured, `--jobs 1`.
The package is imported from `src/` of the checkout this file sits in; no
install is needed.  A run

1. writes the workload's inputs, made from `--seed` with numpy;
2. with `--trace 0`, times the import of gapembed plus `build_parser()` in
   fresh processes (`setup_s`) and runs one round in a fresh process for
   its peak resident set (`peak_rss_mb`);
3. runs one warm-up round whose outputs are checked against independent
   references (checks.py);
4. repeats rounds for `--seconds` seconds, each repeat's stdout compared
   byte for byte with the warm-up round; every run of a call whose warm-up
   output failed its check counts as failed.  Before every round, and after
   the last, it times a fixed pure-Python reference job (`reference_s`) for
   about a tenth of the last round's time; `wall_rel` is the median round
   time over the median reference-job time.
   With `--trace 1`, rounds alternate between untraced and traced
   (tracer.py); the traced ones give the per-layer metrics and the
   untraced ones the tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}.  A record with the machine,
the samples and the metrics is written to .bench/results/, and the spans of
the first traced round to .bench/traces/.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from tracer import COUNTERS, Tracer
from workloads import WORKLOADS, CallResult, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench"

SETUP_SAMPLES = 21
CHILD_TIMEOUT_S = 150
RUN_TIMEOUT_S = 900

END_TO_END_UNITS = {"wall_rel": "1", "peak_rss_mb": "MB", "setup_s": "s", "pass_ratio": "1"}

RATIOS = {  # name -> (numerator counter, function)
    "engine.rect_reachable.hit_ratio": ("hits", "engine.rect_reachable"),
    "walls.find_fitting_hole.found_ratio": ("found", "walls.find_fitting_hole"),
}
LAYERS = ("sequences", "rng", "experiments", "engine", "walls", "cli")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for fn, counters in COUNTERS.items():
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.self_s"] = "s"
        units.update({f"{fn}.{c}": unit for c, unit in counters.items()})
    units.update({name: "1" for name in RATIOS})
    units["cli.main.stdout_bytes"] = "B"
    units.update({f"layer.{layer}.share": "1" for layer in LAYERS})
    units.update(
        {
            "trace.wall_s": "s",
            "trace.untraced_wall_s": "s",
            "trace.overhead_s": "s",
            "trace.self_sum_share": "1",
            "trace.spans": "count",
            "trace.errors": "count",
        }
    )
    return units


# ---------------------------------------------------------------- helpers


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


# Inputs of the reference job: a 1024-bit and a 2^17-bit integer.
REF_SMALL = random.Random(0).getrandbits(1024)
REF_LARGE = random.Random(1).getrandbits(1 << 17)
REF_SHARE = 0.1  # reference-job time per round, as a share of the last round


def reference_s() -> float:
    """Seconds taken by a fixed pure-Python job of about 25 ms: a loop with
    dict stores and 1024-bit shifts and ors, then shifts and ors of a
    2^17-bit integer, the kinds of work the program's rounds do.

    The speed of a shared host drifts: on a 2-core VM, other tenants' load
    slowed every round by 5-15% for minutes at a time.  The drift moves
    this job's time with the program's, so their ratio stays put, while a
    change to the program moves only the program's time."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(120_000):
        table[i & 1023] = i * 7 % 13
        acc ^= (REF_SMALL << (i & 7)) | (REF_SMALL >> 3)
    for i in range(2_000):
        acc ^= (REF_LARGE << (i & 7)) | (REF_LARGE >> 3)
    return time.perf_counter() - start


def time_reference(ref_s: list[float], budget: float) -> None:
    """Run the reference job once, then again until `budget` seconds are
    spent, appending each time to `ref_s`."""
    spent = 0.0
    while True:
        ref_s.append(reference_s())
        spent += ref_s[-1]
        if spent >= budget:
            return


def tail(samples: list[float]) -> tuple[int, float] | None:
    """Highest percentile with at least ten samples beyond it, and its value."""
    n = len(samples)
    if n < 11:
        return None
    return 100 * (n - 10) // n, sorted(samples)[n - 11]


def child(args: list[str]) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), *args],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[0]} failed: {proc.stderr.strip()[-500:]}")
    return proc.stdout.split("\n")


def measure_setup() -> list[float]:
    """Import-plus-parser time in fresh processes, after one warm-up that
    lets the interpreter write its bytecode caches."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        seconds, origin = child(["setup", str(SRC)])[:2]
        if not Path(origin).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"gapembed imported from {origin}, not {SRC}")
        if i:
            samples.append(float(seconds))
    return samples


def measure_rss(calls: list[list[str]], workdir: Path) -> tuple[list, float]:
    """Exit codes and peak RSS (MB) of one round in a fresh process."""
    path = workdir / "calls.json"
    path.write_text(json.dumps(calls), encoding="utf-8")
    codes, kib = child(["rss", str(SRC), str(path)])[:2]
    return json.loads(codes), int(kib) * 1024 / 1e6


def call_cli(cli, argv: list[str]) -> CallResult:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)  # looked up per call, so the tracer's rebinding applies
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed call, recorded with its traceback
            rc = None
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
    return CallResult(rc, out.getvalue(), err.getvalue(), seconds)


# ---------------------------------------------------------------- one workload


def traced_metrics(rounds: list[tuple[float, dict]], untraced: list[float], reference) -> dict:
    """Per-layer metrics from traced rounds: counts per round, times as the
    median over rounds."""
    med_low = statistics.median_low  # counts are the same in every round
    metrics = {}
    for fn, counters in COUNTERS.items():
        metrics[f"{fn}.calls"] = med_low([s[fn].calls for _, s in rounds])
        metrics[f"{fn}.self_s"] = statistics.median([s[fn].self_s for _, s in rounds])
        for c in counters:
            metrics[f"{fn}.{c}"] = med_low([s[fn].counts.get(c, 0) for _, s in rounds])
    for name, (counter, fn) in RATIOS.items():
        calls = metrics[f"{fn}.calls"]
        metrics[name] = metrics[f"{fn}.{counter}"] / calls if calls else 0.0
    metrics["cli.main.stdout_bytes"] = sum(len(r.stdout.encode()) for r in reference)
    for layer in LAYERS:
        metrics[f"layer.{layer}.share"] = statistics.median(
            [sum(st.self_s for fn, st in s.items() if fn.startswith(layer + ".")) / wall
             for wall, s in rounds]
        )
    metrics["trace.wall_s"] = statistics.median([wall for wall, _ in rounds])
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    metrics["trace.self_sum_share"] = statistics.median(
        [sum(st.self_s for st in s.values()) / wall for wall, s in rounds]
    )
    metrics["trace.spans"] = med_low([sum(st.calls for st in s.values()) for _, s in rounds])
    metrics["trace.errors"] = sum(st.errors for _, s in rounds for st in s.values())
    return metrics


def stressed_share(metrics: dict, names: tuple[str, ...]) -> float:
    """Share of the traced wall time spent in the named layers or functions."""
    return sum(
        metrics[f"layer.{n}.share"] if n in LAYERS else metrics[f"{n}.self_s"] / metrics["trace.wall_s"]
        for n in names
    )


def timed_rounds(cli, prepared, reference, seconds: float, tracer: Tracer | None) -> dict:
    """Repeat rounds for `seconds`, timing the reference job before each
    round and after the last; with a tracer, every second round is traced.
    Records (call index, round) where a repeat's exit code or stdout differs
    from `reference`."""
    untraced, traced, mismatches, ref_s = [], [], [], []
    deadline = time.perf_counter() + seconds
    i, last = 0, 0.0
    while True:
        time_reference(ref_s, REF_SHARE * last)
        if tracer is not None and i % 2 == 1:
            tracer.reset()
            tracer.record = not traced  # keep the spans of the first traced round
            with tracer:
                results = []
                for k, argv in enumerate(prepared.calls):
                    tracer.call_id = k
                    results.append(call_cli(cli, argv))
            tracer.record = False
            last = sum(r.seconds for r in results)
            traced.append((last, tracer.snapshot()))
        else:
            results = [call_cli(cli, argv) for argv in prepared.calls]
            last = sum(r.seconds for r in results)
            untraced.append(last)
        for k, (r, ref) in enumerate(zip(results, reference)):
            if (r.rc, r.stdout) != (ref.rc, ref.stdout):
                mismatches.append((k, i + 1))
        i += 1
        if time.perf_counter() >= deadline and (tracer is None or traced):
            break
    time_reference(ref_s, REF_SHARE * last)
    return {
        "untraced": untraced, "traced": traced, "reference": ref_s,
        "rounds": i, "mismatches": mismatches,
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> int:
    import gapembed
    from gapembed import cli, engine, experiments, walls

    if not Path(gapembed.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: gapembed imported from {gapembed.__file__}, not {SRC}", file=sys.stderr)
        return 2
    name = workload.name
    workdir = OUT / f"tmp-{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    lines = []
    tracer = None
    try:
        prepared = workload.prepare(seed, workdir)
        if not trace:
            setup_samples = measure_setup()
            rss_codes, rss_mb = measure_rss(prepared.calls, workdir)
        reference = [call_cli(cli, argv) for argv in prepared.calls]  # warm-up round
        problems = prepared.check(reference)
        if trace:
            tracer = Tracer({"cli": cli, "experiments": experiments, "walls": walls, "engine": engine})
        rounds = timed_rounds(cli, prepared, reference, seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Each call runs in the checked warm-up round, in every timed round and,
    # untraced, in the fresh-process round.  Every run of a call whose checked
    # output is wrong fails, so a program that repeats a wrong answer gives
    # the same fail_ratio however long the run; a run of a call whose output
    # passed fails if it differs from that output.
    differs = [0] * len(prepared.calls)
    for k, i in rounds["mismatches"]:
        differs[k] += 1
        lines.append(f"REPEAT DIFFERS {prepared.calls[k][0]} in round {i}")
    if not trace:
        for k, (code, ref) in enumerate(zip(rss_codes, reference)):
            differs[k] += code != ref.rc
    runs = 1 + rounds["rounds"] + (not trace)
    attempted = runs * len(prepared.calls)
    failed = sum(runs if p else d for p, d in zip(problems, differs))
    for argv, p in zip(prepared.calls, problems):
        lines += [f"CHECK FAILED {argv[0]}: {msg}" for msg in p]
    untraced, traced, ref_s = rounds["untraced"], rounds["traced"], rounds["reference"]
    if trace:
        metrics = traced_metrics(traced, untraced, reference)
        units = per_layer_units()
        share = stressed_share(metrics, workload.stressed)
        lines.append(
            f"stress: share of {'+'.join(workload.stressed)} = {share:.3f} "
            f"(expected > {workload.stress_floor}) {'ok' if share > workload.stress_floor else 'LOW'}"
        )
        lines.append(
            f"self times sum to {metrics['trace.self_sum_share']:.4f} of the traced wall time "
            f"(slack 0.02) {'ok' if abs(1 - metrics['trace.self_sum_share']) <= 0.02 else 'OFF'}"
        )
        write_spans(name, seed, tracer.spans)
        setup_samples = []
    else:
        wall_s = statistics.median(untraced)
        metrics = {
            "wall_rel": wall_s / statistics.median(ref_s),
            "peak_rss_mb": rss_mb,
            "setup_s": statistics.median(setup_samples),
            "pass_ratio": 1 - failed / attempted,
        }
        units = END_TO_END_UNITS
        t = tail(untraced)
        lines.append(
            f"wall_s samples={len(untraced)} median={wall_s:.4f} s "
            + (f"p{t[0]}={t[1]:.4f} s (10 samples beyond)" if t else "tail: fewer than 11 samples")
        )
        lines.append(
            f"reference job samples={len(ref_s)} median={statistics.median(ref_s):.5f} s; "
            f"wall_rel = {metrics['wall_rel']:.4f}"
        )
        lines.append(f"setup_s samples={len(setup_samples)} (fresh processes)")
    lines.append(f"fail_ratio = {failed}/{attempted} = {failed / attempted:.6f}")
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine(),
        "samples": {
            "untraced_round_s": untraced,
            "traced_round_s": [wall for wall, _ in traced],
            "setup_s": setup_samples,
            "reference_s": ref_s,
        },
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    path = OUT / "results" / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    for line in lines:
        print(line)
    print("run " + json.dumps({
        "workload": name,
        "seed": seed,
        "machine": record["machine"],
        "sample_counts": {k: len(v) for k, v in record["samples"].items()},
    }))
    for key, value in metrics.items():
        print(f"{key:45s} {value!r} {units[key]}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


def write_spans(name: str, seed: int, spans: list[tuple]) -> None:
    path = OUT / "traces" / f"{name}-seed{seed}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(["span_id", "parent_id", "call_id", "name", "start", "end"]) + "\n")
        for span in spans:
            fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------- all workloads


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process; a table, then one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    table = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, cwd=ROOT, timeout=RUN_TIMEOUT_S,
        )
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode
        out = proc.stdout.strip().splitlines()
        result = json.loads(out[-1])
        notes = out[: next(i for i, line in enumerate(out) if line.startswith("run "))]
        print("\n".join(f"{name}: {line}" for line in notes))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
        ratio = result["failed"] / result["attempted"]
        table.append(
            f"{name:15s} "
            + "  ".join(f"{k}={m['value']:.4g} {m['unit']}" for k, m in result["metrics"].items()
                        if not trace or k.startswith(("layer.", "trace.")))
            + f"  fail_ratio={ratio:.4g} 1"
        )
    for row in table:
        print(row)
    if not trace:
        m = combined["metrics"]
        print(
            "peak_rss_mb long_embed / mc_long = "
            f"{m['long_embed.peak_rss_mb']['value'] / m['mc_long.peak_rss_mb']['value']:.2f}"
            " (expected >= 5)"
        )
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gapembed" / "cli.py").is_file():
        print(f"error: no gapembed sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    sys.path.insert(0, str(SRC))
    return run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
