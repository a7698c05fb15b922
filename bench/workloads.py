"""The benchmark's workloads: inputs made from a seed, CLI calls, checks.

A workload is one round of `gapembed` CLI calls.  Its inputs come from the
benchmark seed through numpy alone; the program sees only the argv and the
sequence files written here.  Each workload's `check` validates one round's
outputs with the independent references in `checks`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks


@dataclass
class CallResult:
    """One CLI call: exit code (None if it raised), captured output, time."""

    rc: int | None
    stdout: str
    stderr: str
    seconds: float


@dataclass
class Prepared:
    """A workload instantiated for one seed: its calls and their checker."""

    calls: list[list[str]]
    check: Callable[[list[CallResult]], list[list[str]]]  # problems per call


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable[[int, Path], Prepared]
    # Traced-run expectation: these per-layer names' share of the traced
    # wall time should exceed `stress_floor` on this workload.
    stressed: tuple[str, ...]
    stress_floor: float


def _write(path: Path, bits: np.ndarray) -> np.ndarray:
    """Save a 0/1 array as a sequence file and return it."""
    path.write_bytes((bits + ord("0")).tobytes() + b"\n")
    return bits


def _write_sequence(
    rng: np.random.Generator, path: Path, n: int, prefix: tuple[int, ...] = ()
) -> np.ndarray:
    bits = rng.integers(0, 2, n, dtype=np.uint8)
    bits[: len(prefix)] = prefix
    return _write(path, bits)


def _write_run_profile(rng: np.random.Generator, path: Path, n: int) -> np.ndarray:
    """A 0/1 sequence of length n with the mean run-length profile of n fair
    bits: for each symbol, n / 2^(r+2) runs of length r, in a seeded order.

    The structure code's cost grows with the number of walls of each
    symbol (the hole search differs by symbol), so fixing the profile keeps
    the work of a round the same for every seed."""
    half = []
    r = 1
    while (count := round(n / 2 ** (r + 2))) > 0:
        half += [r] * count
        r += 1
    lengths = np.empty(2 * len(half), dtype=np.int64)
    lengths[0::2] = rng.permutation(half)
    lengths[1::2] = rng.permutation(half)
    bits = (np.arange(len(lengths)) + int(rng.integers(0, 2))) % 2
    return _write(path, np.resize(np.repeat(bits, lengths).astype(np.uint8), n))


def _clean(result: CallResult) -> list[str]:
    """Problems any call can show: an exception, or output on stderr."""
    if result.rc is None:
        return ["raised: " + (result.stderr.strip().splitlines() or ["?"])[-1]]
    return [f"stderr: {result.stderr.strip()[:200]}"] if result.stderr else []


def sweep(m_values: range, L: int, trials: int) -> Callable[[int, Path], Prepared]:
    """`simulate` over m_values x {L} with `trials` trials per cell."""

    def prepare(seed: int, workdir: Path) -> Prepared:
        program_seed = int(np.random.default_rng(seed).integers(0, 2**63))
        argv = [
            "simulate", "--m-range", f"{m_values[0]}..{m_values[-1]}",
            "--L-range", f"{L}..{L}", "--trials", str(trials),
            "--seed", str(program_seed), "--jobs", "1",
        ]

        def check(results: list[CallResult]) -> list[list[str]]:
            (res,) = results
            expected = {
                (m, L): checks.sweep_successes(program_seed, m, L, trials) for m in m_values
            }
            problems = _clean(res) + ([] if res.rc == 0 else [f"exit code {res.rc}"])
            return [problems + checks.check_sweep_csv(res.stdout, program_seed, trials, expected)]

        return Prepared([argv], check)

    return prepare


def long_embed(x_len: int, y_len: int, m: int) -> Callable[[int, Path], Prepared]:
    """`embed` as a decision, then with a JSON witness, on one long pair."""

    def prepare(seed: int, workdir: Path) -> Prepared:
        rng = np.random.default_rng(seed)
        x = _write_sequence(rng, workdir / "x.txt", x_len)
        y = _write_sequence(rng, workdir / "y.txt", y_len)
        files = ["--x", str(workdir / "x.txt"), "--y", str(workdir / "y.txt"), "--m", str(m)]
        calls = [["embed", *files], ["embed", *files, "--witness", "--format", "json"]]

        def check(results: list[CallResult]) -> list[list[str]]:
            frontier = checks.final_frontier(x, y, m, y_len)
            embeddable = len(frontier) > 0
            text, witness = results
            return [
                _clean(text) + checks.check_embed_text(text.stdout, text.rc, embeddable),
                _clean(witness)
                + checks.check_embed_json(
                    witness.stdout, witness.rc, x, y, m, frontier,
                    checks.witness_trace(x, y, m, y_len),
                ),
            ]

        return Prepared(calls, check)

    return prepare


def structure_scan(
    xa_len: int, m_a: int, xb_len: int, yb_len: int, m_b: int
) -> Callable[[int, Path], Prepared]:
    """`analyze` walls on a long X, then walls, holes and spans on a pair."""

    def prepare(seed: int, workdir: Path) -> Prepared:
        rng = np.random.default_rng(seed)
        xa = _write_run_profile(rng, workdir / "xa.txt", xa_len)
        xb = _write_run_profile(rng, workdir / "xb.txt", xb_len)
        # The hole search for a wall of symbol c fails at every start a with
        # Y(a+1) != c, so Y's first run sets the number of rect_reachable
        # calls; 001 gives every seed the mean cost of a random start.
        yb = _write_sequence(rng, workdir / "yb.txt", yb_len, prefix=(0, 0, 1))
        calls = [
            ["analyze", "--x", str(workdir / "xa.txt"), "--m", str(m_a)],
            [
                "analyze", "--x", str(workdir / "xb.txt"), "--y", str(workdir / "yb.txt"),
                "--m", str(m_b), "--holes", "--span",
            ],
        ]

        def check(results: list[CallResult]) -> list[list[str]]:
            walls, pair = results
            return [
                _clean(walls) + checks.check_analyze(walls.stdout, walls.rc, xa, m_a),
                _clean(pair)
                + checks.check_analyze(pair.stdout, pair.rc, xb, m_b, yb, holes=True, span=True),
            ]

        return Prepared(calls, check)

    return prepare


# Sizes: mc_short is scaled to rounds of about 0.2 s so that a run holds
# dozens of samples; mc_long's per-trial cost varies with the trial's bits,
# so it keeps 1000 trials per cell for a round time that is the same for
# every seed; the embed and analyze inputs keep the sizes at which
# the row masks dominate memory and the O(n^2) symbol loops dominate time.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mc_short", sweep(range(1, 5), 16, 3000),
            ("rng.stream_bits", "experiments.trial_sequences"), 0.5,
        ),
        Workload("mc_long", sweep(range(1, 9), 128, 1000), ("engine.embeddable_prefix",), 0.8),
        Workload("long_embed", long_embed(200_000, 20_000, 12), ("engine",), 0.8),
        Workload(
            "structure_scan", structure_scan(200_000, 4, 20_000, 2_000, 3),
            ("walls", "engine.rect_reachable"), 0.8,
        ),
    )
}
