"""Fixed-seed benchmark of sheafdist.

Run from the root of a checkout:

    python3 perfbench/run.py --workload halfopen --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --smoke

One process, one thread, one caller in a closed loop.  A run generates
the workload's ``.gbc`` inputs from ``--seed`` and times whole passes
over the workload's fixed list of operations, at least three and more
until ``--seconds`` have passed, with a fresh set-up timed before each
pass and CLI calls spread over each.  Each operation counts its fastest
pass.  Every answer is checked outside the timed region, and one JSON
object is printed as the last line of stdout.  With ``--trace 0`` it
reports the end-to-end metrics, with timings scaled to a reference host
speed measured during the run (see ``reference.py``); with ``--trace 1``
it reports the per-layer metrics of traced passes, taken from spans
recorded around the package's public functions (see ``spans.py``).
``--smoke`` runs every workload at toy sizes and checks that every
metric named in ``BENCHMARK.json`` is printed.  See ``README.md`` for
the workloads, the metrics and the failures the seed solver shows.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import gen
import oracle
import reference
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
INF = math.inf
TOL = 1e-9
LAYERS = ("barcode", "costs", "matching", "interpolate", "convolve", "cli", "intervals")
# The host gauge: reference.bottleneck runs after every REF_EVERY-th
# operation of a pass.  Each of those places keeps its fastest call over
# the passes, exactly as each operation keeps its fastest pass, and the
# gauge is their median, so it meets the host's fast stretches as often
# as the operations' medians do.  REF_MS is the gauge on a 2-vCPU VM
# (Python 3.11.7) in its fast stretches.  End-to-end timings are scaled
# by REF_MS / the run's gauge: they read as on that host at that speed,
# so a run that falls in a slow stretch of a shared host reads about the
# same as one that does not.
REF_MS = 2.8
REF_EVERY = 5


@dataclass(frozen=True)
class Settings:
    smoke: bool
    passes: int  # least passes over the operation list per run; one set-up before each
    cli_pairs: int  # operations also run through the CLI, one call at a time
    cli_rounds: int | None  # passes after the first that call each CLI pair once; None: all
    import_runs: int  # subprocesses timed for cli.import_ms
    ladder: tuple[int, ...]  # bars per slot side


FULL = Settings(False, 3, 10, None, 5, (50, 100, 200, 400, 700, 1000, 1400, 2000))
SMOKE = Settings(True, 2, 2, 2, 1, (4, 8))


@dataclass(frozen=True)
class Workload:
    name: str
    cases: Callable[[random.Random, bool], list[gen.Case]]
    ladder: Callable[[random.Random, int], gen.Case] | None
    limit_s: float | None  # per-call limit of a ladder rung
    pipeline: bool  # full user pipeline on .gbc text; else one solve of a parsed pair


SMOKE_TIERS = (2, 1, 1, 1, 1)


def _sizes(rng: random.Random, smoke: bool, lo: int, hi: int) -> list[int]:
    return gen.tiered_sizes(rng, 3, 8, SMOKE_TIERS) if smoke else gen.tiered_sizes(rng, lo, hi)


def _halfopen_cases(rng: random.Random, smoke: bool) -> list[gen.Case]:
    small = 3 if smoke else 25
    sizes = _sizes(rng, smoke, 25, 60)
    return [gen.halfopen_case(rng, big, small, k % 4) for k, big in enumerate(sizes)]


def _many_slots_cases(rng: random.Random, smoke: bool) -> list[gen.Case]:
    if smoke:
        plan = [(6, k % 10 == 9) for k in range(10)]
    else:
        # five tiers of degrees, as halfopen's slot sizes, so p90 is the
        # median of the top tier and not the luck of the slowest samples;
        # two operations of each tier are at infinite distance
        sizes = sorted(gen.tiered_sizes(rng, 25, 80))
        plan = [(degrees, k % 10 == 9) for k, degrees in enumerate(sizes)]
        rng.shuffle(plan)
    return [gen.many_slots_case(rng, degrees, infinite) for degrees, infinite in plan]


WORKLOADS = {
    w.name: w
    for w in (
        # The seed solver takes 3-7.5 s at 400 bars, over seeds and over the
        # swings in speed of a shared machine, and raises RecursionError
        # at 700 after 1.6-6.4 s: the limit clears both with room to spare.
        Workload("halfopen", _halfopen_cases, gen.halfopen_ladder_case, 15.0, False),
        Workload("many_slots", _many_slots_cases, None, None, True),
    )
}


# ---------------------------------------------------------------------
# operations and their checks
# ---------------------------------------------------------------------


def _import_package() -> SimpleNamespace:
    """A fresh import of the package; module attributes are looked up
    at call time, so the tracer's patches apply."""
    for name in [m for m in sys.modules if m == "sheafdist" or m.startswith("sheafdist.")]:
        del sys.modules[name]
    return SimpleNamespace(
        **{name: importlib.import_module(f"sheafdist.{name}") for name in LAYERS}
    )


def _solve(sd, pair):
    return sd.matching.distance_with_matching(*pair)


def _pipeline(sd, case: gen.Case):
    F = sd.barcode.parse_barcode(case.f_text)
    G = sd.barcode.parse_barcode(case.g_text)
    d, matching = sd.matching.distance_with_matching(F, G)
    path = []
    if d < INF:
        path = [sd.interpolate.interpolate(F, G, matching, t * d) for t in (0.25, 0.5, 0.75)]
    plus = sd.convolve.convolve_barcode(F, case.eps)
    minus = sd.convolve.convolve_barcode(F, -case.eps)
    return d, matching, F, G, path, plus, minus, sd.barcode.format_barcode(plus)


def _digest(wl: Workload, out) -> tuple:
    """What a repeated operation must reproduce exactly."""
    return (out[0], out[7]) if wl.pipeline else out


def _check(sd, wl: Workload, case: gen.Case, inp, out) -> str | None:
    d, matching = out[0], out[1]
    F, G = (out[2], out[3]) if wl.pipeline else inp
    err = oracle.check_matching(F, G, d, matching, sd.costs.pair_cost, sd.costs.deletion_cost)
    if err or not wl.pipeline:
        return err
    path, plus, text = out[4], out[5], out[7]
    if case.infinite != (d == INF):
        return f"distance {d}, built to be {'infinite' if case.infinite else 'finite'}"
    brute = sd.matching.bruteforce_distance(F, G)
    if brute != d:
        return f"bruteforce_distance {brute} != {d}"
    if path:
        half = sd.matching.distance_with_matching(F, path[1])[0]
        if half > d / 2 + TOL:
            return f"d(F, U_d/2) = {half} > d/2 = {d / 2}"
    if sd.barcode.parse_barcode(text) != plus:
        return "format_barcode does not round-trip"
    return None


# ---------------------------------------------------------------------
# phases of a run
# ---------------------------------------------------------------------


@dataclass
class Prepared:
    sd: SimpleNamespace
    cases: list[gen.Case]
    files: list[tuple[Path, Path]]
    inputs: list


def _setup(wl: Workload, seed: int, st: Settings, workdir: Path) -> tuple[float, Prepared]:
    """Generate inputs, write the .gbc files, import, one warm-up call."""
    t0 = time.perf_counter()
    cases = wl.cases(random.Random(f"{wl.name}:{seed}"), st.smoke)
    files = []
    for k, case in enumerate(cases):
        f, g = workdir / f"{k:03d}F.gbc", workdir / f"{k:03d}G.gbc"
        f.write_text(case.f_text, encoding="utf-8")
        g.write_text(case.g_text, encoding="utf-8")
        files.append((f, g))
    sd = _import_package()
    if wl.pipeline:
        inputs = list(cases)
    else:
        parse = sd.barcode.parse_barcode
        inputs = [(parse(c.f_text), parse(c.g_text)) for c in cases]
    smallest = min(range(len(cases)), key=lambda k: len(cases[k].f_text))
    (_pipeline if wl.pipeline else _solve)(sd, inputs[smallest])
    return time.perf_counter() - t0, Prepared(sd, cases, files, inputs)


@dataclass
class Measured:
    best: list[float]  # per operation, its fastest pass in seconds; inf when it failed
    distances: list[float]
    errors: dict[int, str]  # operation index -> first failure
    pass_busy: list[float]  # per pass, seconds spent inside operations
    digests: list  # per operation, what every repetition must reproduce
    cli_best: dict[int, float]  # per CLI pair, its fastest call in ms; inf when one failed
    cli_failures: dict[int, str]  # CLI pair -> first failure
    # place in a pass -> its fastest reference call over the passes, in ms
    ref_best: dict[int, float] = field(default_factory=dict)


def _measure(wl: Workload, p: Prepared, seconds: float, passes: int,
             cli: frozenset[int] = frozenset(), cli_rounds: int | None = 0,
             tracer: Tracer | None = None, expect: list | None = None,
             between: Callable[[], None] | None = None) -> Measured:
    """Whole passes over the operation list, at least ``passes`` of them
    and more until ``seconds`` have passed since the first began, CLI
    calls and ``between`` included.  Each operation keeps
    its fastest pass, so a stretch of machine slowdown that misses one
    of its passes does not show.  ``between`` runs before every pass
    after the first.  The first pass checks every answer, and later
    passes must reproduce it.  In each of the ``cli_rounds`` passes after
    the first (each one, when None), every operation in ``cli`` also goes
    through the CLI once.
    Those calls are spread evenly over the pass, in an order that turns
    by one each pass, so a slow stretch of the machine meets few calls
    of any one pair.  Each pass runs the operations in its own shuffled
    order, so no operation always follows a set-up or a CLI call.  After
    every REF_EVERY-th operation the reference computation runs once for
    the host gauge, timed on its own."""
    op = _pipeline if wl.pipeline else _solve
    digests = expect if expect is not None else [None] * len(p.inputs)
    n = len(p.inputs)
    pairs = sorted(cli)
    gap = n // len(pairs) if pairs else 0
    m = Measured([INF] * n, [INF] * n, {}, [], digests, {}, {})
    clock = time.perf_counter
    guard = tracer.installed(p.sd) if tracer else contextlib.nullcontext()
    start = clock()
    with guard:
        while len(m.pass_busy) < passes or clock() - start < seconds:
            if between and m.pass_busy:
                between()
            m.pass_busy.append(0.0)
            turn = len(m.pass_busy) - 1
            order = list(range(n))
            random.Random(turn).shuffle(order)
            calls = {}
            if turn >= 1 and (cli_rounds is None or turn <= cli_rounds):
                calls = {(i + 1) * gap - 1: pairs[(i + turn) % len(pairs)] for i in range(len(pairs))}
            for pos, k in enumerate(order):
                inp = p.inputs[k]
                if tracer:
                    tracer.op = k
                t0 = clock()
                try:
                    out = op(p.sd, inp)
                except Exception as exc:  # a failed operation, recorded and counted
                    m.pass_busy[-1] += clock() - t0
                    m.errors.setdefault(k, f"{type(exc).__name__}: {exc}")
                    continue
                dt = clock() - t0
                m.pass_busy[-1] += dt
                m.distances[k] = out[0]
                if k not in m.errors:
                    m.best[k] = min(m.best[k], dt)
                if digests[k] is None:
                    err = _check(p.sd, wl, p.cases[k], inp, out)
                    if err:
                        m.errors.setdefault(k, f"wrong answer: {err}")
                        m.best[k] = INF
                    digests[k] = _digest(wl, out)
                elif _digest(wl, out) != digests[k]:
                    m.errors.setdefault(k, "result differs from the checked pass")
                    m.best[k] = INF
                if pos in calls:
                    _cli_call(p, calls[pos], m)
                if pos % REF_EVERY == REF_EVERY - 1:
                    t0 = clock()
                    reference.bottleneck()
                    ms = 1000.0 * (clock() - t0)
                    m.ref_best[pos] = min(m.ref_best.get(pos, INF), ms)
    return m


def _fastest(runs: list[Measured]) -> list[float]:
    """Per operation, its fastest pass over several measurements."""
    return [min(xs) for xs in zip(*(r.best for r in runs))]


def _subprocess_ms(cmd: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT, timeout=150)
    return 1000.0 * (time.perf_counter() - t0), proc


def _cli_subset(cases: list[gen.Case], count: int) -> frozenset[int]:
    """The ``count`` operations nearest the median size."""
    order = sorted(range(len(cases)), key=lambda k: (cases[k].slot_max, len(cases[k].f_text), k))
    start = max(0, len(order) // 2 - count // 2)
    return frozenset(order[start : start + count])


def _cli_call(p: Prepared, k: int, m: Measured) -> None:
    """``python -m sheafdist match`` on pair ``k``; the first stdout line
    must be the in-process distance."""
    f, g = p.files[k]
    ms, proc = _subprocess_ms([sys.executable, "-m", "sheafdist", "match", str(f), str(g)])
    first = proc.stdout.split("\n", 1)[0]
    expected = p.sd.intervals.fmt_number(m.distances[k])
    if proc.returncode != 0 or first != expected:
        m.cli_failures.setdefault(k, f"cli pair {k}: exit {proc.returncode}, first line "
                                     f"{first!r}, expected {expected!r}")
        ms = INF
    m.cli_best[k] = INF if k in m.cli_failures else min(m.cli_best.get(k, INF), ms)


class RungTimeout(Exception):
    """A ladder rung ran past the per-call limit."""


def _alarm(signum, frame):
    raise RungTimeout


def _ladder(wl: Workload, p: Prepared, seed: int, st: Settings) -> tuple[list[tuple], bool]:
    """Solve one slot of each ladder size under a per-call limit, until
    the first failure; returns (rung, status, seconds) records and
    whether every answer given was correct."""
    rng = random.Random(f"{wl.name}:{seed}:ladder")
    parse, solve = p.sd.barcode.parse_barcode, p.sd.matching.distance_with_matching
    records, correct, stopped = [], True, False
    for n in st.ladder:
        if stopped:
            records.append((n, "not_attempted", 0.0))
            continue
        case = wl.ladder(rng, n)
        F, G = parse(case.f_text), parse(case.g_text)
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, wl.limit_s)
        t0 = time.perf_counter()
        try:
            d, matching = solve(F, G)
            status = "ok"
        except RungTimeout:
            status = "over_limit"
        except Exception as exc:  # a failed rung, such as RecursionError, is recorded
            status = type(exc).__name__
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        dt = time.perf_counter() - t0
        if status == "ok":
            err = _check(p.sd, wl, case, (F, G), (d, matching))
            if err:
                status, correct = f"wrong: {err}", False
        records.append((n, status, dt))
        stopped = status != "ok"
    return records, correct


# ---------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------


def _ms_quantiles(latencies: list[float]) -> tuple[float, float]:
    """Median and nearest-rank p90 in ms; p90 has a tenth of the samples above it."""
    ms = sorted(1000.0 * x for x in latencies)
    return statistics.median(ms), ms[math.ceil(0.9 * len(ms)) - 1]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_plain(wl: Workload, seed: int, seconds: float, st: Settings, workdir: Path):
    dt, p = _setup(wl, seed, st, workdir)
    setups = [dt]

    def setup_again() -> None:
        # timed and dropped; the passes keep using the first set-up
        setups.append(_setup(wl, seed, st, workdir)[0])
        gc.collect()

    m = _measure(wl, p, seconds, st.passes, _cli_subset(p.cases, st.cli_pairs), st.cli_rounds,
                 between=setup_again)
    peak_ops = _peak_rss_mb()
    # the operations' inputs would slow every garbage collection in the ladder
    p.inputs = None
    gc.collect()
    records, ladder_correct = _ladder(wl, p, seed, st) if wl.ladder else ([], True)

    rungs = [r for r in records if r[1] != "not_attempted"]
    ok_sizes = [p.cases[k].slot_max for k in range(len(p.cases)) if k not in m.errors]
    ok_sizes += [n for n, status, _ in rungs if status == "ok"]
    attempted = len(p.cases) + len(m.cli_best) + len(rungs)
    failed = len(m.errors) + len(m.cli_failures) + sum(r[1] != "ok" for r in rungs)
    p50, p90 = _ms_quantiles(m.best)
    completed = [x for x in m.best if x < INF]
    raw = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": p50,
        "op_p90_ms": p90,
        "ops_per_s": len(completed) / sum(completed) if completed else 0.0,
        "cli_p50_ms": statistics.median(m.cli_best.values()),
    }
    gauge = statistics.median(m.ref_best.values())
    slow = gauge / REF_MS  # how much slower the host ran than at REF_MS
    metrics = {
        "setup_s": (raw["setup_s"] / slow, "s"),
        "op_p50_ms": (raw["op_p50_ms"] / slow, "ms"),
        "op_p90_ms": (raw["op_p90_ms"] / slow, "ms"),
        "ops_per_s": (raw["ops_per_s"] * slow, "1/s"),
        "cli_p50_ms": (raw["cli_p50_ms"] / slow, "ms"),
        "max_ok_bars": (max(ok_sizes, default=0), "bars"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (peak_ops, "MB"),
    }
    notes = [f"# operations: {len(p.cases)} distinct; passes of "
             + " ".join(f"{x:.3f}" for x in m.pass_busy) + " s inside operations; set-ups of "
             + " ".join(f"{x:.3f}" for x in setups) + " s"]
    notes.append(f"# host: gauge {gauge:.4f} ms, {slow:.4f}x REF_MS; "
                 "unscaled " + ", ".join(f"{k} {v:.4f}" for k, v in raw.items()))
    notes += [f"# ladder {n} bars per side: {status} after {dt:.3f} s" for n, status, dt in records]
    if records:
        notes.append(f"# peak RSS after the ladder: {_peak_rss_mb():.1f} MB")
    notes += [f"# FAILED operation {k}: {msg}" for k, msg in sorted(m.errors.items())]
    notes += [f"# FAILED {msg}" for _, msg in sorted(m.cli_failures.items())]
    correct = not m.errors and not m.cli_failures and ladder_correct
    return correct, attempted, failed, metrics, notes


def run_traced(wl: Workload, seed: int, seconds: float, st: Settings, workdir: Path):
    _, p = _setup(wl, seed, st, workdir)
    subset = _cli_subset(p.cases, st.cli_pairs)
    plain = _measure(wl, p, 0.0, 2, subset, 1)
    # the checked pass runs the checks, and the next the CLI calls, between operations;
    # clean and traced passes alternate and run nothing else, and the
    # overhead ratio compares their per-operation fastest passes
    tracer = Tracer()
    clean, traced = [], []
    for _ in range(st.passes):
        clean.append(_measure(wl, p, 0.0, 1, expect=plain.digests))
        traced.append(_measure(wl, p, 0.0, 1, tracer=tracer, expect=plain.digests))
    tracer.write(WORK / f"spans-{wl.name}-{seed}.jsonl")

    imports = [_subprocess_ms([sys.executable, "-c", "import sheafdist"])[0]
               for _ in range(st.import_runs)]
    main_ms = []
    for k in subset:
        f, g = p.files[k]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            p.sd.cli.main(["match", str(f), str(g)])
            main_ms.append(1000.0 * (time.perf_counter() - t0))

    metrics = tracer.layer_metrics(len(p.cases) * len(traced))
    metrics["cli.import_ms"] = (statistics.median(imports), "ms")
    metrics["cli.main_ms"] = (statistics.median(main_ms), "ms")
    metrics["cli.process_overhead_ms"] = (
        statistics.median(plain.cli_best.values()) - statistics.median(main_ms), "ms")
    metrics["trace.overhead_ratio"] = (sum(_fastest(traced)) / sum(_fastest(clean)), "ratio")
    errors = {k: v for m in (plain, *clean, *traced) for k, v in m.errors.items()}
    notes = [f"# checked pass {plain.pass_busy[0]:.3f} s, CLI pass {plain.pass_busy[1]:.3f} s; "
             "untraced passes "
             + " ".join(f"{m.pass_busy[0]:.3f}" for m in clean) + " s; traced passes "
             + " ".join(f"{m.pass_busy[0]:.3f}" for m in traced)
             + f" s; {len(tracer.spans) - 1} spans"]
    notes += [f"# FAILED operation {k}: {msg}" for k, msg in sorted(errors.items())]
    notes += [f"# FAILED {msg}" for _, msg in sorted(plain.cli_failures.items())]
    attempted = len(p.cases) + len(plain.cli_best)
    failed = len(errors) + len(plain.cli_failures)
    return not errors and not plain.cli_failures, attempted, failed, metrics, notes


def _json_value(x: float):
    return x if math.isfinite(x) else None


def _result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": _json_value(v), "unit": u} for k, (v, u) in metrics.items()},
    })


def run(wl: Workload, seed: int, seconds: float, trace: bool, st: Settings) -> tuple:
    workdir = WORK / f"{wl.name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return (run_traced if trace else run_plain)(wl, seed, seconds, st, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _machine(wl: Workload) -> str:
    return (f"# machine: nproc={os.cpu_count()} python={sys.version.split()[0]} "
            f"ladder_limit_s={wl.limit_s}")


def smoke() -> int:
    """Every workload at toy sizes, traced and untraced; fails when a
    check fails or a metric named in BENCHMARK.json is missing."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = True
    for wl in WORKLOADS.values():
        print(_machine(wl))
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            correct, attempted, failed, metrics, notes = run(wl, 1, 0.0, trace, SMOKE)
            wanted = [m["name"] for m in spec[key]]
            missing = sorted(set(wanted) ^ set(metrics))
            print(f"## {wl.name} trace={int(trace)}: correct={correct} "
                  f"attempted={attempted} failed={failed}")
            for line in notes:
                print(line)
            for name in wanted:
                if name in metrics:
                    print(f"{name:28s} {metrics[name][0]:14.4f} {metrics[name][1]}")
            if missing:
                print(f"# metric names differ from BENCHMARK.json: {missing}")
            ok = ok and correct and not missing
    print("smoke: ok" if ok else "smoke: FAILED")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, every workload")
    args = parser.parse_args(argv)
    if not (SRC / "sheafdist" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'sheafdist'}; run from a sheafdist checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    if args.smoke:
        return smoke()
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required without --smoke")
    correct, attempted, failed, metrics, notes = run(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), FULL
    )
    print(_machine(WORKLOADS[args.workload]))
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.4f} {unit}")
    print(_result_line(correct, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
