"""contextua benchmark: closed-loop CLI analyses with traced per-layer numbers.

Run from the repository root:

    python3 perfbench/run.py --workload ks_cliques --seed 1 --seconds 15 --trace 0

One client runs the ``contextua`` CLI entry point in-process (click's
``CliRunner``) on generated files, one analysis at a time, and waits for
each report. Workloads are built in ``workloads.py`` from the seed; the
program only sees the written files under ``perfbench/_work``.

``--trace 0`` measures the end-to-end metrics. Set-up (import ``contextua``
afresh, generate, write, warm up on the smallest items) is repeated and
its median reported, without the file writing. The timed phase then runs
whole passes over the items in a seeded order until ``--seconds`` have
passed and at least 100 analyses are done.

``--trace 1`` runs one pass untraced and one pass with spans and counts
recorded by ``tracing.py`` at the public functions of each layer, and reports
the per-layer metrics; both passes are fixed, so counts repeat exactly for
a seed. Spans are written to ``perfbench/_work/spans-<workload>-<seed>.csv``.

Every report is checked by ``check.py`` after the timed phase, and repeated
analyses of an item must be byte-identical. The last stdout line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "_work"
MIN_ANALYSES = 100
SETUP_REPEATS = 11
WARMUP_ITEMS = 4
MAX_SECONDS_FACTOR = 4
# Median duration of reference_work() on the machine the benchmark was tuned
# on (2 shared cores, Python 3.11, numpy 2.4); latencies are rescaled to it.
REFERENCE_NOMINAL_S = 0.001

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no program to run)."""


def import_contextua():
    """Import contextua afresh from the checkout's ``src``, nowhere else."""
    package = SRC / "contextua" / "__init__.py"
    if not package.is_file():
        raise SetupError(f"no contextua package at {package.parent}")
    for name in [m for m in sys.modules if m == "contextua" or m.startswith("contextua.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("contextua.cli")
    if Path(cli.__file__).resolve().parent != package.parent.resolve():
        raise SetupError(f"contextua imported from {cli.__file__}, not {SRC}")
    return cli


class Prepared:
    """Generated items, written files and a fresh program import."""

    def __init__(self, workload: str, seed: int, directory: Path, lap=lambda step: None) -> None:
        """Set up; ``lap(step)`` is called at the end of each step (see ScaledClock)."""
        from click.testing import CliRunner

        self.cli = import_contextua()
        lap("import")
        self.items = workloads.WORKLOADS[workload](seed)
        lap("generate")
        self.args = [item.write(directory) for item in self.items]
        self.runner = CliRunner()
        lap("write")
        smallest = sorted(range(len(self.items)), key=lambda i: (self.items[i].size, i))
        self.warmup = {}
        for index in smallest[:WARMUP_ITEMS]:
            self.warmup[index] = self.invoke(index)
            lap("warm-up")

    def invoke(self, index: int) -> tuple[int, bytes, str]:
        """Run one analysis; returns (exit code, stdout bytes, exception text)."""
        result = self.runner.invoke(self.cli.main, self.args[index])
        error = ""
        if result.exception is not None and not isinstance(result.exception, SystemExit):
            error = repr(result.exception)
        return result.exit_code, result.stdout_bytes, error


def set_up(workload: str, seed: int, repeats: int) -> tuple[Prepared, list[Counter[str]]]:
    """Set up ``repeats`` times; keep the last prepared and every step's times.

    Each set-up starts from the same state: no earlier Prepared alive, no
    input files, garbage collected. A ScaledClock times it step by step.
    """
    prepared, steps = None, []
    for _ in range(repeats):
        prepared = None
        shutil.rmtree(work_dir(workload, seed), ignore_errors=True)
        gc.collect()
        clock = ScaledClock()
        prepared = Prepared(workload, seed, work_dir(workload, seed), clock.lap)
        steps.append(clock.steps)
    return prepared, steps


def setup_seconds(steps: Counter[str]) -> float:
    """One set-up's time without writing the input files.

    Writing is the benchmark's own file-system work, which the program
    cannot move work into; on the shared disk it varied from 10 ms to 65 ms
    for the same files, so it is printed but left out of ``setup_s``.
    """
    return sum(seconds for step, seconds in steps.items() if step != "write")


def work_dir(workload: str, seed: int) -> Path:
    return WORK / f"{workload}-{seed}"


class Outcomes:
    """Per-item first output and per-analysis failure bookkeeping."""

    def __init__(self, prepared: Prepared) -> None:
        self.prepared = prepared
        self.first: dict[int, tuple[int, bytes, str]] = {}
        self.analyses: list[int] = []  # item index of every analysis, in order
        self.mismatched: Counter[int] = Counter()

    def record(self, index: int, outcome: tuple[int, bytes, str]) -> None:
        self.analyses.append(index)
        reference = self.first.setdefault(index, outcome)
        if outcome != reference:
            self.mismatched[index] += 1

    def failures(self) -> tuple[int, list[str], Counter[str]]:
        """Check every distinct output; returns (failed, messages, verdicts)."""
        import check
        import jsonschema

        schema = json.loads((SRC / "contextua" / "data" / "report.schema.json").read_text())
        validator = jsonschema.Draft7Validator(schema)
        bad_items: dict[int, list[str]] = {}
        verdicts: Counter[str] = Counter()
        for index, (code, output, error) in self.first.items():
            item = self.prepared.items[index]
            errors = []
            if code != 0 or error:
                errors.append(f"exit {code} {error}".strip())
            else:
                verdict, errors = check.check_report(item, output.decode("utf-8"), validator)
                verdicts[verdict] += 1
            warm = self.prepared.warmup.get(index)
            if warm is not None and warm != (code, output, error):
                errors.append("warm-up output differs from the timed output")
            if errors:
                bad_items[index] = errors
        failed = sum(
            1 for index in self.analyses if index in bad_items
        ) + sum(n for index, n in self.mismatched.items() if index not in bad_items)
        messages = [
            f"{self.prepared.items[i].name}: {'; '.join(e)}" for i, e in sorted(bad_items.items())
        ]
        messages += [
            f"{self.prepared.items[i].name}: {n} repeated outputs differ"
            for i, n in sorted(self.mismatched.items())
        ]
        return failed, messages, verdicts


def pass_order(workload: str, seed: int, count: int) -> list[int]:
    order = list(range(count))
    random.Random(f"order/{workload}/{seed}").shuffle(order)
    return order


def reference_work() -> float:
    """Time a fixed piece of interpreter and small-numpy work, collector off.

    It is benchmark code, the same for every version of the program, so its
    duration measures only how fast the shared machine runs at the moment.
    """
    import numpy

    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(2000):
        key = (i * 7919) & 511
        table[key] = table.get(key, 0) ^ (i & key).bit_count()
    rows = numpy.zeros((16, 64), dtype=numpy.uint8)
    for i in range(200):
        r = i % 16
        if rows[r, i % 64] == 0:
            rows[r] ^= rows[(r + 1) % 16]
        rows[r, i % 64] ^= 1
    sorted(table.items(), key=lambda kv: kv[1])
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


class ScaledClock:
    """Sums the durations of consecutive steps at the nominal machine speed.

    Each call to ``lap(step)`` ends a step and adds its time to
    ``steps[step]``. The wall time is rescaled like a latency, by the mean
    of the reference_work() times just before and just after the step; the
    reference calls themselves are not counted.
    """

    def __init__(self) -> None:
        self.steps: Counter[str] = Counter()
        self.reference = reference_work()
        self.start = time.perf_counter()

    def lap(self, step: str) -> None:
        elapsed = time.perf_counter() - self.start
        reference = reference_work()
        self.steps[step] += elapsed * 2 * REFERENCE_NOMINAL_S / (self.reference + reference)
        self.reference = reference
        self.start = time.perf_counter()


def run_pass(
    prepared: Prepared,
    order: list[int],
    outcomes: Outcomes,
    latencies: list[float],
    references: list[float],
) -> None:
    """One analysis per item, each preceded by a timed reference_work()."""
    for index in order:
        references.append(reference_work())
        start = time.perf_counter()
        outcome = prepared.invoke(index)
        latencies.append(time.perf_counter() - start)
        outcomes.record(index, outcome)


def rescale(latencies: list[float], references: list[float]) -> list[float]:
    """Latencies at the nominal machine speed.

    ``references`` holds one reference_work() time before each analysis and
    one after the last. Each latency is multiplied by REFERENCE_NOMINAL_S
    over the mean of the two reference times around it, which cancels the
    drift of the shared machine's speed.
    """
    return [
        latency * 2 * REFERENCE_NOMINAL_S / (references[k] + references[k + 1])
        for k, latency in enumerate(latencies)
    ]


# ---------------------------------------------------------------- untraced


def measure(args: argparse.Namespace) -> dict:
    prepared, setup_steps = set_up(args.workload, args.seed, SETUP_REPEATS)
    setup_times = [setup_seconds(steps) for steps in setup_steps]
    order = pass_order(args.workload, args.seed, len(prepared.items))
    outcomes = Outcomes(prepared)
    latencies: list[float] = []
    references: list[float] = []
    passes = 0
    start = time.perf_counter()
    while True:
        run_pass(prepared, order, outcomes, latencies, references)
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds and len(latencies) >= MIN_ANALYSES:
            break
        if elapsed >= MAX_SECONDS_FACTOR * args.seconds:
            break
    timed = time.perf_counter() - start
    references.append(reference_work())
    # Read before the checks, whose imports and parsing are not the program's.
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, messages, verdicts = outcomes.failures()
    checked = time.perf_counter() - start - timed
    attempted = len(latencies)
    scaled = rescale(latencies, references)
    metrics = {
        "latency_p50_s": (statistics.median(scaled), "s"),
        "latency_p90_s": (statistics.quantiles(scaled, n=10)[8], "s"),
        "analyses_per_s": ((attempted - failed) / sum(scaled), "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }
    print(f"workload {args.workload} seed {args.seed}: {len(prepared.items)} items, "
          f"{passes} passes, {attempted} analyses in {timed:.2f} s, checked in {checked:.2f} s")
    print(f"  verdicts (distinct items): {dict(sorted(verdicts.items()))}")
    print(f"  setup runs (s): {' '.join(f'{t:.4f}' for t in setup_times)}")
    print("  setup step medians (s): " + ", ".join(
        f"{step} {statistics.median(steps[step] for steps in setup_steps):.4f}"
        for step in setup_steps[0]) + " (write is not in setup_s)")
    print(f"  latency samples: {attempted} ({attempted - int(0.9 * attempted)} above p90)")
    print(f"  machine speed: reference {statistics.median(references) * 1e3:.4f} ms "
          f"(nominal {REFERENCE_NOMINAL_S * 1e3:.4f} ms); unscaled p50 "
          f"{statistics.median(latencies):.6g} s, p90 {statistics.quantiles(latencies, n=10)[8]:.6g} s, "
          f"{(attempted - failed) / timed:.6g} analyses/s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<16} {value:.6g} {unit}")
    print(f"  {'failed_ratio':<16} {failed / attempted:.6g} ratio")
    for message in messages:
        print(f"  FAILED {message}")
    return _result(attempted, failed, metrics)


def _result(attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


# ---------------------------------------------------------------- traced


def trace_run(args: argparse.Namespace) -> dict:
    from tracing import layer_metrics, new_tracer

    prepared, _ = set_up(args.workload, args.seed, 1)
    order = pass_order(args.workload, args.seed, len(prepared.items))

    plain = Outcomes(prepared)
    start = time.perf_counter()
    run_pass(prepared, order, plain, [], [])
    untraced_wall = time.perf_counter() - start

    traced = Outcomes(prepared)
    traced.first = dict(plain.first)
    tracer = new_tracer()
    start = time.perf_counter()
    try:
        for index in order:
            span = tracer.open("cli")
            try:
                outcome = prepared.invoke(index)
            finally:
                tracer.close(span)
            traced.record(index, outcome)
    finally:
        tracer.uninstall()
    traced_wall = time.perf_counter() - start

    failed, messages, verdicts = traced.failures()
    attempted = len(traced.analyses)
    metrics = layer_metrics(tracer, traced_wall, untraced_wall)
    WORK.mkdir(exist_ok=True)
    tracer.write_spans(WORK / f"spans-{args.workload}-{args.seed}.csv")
    print(f"workload {args.workload} seed {args.seed} traced: {len(prepared.items)} items, "
          f"untraced pass {untraced_wall:.2f} s, traced pass {traced_wall:.2f} s, "
          f"{len(tracer.spans)} spans")
    print(f"  verdicts (distinct items): {dict(sorted(verdicts.items()))}")
    for name, seconds in sorted(tracer.self_times().items(), key=lambda kv: -kv[1]):
        print(f"  self {name:<32} {seconds:10.4f} s  {tracer.calls[name]:>9} calls")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:.6g} {unit}")
    for message in messages:
        print(f"  FAILED {message}")
    return _result(attempted, failed, metrics)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = trace_run(args) if args.trace else measure(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir(args.workload, args.seed), ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
