"""Run one syncgames benchmark workload and print its metrics.

    python3 bench/run.py --workload hv-classical --seed 1 --seconds 25 --trace 0

Run from the repository root.  The library is imported from ``src/`` next to
this directory.  Each operation is timed in a closed loop with one operation
outstanding, whole rounds at a time, until the ops have taken ``--seconds``
(rescaled, see below); every answer is checked against its oracle after the
timed loop.

Between operations a fixed ``Fraction`` loop that runs no library code is
timed too.  The host's speed drifts by a factor of two within minutes, and
the loop drifts with it, so every reported time is rescaled by how long the
loop took around it: times read as they would at the nominal host speed,
where the loop takes ``REF_NOMINAL_S``.  The report also prints raw wall
times.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each round
untraced and then traced, and prints the per-layer metrics from the traced
passes plus the tracing overhead.  A readable report comes first;
the last line of standard output is one JSON object.  The exit code is 0 when
every answer checked out, 1 when some did not, 2 when the run cannot start.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

from tracer import OP, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
REF_STEPS = 1500
REF_NOMINAL_S = 0.0125  # the reference loop in a steady spell of the host these bounds were set on

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "simplex.solve_s": "s/op",
    "simplex.calls_per_op": "calls/op",
    "simplex.support": "count",
    "simplex.max_bits": "bits",
    "category.decompose_self_s": "s/op",
    "category.lp_columns": "count",
    "category.lp_rows": "count",
    "category.lp_column_use": "ratio",
    "category.predicates_s": "s/op",
    "category.compose_s": "s/op",
    "category.compose_calls": "calls/op",
    "morphology.nullspace_s": "s/op",
    "morphology.nullspace_calls": "calls/op",
    "morphology.nullspace_dim": "count",
    "morphology.witness_self_s": "s/op",
    "corrcore.parse_s": "s/op",
    "corrcore.serialize_s": "s/op",
    "corrcore.json_bytes": "bytes/op",
    "constructors.quantum_eval_s": "s/op",
    "boole.transform_s": "s/op",
    "cli.self_s": "s/op",
    "trace.overhead_ratio": "ratio",
}


def environment() -> dict:
    """Facts that let a result from another or a busy machine be flagged."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg_at_start": list(os.getloadavg()),
    }


def reference() -> float:
    """Seconds that a fixed ``Fraction`` loop takes now: the host's speed."""
    began = time.perf_counter()
    a = Fraction(1, 3)
    for i in range(1, REF_STEPS):
        a = a * Fraction(i + 1, i) - Fraction(1, i + 7)
    return time.perf_counter() - began


def rescale(seconds: float, ref_before: float, ref_after: float) -> float:
    """``seconds`` as they would read at the nominal host speed."""
    return seconds * 2 * REF_NOMINAL_S / (ref_before + ref_after)


def tail(latencies: list[float]) -> tuple[int, float, int]:
    """The highest whole percentile with at least ten samples beyond it.

    Returns the percentile, its nearest-rank value and the number of samples
    above that rank.  Runs too short for ten such samples report p50.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    for q in range(99, 49, -1):
        rank = math.ceil(q * n / 100)
        if n - rank >= 10:
            break
    else:
        q, rank = 50, math.ceil(n / 2)
    return q, ordered[rank - 1], n - rank


class Run:
    """The timed closed loop, one round at a time, and the records it leaves."""

    def __init__(self, rounds):
        self.rounds = rounds
        self.records = []  # [case, tag, result, error, wall seconds, rescaled seconds, traced]
        self.ref = reference()

    def round(self, index: int, tracer=None) -> float:
        """Run round ``index`` of the pool, one op at a time; return its rescaled op time."""
        first = len(self.records)
        for case in self.rounds[index % len(self.rounds)]:
            tag = len(self.records)
            began = time.perf_counter()
            try:
                if tracer is None:
                    result = case.run(tag)
                else:
                    result = tracer.call(OP, case.run, tag)
                error = None
            except Exception as exc:  # an op that raises counts as failed
                result, error = None, exc
            elapsed = time.perf_counter() - began
            ref, self.ref = self.ref, reference()
            self.records.append(
                [case, tag, result, error, elapsed, rescale(elapsed, ref, self.ref), tracer is not None]
            )
        return sum(record[5] for record in self.records[first:])

    def check(self) -> tuple[list[int], list[str]]:
        """JSON bytes moved per record (-1 when it failed), and the first messages."""
        moved, messages = [], []
        for case, tag, result, error, *_ in self.records:
            if error is None:
                try:
                    moved.append(case.check(result, tag))
                    continue
                except Exception as exc:  # whatever breaks the check, the answer is wrong
                    error = exc
            moved.append(-1)
            if len(messages) < 5:
                messages.append(f"{case.kind}: {type(error).__name__}: {error}")
        return moved, messages


def setup(name: str, seed: int):
    """Build the workload ``SETUP_REPEATS`` times; keep the last, time each (rescaled)."""
    import workloads

    WORK.mkdir(exist_ok=True)
    times = []
    for _ in range(SETUP_REPEATS):
        ref = reference()
        began = time.perf_counter()
        workdir = tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK)
        workload = workloads.build(name, seed, workdir)
        try:
            workload.rounds[0][0].run(-1)  # warm-up; the timed loop runs and checks it again
        except Exception:  # the timed loop counts the failure
            pass
        times.append(rescale(time.perf_counter() - began, ref, reference()))
        if len(times) < SETUP_REPEATS:
            shutil.rmtree(workdir)
    return workload, times


def print_table(title: str, rows: list[tuple]) -> None:
    print(f"== {title}")
    for row in rows:
        print("  " + "  ".join(str(cell).ljust(width) for cell, width in zip(row, (30, 16, 10, 30))))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "syncgames" / "__init__.py").is_file():
        print(f"error: no syncgames package under {SRC}", file=sys.stderr)
        return 2
    env = environment()
    ref = reference()
    began = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import syncgames
    import workloads  # imports the library modules

    import_s = rescale(time.perf_counter() - began, ref, reference())
    if Path(syncgames.__file__).resolve().parent != SRC / "syncgames":
        print(f"error: imported syncgames from {syncgames.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    workload, setup_times = setup(args.workload, args.seed)
    try:
        return measure(args, env, workload, import_s + statistics.median(setup_times))
    finally:
        shutil.rmtree(workload.workdir, ignore_errors=True)


def measure(args, env: dict, workload, setup_s: float) -> int:
    run = Run(workload.rounds)
    plain_times, round_times = [], []
    began = time.perf_counter()

    def more() -> bool:
        # The run stops after ``--seconds`` of rescaled op time, so that the
        # number of ops, and with it the tail percentile, does not follow the
        # host's speed.  1.5 times ``--seconds`` of wall time bounds a slow host.
        op_time = sum(plain_times) + sum(round_times)
        return op_time < args.seconds and time.perf_counter() - began < 1.5 * args.seconds

    if args.trace:
        tracer = Tracer()
        # Each round runs untraced and traced back to back, so that both
        # passes meet the same spells of host slowness; which goes first
        # alternates, so that a second pass's warm start cancels out.
        while more():
            index = len(round_times)
            for traced in (False, True) if index % 2 == 0 else (True, False):
                if not traced:
                    plain_times.append(run.round(index))
                    continue
                tracer.install()
                try:
                    round_times.append(run.round(index, tracer))
                finally:
                    tracer.uninstall()
    else:
        while more():
            round_times.append(run.round(len(round_times)))
    rounds, wall = len(round_times), time.perf_counter() - began
    moved_per_op, messages = run.check()
    failed = moved_per_op.count(-1)
    timed = [i for i, record in enumerate(run.records) if record[6] == bool(args.trace)]
    moved = sum(max(moved_per_op[i], 0) for i in timed)
    raw = [run.records[i][4] for i in timed]
    latencies = [run.records[i][5] for i in timed]
    q, tail_s, beyond = tail(latencies)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    metrics = {
        "ops_per_s": len(timed) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1000,
        "op_tail_ms": tail_s * 1000,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }
    wall_clock = {
        "ops_per_s": len(timed) / sum(raw),
        "op_p50_ms": statistics.median(raw) * 1000,
        "op_tail_ms": tail(raw)[1] * 1000,
    }
    attempted = len(run.records)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(env))
    for message in messages:
        print("FAILED " + message)
    print_table(
        f"end to end ({rounds} {'traced ' if args.trace else ''}rounds"
        f" of {len(workload.rounds[0])} ops, {wall:.2f} s)",
        [(name, f"{metrics[name]:.6g}", END_TO_END[name]) for name in END_TO_END]
        + [
            ("op_tail percentile", f"p{q}", "", f"{beyond} samples beyond, n={len(timed)}"),
            *((f"wall-clock {name}", f"{value:.6g}", END_TO_END[name], "not rescaled")
              for name, value in wall_clock.items()),
            ("fail_ratio", f"{failed / attempted:.6g}", "ratio", f"{failed} of {attempted}"),
            ("corrcore.json_bytes", f"{moved / len(timed):.6g}", "bytes/op"),
        ],
    )
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "rounds": rounds,
        "round_s": round_times,
        "wall_s": wall,
        "tail_percentile": q,
        "tail_beyond": beyond,
        "end_to_end": metrics,
        "wall_clock": wall_clock,
        "failures": messages,
    }
    if args.trace:
        layers = layer_metrics(tracer.spans, moved)
        speed = sum(latencies) / sum(raw)  # the traced passes' mean rescaling
        layers = {k: v * speed if k.endswith("_s") else v for k, v in layers.items()}
        # Traced over untraced op time of the same round, run back to back;
        # the median over rounds keeps one pair that met a speed change from
        # setting the ratio.
        pairs = sorted(t / p for t, p in zip(round_times, plain_times))
        layers["trace.overhead_ratio"] = statistics.median(pairs)
        op_s = layers["op_s"]
        print_table(
            "per layer (traced pass)",
            [
                (name, f"{layers[name]:.6g}", unit,
                 f"{layers[name] / op_s:.1%} of op time" if unit == "s/op" else "")
                for name, unit in PER_LAYER.items()
            ]
            + [("op_s", f"{op_s:.6g}", "s/op"),
               ("harness.self_s", f"{layers['harness.self_s']:.6g}", "s/op"),
               ("trace.overhead pairs", f"{len(pairs)}", "rounds",
                f"ratios {pairs[0]:.3f} to {pairs[-1]:.3f}")],
        )
        record["per_layer"] = layers
        record["overhead_pairs"] = pairs
        record["spans"] = [(s.name, s.start, s.end, s.parent) for s in tracer.spans]
        metrics = {name: layers[name] for name in PER_LAYER}
        units = PER_LAYER
    else:
        units = END_TO_END
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record) + "\n", encoding="utf-8")
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
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(2)
