"""Run one workload of the diotrans benchmark and print its metrics.

    python3 bench/run.py --workload transfer_box --seed 1 --seconds 34 --trace 0

Run from the root of a checkout; the library is imported from ``src/`` of
that checkout, never from an installed copy.  With ``--trace 0`` the run
prints the end-to-end metrics, measured with tracing off and scaled to the
reference speed of ``calibrate.py`` (the raw figures are on the summary
line).  With
``--trace 1`` it runs a fixed number of rounds once untraced and once
traced, and prints the per-layer metrics.  The last line of standard output
is the result object; the line before it is a summary with the failure
breakdown, the tail percentile and the output digest.  See README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from calibrate import Speedometer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"

SETUP_PROBES = 5  # fresh processes timed for setup_s
CAL_EVERY_S = 0.05  # a kernel sample this often, items included
SETUP_CAL_EVERY_S = 0.02  # and during a set-up probe, which lasts under 2 s
MAX_STRETCH = 1.5  # no round starts past this many times --seconds of wall time
WARMUP_S = 2.0
DEADLINE_S = 140.0  # stop measuring past this much process time
TINY_ITEMS = 6
PROCESS_START = time.perf_counter()


def import_library():
    """Import diotrans from this checkout's ``src/`` or exit with an error."""
    package_dir = SRC / "diotrans"
    if not (package_dir / "__init__.py").is_file():
        sys.exit(f"error: no diotrans sources at {package_dir}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import diotrans

    if Path(diotrans.__file__).resolve().parent != package_dir:
        sys.exit(f"error: diotrans was imported from {diotrans.__file__}, not {package_dir}")
    return diotrans


def set_up(workload, seed: int, tiny: bool):
    """Import, preset builds and input generation: (rounds, warm-up items)."""
    from workloads import Library

    import_library()
    lib = Library()
    shared = workload.make_shared(lib)
    if tiny:
        return [workload.make_round(lib, seed, 0, shared)[:TINY_ITEMS]], []
    rounds = [workload.make_round(lib, seed, r, shared) for r in range(workload.pool_rounds)]
    return rounds, workload.make_round(lib, seed, -1, shared)


def probe_setup_seconds(args, repeats: int) -> tuple[float, float]:
    """Median set-up time over ``repeats`` fresh processes: (scaled, raw)."""
    values, raw = [], []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)]
            + (["--tiny"] if args.tiny else []),
            capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed:\n{proc.stderr[-2000:]}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        values.append(probe["setup_s"] * probe["scale"])
        raw.append(probe["setup_s"])
    return statistics.median(values), statistics.median(raw)


class Pass:
    """Times items one by one and checks each outcome."""

    def __init__(self, digest_rounds: int, speed: Speedometer | None = None):
        self.times: list[float] = []
        self.spans: list[tuple[float, float]] = []  # wall start and end of each item
        self.recent_scaled: list[float] = []  # scaled by the samples before the item
        self.speed = speed  # kernel samples on a timer, for scaled times
        self.failures = Counter()
        self.violations = Counter()  # inequality families reported violated
        self.wall = 0.0
        self.rounds = 0
        self.digest = hashlib.sha256()
        self.digest_items = 0
        self.digest_rounds = digest_rounds
        self.cut = False

    def run(self, rounds, *, seconds=None, n_rounds=None) -> "Pass":
        """``n_rounds`` whole rounds, or as many as come nearest to
        ``seconds``: another round starts only while the time so far plus
        half a mean round is below ``seconds``.  A round of about half of
        ``seconds`` then always gives the same count, which keeps the tail
        percentile the same from run to run.  The time so far is the sum of
        the item times scaled to the reference speed, so the count does not
        follow the machine's speed either; past ``MAX_STRETCH`` times
        ``seconds`` of wall time no further round starts."""
        start = time.perf_counter()
        first = len(self.times)
        while n_rounds is None or self.rounds < n_rounds:
            wall = time.perf_counter() - start
            elapsed = sum(self.recent_scaled[first:]) if self.speed else wall
            if (seconds is not None and self.rounds
                    and (elapsed * (1 + 0.5 / self.rounds) >= seconds
                         or wall >= MAX_STRETCH * seconds)):
                break
            for item in rounds[self.rounds % len(rounds)]:
                if time.perf_counter() - PROCESS_START > DEADLINE_S:
                    self.cut = True
                    break
                self.one(item)
            if self.cut:
                break
            self.rounds += 1
        self.wall = time.perf_counter() - start
        return self

    def scaled_times(self) -> list[float]:
        """Item times scaled to the kernel's reference speed, each by the
        samples taken during the item (or nearest to it)."""
        return [t * self.speed.scale_over(*span) for t, span in zip(self.times, self.spans)]

    def one(self, item, tracer=None) -> None:
        index = len(self.times)
        paused = self.speed.paused if self.speed else 0.0
        t0 = time.perf_counter()
        try:
            out = tracer.item_span(index, item.run) if tracer else item.run()
        except Exception as exc:  # noqa: BLE001 - every failure is counted and reported
            out = f"failed {type(exc).__name__}"
            if not self.failures:
                print(f"item {index} ({item.kind}) failed:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
            self.failures[type(exc).__name__] += 1
        t1 = time.perf_counter()
        self.spans.append((t0, t1))
        self.times.append(t1 - t0 - ((self.speed.paused - paused) if self.speed else 0.0))
        if self.speed:
            self.recent_scaled.append(self.times[-1] * self.speed.scale_recent())
        self.violations.update(getattr(out, "violations", ()))
        if self.rounds < self.digest_rounds:
            self.digest.update(f"{item.kind}\n{out}\n".encode())
            self.digest_items += 1

    def warm_up(self, items, seconds: float) -> "Pass":
        start = time.perf_counter()
        for item in items:
            if time.perf_counter() - start >= seconds:
                break
            self.one(item)
        return self


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 items beyond it."""
    ordered = sorted(times)
    k = max(1, len(ordered) - 10)  # 1-based rank; len - k items lie beyond it
    return ordered[k - 1], 100.0 * k / len(ordered)


def main(argv=None) -> int:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=34)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="one truncated round per pass, for the benchmark's own tests")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if args.setup_probe:
        with Speedometer(SETUP_CAL_EVERY_S) as speed:
            paused, t0 = speed.paused, time.perf_counter()
            set_up(workload, args.seed, args.tiny)
            setup_s = time.perf_counter() - t0 - (speed.paused - paused)
        print(json.dumps({"setup_s": setup_s, "scale": speed.scale()}))
        return 0

    library = import_library()
    trace_rounds = 1 if args.tiny else workload.trace_rounds
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.trace:
        metrics, passes, summary_extra = traced_run(args, library, workload, trace_rounds)
        summary.update(summary_extra)
    else:
        setup_s, raw_setup_s = probe_setup_seconds(args, 1 if args.tiny else SETUP_PROBES)
        rounds, warmup = set_up(workload, args.seed, args.tiny)
        with Speedometer(CAL_EVERY_S) as speed:
            warm = Pass(0, speed).warm_up(warmup, WARMUP_S)
            measured = Pass(trace_rounds, speed).run(
                rounds, n_rounds=1 if args.tiny else None, seconds=args.seconds)
        passes = [warm, measured]
        times = measured.scaled_times()
        value, percentile = tail(times)
        raw_tail, _ = tail(measured.times)
        metrics = {
            "items_per_s": (len(times) / sum(times), "1/s"),
            "item_p50_ms": (1000 * statistics.median(times), "ms"),
            "item_tail_ms": (1000 * value, "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        summary.update({
            "rounds": measured.rounds, "measured_s": round(measured.wall, 3),
            "item_tail_percentile": round(percentile, 2), "items": len(measured.times),
            "digest": measured.digest.hexdigest(), "digest_items": measured.digest_items,
            "raw": {"items_per_s": len(times) / measured.wall,
                    "item_p50_ms": 1000 * statistics.median(measured.times),
                    "item_tail_ms": 1000 * raw_tail, "setup_s": raw_setup_s},
            "speed": {"samples": len(speed.ratios), "scale": speed.scale()},
        })
    attempted = sum(len(ps.times) for ps in passes)
    failures = sum((ps.failures for ps in passes), Counter())
    failed = sum(failures.values())
    violations = sum((ps.violations for ps in passes), Counter())
    summary.update({"failed_frac": failed / attempted, "failures": dict(failures),
                    "inequality_violations": dict(violations),
                    "cut_at_deadline": any(ps.cut for ps in passes)})
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


def traced_run(args, library, workload, trace_rounds: int):
    """Per-layer metrics from ``trace_rounds`` rounds.  Each item runs once
    untraced and once traced, in alternating order, so that the overhead
    compares the same items under the same machine conditions."""
    from spans import Tracer, layer_metrics, self_time_table

    setup = Tracer()
    setup.bind(library)
    setup.install()
    try:
        rounds, warmup = set_up(workload, args.seed, args.tiny)
    finally:
        setup.uninstall()
    warm = Pass(0).warm_up(warmup, WARMUP_S)
    tracer = Tracer()
    tracer.bind(library)
    plain, traced = Pass(trace_rounds), Pass(trace_rounds)
    for r in range(trace_rounds):
        for item in rounds[r % len(rounds)]:
            if time.perf_counter() - PROCESS_START > DEADLINE_S:
                traced.cut = True
                break
            for ps in (plain, traced) if len(plain.times) % 2 == 0 else (traced, plain):
                if ps is plain:
                    plain.one(item)
                    continue
                tracer.install()
                try:
                    traced.one(item, tracer)
                finally:
                    tracer.uninstall()
        if traced.cut:
            break
        plain.rounds += 1
        traced.rounds += 1
    if plain.digest.hexdigest() != traced.digest.hexdigest():
        traced.failures["TracingChangedOutputs"] += 1
    untraced_s, traced_s = sum(plain.times), sum(traced.times)
    overhead = traced_s / untraced_s - 1 if untraced_s > 0 else math.nan
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}"
    tracer.dump(f"{stem}.spans.gz")
    setup.dump(f"{stem}-setup.spans.gz")
    print(f"{'group':24} {'calls':>10} {'self_s':>9} {'share':>6}", file=sys.stderr)
    for group, calls, self_s, share in self_time_table(tracer):
        print(f"{group:24} {calls:10d} {self_s:9.3f} {share:6.1%}", file=sys.stderr)
    summary = {
        "rounds": traced.rounds, "items": len(traced.times),
        "untraced_s": round(untraced_s, 3), "traced_s": round(traced_s, 3),
        "spans": tracer.span_count,
        "spans_file": str(Path(f"{stem}.spans.gz").relative_to(HERE.parent)),
        "digest": traced.digest.hexdigest(), "digest_items": traced.digest_items,
    }
    return layer_metrics(tracer, setup, overhead), [warm, plain, traced], summary


if __name__ == "__main__":
    sys.exit(main())
