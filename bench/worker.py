"""One workload run in a process of its own: set up, time the ops, check them.

Started by run.py with BLAS threads pinned to 1 and `src` on PYTHONPATH;
prints one JSON line of raw results. A measured run is split over --parts
processes run one after another; part k starts k/parts of the way into
the op list. Modes:

  measure  untraced: ops run for --seconds of timed work
  trace    each op runs twice, untraced and with every library function
           wrapped, until the untraced runs add up to --seconds/2;
           per-layer metrics come from the traced runs and the ratio of
           the two totals is the tracing overhead

Each op is timed alone; its exact check runs after the clock stops.
A measured run also times calibrate() before its first op, after every
CAL_EVERY_S of op time and after its last op, so run.py can scale each
op by the machine's speed around it (see run.py).
"""
from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter

RUN_MIN_OPS = 20
BLOCK = 1 << 19
BLOCK_REPS = 15
CAL_EVERY_S = 0.2
SETUP_CALS = 3

# Bytes moved per q by ResidualKernel.residuals, counted from the numpy
# expressions of _coord_dists at this revision, not measured: per
# coordinate 20 uint64 array operations, 15 with one array operand
# (8 B read + 8 B written per q) and 5 with two (16 B read + 8 B written);
# plus the index array (8 B) and an in-place max per extra coordinate (24 B).
def kernel_bytes_per_q(m: int) -> int:
    return 8 + m * (15 * 16 + 5 * 24) + (m - 1) * 24


def calibrate() -> float:
    """Seconds taken by a fixed piece of interpreter work with no kronlab
    code in it: a Python integer loop and bigint products. Of the mixes
    tried, this one followed the host's speed most evenly across the four
    workloads (NOTES.md). The collector is off, so an op's garbage is not
    charged to it."""
    gc.disable()
    try:
        start = perf_counter()
        s = 0
        for i in range(60_000):
            s += i * i % 7
        a = 3 ** 300
        for i in range(3_000):
            s = (s + a * i) % (1 << 400)
        return perf_counter() - start
    finally:
        gc.enable()


class Tally:
    """Latencies and failures of one pass over the ops."""

    def __init__(self):
        self.latencies: list[float] = []
        self.cal_s: list[float] = []
        self.failures: list[dict] = []
        self.busy_s = 0.0

    def add(self, i: int, elapsed: float, problems: list[str]):
        self.latencies.append(elapsed)
        self.busy_s += elapsed
        if problems:
            self.failures.append({"op": i, "problems": [p[:300] for p in problems[:3]]})

    def as_dict(self) -> dict:
        return {"ops": len(self.latencies), "busy_s": self.busy_s,
                "latencies": self.latencies, "cal_s": self.cal_s,
                "failures": self.failures}


def run_op(wl, op, seed: int, i: int, tracer=None) -> tuple[float, list[str]]:
    """Time one op (traced if a tracer is given), then check it untimed."""
    if tracer is not None:
        tracer.install()
        tracer.op = i
        span = tracer.open("bench.op")
    start = perf_counter()
    try:
        out, err = wl.run(op), None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        out, err = None, f"{type(exc).__name__}: {exc}"
    elapsed = perf_counter() - start
    if tracer is not None:
        tracer.close(span)
        tracer.uninstall()
    if err is not None:
        return elapsed, [err]
    try:
        return elapsed, wl.check(op, out, random.Random(f"oracle:{seed}:{i}"))
    except Exception as exc:  # a check that cannot run fails the op
        return elapsed, [f"check raised {type(exc).__name__}: {exc}"]


def measure_loop(wl, ops, seed: int, seconds: float, first: int, min_ops: int) -> Tally:
    """Untraced ops from index `first` until `seconds` of timed work and
    at least `min_ops` ops. Each op's cal_s is the median of the two
    calibrations before it and the two after it (fewer at either end)."""
    tally = Tally()
    cals = [calibrate()]
    before = []  # index in cals of the calibration preceding each op
    since = 0.0
    i = first
    while tally.busy_s < seconds or i - first < min_ops:
        before.append(len(cals) - 1)
        elapsed, problems = run_op(wl, ops[i % len(ops)], seed, i)
        tally.add(i, elapsed, problems)
        since += elapsed
        if since >= CAL_EVERY_S:
            cals.append(calibrate())
            since = 0.0
        i += 1
    if since:
        cals.append(calibrate())
    tally.cal_s = [statistics.median(cals[max(0, k - 1):k + 3]) for k in before]
    return tally


def paired_loop(wl, ops, seed: int, seconds: float, tracer) -> tuple[Tally, Tally]:
    """Each op untraced and traced, alternating which goes first, until the
    untraced pass has `seconds` of timed work; pairing keeps warm-up and
    drift out of the overhead ratio."""
    plain, traced = Tally(), Tally()
    i = 0
    while plain.busy_s < seconds or i < RUN_MIN_OPS:
        op = ops[i % len(ops)]
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                traced.add(i, *run_op(wl, op, seed, i, tracer))
            else:
                plain.add(i, *run_op(wl, op, seed, i))
        i += 1
    return plain, traced


def kernel_block(K, fx, pool, seed) -> dict[str, float]:
    """q/s of ResidualKernel.residuals on one 2**19 block per dimension."""
    rng = random.Random(f"kernel-block:{seed}")
    out = {}
    for m in (1, 2, 3):
        freq = K.FrequencyTuple.parse(rng.sample(pool, m))
        kernel = fx.ResidualKernel([fx.step128(c.scaled, c.bits) for c in freq])
        start = rng.randrange(1 << 20, 1 << 40)
        times = []
        for _ in range(BLOCK_REPS):
            t = perf_counter()
            kernel.residuals(start, BLOCK)
            times.append(perf_counter() - t)
        out[f"fixedpoint.kernel_block.q_per_s.m{m}"] = BLOCK / statistics.median(times)
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("measure", "trace"), required=True)
    ap.add_argument("--part", type=int, default=0)
    ap.add_argument("--parts", type=int, default=1)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() just before the process was started")
    args = ap.parse_args()
    root = Path(__file__).resolve().parent.parent

    import kronlab as K
    if Path(K.__file__).resolve().parent != (root / "src" / "kronlab").resolve():
        print(f"kronlab imported from {K.__file__}, not from {root / 'src'}", file=sys.stderr)
        return 2
    from kronlab import _fixedpoint as fx
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    workdir = root / ".bench_runs" / f"work-{args.workload}-{args.seed}-{args.mode}-{args.part}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = None
    if args.mode == "trace":
        import tracing
        tracer = tracing.Tracer()
    try:
        if tracer is not None:
            tracer.install()
        ops = wl.setup(args.seed, workdir)
        setup_s = time.monotonic() - args.t0
        result = {"setup_s": setup_s}
        if tracer is not None:
            tracer.uninstall()
        if args.mode == "measure":
            result["setup_cal_s"] = statistics.median(calibrate() for _ in range(SETUP_CALS))
            plain = measure_loop(wl, ops, args.seed, args.seconds,
                                 first=args.part * len(ops) // args.parts,
                                 min_ops=-(-RUN_MIN_OPS // args.parts))
            result["untraced"] = plain.as_dict()
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if args.workload == "scan-ladder" and args.part == 0:
                result["deep_window"] = workloads.deep_window_probe(args.seed)
        else:
            plain, traced = paired_loop(wl, ops, args.seed, args.seconds / 2, tracer)
            result["untraced"], result["traced"] = plain.as_dict(), traced.as_dict()
            layers = tracing.layer_metrics(tracer)
            layers["cli.bytes_written"] = float(sum(
                ops[i % len(ops)].get("bytes_written", 0) for i in range(len(traced.latencies))))
            layers.update(kernel_block(K, fx, workloads.POOL, args.seed))
            layers["trace.overhead_pct"] = 100.0 * (traced.busy_s / plain.busy_s - 1.0)
            result["layers"] = layers
            result["kernel_bytes_per_q"] = {m: kernel_bytes_per_q(m) for m in (1, 2, 3)}
            spans = root / ".bench_runs" / f"spans-{args.workload}-{args.seed}.json"
            tracer.dump(spans)
            result["spans_file"] = str(spans.relative_to(root))
            result["span_count"] = len(tracer.names)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
