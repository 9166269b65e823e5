"""kronlab benchmark: run one workload, or all of them, and report metrics.

    python3 bench/run.py --workload scan-ladder --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --all [--seed 1] [--seconds 20]

Run from the root of a checkout; kronlab is imported from its `src`.
Each workload runs in a process of its own (bench/worker.py). With
--trace 0 the last line printed is a JSON object with the end-to-end
metrics named in BENCHMARK.json, their timings scaled by the machine's
speed (CAL_REF_S below); with --trace 1 it carries the per-layer
metrics of a traced run. --all runs every workload both ways, prints
every metric by name with its unit, and exits 1 if any exact check
failed, the deep-window probe included. Every run writes a record
(machine, revision, seed, percentiles and sample counts) under
.bench_runs/. NOTES.md explains the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / ".bench_runs"
# A run's timed work is split over this many processes, one after another.
# The same ops in two processes ran up to 40% apart (1.18 and 1.65 ops/s
# on matrix-orbit on a shared 2-core VM), so no single process should
# decide a run; setup_s is the median of the processes' set-ups.
PROCESSES = 5
# A run, all its processes included, must end within 180 s.
RUN_BUDGET_S = 170
TAIL_BEYOND = 10
# The host's speed drifts by far more than any bound could allow: on a
# shared 2-core VM one matrix-orbit op ran at 0.85 s for a minute and a
# half and at 0.52 s in the next, in every process at once, with no steal
# time in the guest. worker.calibrate(), a fixed piece of Python and
# bigint work with no kronlab code in it, is timed around the ops, and each
# op's time is scaled by CAL_REF_S over the calibration around it. So every
# end-to-end timing reads as if the machine ran at the speed at which
# calibrate() takes CAL_REF_S; a change to kronlab moves the op times and
# not the calibration. The unscaled figures go in the record.
CAL_REF_S = 0.005
# Kernel throughput on one 2**19 block, M q/s, as recorded in ROADMAP item 1
# (2 cores, numpy 2.4); printed beside the measured value.
KERNEL_BASELINE = {1: 31.8, 2: 15.3, 3: 9.4}

PINNED = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                 "VECLIB_MAXIMUM_THREADS")}


class BenchError(Exception):
    pass


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def worker(workload: str, seed: int, seconds: float, mode: str, deadline: float,
           part: int = 0, parts: int = 1) -> dict:
    env = dict(os.environ, **PINNED, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(ROOT / "bench" / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--part", str(part), "--parts", str(parts)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker ({mode}) exited {proc.returncode}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"{workload} worker ({mode}) printed no result") from exc


def latency_stats(latencies: list[float]) -> dict:
    """Median and the highest percentile with TAIL_BEYOND samples beyond it."""
    s = sorted(latencies)
    n = len(s)
    if n <= TAIL_BEYOND:
        raise BenchError(f"only {n} ops; the tail needs more than {TAIL_BEYOND}")
    return {"p50_ms": 1e3 * statistics.median(s), "tail_ms": 1e3 * s[n - TAIL_BEYOND - 1],
            "tail_percentile": 100.0 * (n - TAIL_BEYOND) / n, "samples": n}


def timings(latencies: list[float], setups: list[float]) -> dict:
    lat = latency_stats(latencies)
    return {"setup_s": statistics.median(setups), "ops_per_s": len(latencies) / sum(latencies),
            "op_p50_ms": lat["p50_ms"], "op_tail_ms": lat["tail_ms"]}


def measure(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    parts = [worker(workload, seed, seconds / PROCESSES, "measure", deadline, k, PROCESSES)
             for k in range(PROCESSES)]
    loops = [p["untraced"] for p in parts]
    raw = [x for loop in loops for x in loop["latencies"]]
    cal = [c for loop in loops for c in loop["cal_s"]]
    raw_setups = [p["setup_s"] for p in parts]
    failures = [f for loop in loops for f in loop["failures"]]
    metrics = timings([t * CAL_REF_S / c for t, c in zip(raw, cal)],
                      [s * CAL_REF_S / p["setup_cal_s"] for s, p in zip(raw_setups, parts)])
    metrics["peak_rss_mb"] = max(p["peak_rss_mb"] for p in parts)
    detail = {"latency": latency_stats(raw), "unscaled": timings(raw, raw_setups),
              "calibration_s": {"reference": CAL_REF_S, "median": statistics.median(cal),
                                "min": min(cal), "max": max(cal)},
              "setup_samples_s": raw_setups, "ops": len(raw), "timed_s": sum(raw),
              "ops_per_s_by_process": [loop["ops"] / loop["busy_s"] for loop in loops],
              "failed": len(failures), "failures": failures[:10],
              "deep_window": parts[0].get("deep_window")}
    return metrics, detail


def trace(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    res = worker(workload, seed, seconds, "trace", deadline)
    plain, traced = res["untraced"], res["traced"]
    failures = plain["failures"] + traced["failures"]
    detail = {"ops_per_s_untraced": plain["ops"] / plain["busy_s"],
              "ops_per_s_traced": traced["ops"] / traced["busy_s"],
              "ops": plain["ops"] + traced["ops"], "failed": len(failures),
              "failures": failures[:10], "span_count": res["span_count"],
              "spans_file": res["spans_file"],
              "kernel_bytes_per_q_computed": res["kernel_bytes_per_q"]}
    return res["layers"], detail


def git_revision() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu_model": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": metadata.version("numpy"),
            "revision": git_revision()}


def declared(spec: dict, key: str, metrics: dict) -> dict:
    """The metrics named in BENCHMARK.json[key], in its order, with units."""
    names = [m["name"] for m in spec[key]]
    if set(names) != set(metrics):
        raise BenchError(f"computed metrics {sorted(set(metrics) ^ set(names))} "
                         f"do not match BENCHMARK.json {key}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec[key]}


def deep_summary(cases) -> str:
    bad = [c for c in cases if c["outcome"] != "ok"]
    kinds = sorted({f"{c['call']} {c['outcome']} from 2^{c['start_bits'] - 1}" for c in bad})
    return (f"deep-window probe: {len(cases)} calls, {len(bad)} failed"
            + ("".join(f"\n    {k}" for k in kinds)))


def print_metrics(title: str, metrics: dict):
    print(title)
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:>16.6g} {m['unit']}")


def run_one(spec, workload, seed, seconds, traced) -> tuple[dict, dict]:
    deadline = time.monotonic() + RUN_BUDGET_S
    if traced:
        raw, detail = trace(workload, seed, seconds, deadline)
        metrics = declared(spec, "per_layer", raw)
        print_metrics(f"{workload} seed {seed}: per-layer (traced)", metrics)
        print(f"  tracing overhead: {detail['ops_per_s_traced']:.4g} traced vs "
              f"{detail['ops_per_s_untraced']:.4g} untraced ops/s")
        for m in (1, 2, 3):
            q = raw[f"fixedpoint.kernel_block.q_per_s.m{m}"] / 1e6
            print(f"  kernel block m={m}: {q:.1f} M q/s (ROADMAP baseline "
                  f"{KERNEL_BASELINE[m]}), {detail['kernel_bytes_per_q_computed'][str(m)]} "
                  f"B/q computed, not measured")
    else:
        raw, detail = measure(workload, seed, seconds, deadline)
        metrics = declared(spec, "end_to_end", raw)
        print_metrics(f"{workload} seed {seed}: end to end (untraced)", metrics)
        lat, cal = detail["latency"], detail["calibration_s"]
        print(f"  op_tail_ms is p{lat['tail_percentile']:.1f} of {lat['samples']} ops "
              f"from {PROCESSES} processes; setup_s is the median of their set-ups")
        print(f"  timings scaled to calibrate() = {1e3 * cal['reference']:.1f} ms; it took "
              f"{1e3 * cal['median']:.2f} ms (median, {1e3 * cal['min']:.2f}-"
              f"{1e3 * cal['max']:.2f}); unscaled: "
              + ", ".join(f"{k} {v:.6g}" for k, v in detail["unscaled"].items()))
        print(f"  failed_ratio {detail['failed'] / detail['ops']:.4g} "
              f"({detail['failed']} of {detail['ops']} ops)")
        if detail["deep_window"] is not None:
            print("  " + deep_summary(detail["deep_window"]))
    for f in detail["failures"]:
        print(f"  FAILED op {f['op']}: {'; '.join(f['problems'])}")
    return metrics, detail


def write_record(name: str, record: dict):
    RUNS.mkdir(exist_ok=True)
    (RUNS / name).write_text(json.dumps(record, indent=1) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "kronlab" / "__init__.py").is_file():
        print(f"no kronlab source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    info = machine()
    try:
        if not args.all:
            if args.workload not in names:
                print(f"--workload must be one of {names}", file=sys.stderr)
                return 2
            metrics, detail = run_one(spec, args.workload, args.seed, seconds, args.trace)
            write_record(f"record-{args.workload}-{args.seed}-trace{args.trace}.json",
                         {"workload": args.workload, "seed": args.seed, "seconds": seconds,
                          "trace": args.trace, **info, "metrics": metrics, "detail": detail})
            print(json.dumps({"correct": detail["failed"] == 0, "attempted": detail["ops"],
                              "failed": detail["failed"], "metrics": metrics}))
            return 0
        print(f"revision {info['revision']}, {info['cpu_model']}, nproc {info['nproc']}, "
              f"python {info['python']}, numpy {info['numpy']}, seed {args.seed}, "
              f"{seconds} s per run")
        record = {"seed": args.seed, "seconds": seconds, **info, "workloads": {}}
        failed_ops = failed_deep = 0
        for name in names:
            e2e, plain = run_one(spec, name, args.seed, seconds, False)
            layers, traced = run_one(spec, name, args.seed, seconds, True)
            failed_ops += plain["failed"] + traced["failed"]
            failed_deep += sum(c["outcome"] != "ok" for c in plain["deep_window"] or [])
            record["workloads"][name] = {"end_to_end": e2e, "untraced": plain,
                                         "per_layer": layers, "traced": traced}
        write_record(f"record-all-{args.seed}.json", record)
        print(f"exact checks: {failed_ops} failed ops, {failed_deep} failed deep-window calls")
        return 1 if failed_ops or failed_deep else 0
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
