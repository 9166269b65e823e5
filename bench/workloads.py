"""The four workloads: seeded inputs, the timed op, and its exact check.

Each workload is a Workload with
  setup(seed, workdir)  -> list of ops (inputs generated, descriptors parsed);
                           workdir is a scratch directory for output files
  run(op)               -> the op's outputs; this is the timed region
  check(op, out, rng)   -> list of problems found by the exact oracle

kronlab is reached only through its public names, looked up at call time
(`K.gap_scan`, `cli.main`), so the tracer's rebinding covers every call.
Why each workload exists, and which layers it should move, is in NOTES.md.
"""
from __future__ import annotations

import contextlib
import io
import math
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import kronlab as K
from kronlab import cli

import oracle

# Rationally independent irrationals (with 1): a dependent pair such as
# golden-1 and sqrt(5)-2 confines the orbit to a line, so inhomogeneous
# ladders never clean up and the op would fail for a reason of its inputs.
POOL = ("sqrt(2)-1", "sqrt(3)-1", "cbrt(2)-1", "cbrt(3)-1",
        "pi-3", "e-2", "log(5)-1", "zeta(3)-1")

# Ops generated per run. Each of a run's five processes starts its own
# stretch of 200 and uses 5 to 40 of them at the current speed; a program
# five times faster would run into the next stretch and repeat inputs.
OPS_PER_RUN = 1000
# Tuples (and matrices) drawn per dimension. With 16 rather than 6, each
# seed's ops cover the pool more evenly, so seeds differ less in cost.
TUPLES_PER_M = 16


@dataclass
class Workload:
    setup: Callable
    run: Callable
    check: Callable


def _grid_target(rng, m: int):
    return K.TorusPoint([rng.getrandbits(53) / (1 << 53) for _ in range(m)])


def _tuples(rng) -> dict[int, list]:
    """A few seeded frequency tuples per dimension, parsed once."""
    return {m: [K.FrequencyTuple.parse(rng.sample(POOL, m)) for _ in range(TUPLES_PER_M)]
            for m in (1, 2, 3)}


# ------------------------------------------------------------ scan-ladder

LADDERS = {1: [2.0 ** -k for k in range(3, 14)],
           2: [0.1 * 0.7 ** k for k in range(9)],
           3: [0.2 * 0.7 ** k for k in range(6)]}


def scan_ladder_setup(seed: int, workdir: Path) -> list[dict]:
    rng = random.Random(f"scan-ladder:{seed}")
    tuples = _tuples(rng)
    ops = []
    for i in range(OPS_PER_RUN):
        m = 1 + (i // 2) % 3
        homogeneous = i % 2 == 0
        target = (K.TorusPoint([0.0] * m) if homogeneous else _grid_target(rng, m))
        ops.append({"freq": rng.choice(tuples[m]), "target": target, "m": m})
    return ops


def scan_ladder_run(op):
    rows = K.inclusion_length_ladder(op["freq"], op["target"], LADDERS[op["m"]])
    clean = [r for r in rows if not r.truncated]
    fit = K.diophantine_dimension_fit(clean)
    pairs = [K.max_pair_residual(r.scan) for r in clean]
    return rows, fit, pairs


def scan_ladder_check(op, out, rng) -> list[str]:
    rows, fit, pairs = out
    ex = oracle.Exact.of_tuple(op["freq"], op["target"])
    problems = []
    if not math.isfinite(fit.slope):
        problems.append(f"non-finite fit slope {fit.slope}")
    clean = [r for r in rows if not r.truncated]
    for row, pair in zip(clean, pairs):
        sols = row.scan.solutions.tolist()
        lo, hi = row.window
        problems += oracle.check_solutions(ex, row.epsilon, sols, lo, hi, rng)
        gaps = [b - a for a, b in zip(sols, sols[1:])]
        if row.scan.gaps.tolist() != gaps or row.l_hat != max(gaps):
            problems.append(f"eps={row.epsilon}: l_hat {row.l_hat} != max gap {max(gaps)}")
        # l_hat is the reported figure: search its gap exhaustively, so a
        # dropped solution that widens it cannot pass
        j = gaps.index(max(gaps))
        missed = oracle.first_solution(ex, row.epsilon, sols[j] + 1, sols[j + 1] - 1)
        if missed is not None:
            problems.append(f"eps={row.epsilon}: missed q={missed} inside the largest gap "
                            f"({sols[j]}, {sols[j + 1]})")
        if Fraction(pair) > 2 * Fraction(row.epsilon) + oracle.TRUST:
            problems.append(f"eps={row.epsilon}: max_pair_residual {pair} > 2 eps")
    return problems


# Deep windows: about 2e5 q each, starts log-uniform from 2**20 to q_max.
# Run after the timed loop and reported on their own (see NOTES.md).
DEEP_WIDTH = 200_000
DEEP_OPS = 12
DEEP_EPS = {1: 1e-3, 2: 0.02, 3: 0.06}


def deep_window_probe(seed: int) -> list[dict]:
    rng = random.Random(f"deep-window:{seed}")
    tuples = _tuples(rng)
    cases = []
    for i in range(DEEP_OPS):
        m = 1 + i % 3
        freq = rng.choice(tuples[m])
        target = K.TorusPoint([0.0] * m) if i % 2 else _grid_target(rng, m)
        bits = rng.randint(21, freq.q_max.bit_length() - 1)
        start = min(rng.randrange(1 << (bits - 1), 1 << bits), freq.q_max - DEEP_WIDTH)
        lo, hi = start, start + DEEP_WIDTH - 1
        eps = DEEP_EPS[m]
        inst = K.KroneckerInstance(freq, target, eps)
        ex = oracle.Exact.of_tuple(freq, target)
        for call in ("gap_scan", "solve_in_interval"):
            case = {"call": call, "m": m, "start_bits": start.bit_length()}
            try:
                if call == "gap_scan":
                    scan = K.gap_scan(inst, lo, hi)
                    problems = oracle.check_solutions(
                        ex, eps, scan.solutions.tolist(), lo, hi, rng)
                else:
                    q = K.solve_in_interval(inst, lo, hi)
                    first = oracle.first_solution(ex, eps, lo, hi if q is None else q)
                    problems = []
                    if q is not None and ex.dist(q) > ex.band(eps)[1]:
                        problems.append(f"returned q={q} is not a solution")
                    if first is not None and (q is None or first < q):
                        problems.append(f"returned {q}, exact first solution {first}")
                case["outcome"] = "wrong" if problems else "ok"
                case["problems"] = problems[:2]
            except Exception as exc:  # a raise is the outcome being recorded
                case["outcome"] = type(exc).__name__
                case["problems"] = [str(exc)[:200]]
            cases.append(case)
    return cases


# --------------------------------------------------------- ladder-periods

LEVELS = {1: 40, 2: 20, 3: 18}
ORDER_SCAN = 1 << 20
K0 = 3
TARGETS = 400


def ladder_periods_setup(seed: int, workdir: Path) -> list[dict]:
    rng = random.Random(f"ladder-periods:{seed}")
    tuples = _tuples(rng)
    # targets log-uniform from 8 to beta**K, some below q_k0 (tau = 0)
    targets = {m: [[round(2.0 ** rng.uniform(3, LEVELS[m]), 3) for _ in range(TARGETS)]
                   for _ in range(TUPLES_PER_M)] for m in (1, 2, 3)}
    ops = []
    for i in range(OPS_PER_RUN):
        m = 1 + i % 3
        ops.append({"freq": rng.choice(tuples[m]), "m": m, "targets": rng.choice(targets[m])})
    return ops


def ladder_periods_run(op):
    seq = K.convergent_sequence(op["freq"], 2, LEVELS[op["m"]])
    diag = K.verify_sequence_properties(seq)
    order = K.estimate_diophantine_order(op["freq"], ORDER_SCAN)
    quality = K.almost_period_quality(seq, K0, op["targets"])
    return seq, diag, order, quality


def ladder_periods_check(op, out, rng) -> list[str]:
    seq, diag, order, quality = out
    freq = op["freq"]
    ex = oracle.Exact.of_tuple(freq)
    dens = seq.denominators
    problems = []
    if any(b < a for a, b in zip(dens, dens[1:])):
        problems.append("denominators decrease")
    for k, (q, r) in enumerate(zip(dens, seq.residuals), start=1):
        exact = ex.dist(q)
        if not oracle.same_residual(r, Fraction(exact, ex.unit)):
            problems.append(f"level {k}: residual {r} != exact")
        # the level's q must beat a seeded sample of its window
        for _ in range(4):
            other = rng.randint(1, 2 ** k)
            if ex.dist(other) + (ex.unit >> 32) < exact:
                problems.append(f"level {k}: q={other} beats q_k={q}")
    if not math.isfinite(diag.growth_exponent):
        problems.append("non-finite growth exponent")
    prev = None
    exponent = (1.0 + order.nu_hat) / len(freq)
    for q, r in order.support:
        if not oracle.same_residual(r, ex.residual(q)):
            problems.append(f"record q={q}: residual {r} != exact")
        if prev is not None and (q <= prev[0] or Fraction(r) > Fraction(prev[1]) + oracle.GRID):
            problems.append(f"record q={q} is not a new low")
        if order.c_d_hat * q ** -exponent > r * (1 + 1e-9):
            problems.append(f"fitted law exceeds the residual at q={q}")
        prev = (q, r)
    q_floor = dens[K0 - 1]
    for target, entry in zip(op["targets"], quality.entries):
        ap = K.greedy_almost_period(seq, target, K0)
        levels = dens[K0 - 1:K0 - 1 + len(ap.coefficients)]
        tau = entry.tau
        if ap.tau != tau or sum(p * q for p, q in zip(ap.coefficients, levels)) != abs(tau):
            problems.append(f"target {target}: sum p*q != |tau|={tau}")
        if target >= q_floor and not abs(tau - Fraction(target)) < q_floor:
            problems.append(f"target {target}: |tau - target| >= q_k0")
        if not oracle.same_residual(entry.residual, ex.residual(tau)):
            problems.append(f"target {target}: residual {entry.residual} != exact")
    return problems


# ----------------------------------------------------------- matrix-orbit

ORBIT_POINTS = 20_000
SCALES = [2.0 ** -k for k in range(2, 9)]
MATRIX_EPS = 0.01
BOXES = {2: [(0, 299), (0, 1999)], 3: [(0, 14), (0, 19), (0, 1999)]}


def matrix_orbit_setup(seed: int, workdir: Path) -> list[dict]:
    rng = random.Random(f"matrix-orbit:{seed}")
    matrices = {}
    for n in (2, 3):
        for _ in range(TUPLES_PER_M):
            text = ";".join(",".join(rng.choice(POOL) for _ in range(n)) for _ in range(2))
            matrices.setdefault(n, []).append(K.FrequencyMatrix.parse(text))
    ops = []
    for i in range(OPS_PER_RUN):
        n = 2 + i % 2
        shift = rng.randrange(0, 10_000)
        box = [(lo + shift, hi + shift) for lo, hi in BOXES[n]]
        ops.append({"matrix": rng.choice(matrices[n]), "target": _grid_target(rng, 2),
                    "box": box})
    return ops


def matrix_orbit_run(op):
    mat = op["matrix"]
    samples = [K.orbit_sample(mat, lattice, ORBIT_POINTS) for lattice in ("integer", "real")]
    curves = [K.box_count(pts, SCALES) for pts in samples]
    fits = [K.box_dimension_fit(c) for c in curves]
    hits = K.matrix_solution_scan(mat, op["target"], MATRIX_EPS, op["box"])
    return samples, curves, fits, hits


def _orbit_point_exact(mat, lattice: str, index: int, count: int):
    """Exact torus point of sample `index`, recomputed from scaled integers."""
    side = max(1, round(count ** (1.0 / mat.n)))
    while side ** mat.n < count:
        side += 1
    while side > 1 and (side - 1) ** mat.n >= count:
        side -= 1
    vec = []
    for _ in range(mat.n):
        index, digit = divmod(index, side)
        vec.append(digit)
    vec.reverse()
    bits = mat.bits
    if lattice == "real":
        step = round(Fraction(K.GOLDEN_CONJUGATE_STEP) * (1 << bits))
        vec = [v * step for v in vec]
        bits *= 2
    unit = 1 << bits
    return [Fraction(sum(c.scaled * v for c, v in zip(row, vec)) % unit, unit)
            for row in mat.rows]


def matrix_orbit_check(op, out, rng) -> list[str]:
    samples, curves, fits, hits = out
    mat = op["matrix"]
    problems = []
    for lattice, pts, curve in zip(("integer", "real"), samples, curves):
        if len(pts) != ORBIT_POINTS:
            problems.append(f"{lattice}: {len(pts)} points")
            continue
        for _ in range(16):
            i = rng.randrange(ORBIT_POINTS)
            for got, want in zip(pts[i], _orbit_point_exact(mat, lattice, i, ORBIT_POINTS)):
                d = abs(Fraction(got) - want)
                if min(d, 1 - d) > oracle.GRID:
                    problems.append(f"{lattice} point {i}: {got} != {float(want)}")
        coords = np.array(pts, dtype=np.float64)
        for j in (0, len(SCALES) - 1):
            # one integer key per cell, counted by sorting: not the
            # row-unique of dim.box_count, and no Python set of 20k tuples
            per_axis = round(1 / curve.scales[j])
            cells = np.floor(coords * per_axis).astype(np.int64)
            keys = np.sort(cells[:, 0] * per_axis + cells[:, 1])
            count = 1 + int(np.count_nonzero(np.diff(keys)))
            if count != curve.counts[j]:
                problems.append(f"{lattice}: box count {curve.counts[j]} != {count}")
    for fit in fits:
        if not math.isfinite(fit.slope):
            problems.append("non-finite box dimension")
    ex = oracle.Exact.of_matrix(mat, op["target"])
    must, never = ex.band(MATRIX_EPS)
    problems += [f"reported {vec} does not solve" for vec in hits if ex.dist_vec(vec) > never]
    reported = set(hits)
    for _ in range(32):
        vec = tuple(rng.randint(lo, hi) for lo, hi in op["box"])
        if vec not in reported and ex.dist_vec(vec) < must:
            problems.append(f"missed solution {vec}")
    return problems


# ------------------------------------------------------------- cli-replay

COMMANDS = ("convergents", "scan", "dimension", "orbit", "bounds", "almost-period")
SCAN_EPS = {1: "0.1,0.05,0.025,0.0125,0.00625", 2: "0.2,0.14,0.1,0.07,0.05"}
DIMENSION_EPS = {1: "0.1,0.05,0.025,0.0125,0.00625,0.003125",
                 2: "0.2,0.14,0.1,0.07,0.05,0.035"}


def _cli_argv(command: str, rng) -> list[str]:
    m = rng.choice((1, 2))
    freq = ",".join(rng.sample(POOL, m))
    theta = ",".join(f"0.{rng.randrange(10 ** 6):06d}" for _ in range(m))
    if command == "convergents":
        return ["convergents", "--freq", freq, "--beta", "2", "--k", "30" if m == 1 else "18",
                "--format", rng.choice(("csv", "json"))]
    if command in ("scan", "dimension"):
        argv = [command, "--freq", freq,
                "--eps", (SCAN_EPS if command == "scan" else DIMENSION_EPS)[m]]
        return argv + (["--theta", theta] if rng.random() < 0.5 else [])
    if command == "orbit":
        matrix = ";".join(",".join(rng.choice(POOL) for _ in range(2)) for _ in range(2))
        return ["orbit", "--matrix", matrix, "--lattice", rng.choice(("integer", "real")),
                "--count", str(ORBIT_POINTS)]
    if command == "bounds":
        return ["bounds", "--m", str(rng.randint(1, 3)), "--n", str(rng.randint(1, 2)),
                "--nu", rng.choice(("0.0", "0.1", "0.25", "0.5")),
                "--alpha", rng.choice(("1.0", "0.5"))]
    targets = ",".join(str(rng.randrange(10, 10 ** 6)) for _ in range(50))
    return ["almost-period", "--freq", rng.sample(POOL, 1)[0], "--k", "20", "--k0", "3",
            "--targets", targets]


def cli_replay_setup(seed: int, workdir: Path) -> list[dict]:
    rng = random.Random(f"cli-replay:{seed}")
    workdir = workdir.relative_to(Path.cwd())
    return [{"argv": _cli_argv(COMMANDS[i % len(COMMANDS)], rng), "command": COMMANDS[i % len(COMMANDS)],
             "out": workdir / f"op{i}"} for i in range(OPS_PER_RUN)]


def _invoke(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in-process; its stdout and stderr go to a buffer."""
    buf = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            cli.main(argv, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, buf.getvalue()


def cli_replay_run(op):
    shutil.rmtree(op["out"], ignore_errors=True)
    return _invoke(op["argv"] + ["--out", str(op["out"])])


def _snapshot(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def cli_replay_check(op, out, rng) -> list[str]:
    code, text = out
    if code:
        return [f"exit {code}: {text.strip()[-200:]}"]
    outdir = op["out"]
    first = _snapshot(outdir)
    manifest = outdir.with_name(outdir.name + ".manifest.json")
    manifest.write_bytes(first["manifest.json"])
    for p in outdir.iterdir():
        p.unlink()
    code, text = _invoke(["--manifest", str(manifest)])
    problems = [f"replay exit {code}: {text.strip()[-200:]}"] if code else []
    second = _snapshot(outdir)
    if set(second) != set(first):
        problems.append(f"replay wrote {sorted(second)} instead of {sorted(first)}")
    problems += [f"replayed {name} differs" for name in first
                 if name in second and second[name] != first[name]]
    op["bytes_written"] = sum(len(b) for b in first.values())
    manifest.unlink()
    shutil.rmtree(outdir)
    return problems


WORKLOADS = {
    "scan-ladder": Workload(scan_ladder_setup, scan_ladder_run, scan_ladder_check),
    "ladder-periods": Workload(ladder_periods_setup, ladder_periods_run, ladder_periods_check),
    "matrix-orbit": Workload(matrix_orbit_setup, matrix_orbit_run, matrix_orbit_check),
    "cli-replay": Workload(cli_replay_setup, cli_replay_run, cli_replay_check),
}
