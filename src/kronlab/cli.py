"""Command-line surface: each experiment is a command, each run a manifest.

Every command parses descriptors once, runs the library, and writes flat
files into --out: CSV tables for anything plot-shaped, a JSON record for
fitted numbers, and always a manifest.json naming the command and every
option it ran with. Replaying a manifest (kronlab --manifest run.json)
reproduces the output files byte for byte; nothing here consults a clock,
an environment variable, or a random source.

Exit codes are part of the contract: 0 success, 2 bad input, 3 precision
budget refused, 4 scan budget exhausted (partial output still written),
5 not enough data to fit. Files are written only after the command has
finished and always with their manifest, so exits 2, 3 and 5 write nothing.
"""
from __future__ import annotations

import csv
import dataclasses
import inspect
import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

import click

from . import __version__
from .approx import convergent_sequence, verify_sequence_properties
from .dim import (box_count, box_dimension_fit, diophantine_dimension_fit, holder_bound,
                  lower_bound, theoretical_bounds)
from .errors import (
    BoundUndefinedError,
    BudgetExceededError,
    InsufficientDataError,
    PrecisionBudgetError,
    RationalFrequencyError,
    ValidationError,
    WindowTooNarrowError,
)
from .kron import (
    FrequencyMatrix,
    WindowPolicy,
    almost_period_quality,
    inclusion_length_ladder,
    orbit_sample,
)
from .torus import DEFAULT_BITS, FrequencyTuple, PrecisionReal, TorusPoint

EXIT_VALIDATION = 2
EXIT_PRECISION = 3
EXIT_BUDGET = 4
EXIT_DATA = 5
# the exit code of each error type; any other exception is an internal
# fault and exits 1 with its traceback
_EXIT_CODES = {ValidationError: EXIT_VALIDATION, RationalFrequencyError: EXIT_VALIDATION,
               PrecisionBudgetError: EXIT_PRECISION, BudgetExceededError: EXIT_BUDGET,
               InsufficientDataError: EXIT_DATA, WindowTooNarrowError: EXIT_DATA}

DEFAULT_SCALES = "0.25,0.125,0.0625,0.03125,0.015625,0.0078125,0.00390625"

# CSV rows formatted and written per block, so a large table is never one string
_CSV_BLOCK = 4096


def _write(path: Path, payload):
    """Write a (header, rows) table as CSV, anything else as JSON.

    A CSV cell is empty for None, 1 or 0 for a bool, repr for a float and
    str otherwise; no cell holds a comma, a quote or a newline.
    """
    if not isinstance(payload, tuple):
        path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")
        return
    header, rows = payload
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\n")
        for start in range(0, len(rows), _CSV_BLOCK):
            columns = [["" if v is None
                        else ("1" if v else "0") if isinstance(v, bool)
                        else repr(v) if isinstance(v, float)
                        else str(v) for v in column]
                       for column in zip(*rows[start:start + _CSV_BLOCK])]
            f.write("".join(",".join(cells) + "\n" for cells in zip(*columns)))


def _parse_frequency(text: str, bits: int) -> FrequencyTuple:
    return FrequencyTuple.parse([d.strip() for d in text.split(",")], bits)


def _parse_target(text: str | None, bits: int, m: int) -> TorusPoint:
    if text is None or text.strip() == "":
        return TorusPoint([0.0] * m)
    parts = [d.strip() for d in text.split(",")]
    if len(parts) != m:
        raise ValidationError(f"target has {len(parts)} coordinates, frequency has {m}")
    return TorusPoint.from_values(PrecisionReal.parse(d, bits).as_fraction() for d in parts)


def _parse_floats(text: str) -> list[float]:
    # Fraction refuses nan and inf, and float() rounds it as it rounds the text
    try:
        return [float(Fraction(v)) for v in text.split(",") if v.strip() != ""]
    except (ValueError, OverflowError) as exc:
        raise ValidationError(f"not a list of finite numbers: {text!r}") from exc


# ---------------------------------------------------------------- commands

# command name -> runner, filled by _command; _execute and manifest replay
# look a command up here when they run
_RUNNERS = {}

_common = [
    click.option("--precision", default=DEFAULT_BITS, show_default=True,
                 help="fixed-point fractional bits for all reals"),
    click.option("--out", default=".", show_default=True,
                 help="directory for output files"),
    click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
                 default="csv", show_default=True),
]

# --seed-min, --seed-factor and --budget, defaulting to WindowPolicy's own fields
_policy = [click.option(f"--{f.name.replace('_', '-')}", default=f.default, show_default=True)
           for f in dataclasses.fields(WindowPolicy)]


def _manifest_value(ctx, param: click.Parameter, value):
    """A replayed option value converted by the option's own click type.

    null stands only for an option whose default is None, the one way
    the CLI itself writes it.
    """
    if value is None and param.default is not None:
        raise click.BadParameter("null is not a value of this option", ctx=ctx, param=param)
    return param.process_value(ctx, value)


@click.group(invoke_without_command=True)
@click.option("--manifest", "manifest_path", default=None,
              help="replay a saved manifest.json instead of giving a command")
@click.version_option(__version__, prog_name="kronlab")
@click.pass_context
def main(ctx, manifest_path):
    """Integer solutions of torus approximation systems, measured."""
    if ctx.invoked_subcommand is not None:
        return
    if manifest_path is None:
        click.echo(ctx.get_help())
        ctx.exit(0)
    try:
        data = json.loads(Path(manifest_path).read_text())
    except (OSError, ValueError) as exc:
        click.echo(f"error: cannot read manifest: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)
    command = data.get("command") if isinstance(data, dict) else None
    if not isinstance(command, str) or command not in _RUNNERS:
        click.echo(f"error: manifest names unknown command {command!r}", err=True)
        sys.exit(EXIT_VALIDATION)
    options = data.get("options")
    try:
        if not isinstance(options, dict):
            raise TypeError(
                f"options must be a JSON object, not {type(options).__name__}")
        inspect.signature(_RUNNERS[command]).bind(**options)
    except TypeError as exc:
        click.echo(f"error: manifest options for {command!r}: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)
    # click checks option types only on the command line; a manifest the
    # CLI wrote holds converted values, which convert to themselves
    params = {p.name: p for p in main.commands[command].params}
    try:
        options = {name: _manifest_value(ctx, params[name], value)
                   for name, value in options.items()}
    except click.BadParameter as exc:
        click.echo(f"error: manifest options for {command!r}: {exc.format_message()}",
                   err=True)
        sys.exit(EXIT_VALIDATION)
    _execute(command, options)


def _command(name: str, *options):
    """Register a runner as command `name`, with these click options and
    the runner's docstring as its help."""
    def register(runner):
        _RUNNERS[name] = runner

        def callback(**values):
            _execute(name, values)  # looked up per call, so a rebinding takes effect
        for opt in reversed(options):
            callback = opt(callback)
        main.command(name, help=runner.__doc__)(callback)
        return runner
    return register


# ---------------------------------------------------------------- runners
# Each runner is one command, declared by _command with its options, its
# docstring the command's help. It takes plain JSON-friendly keyword
# arguments (exactly what the manifest stores) and touches no file. It
# returns its exit code, its output files as a dict from name to payload
# (a (header, rows) table or a JSON value) and the text to print;
# _execute writes them.

@_command("convergents",
          click.option("--freq", required=True, help="frequency descriptor, e.g. golden-1"),
          click.option("--beta", default=2.0, show_default=True),
          click.option("--k", default=12, show_default=True, help="number of levels"),
          *_common)
def _run_convergents(freq: str, beta: float, k: int, precision: int,
                     out: str, fmt: str):
    """Build the geometric denominator ladder with its certificates."""
    frequency = _parse_frequency(freq, precision)
    seq = convergent_sequence(frequency, beta, k)
    # the last level has no a_next and no bound
    rows = [(i, *level) for i, level in enumerate(itertools.zip_longest(
        seq.denominators, seq.residuals, seq.partial_quotient_bounds, seq.residual_bounds), 1)]
    if fmt == "json":
        files = {"sequence.json": {
            "beta": seq.beta,
            "c_hat": seq.c_hat,
            "levels": [
                {"k": k_, "q": q, "residual": r, "a_next": a, "a1_bound": b}
                for k_, q, r, a, b in rows
            ],
        }}
    else:
        files = {"sequence.csv": (["k", "q_k", "residual", "a_next", "a1_bound"], rows)}
    diag = verify_sequence_properties(seq) if len(seq) >= 3 else None
    payload = {"beta": seq.beta, "c_hat": seq.c_hat, "levels": len(seq)}
    if diag is not None:
        payload.update({
            "growth_exponent": diag.growth_exponent,
            "growth_max_ratio": diag.growth_max_ratio,
            "tail_constant_eta1": diag.tail_constant,
            "gamma_low": diag.gamma_low,
            "gamma_high": diag.gamma_high,
            "amplitude": diag.amplitude,
        })
    files["diagnostics.json"] = payload
    return 0, files, (f"levels 1..{len(seq)}: q ends at {seq.denominators[-1]}, "
                      f"c_hat={seq.c_hat}")


def _ladder_files(rows) -> dict:
    sol_rows = []
    for r in rows:
        if r.scan is None:
            continue
        sols = r.scan.solutions.tolist()
        for i, q in enumerate(sols):
            gap = sols[i + 1] - q if i + 1 < len(sols) else None
            sol_rows.append((r.epsilon, q, gap))
    return {
        "ladder.csv": (["epsilon", "l_hat", "window_lo", "window_hi", "truncated"],
                       [(r.epsilon, r.l_hat, r.window[0], r.window[1], r.truncated)
                        for r in rows]),
        "solutions.csv": (["epsilon", "q", "gap_to_next"], sol_rows),
    }


@_command("scan",
          click.option("--freq", required=True, help="comma-separated descriptors"),
          click.option("--theta", default=None, help="target point (default 0)"),
          click.option("--eps", required=True, help="comma-separated epsilon ladder"),
          *_policy, *_common)
def _run_scan(freq: str, theta: str | None, eps: str, precision: int,
              out: str, fmt: str, seed_min: int, seed_factor: float,
              budget: int):
    """Enumerate solutions per epsilon and measure inclusion lengths."""
    frequency = _parse_frequency(freq, precision)
    target = _parse_target(theta, precision, len(frequency))
    ladder = _parse_floats(eps)
    policy = WindowPolicy(seed_min=seed_min, seed_factor=seed_factor, budget=budget)
    rows = inclusion_length_ladder(frequency, target, ladder, policy)
    files = _ladder_files(rows)
    if fmt == "json":
        files["ladder.json"] = [
            {"epsilon": r.epsilon, "l_hat": r.l_hat,
             "window": list(r.window), "truncated": r.truncated}
            for r in rows
        ]
    lines = [f"eps={r.epsilon}: l_hat={r.l_hat} on {r.window} "
             f"({'truncated' if r.truncated else 'clean'})" for r in rows]
    return (EXIT_BUDGET if any(r.truncated for r in rows) else 0), files, "\n".join(lines)


def _bound_bracket(m: int, n: int, nu: float, d: float | None) -> tuple[dict, dict]:
    """The bracket's inputs, d defaulting to m + n, and its lower and upper
    bounds; an undefined upper is None, with upper_note saying why."""
    d = (m + n) if d is None else d
    inputs = {"m": m, "n": n, "nu": nu, "d": d}
    try:
        bb = theoretical_bounds(m, n, nu, d)
    except BoundUndefinedError as exc:
        return inputs, {"lower": lower_bound(n, d), "upper": None, "upper_note": str(exc)}
    return inputs, {"lower": bb.lower, "upper": bb.upper}


def _estimate_fields(est) -> dict:
    """The fields a DimensionEstimate contributes to estimate.json."""
    fields = {f: getattr(est, f) for f in ("slope", "slope_lower", "slope_upper", "fit_residual")}
    return {**fields, "samples": [list(p) for p in est.samples]}


@_command("dimension",
          click.option("--freq", default=None, help="comma-separated descriptors"),
          click.option("--theta", default=None),
          click.option("--eps", default=None, help="comma-separated epsilon ladder"),
          click.option("--from-csv", "from_csv", default=None,
                       help="fit an existing ladder.csv instead of scanning"),
          click.option("--m", default=1, show_default=True,
                       help="system dimension when using --from-csv"),
          click.option("--n", default=1, show_default=True),
          click.option("--nu", default=0.0, show_default=True),
          click.option("--d", default=None, type=float,
                       help="ambient dimension for the bracket (default m+n)"),
          *_policy, *_common)
def _run_dimension(freq: str | None, theta: str | None, eps: str | None,
                   from_csv: str | None, m: int, n: int, nu: float,
                   d: float | None, precision: int, out: str, fmt: str,
                   seed_min: int, seed_factor: float, budget: int):
    """Fit the inclusion-length slope and compare to the bound bracket."""
    if from_csv is None:
        if freq is None or eps is None:
            raise ValidationError("need --freq and --eps (or --from-csv)")
        frequency = _parse_frequency(freq, precision)
        m = len(frequency)
    # the bracket is checked before the scan, so a bad --nu or --d exits at once
    inputs, limits = _bound_bracket(m, n, nu, d)
    bracket = {**inputs, **limits}
    files = {}
    if from_csv is not None:
        try:
            with open(from_csv, newline="") as f:
                pairs = [(float(rec["epsilon"]), float(rec["l_hat"]),
                          rec.get("truncated", "0") in ("1", "True", "true"))
                         for rec in csv.DictReader(f)]
        except (OSError, KeyError, ValueError) as exc:
            raise ValidationError(f"cannot read ladder rows from {from_csv}: {exc!r}") from exc
    else:
        target = _parse_target(theta, precision, m)
        policy = WindowPolicy(seed_min=seed_min, seed_factor=seed_factor, budget=budget)
        rows = inclusion_length_ladder(frequency, target, _parse_floats(eps), policy)
        files = _ladder_files(rows)
        pairs = [(r.epsilon, r.l_hat, r.truncated) for r in rows]

    clean = [(e, l) for e, l, trunc in pairs if not trunc]
    dropped = len(pairs) - len(clean)
    if len(clean) < 4:
        raise InsufficientDataError(
            f"{len(clean)} clean rows after dropping {dropped}; need 4 to fit"
        )
    est = diophantine_dimension_fit(clean)

    tol = 0.3
    within = bracket["lower"] - tol <= est.slope and (
        bracket["upper"] is None or est.slope <= bracket["upper"] + tol)
    verdict = "within" if within else "outside"
    files["estimate.json"] = {
        **_estimate_fields(est),
        "rows_dropped_truncated": dropped,
        "bracket": bracket,
        "tolerance": tol,
        "verdict": verdict,
    }
    return 0, files, (f"slope {est.slope:.4f} "
                      f"[{est.slope_lower:.4f}, {est.slope_upper:.4f}], verdict: {verdict}")


@_command("orbit",
          click.option("--matrix", required=True,
                       help="rows ';'-separated, entries ','-separated"),
          click.option("--lattice", type=click.Choice(["integer", "real"]),
                       default="integer", show_default=True),
          click.option("--count", default=4096, show_default=True),
          click.option("--step", default=None, type=float,
                       help="real-grid spacing (default: golden conjugate)"),
          click.option("--scales", default=DEFAULT_SCALES, show_default=False,
                       help="comma-separated dyadic scales (default 2^-2..2^-8)"),
          *_common)
def _run_orbit(matrix: str, lattice: str, count: int, step: float | None,
               scales: str, precision: int, out: str, fmt: str):
    """Sample a matrix orbit on the torus and fit its box dimension."""
    mat = FrequencyMatrix.parse(matrix, precision)
    points = orbit_sample(mat, lattice, count, step)
    curve = box_count(points, _parse_floats(scales))
    est = box_dimension_fit(curve)
    files = {
        # tolist() gives Python floats, whose repr the CSV cells use
        "points.csv": ([f"x{j}" for j in range(mat.m)], points.tolist()),
        "boxcounts.csv": (["scale", "count"], list(zip(curve.scales, curve.counts))),
        "estimate.json": {
            **_estimate_fields(est),
            "excluded_saturated": [list(p) for p in est.excluded],
            "points_used": curve.points_used,
            "ambient_dim": curve.ambient_dim,
        },
    }
    return 0, files, f"{len(points)} points, slope {est.slope:.4f}"


@_command("bounds",
          click.option("--m", required=True, type=int),
          click.option("--n", default=1, show_default=True),
          click.option("--nu", default=0.0, show_default=True),
          click.option("--d", default=None, type=float, help="ambient dimension (default m+n)"),
          click.option("--alpha", default=1.0, show_default=True,
                       help="Holder exponent for the composed ceiling"),
          click.option("--out", default=".", show_default=True),
          click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
                       default="json", show_default=True))
def _run_bounds(m: int, n: int, nu: float, d: float | None, alpha: float,
                out: str, fmt: str):
    """Evaluate the theoretical dimension bracket."""
    inputs, limits = _bound_bracket(m, n, nu, d)
    payload = {"inputs": {**inputs, "alpha": alpha}, **limits}
    upper = payload["upper"]
    if upper is not None:
        payload["holder_upper"] = holder_bound(upper, alpha)
    return 0, {"bounds.json": payload}, (
        f"lower {payload['lower']}, upper {'undefined' if upper is None else upper}")


@_command("almost-period",
          click.option("--freq", required=True),
          click.option("--beta", default=2.0, show_default=True),
          click.option("--k", default=20, show_default=True),
          click.option("--k0", default=1, show_default=True),
          click.option("--targets", required=True, help="comma-separated real targets"),
          click.option("--nu", default=0.0, show_default=True),
          *_common)
def _run_almost_period(freq: str, beta: float, k: int, k0: int, targets: str,
                       nu: float, precision: int, out: str, fmt: str):
    """Greedy almost periods for each target, with quality constants."""
    frequency = _parse_frequency(freq, precision)
    sample_targets = _parse_floats(targets)
    seq = convergent_sequence(frequency, beta, k)
    record = almost_period_quality(seq, k0, sample_targets, nu)
    files = {
        "periods.csv": (["target", "tau", "residual", "reeval_residual"],
                        [(e.target, e.tau, e.residual, e.reeval_residual)
                         for e in record.entries]),
        "quality.json": {f: getattr(record, f) for f in (
            "k0", "nu", "eta", "max_residual", "c2_hat", "max_reeval_gap", "consistent")},
    }
    return 0, files, (f"k0={record.k0}: worst residual {record.max_residual}, "
                      f"c2_hat={record.c2_hat}")


def _execute(command: str, options: dict):
    """Run a command, then write its files and manifest into --out."""
    try:
        code, files, text = _RUNNERS[command](**options)
    except tuple(_EXIT_CODES) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(next(_EXIT_CODES[t] for t in type(exc).__mro__ if t in _EXIT_CODES))
    files["manifest.json"] = {"tool": "kronlab", "version": __version__,
                              "command": command, "options": options}
    outdir = Path(options["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    for name, payload in files.items():
        _write(outdir / name, payload)
    click.echo(text)
    if code:
        sys.exit(code)


if __name__ == "__main__":
    main()
