"""Spans around kronlab's public functions, recorded from outside the package.

install() rebinds every public function of the six library modules at every
name that binds it: the defining module, the kronlab package re-export and
any module that imported it by name (cli, kron, approx). Without the extra
bindings a call made through `kronlab.max_pair_residual` or through
`cli.inclusion_length_ladder` would go untimed. Methods are wrapped on their
class, so `self.residuals(...)` inside `chunks()` is timed too.

A span is (name, start, end, parent, op, work): parent is the index of the
enclosing span (-1 at the top), op the index of the benchmark op it belongs
to, work a per-call quantity (q scanned, points) taken from the arguments or
the result. Spans stay in memory until the run ends.
"""
from __future__ import annotations

import functools
import inspect
import json
from time import perf_counter

import kronlab
from kronlab import _fixedpoint, approx, cli, dim, kron, torus

MODULES = {"_fixedpoint": _fixedpoint, "torus": torus, "approx": approx,
           "kron": kron, "dim": dim, "cli": cli}

# Scalar helpers called once per point or per coordinate (orbit_sample calls
# frac_to_unit_float 40k times per sample). A span each would cost more than
# the call it times, so they are left unwrapped and their time counts as
# self time of the caller.
SCALAR_HELPERS = {"frac_to_unit_float", "round_shift", "dist_to_float",
                  "torus_norm", "torus_dist", "to_scaled", "eps_to_u64",
                  "step128", "offset128"}

PARSE_SPAN = "torus.PrecisionReal.parse"
CLI_SPAN = "cli.execute"


def _window(lo, hi):
    return int(hi) - int(lo) + 1


# Work recorded per span, computed from (args, kwargs, result); result is
# None when the call raised.
WORK = {
    "_fixedpoint.residuals": lambda a, k, r: (len(a[0].steps), int(a[2])),
    "_fixedpoint.solutions_in": lambda a, k, r: (
        _window(a[1], a[2]), None if r is None else len(r)),
    "kron.gap_scan": lambda a, k, r: _window(a[1], a[2]),
    "kron.inclusion_length_ladder": lambda a, k, r: None if r is None else (
        len(r), sum(_window(*row.window) for row in r)),
    "kron.orbit_sample": lambda a, k, r: None if r is None else len(r),
    "dim.box_count": lambda a, k, r: None if r is None else len(a[0]),
    CLI_SPAN: lambda a, k, r: a[0],
}


class Tracer:
    """In-memory span store; wrappers record while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.works: list = []
        self.stack: list[int] = []
        self.op = -1
        self._restore: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(perf_counter())
        self.ends.append(0.0)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ops.append(self.op)
        self.works.append(None)
        self.stack.append(idx)
        return idx

    def close(self, idx: int, work=None):
        self.ends[idx] = perf_counter()
        self.stack.pop()
        self.works[idx] = work

    def wrap(self, name: str, fn):
        tracer = self
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.close(idx, work(args, kwargs, result) if work else None)
        return traced

    def _rebind(self, owner, attr: str, new):
        self._restore.append((owner, attr, getattr(owner, attr) if not inspect.isclass(owner)
                              else owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every public library function at each of its bindings."""
        wrappers = {}
        for short, mod in MODULES.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__ and attr not in SCALAR_HELPERS):
                    wrappers[obj] = self.wrap(f"{short}.{attr}", obj)
        for mod in (kronlab, *MODULES.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._rebind(mod, attr, wrappers[obj])
        kernel = _fixedpoint.ResidualKernel
        for meth in ("residuals", "residuals_at"):
            self._rebind(kernel, meth, self.wrap(f"_fixedpoint.{meth}", kernel.__dict__[meth]))
        for cls, short in ((torus.PrecisionReal, "torus"), (torus.FrequencyTuple, "torus"),
                           (kron.FrequencyMatrix, "kron")):
            fn = cls.__dict__["parse"].__func__
            self._rebind(cls, "parse", classmethod(self.wrap(f"{short}.{cls.__name__}.parse", fn)))
        # every CLI command and every manifest replay runs through _execute
        self._rebind(cli, "_execute", self.wrap(CLI_SPAN, cli._execute))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def dump(self, path):
        """Write the spans as parallel columns of one JSON object."""
        with open(path, "w") as f:
            json.dump({"name": self.names, "start": self.starts, "end": self.ends,
                       "parent": self.parents, "op": self.ops,
                       "work": self.works}, f, separators=(",", ":"))


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(t: Tracer) -> dict[str, float]:
    """Per-layer counters, busy times and ratios derived from the spans.

    busy_s of a name sums its outermost spans (a span nested in one of the
    same name is not counted twice). cli.self_s is each command span's
    duration minus the durations of the library spans directly under it.
    """
    dur = [e - s for s, e in zip(t.starts, t.ends)]
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, name in enumerate(t.names):
        calls[name] = calls.get(name, 0) + 1
        p = t.parents[i]
        while p >= 0 and t.names[p] != name:
            p = t.parents[p]
        if p < 0:
            busy[name] = busy.get(name, 0.0) + dur[i]

    q_by_m = {1: 0, 2: 0, 3: 0}
    busy_by_m = {1: 0.0, 2: 0.0, 3: 0.0}
    sol_q = sol_hits = 0
    ladder_rows = ladder_final_q = ladder_windows = ladder_scanned_q = 0
    points = box_points = 0
    cli_self = 0.0
    child_time = [0.0] * len(dur)
    for i, name in enumerate(t.names):
        p = t.parents[i]
        if p >= 0:
            child_time[p] += dur[i]
    for i, name in enumerate(t.names):
        w = t.works[i]
        if name == "_fixedpoint.residuals":
            m, n = w
            if m in q_by_m:
                q_by_m[m] += n
                busy_by_m[m] += dur[i]
        elif name == "_fixedpoint.solutions_in":
            sol_q += w[0]
            sol_hits += w[1] or 0
        elif name == "kron.inclusion_length_ladder" and w is not None:
            ladder_rows += w[0]
            ladder_final_q += w[1]
        elif name == "kron.gap_scan" and t.parents[i] >= 0 \
                and t.names[t.parents[i]] == "kron.inclusion_length_ladder":
            ladder_windows += 1
            ladder_scanned_q += w
        elif name == "kron.orbit_sample" and w is not None:
            points += w
        elif name == "dim.box_count" and w is not None:
            box_points += w
        elif name == CLI_SPAN:
            cli_self += dur[i] - child_time[i]

    b = lambda name: busy.get(name, 0.0)
    out = {f"fixedpoint.residuals.q_per_s.m{m}": _ratio(q_by_m[m], busy_by_m[m])
           for m in (1, 2, 3)}
    out.update({
        "fixedpoint.residuals.q_evaluated": float(sum(q_by_m.values())),
        "fixedpoint.solutions_in.busy_s": b("_fixedpoint.solutions_in"),
        "fixedpoint.solutions_in.hit_ratio": _ratio(sol_hits, sol_q),
        "fixedpoint.solutions_in.calls": float(calls.get("_fixedpoint.solutions_in", 0)),
        "fixedpoint.solutions_in.us_per_call": 1e6 * _ratio(
            b("_fixedpoint.solutions_in"), calls.get("_fixedpoint.solutions_in", 0)),
        "fixedpoint.argmin_prefixes.busy_s": b("_fixedpoint.argmin_prefixes"),
        "fixedpoint.record_lows.busy_s": b("_fixedpoint.record_lows"),
        "kron.gap_scan.busy_s": b("kron.gap_scan"),
        "kron.inclusion_length_ladder.windows_per_row": _ratio(ladder_windows, ladder_rows),
        "kron.inclusion_length_ladder.useful_ratio": _ratio(ladder_final_q, ladder_scanned_q),
        "kron.max_pair_residual.busy_s": b("kron.max_pair_residual"),
        "kron.greedy_almost_period.calls_per_s": _ratio(
            calls.get("kron.greedy_almost_period", 0), b("kron.greedy_almost_period")),
        "kron.almost_period_quality.busy_s": b("kron.almost_period_quality"),
        "torus.frac_mult.calls": float(calls.get("torus.frac_mult", 0)),
        "torus.frac_mult.busy_s": b("torus.frac_mult"),
        "approx.convergent_sequence.busy_s": b("approx.convergent_sequence"),
        "approx.estimate_diophantine_order.busy_s": b("approx.estimate_diophantine_order"),
        "kron.orbit_sample.points_per_s": _ratio(points, b("kron.orbit_sample")),
        "dim.box_count.busy_s": b("dim.box_count"),
        "dim.box_count.points_per_s": _ratio(box_points, b("dim.box_count")),
        "kron.matrix_solution_scan.busy_s": b("kron.matrix_solution_scan"),
        "torus.parse.busy_s": b(PARSE_SPAN),
        "cli.self_s": cli_self,
    })
    for command in ("convergents", "scan", "dimension", "orbit", "bounds", "almost-period"):
        out[f"cli.{command}.busy_s"] = sum(
            (dur[i] for i, name in enumerate(t.names)
             if name == CLI_SPAN and t.works[i] == command), 0.0)
    return out
