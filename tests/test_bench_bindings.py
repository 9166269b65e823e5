"""The benchmark reaches into the library by name; these bindings must hold.

bench/tracing.py rebinds ResidualKernel methods and the public functions,
and bench/worker.py builds a kernel from 128-bit steps for its block
throughput. A library change that breaks either breaks traced or
calibrated benchmark runs, so it should fail here first.
"""
import importlib
from pathlib import Path

import kronlab as K
from kronlab import _fixedpoint as fx

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_and_kernel_block_runs(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    worker = importlib.import_module("worker")
    freq = K.FrequencyTuple.parse(["sqrt(2)-1", "pi-3"])
    original = K.gap_scan
    tracer = tracing.Tracer()
    try:
        tracer.install()
        K.gap_scan(K.KroneckerInstance(freq, K.TorusPoint([0.3, 0.7]), 0.05), 0, 5000)
        K.dirichlet_search(freq, 5000)
    finally:
        tracer.uninstall()
    layers = tracing.layer_metrics(tracer)
    assert layers["fixedpoint.residuals.q_per_s.m2"] > 0
    assert layers["fixedpoint.record_lows.busy_s"] > 0
    assert K.gap_scan is original

    monkeypatch.setattr(worker, "BLOCK", 1 << 10)
    monkeypatch.setattr(worker, "BLOCK_REPS", 2)
    rates = worker.kernel_block(K, fx, ["sqrt(2)-1", "pi-3", "e-2"], 1)
    assert sorted(rates) == [f"fixedpoint.kernel_block.q_per_s.m{m}" for m in (1, 2, 3)]
    assert all(r > 0 for r in rates.values())
