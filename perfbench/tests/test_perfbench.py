"""Tests of the benchmark itself, on tiny problem sizes.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import dataclasses
import itertools
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import measure
import workloads
from arnoldstab import dynamics, rearrange, spectra
from spans import Tracer

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = dataclasses.replace(
    workloads.FULL,
    res=24,
    mask_shape=(24, 48),
    mask_h=1.0 / 16,
    hole=6,
    holes=((12, 6), (6, 34)),
    jitter=2,
    segment_steps=4,
    monitor_every=2,
    probe_batch=1,
    setups=1,
    defect_res=16,
)
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_tiny(name, trace=0):
    return measure.run(name, seed=3, seconds=0.01, trace=trace, sizes=TINY)


def test_spec_matches_the_code():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)
    layer = [m[0] for m in measure.LAYER_METRICS]
    defects = [d[0] for d in workloads.KNOWN_DEFECTS]
    assert [m["name"] for m in SPEC["per_layer"]] == layer + ["trace_overhead_frac"] + defects


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_metric_with_its_unit(name, trace):
    result, report = run_tiny(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], report["failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert np.isfinite(got["value"])
        assert report["metrics"][m["name"]]["n"] >= 0
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)
        assert all("n" in a for a in report["extras"].values())


def _break_transport(mp):
    mp.setitem(workloads.GATES, "energy_drift", -1.0)


def _break_verdict(mp):
    real = spectra.lambda_big

    def off(basis, tol=1e-8):
        res = real(basis, tol)
        return dataclasses.replace(res, value=res.value * (1 + 1e-6))

    mp.setattr(spectra, "lambda_big", off)


def _break_probe(mp):
    real = rearrange.energy
    calls = itertools.count()
    # every energy after the first (the steady reference) reads one unit high
    mp.setattr(rearrange, "energy", lambda basis, w, a: real(basis, w, a) + (next(calls) > 0))


@pytest.mark.parametrize(
    "name, breaker",
    [("transport", _break_transport), ("verdict", _break_verdict), ("probe", _break_probe)],
)
def test_broken_check_counts_as_failure(name, breaker, monkeypatch):
    breaker(monkeypatch)
    result, report = run_tiny(name)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert report["failures"]


def test_renamed_private_function_is_reported_missing(monkeypatch):
    monkeypatch.delattr(dynamics, "_data_range")
    result, report = run_tiny("verdict", trace=1)
    assert result["correct"]
    assert "dynamics._data_range" in report["extras"]["missing_spans"]
    assert result["metrics"]["dynamics.limiter_ms"]["value"] == 0.0


def test_tracer_self_time_subtracts_children():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))
    tr.begin("outer")  # t=0
    tr.begin("inner")  # t=1
    tr.end()  # t=2
    tr.begin("inner")  # t=3
    tr.end()  # t=4
    tr.end()  # t=5
    incl, excl = tr.durations()["outer"]
    assert incl == [5.0] and excl == [3.0]
    assert tr.durations()["inner"] == ([1.0, 1.0], [1.0, 1.0])


@pytest.mark.parametrize("defect", workloads.KNOWN_DEFECTS, ids=lambda d: d[0])
def test_known_defects_are_reported_failed(defect):
    failed, detail = defect[2](workloads.FULL)
    assert failed and detail.startswith("ConvergenceError")


def test_exits_nonzero_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verdict", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
