"""Tests of the benchmark harness itself: span accounting, wrapper
installation, the correctness gate, and small end-to-end smoke runs."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import run
from spans import Tracer, self_times, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_times_add_up_to_traced_wall():
    tracer = Tracer()
    leaf = tracer.wrap("kernel.leaf", lambda: _busy(0.002))

    def middle():
        _busy(0.001)
        leaf()
        leaf()

    middle = tracer.wrap("fock.middle", middle)
    with tracer.span("harness.op"):
        middle()
        leaf()
    with tracer.span("harness.op"):
        leaf()

    own = self_times(tracer.spans)
    assert all(value >= 0 for value in own)
    roots = [end - start for _, start, end, parent in tracer.spans if parent < 0]
    assert sum(own) == pytest.approx(sum(roots), abs=1e-9)

    summary = summarize(tracer.spans)
    assert summary["wall_s"] == pytest.approx(sum(roots), abs=1e-9)
    assert sum(summary["layers"].values()) == pytest.approx(summary["wall_s"], abs=1e-9)
    assert summary["names"]["kernel.leaf"]["calls"] == 4
    assert summary["names"]["fock.middle"]["self_s"] >= 0.001
    assert summary["layers"]["kernel"] >= 0.008


def test_inclusive_time_counts_outermost_span_once():
    spans = [["a.f", 0.0, 10.0, -1], ["a.f", 1.0, 4.0, 0]]
    names = summarize(spans)["names"]
    assert names["a.f"]["s"] == 10.0
    assert names["a.f"]["self_s"] == 10.0


def test_install_replaces_every_binding(monkeypatch):
    def original(x):
        return x + 1

    defining = types.ModuleType("fockdec._bench_defining")
    importing = types.ModuleType("fockdec._bench_importing")
    defining.target = original
    importing.target_alias = original
    monkeypatch.setitem(sys.modules, defining.__name__, defining)
    monkeypatch.setitem(sys.modules, importing.__name__, importing)

    tracer = Tracer()
    tracer.install(defining, "target", "hecke.target")
    assert importing.target_alias is defining.target is not original
    assert importing.target_alias(1) == 2
    assert [span[0] for span in tracer.spans] == ["hecke.target"]


def _child(code: int, out: bytes) -> run.Child:
    return run.Child(cpu_s=0.1, rss_mb=10.0, code=code, out=out)


def test_gate_rejects_wrong_output(tmp_path):
    bench = run.Bench("decomp-cold", 1, 0, "smoke", tmp_path)
    golden = (ROOT / "tests" / "golden" / "decomp-n2-m4.json").read_text()
    bench.check_decomp(2, 4, _child(0, golden.encode()))
    bench.check_decomp(2, 4, _child(1, b""))
    bench.check_verify(_child(0, json.dumps([{"pass": False}]).encode()), whole=False)
    assert (bench.attempted, bench.failed) == (3, 3)


def _run(cwd: Path, workload: str, trace: int):
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload]
    argv += ["--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_run_is_correct_and_complete(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {entry["name"] for entry in BENCHMARK[kind]}
    units = {entry["name"]: entry["unit"] for entry in BENCHMARK[kind]}
    assert all(metric["unit"] == units[name] for name, metric in result["metrics"].items())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "decomp-cold", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
