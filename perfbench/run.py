"""The fockdec benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; the package is imported from
`src/` and nothing is installed.  Every operation is a closed loop with one
client: the next call starts when the previous one has finished.

Workloads (see BENCHMARK.json for why each was chosen):

  decomp-cold     `fockdec decomp --format json` at (n=2, m=11) and (n=3, m=12),
                  each call in a fresh process with an empty --cache-dir; the
                  seed shuffles the order within each pass.
  verify-default  `fockdec verify --format json --max-m 6 --n-set 2,3,4,5` with
                  all eleven suites named explicitly, in a seed-shuffled order.
  library-sweep   four long-lived processes in turn; each fills the
                  straightening memo with `bar_matrix(n, 11)` for n = 2, 3 and
                  then calls `schaper.theorem1_check(lam, n)` for every
                  partition of 11, in a seed-shuffled order, for a quarter of
                  the run.

With `--trace 0` the run measures for about `--seconds` seconds and reports
the end-to-end metrics.  Times are CPU seconds (user plus system) of the
measured process, which leave out time spent waiting for a core on a shared
host: `cpu_s` is the median pass, `setup_s` the median interpreter start plus
import (plus the memo fill for library-sweep), and the call percentiles are
over single CLI processes or single `theorem1_check` calls.  With `--trace 1` it makes one untraced and one
traced pass in fresh processes and reports the per-layer metrics.  Every
output is checked: decomp output against recorded sha256 digests, a golden
file where one exists and `DecompositionMatrix.validate()`; the verify report
against its digest, its case count and a pass on every case; the sweep's
sum-formula and prediction vectors against their digest.  `--smoke` swaps in
small degrees (decomp at the golden sizes) for a quick self-check.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Lines before it list every metric with
its unit and sample count, and a `run-record` line with the kernel, Python
version, core count and commit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from spans import summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

WORKLOADS = ("decomp-cold", "verify-default", "library-sweep")

SIZES = {
    "full": {"decomp": ((2, 11), (3, 12)), "verify_max_m": 6, "sweep_m": 11},
    "smoke": {"decomp": ((2, 4), (3, 5)), "verify_max_m": 3, "sweep_m": 5},
}
VERIFY_N_SET = "2,3,4,5"
SWEEP_N_SET = "2,3"
# Named explicitly so that a new suite or a changed CLI default cannot
# silently change the workload.
SUITES = (
    "involution",
    "k-stability",
    "bar-structure",
    "canonical-structure",
    "bar-triangle",
    "derivative",
    "theorem1",
    "det-bridge",
    "semisimple",
    "oracle",
    "ariki",
)
SETUP_REPEATS = 9
SWEEP_PROCESSES = 4
HEADS_MAX_M, HEADS_N_SET = 9, "2,3,4,5"
# Child processes are killed past this point so one run ends within 180 s.
HARD_LIMIT_S = 165.0

IMPORT_PROBE = "import fockdec.cli; from fockdec import kernel; print(kernel.KERNEL_NAME)"
LAYERS = ("kernel", "fock", "canonical", "schaper", "hecke", "verify", "cli", "matrices", "harness")


@dataclass
class Child:
    cpu_s: float
    rss_mb: float
    code: int
    out: bytes


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def median(values: list[float]) -> float:
    """The median, or 0 when every operation failed before it could be timed."""
    return statistics.median(values) if values else 0.0


def percentile(values: list[float], fraction: float) -> float:
    if len(values) < 2:
        return median(values)
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


def read_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, size: str, tmp: Path):
        self.workload = workload
        self.seconds = seconds
        self.size = SIZES[size]
        self.expected = json.loads((HERE / "expected.json").read_text())[size]
        self.rng = random.Random(seed)
        self.seed = seed
        self.tmp = tmp
        self.deadline = time.monotonic() + HARD_LIMIT_S
        self.env = {k: v for k, v in os.environ.items() if k not in ("FOCKDEC_CACHE", "PYTHONPATH")}
        self.env["PYTHONPATH"] = str(SRC)
        self.env["TMPDIR"] = str(tmp)
        self.attempted = 0
        self.failed = 0
        self.validated: set[str] = set()
        self.kernel = "unknown"

    # -- processes -----------------------------------------------------------

    def spawn(self, argv: list[str]) -> Child:
        """Run a child to completion; take its own CPU time and peak RSS from wait4."""
        proc = subprocess.Popen(argv, cwd=self.tmp, env=self.env, stdout=subprocess.PIPE)
        timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu_s = usage.ru_utime + usage.ru_stime
        return Child(cpu_s, usage.ru_maxrss / 1024.0, proc.returncode, out)

    def cli(self, argv: list[str], trace: Path | None = None) -> Child:
        if trace is None:
            return self.spawn([sys.executable, "-m", "fockdec.cli", *argv])
        return self.spawn([sys.executable, str(HERE / "child.py"), "cli", str(trace), *argv])

    def setup_times(self, repeats: int) -> list[float]:
        """Interpreter start plus import, after one unmeasured warm-up."""
        times = []
        for index in range(repeats + 1):
            child = self.spawn([sys.executable, "-c", IMPORT_PROBE])
            if child.code != 0:
                raise SystemExit(f"importing fockdec failed with exit code {child.code}")
            self.kernel = child.out.decode().strip()
            if index:
                times.append(child.cpu_s)
        return times

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        print(f"FAIL: {message}", file=sys.stderr)

    def fresh_dir(self) -> str:
        return tempfile.mkdtemp(dir=self.tmp)

    # -- correctness ---------------------------------------------------------

    def check_decomp(self, n: int, m: int, child: Child) -> None:
        self.attempted += 1
        if child.code != 0:
            return self.fail(f"decomp n={n} m={m} exited with {child.code}")
        digest = sha256(child.out)
        expected = self.expected["decomp"][f"{n},{m}"]
        if digest != expected:
            return self.fail(f"decomp n={n} m={m} digest {digest} != {expected}")
        if digest in self.validated:
            return
        data = json.loads(child.out)
        golden = ROOT / "tests" / "golden" / f"decomp-n{n}-m{m}.json"
        if golden.exists() and json.loads(golden.read_text()) != data:
            return self.fail(f"decomp n={n} m={m} differs from {golden.name}")
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        from fockdec.canonical import DecompositionMatrix

        matrix = DecompositionMatrix.from_jsonable(data)
        try:
            matrix.validate()
        except AssertionError as exc:
            return self.fail(f"decomp n={n} m={m} fails validate(): {exc}")
        if (matrix.n, matrix.m) != (n, m):
            return self.fail(f"decomp output is for n={matrix.n} m={matrix.m}")
        self.validated.add(digest)

    def check_verify(self, child: Child, whole: bool) -> None:
        self.attempted += 1
        if child.code != 0:
            return self.fail(f"verify exited with {child.code}")
        cases = json.loads(child.out)
        failing = [case for case in cases if not case["pass"]]
        if failing:
            return self.fail(f"verify reported {len(failing)} failing cases: {failing[:2]}")
        if not whole:
            return
        expected = self.expected["verify"]
        if len(cases) != expected["cases"]:
            return self.fail(f"verify ran {len(cases)} cases, expected {expected['cases']}")
        digest = sha256(child.out)
        if digest != expected["sha256"]:
            self.fail(f"verify digest {digest} != {expected['sha256']}")

    def check_sweep(self, child: Child) -> tuple[dict, list[dict]]:
        """The set-up and per-pass records of a sweep child, after checking each one."""
        lines = [json.loads(line) for line in child.out.splitlines() if line.strip()]
        passes = [line for line in lines if "cpu_s" in line]
        calls = sum(len(record["calls_ms"]) for record in passes)
        self.attempted += max(1, calls)
        if child.code != 0 or not passes:
            self.fail(f"sweep child exited with {child.code}", max(1, calls))
            return {}, []
        self.kernel = lines[0]["kernel"]
        for record in passes:
            if record["digest"] != self.expected["sweep"]:
                self.fail(f"sweep digest {record['digest']} != {self.expected['sweep']}", len(record["calls_ms"]))
            elif record["failed"]:
                self.fail(f"{record['failed']} theorem-1 checks failed", record["failed"])
        return lines[0], passes

    # -- workloads -----------------------------------------------------------

    def decomp_pass(self, traces: list[Path] | None = None) -> tuple[float, list[Child]]:
        children = []
        for n, m in self.rng.sample(self.size["decomp"], 2):
            cache_dir = self.fresh_dir()
            argv = ["decomp", "--n", str(n), "--m", str(m), "--format", "json", "--cache-dir", cache_dir]
            trace = None
            if traces is not None:
                trace = self.tmp / f"trace-decomp-{n}-{m}.json"
                traces.append(trace)
            child = self.cli(argv, trace)
            shutil.rmtree(cache_dir)
            self.check_decomp(n, m, child)
            children.append(child)
        return sum(child.cpu_s for child in children), children

    def verify_argv(self, suites: list[str]) -> list[str]:
        return [
            "verify",
            "--format",
            "json",
            "--max-m",
            str(self.size["verify_max_m"]),
            "--n-set",
            VERIFY_N_SET,
            "--suite",
            ",".join(suites),
            "--cache-dir",
            self.fresh_dir(),
        ]

    def verify_pass(self, trace: Path | None = None) -> tuple[float, list[Child]]:
        child = self.cli(self.verify_argv(self.rng.sample(SUITES, len(SUITES))), trace)
        self.check_verify(child, whole=True)
        return child.cpu_s, [child]

    def sweep_child(self, budget_s: float, trace: Path | None = None) -> tuple[Child, dict, list[dict]]:
        argv = [
            sys.executable,
            str(HERE / "child.py"),
            "sweep",
            str(self.size["sweep_m"]),
            SWEEP_N_SET,
            str(self.seed),
            str(budget_s),
        ]
        if trace is not None:
            argv.append(str(trace))
        child = self.spawn(argv)
        return (child, *self.check_sweep(child))

    def measure(self) -> dict:
        """End-to-end metrics as {name: (value, unit, samples)}."""
        if self.workload == "library-sweep":
            self.setup_times(0)
            setups, rss, passes = [], [], []
            for _ in range(SWEEP_PROCESSES):
                child, ready, records = self.sweep_child(self.seconds / SWEEP_PROCESSES)
                if ready:
                    setups.append(ready["setup_cpu_s"])
                rss.append(child.rss_mb)
                passes.extend(records)
            pass_cpu = [record["cpu_s"] for record in passes]
            calls_ms = [ms for record in passes for ms in record["calls_ms"]]
        else:
            setups = self.setup_times(SETUP_REPEATS)
            one_pass = self.decomp_pass if self.workload == "decomp-cold" else self.verify_pass
            pass_cpu, calls_ms, rss = [], [], []
            start = time.perf_counter()
            while not pass_cpu or time.perf_counter() - start < self.seconds:
                cpu_s, children = one_pass()
                pass_cpu.append(cpu_s)
                calls_ms.extend(child.cpu_s * 1000.0 for child in children)
                rss.extend(child.rss_mb for child in children)
        return {
            "cpu_s": (median(pass_cpu), "s", len(pass_cpu)),
            "peak_rss_mb": (max(rss), "MB", len(rss)),
            "setup_s": (median(setups), "s", len(setups)),
            "call_cpu_p50_ms": (median(calls_ms), "ms", len(calls_ms)),
            "call_cpu_p90_ms": (percentile(calls_ms, 0.9), "ms", len(calls_ms)),
        }

    def trace(self) -> dict:
        """Per-layer metrics from one untraced and one traced pass."""
        self.setup_times(0)
        traces: list[Path] = []
        suite_s = {}
        heads_s = 0.0
        if self.workload == "decomp-cold":
            untraced, _ = self.decomp_pass()
            traced, _ = self.decomp_pass(traces)
            heads = self.spawn([sys.executable, str(HERE / "child.py"), "heads", str(HEADS_MAX_M), HEADS_N_SET])
            self.attempted += 1
            if heads.code != 0:
                self.fail(f"all-heads straightening exited with {heads.code}")
            else:
                heads_s = json.loads(heads.out)["seconds"]
        elif self.workload == "verify-default":
            untraced, _ = self.verify_pass()
            traces.append(self.tmp / "trace-verify.json")
            traced, _ = self.verify_pass(traces[-1])
            for suite in SUITES:
                path = self.tmp / f"trace-suite-{suite}.json"
                child = self.cli(self.verify_argv([suite]), path)
                self.check_verify(child, whole=False)
                if path.exists():
                    names = summarize(json.loads(path.read_text())["spans"])["names"]
                    suite_s[suite] = names.get("verify.run_verification", {}).get("s", 0.0)
        else:
            _, _, records = self.sweep_child(0.0)
            untraced = records[0]["cpu_s"] if records else 0.0
            traces.append(self.tmp / "trace-sweep.json")
            _, _, records = self.sweep_child(0.0, traces[-1])
            traced = records[0]["cpu_s"] if records else 0.0
        return per_layer_metrics(traces, suite_s, heads_s, untraced, traced)


def per_layer_metrics(traces: list[Path], suite_s: dict, heads_s: float, untraced: float, traced: float) -> dict:
    names: dict[str, dict] = {}
    layers: dict[str, float] = {}
    counters: dict[str, float] = {}
    wall = 0.0
    memo_entries = 0
    for path in traces:
        if not path.exists():
            continue
        data = json.loads(path.read_text())
        summary = summarize(data["spans"])
        wall += summary["wall_s"]
        for name, entry in summary["names"].items():
            total = names.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in total:
                total[key] += entry[key]
        for layer, seconds in summary["layers"].items():
            layers[layer] = layers.get(layer, 0.0) + seconds
        for name, value in data["counters"].items():
            counters[name] = counters.get(name, 0) + value
        memo_entries = max(memo_entries, data["extra"]["memo_entries"])

    def get(name: str, key: str) -> float:
        return names.get(name, {}).get(key, 0)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    straightens = get("kernel.straighten", "calls")
    grams = get("hecke.gram_matrix", "calls")
    samples = len(traces)
    metrics = {
        "kernel.straighten.calls": (straightens, "count"),
        "kernel.straighten.self_s": (get("kernel.straighten", "self_s"), "s"),
        "kernel.memo_entries": (memo_entries, "count"),
        "kernel.memo_hit_ratio": (ratio(counters.get("kernel.straighten.memo_hits", 0), straightens), "ratio"),
        "kernel.all_heads.s": (heads_s, "s"),
        "fock.bar_matrix.calls": (get("fock.bar_matrix", "calls"), "count"),
        "fock.bar_matrix.self_s": (get("fock.bar_matrix", "self_s"), "s"),
        "fock.bar_matrix.nonzeros": (counters.get("fock.bar_matrix.nonzeros", 0), "count"),
        "canonical.decomposition_matrix.self_s": (get("canonical.decomposition_matrix", "self_s"), "s"),
        "canonical.gj_identity_check.s": (get("canonical.gj_identity_check", "s"), "s"),
        "canonical.derivative_identity_check.s": (get("canonical.derivative_identity_check", "s"), "s"),
        "schaper.theorem1_check.self_s": (get("schaper.theorem1_check", "self_s"), "s"),
        "schaper.schaper_sum_rhs.s": (get("schaper.schaper_sum_rhs", "s"), "s"),
        "hecke.murphy_table.s": (get("hecke.murphy_table", "s"), "s"),
        "hecke.gram_matrix.calls": (grams, "count"),
        "hecke.gram_matrix.s": (get("hecke.gram_matrix", "s"), "s"),
        "hecke.gram_matrix.entries": (counters.get("hecke.gram_matrix.entries", 0), "count"),
        "hecke.gram_matrix.repeat_ratio": (ratio(counters.get("hecke.gram_matrix.repeats", 0), grams), "ratio"),
        "hecke.determinant.s": (get("hecke.determinant", "s"), "s"),
        "hecke.gram_rank_at_root.s": (get("hecke.gram_rank_at_root", "s"), "s"),
        "cli.cache.store.s": (get("cli.cache.store", "s"), "s"),
        "cli.cache.bytes": (counters.get("cli.cache.bytes", 0), "bytes"),
        "matrices.render.s": (get("matrices.render", "s"), "s"),
    }
    for suite in SUITES:
        metrics[f"verify.suite.{suite}.s"] = (suite_s.get(suite, 0.0), "s")
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = (layers.get(layer, 0.0), "s")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_frac"] = (ratio(traced, untraced) - 1.0 if untraced else 0.0, "ratio")
    return {name: (value, unit, samples) for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fockdec benchmark: one run of one workload")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small degrees, for a quick self-check")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "fockdec" / "__init__.py").is_file():
        print(f"no fockdec sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK))
    try:
        bench = Bench(args.workload, args.seed, args.seconds, "smoke" if args.smoke else "full", tmp)
        metrics = bench.trace() if args.trace else bench.measure()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "kernel": bench.kernel,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "commit": read_commit(),
    }
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:44s} {value:14.6g} {unit:6s} n={samples}")
    print("run-record " + json.dumps(record))
    result = {
        "correct": bench.failed == 0,
        "attempted": max(1, bench.attempted),
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
