"""Work that the benchmark runs in a fresh child process.

Each mode starts from a clean interpreter, because the straightening memo and
the Hecke `lru_cache`s are module-global and would otherwise carry over from
one measurement to the next.  Results go to stdout as one JSON object per
line; a traced mode also writes its spans to the given file at exit.

    python3 child.py cli TRACE_FILE ARGV...      traced `fockdec` CLI call
    python3 child.py sweep M N_SET SEED BUDGET_S [TRACE_FILE]
    python3 child.py heads MAX_M N_SET           cold straightening of every bar head
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time

from spans import Tracer


def install_tracer(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the benchmark reports on."""
    from fockdec import canonical, cli, fock, hecke, kernel, matrices, schaper, verify

    def memo_before(args):
        return kernel.cache_size()

    def memo_after(args, result, size_before):
        tracer.count("kernel.straighten.memo_hits", kernel.cache_size() == size_before)

    def bar_after(args, result, state):
        tracer.count(
            "fock.bar_matrix.nonzeros",
            sum(1 for row in result.rows for entry in row if not entry.is_zero()),
        )

    built: set = set()

    def gram_after(args, result, state):
        shape = tuple(args[0])
        tracer.count("hecke.gram_matrix.entries", len(result.tableaux) ** 2)
        tracer.count("hecke.gram_matrix.repeats", shape in built)
        built.add(shape)

    def store_after(args, result, state):
        cache, kind, n, m = args[:4]
        tracer.count("cli.cache.bytes", cache._path(kind, n, m).stat().st_size)

    targets = [
        (kernel, "straighten_raw", "kernel.straighten", memo_before, memo_after),
        (fock, "straighten", "fock.straighten"),
        (fock, "bar_partition", "fock.bar_partition"),
        (fock, "bar_vector", "fock.bar_vector"),
        (fock, "bar_matrix", "fock.bar_matrix", None, bar_after),
        (fock.BarMatrix, "validate", "fock.validate"),
        (canonical, "decomposition_matrix", "canonical.decomposition_matrix"),
        (canonical, "canonical_vector", "canonical.canonical_vector"),
        (canonical.DecompositionMatrix, "validate", "canonical.validate"),
        (canonical, "gj_identity_check", "canonical.gj_identity_check"),
        (canonical, "derivative_identity_check", "canonical.derivative_identity_check"),
        (schaper, "theorem1_check", "schaper.theorem1_check"),
        (schaper, "schaper_sum_rhs", "schaper.schaper_sum_rhs"),
        (schaper, "schaper_det_rhs", "schaper.schaper_det_rhs"),
        (schaper, "gabber_joseph_rhs", "schaper.gabber_joseph_rhs"),
        (schaper, "jantzen_prediction", "schaper.jantzen_prediction"),
        (schaper, "specht_to_simple", "schaper.specht_to_simple"),
        (hecke, "murphy_table", "hecke.murphy_table"),
        (hecke, "gram_matrix", "hecke.gram_matrix", None, gram_after),
        (hecke.GramMatrix, "determinant", "hecke.determinant"),
        (hecke, "gram_det_valuation", "hecke.gram_det_valuation"),
        (hecke, "gram_rank_at_root", "hecke.gram_rank_at_root"),
        (verify, "run_verification", "verify.run_verification"),
        (cli, "main", "cli.main"),
        (cli, "cached_matrix", "cli.cached_matrix"),
        (cli.MatrixCache, "load", "cli.cache.load"),
        (cli.MatrixCache, "store", "cli.cache.store", None, store_after),
        (matrices.PartitionMatrix, "render", "matrices.render"),
    ]
    for owner, attribute, name, *hooks in targets:
        tracer.install(owner, attribute, name, *hooks)


def _memo_entries() -> int:
    from fockdec import kernel

    return kernel.cache_size()


def run_cli(trace_path: str, argv: list[str]) -> int:
    from fockdec import cli

    tracer = Tracer()
    install_tracer(tracer)
    try:
        with tracer.span("harness.op"):
            code = cli.main(argv)
        sys.stdout.flush()
    finally:
        tracer.dump(trace_path, {"memo_entries": _memo_entries()})
    return code


def sweep_digest(reports) -> str:
    """sha256 over the sum-formula and prediction vectors, in (n, lambda) order."""
    rows = [
        [n, list(lam), report.sum_formula.to_json(), report.prediction.to_json()]
        for (n, lam), report in sorted(reports)
    ]
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def run_sweep(m: int, n_set: tuple[int, ...], seed: int, budget_s: float, trace_path) -> int:
    """Theorem-1 checks for every partition of m, in one long-lived process.

    Set-up imports the package and fills the straightening memo with one
    bar matrix per n; each timed call then rebuilds A and D from the memo.
    Passes start until `budget_s` has gone by since set-up began.
    """
    started = time.perf_counter()
    from fockdec import kernel, schaper
    from fockdec.fock import bar_matrix
    from fockdec.partitions import partitions_of

    for n in n_set:
        bar_matrix(n, m)
    cases = [(n, lam) for n in n_set for lam in partitions_of(m)]
    random.Random(seed).shuffle(cases)
    emit({"setup_cpu_s": time.process_time(), "kernel": kernel.KERNEL_NAME})

    tracer = None
    if trace_path is not None:
        tracer = Tracer()
        install_tracer(tracer)
    check = schaper.theorem1_check
    try:
        while True:
            reports = []
            calls_ms = []
            cpu_s = 0.0
            for n, lam in cases:
                call_start = time.process_time()
                if tracer is None:
                    report = check(lam, n)
                else:
                    with tracer.span("harness.op"):
                        report = check(lam, n)
                call_s = time.process_time() - call_start
                cpu_s += call_s
                calls_ms.append(call_s * 1000.0)
                reports.append(((n, lam), report))
            emit(
                {
                    "cpu_s": cpu_s,
                    "calls_ms": calls_ms,
                    "digest": sweep_digest(reports),
                    "failed": sum(1 for _, report in reports if not report.passed),
                }
            )
            if tracer is not None or time.perf_counter() - started >= budget_s:
                break
    finally:
        if tracer is not None:
            tracer.dump(trace_path, {"memo_entries": _memo_entries()})
    return 0


def run_heads(max_m: int, n_set: tuple[int, ...]) -> int:
    """Straighten the reversed head of every partition of m <= max_m, cold memo."""
    from fockdec import kernel
    from fockdec.fock import wedge_from_partition
    from fockdec.partitions import partitions_of

    heads = []
    for m in range(max_m + 1):
        for lam in partitions_of(m):
            heads.append(wedge_from_partition(lam, max(m, len(lam), 1))[::-1])
    kernel.clear_cache()
    start = time.process_time()
    for n in n_set:
        for head in heads:
            kernel.straighten_raw(head, n)
    emit({"seconds": time.process_time() - start, "expansions": len(heads) * len(n_set)})
    return 0


def _n_set(text: str) -> tuple[int, ...]:
    return tuple(int(piece) for piece in text.split(","))


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "cli":
        return run_cli(rest[0], rest[1:])
    if mode == "sweep":
        trace_path = rest[4] if len(rest) > 4 else None
        return run_sweep(int(rest[0]), _n_set(rest[1]), int(rest[2]), float(rest[3]), trace_path)
    if mode == "heads":
        return run_heads(int(rest[0]), _n_set(rest[1]))
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
