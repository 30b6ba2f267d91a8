"""Command-line front end.

Subcommands: decomp, bar, schaper, verify, gram.  Exit codes: 0 all passed,
1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import tempfile
from pathlib import Path

from fockdec import __version__, canonical, partitions, schaper, verify
from fockdec.fock import BarMatrix, bar_matrix
from fockdec.hecke import DEFAULT_SIZE_CAP, gram_matrix, gram_rank_at_root
from fockdec.laurent import cyclotomic_valuation
from fockdec.matrices import FORMATS, PartitionMatrix
from fockdec.partitions import format_partition, parse_partition, partitions_of

log = logging.getLogger(__name__)

SCHEMA_VERSION = "fockdec-1"

REPORT_FORMATS = ("text", "json")


def default_cache_dir() -> Path:
    env = os.environ.get("FOCKDEC_CACHE")
    if env:
        return Path(env)
    return Path(".fockdec-cache")


class MatrixCache:
    """JSON file cache keyed by (kind, n, m) and the schema version.

    `load` serves only an entry of the current schema that parses and passes
    `validate()`.  Any other entry is logged at WARNING with its path and
    the reason, then recomputed and rewritten by `cached_matrix`.
    """

    def __init__(self, directory: Path):
        self.directory = directory

    def _path(self, kind: str, n: int, m: int) -> Path:
        return self.directory / f"{kind}-n{n}-m{m}.json"

    def load(self, kind: str, n: int, m: int, cls) -> PartitionMatrix | None:
        path = self._path(kind, n, m)
        if not path.exists():
            return None
        try:
            data = json.loads(path.read_text())
            if not isinstance(data, dict):
                raise ValueError("the file does not hold a JSON object")
            if data.get("schema") != SCHEMA_VERSION:
                raise ValueError(f"schema {data.get('schema')!r} is not {SCHEMA_VERSION!r}")
            matrix = cls.from_jsonable(data.get("matrix"))
            if matrix.n != n or matrix.m != m or matrix.order != partitions_of(m):
                raise ValueError(f"the entry does not label the partitions of {m} at n={n}")
            matrix.validate()
        except (OSError, ValueError, AssertionError) as exc:
            log.warning("cache entry %s is unusable, recomputing it: %s", path, exc)
            return None
        return matrix

    def store(self, kind: str, n: int, m: int, matrix: PartitionMatrix) -> None:
        """Write the entry atomically: a reader sees the old file or the new one."""
        self.directory.mkdir(parents=True, exist_ok=True)
        payload = {"schema": SCHEMA_VERSION, "matrix": matrix.to_jsonable()}
        path = self._path(kind, n, m)
        fd, tmp = tempfile.mkstemp(
            dir=self.directory, prefix=f".{path.name}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(json.dumps(payload))
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise


def cached_matrix(kind: str, n: int, m: int, cache_dir: Path) -> PartitionMatrix:
    cache = MatrixCache(cache_dir)
    if kind == "decomp":
        cls, compute = canonical.DecompositionMatrix, canonical.decomposition_matrix
    else:
        cls, compute = BarMatrix, bar_matrix
    loaded = cache.load(kind, n, m, cls)
    if loaded is not None:
        return loaded
    matrix = compute(n, m)
    try:
        cache.store(kind, n, m, matrix)
    except OSError as exc:
        path = cache._path(kind, n, m)
        log.warning("cache entry %s cannot be written, continuing without it: %s", path, exc)
    return matrix


def _option(parse):
    """An argparse type from `parse`, whose ValueError becomes a usage error."""

    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


_MODULUS = _option(lambda text: partitions.check_modulus(int(text)))
_DEGREE = _option(lambda text: partitions.check_degree(int(text)))
_PARTITION = _option(parse_partition)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fockdec",
        description=(
            "Exact canonical bases and q-decomposition matrices of the "
            "level-1 q-Fock space, with sum-formula verification."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="log at INFO level to stderr"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command, about in (
        ("decomp", "q-decomposition matrix for (n, m)"),
        ("bar", "bar-involution matrix for (n, m)"),
    ):
        p_matrix = sub.add_parser(command, help=about)
        p_matrix.set_defaults(handler=cmd_matrix)
        p_matrix.add_argument("--n", type=_MODULUS, required=True)
        p_matrix.add_argument("--m", type=_DEGREE, required=True)
        p_matrix.add_argument("--format", choices=FORMATS, default="text")
        p_matrix.add_argument(
            "--cache-dir",
            type=Path,
            default=None,
            help="matrix cache directory (default: $FOCKDEC_CACHE or ./.fockdec-cache)",
        )

    p_schaper = sub.add_parser(
        "schaper", help="sum-formula vector and verdict for one partition"
    )
    p_schaper.set_defaults(handler=cmd_schaper)
    p_schaper.add_argument("--lambda", dest="lam", type=_PARTITION, required=True)
    p_schaper.add_argument("--n", type=_MODULUS, required=True)
    p_schaper.add_argument("--format", choices=REPORT_FORMATS, default="text")

    p_verify = sub.add_parser("verify", help="run the verification suites")
    p_verify.set_defaults(handler=cmd_verify)
    p_verify.add_argument("--max-m", type=int, default=6)
    p_verify.add_argument("--n-set", default="2,3,4,5")
    p_verify.add_argument(
        "--suite",
        default=",".join(verify.ALL_SUITES),
        help="comma-separated suite names (default: all)",
    )
    p_verify.add_argument("--format", choices=REPORT_FORMATS, default="text")
    p_verify.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="ignored: verify keeps no matrix cache",
    )

    p_gram = sub.add_parser("gram", help="Gram determinant report for one partition")
    p_gram.set_defaults(handler=cmd_gram)
    p_gram.add_argument("--lambda", dest="lam", type=_PARTITION, required=True)
    p_gram.add_argument("--n", type=_MODULUS, required=True)
    p_gram.add_argument("--size-cap", type=int, default=DEFAULT_SIZE_CAP)
    p_gram.add_argument("--format", choices=REPORT_FORMATS, default="text")

    return parser


def _cache_dir(args) -> Path:
    return args.cache_dir if args.cache_dir is not None else default_cache_dir()


def cmd_matrix(parser, args) -> int:
    matrix = cached_matrix(args.command, args.n, args.m, _cache_dir(args))
    sys.stdout.write(matrix.render(args.format))
    return 0


def cmd_schaper(parser, args) -> int:
    report = schaper.theorem1_check(args.lam, args.n)
    vector = report.sum_formula
    valuation = schaper.schaper_det_rhs(args.lam, args.n)
    if args.format == "json":
        payload = {
            "lambda": format_partition(args.lam),
            "n": args.n,
            "sum_formula": vector.to_json(),
            "det_valuation": valuation,
            "theorem1": "PASS" if report.passed else "FAIL",
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"lambda = ({format_partition(args.lam)}), n = {args.n}")
        print(f"sum formula vector : {vector!r}")
        print(f"det valuation      : nu = {valuation}")
        print(f"theorem1           : {'PASS' if report.passed else 'FAIL'}")
        if not report.passed:
            print(report.describe())
    return 0 if report.passed else 1


def cmd_verify(parser, args) -> int:
    try:
        n_set = tuple(int(piece) for piece in args.n_set.split(",") if piece.strip())
    except ValueError:
        parser.error(f"cannot parse --n-set {args.n_set!r}")
    if not n_set:
        parser.error(f"--n-set {args.n_set!r} names no modulus")
    suites = tuple(piece.strip() for piece in args.suite.split(",") if piece.strip())
    if not suites:
        parser.error(f"--suite {args.suite!r} names no suite")
    try:
        verify.check_arguments(args.max_m, n_set, suites)
    except ValueError as exc:
        parser.error(str(exc))
    # A ValueError from a suite is a fault of the program, not of the arguments.
    results = verify.run_verification(max_m=args.max_m, n_set=n_set, suites=suites)
    if args.format == "json":
        print(json.dumps([r.to_json() for r in results], indent=2))
    else:
        print(verify.render_table(results))
    return 0 if all(r.passed for r in results) else 1


def cmd_gram(parser, args) -> int:
    try:
        gram = gram_matrix(args.lam, args.size_cap)
    except ValueError as exc:
        parser.error(str(exc))
    det = gram.determinant()
    valuation = cyclotomic_valuation(det, args.n) if not det.is_zero() else None
    rank = gram_rank_at_root(args.lam, args.n, args.size_cap)
    if args.format == "json":
        payload = {
            "lambda": format_partition(args.lam),
            "n": args.n,
            "determinant": str(det),
            "nu": valuation,
            "rank_at_root": rank,
            "dimension": len(gram.tableaux),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"lambda = ({format_partition(args.lam)}), n = {args.n}")
        print(f"gram dimension : {len(gram.tableaux)}")
        print(f"determinant    : {det}")
        print(f"nu(det)        : {valuation}")
        print(f"rank at root   : {rank}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        logging.basicConfig(level=logging.INFO)
    return args.handler(parser, args)


if __name__ == "__main__":
    sys.exit(main())
