"""Command-line front end.

Subcommands: decomp, bar, schaper, verify, gram.  Exit codes: 0 all passed,
1 verification failure, 2 usage error.

A handler imports the layers that only it runs, and `logging` is imported
only to log, so `decomp` and `bar` never load `hecke`, `schaper`, `verify`,
`dataclasses` or `logging`.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile
import zlib
from pathlib import Path

from fockdec import __version__, canonical, partitions
from fockdec.fock import BarMatrix, bar_matrix
from fockdec.matrices import FORMATS, PartitionMatrix
from fockdec.partitions import format_partition, parse_partition, partitions_of

REPORT_FORMATS = ("text", "json")


@functools.cache
def cache_schema() -> str:
    """The schema of a cache entry: "fockdec-" and a CRC-32 of every module
    of the package, so an entry is served only to the code that wrote it.

    Computed on first use and kept for the life of the process.  Raises
    FileNotFoundError when no module source sits beside this file, rather
    than give every sourceless install one constant key.  A checksum, not
    hashlib: the key guards against stale code, not against an attacker,
    and hashlib loads OpenSSL's libcrypto, megabytes of peak RSS in every
    short `decomp` process.
    """
    sources = sorted(Path(__file__).parent.glob("*.py"))
    if not sources:
        raise FileNotFoundError(f"no module source beside {__file__}")
    crc = 0
    for path in sources:
        crc = zlib.crc32(path.read_bytes(), crc)
    return f"fockdec-{crc:08x}"


class MatrixCache:
    """JSON file cache keyed by (kind, n, m) and the schema, `cache_schema()`.

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
            schema = cache_schema()
            if data.get("schema") != schema:
                raise ValueError(f"schema {data.get('schema')!r} is not {schema!r}")
            matrix = cls.from_jsonable(data.get("matrix"))
            if matrix.n != n or matrix.m != m or matrix.order != partitions_of(m):
                raise ValueError(f"the entry does not label the partitions of {m} at n={n}")
            matrix.validate()
        except (OSError, ValueError, AssertionError) as exc:
            _warn("cache entry %s is unusable, recomputing it: %s", path, exc)
            return None
        return matrix

    def store(self, kind: str, n: int, m: int, matrix: PartitionMatrix) -> None:
        """Write the entry atomically: a reader sees the old file or the new one."""
        payload = {"schema": cache_schema(), "matrix": matrix.to_jsonable()}
        self.directory.mkdir(parents=True, exist_ok=True)
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
        _warn("cache entry %s cannot be written, continuing without it: %s", path, exc)
    return matrix


def _warn(message: str, *args) -> None:
    """Log at WARNING on the `fockdec.cli` logger."""
    import logging

    # Named, not __name__: under `python -m fockdec.cli` that is "__main__".
    logging.getLogger("fockdec.cli").warning(message, *args)


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
        p_matrix.set_defaults(handler=functools.partial(cmd_matrix, p_matrix))
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
    p_schaper.set_defaults(handler=functools.partial(cmd_schaper, p_schaper))
    p_schaper.add_argument("--lambda", dest="lam", type=_PARTITION, required=True)
    p_schaper.add_argument("--n", type=_MODULUS, required=True)
    p_schaper.add_argument("--format", choices=REPORT_FORMATS, default="text")

    p_verify = sub.add_parser("verify", help="run the verification suites")
    p_verify.set_defaults(handler=functools.partial(cmd_verify, p_verify))
    p_verify.add_argument("--max-m", type=int, default=6)
    p_verify.add_argument("--n-set", default="2,3,4,5")
    p_verify.add_argument("--suite", help="comma-separated suite names (default: all)")
    p_verify.add_argument("--format", choices=REPORT_FORMATS, default="text")
    p_verify.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="ignored: verify keeps no matrix cache",
    )

    p_gram = sub.add_parser("gram", help="Gram determinant report for one partition")
    p_gram.set_defaults(handler=functools.partial(cmd_gram, p_gram))
    p_gram.add_argument("--lambda", dest="lam", type=_PARTITION, required=True)
    p_gram.add_argument("--n", type=_MODULUS, required=True)
    p_gram.add_argument("--size-cap", type=int)
    p_gram.add_argument("--format", choices=REPORT_FORMATS, default="text")

    return parser


def cmd_matrix(parser, args) -> int:
    cache_dir = args.cache_dir or Path(os.environ.get("FOCKDEC_CACHE") or ".fockdec-cache")
    matrix = cached_matrix(args.command, args.n, args.m, cache_dir)
    sys.stdout.write(matrix.render(args.format))
    return 0


def cmd_schaper(parser, args) -> int:
    from fockdec import schaper

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
    from fockdec import verify

    try:
        n_set = tuple(int(piece) for piece in args.n_set.split(",") if piece.strip())
    except ValueError:
        parser.error(f"cannot parse --n-set {args.n_set!r}")
    if args.suite is None:
        suites = verify.ALL_SUITES
    else:
        suites = tuple(piece.strip() for piece in args.suite.split(",") if piece.strip())
    try:
        verify.check_arguments(args.max_m, n_set, suites)
    except ValueError as exc:
        parser.error(str(exc))
    # A suite's failures are failing cases (exit 1); its ValueError is a program fault.
    results = verify.run_verification(max_m=args.max_m, n_set=n_set, suites=suites)
    if args.format == "json":
        print(json.dumps([r.to_json() for r in results], indent=2))
    else:
        print(verify.render_table(results))
    return 0 if all(r.passed for r in results) else 1


def cmd_gram(parser, args) -> int:
    from fockdec.hecke import DEFAULT_SIZE_CAP, gram_matrix, gram_rank_at_root
    from fockdec.laurent import cyclotomic_valuation

    size_cap = DEFAULT_SIZE_CAP if args.size_cap is None else args.size_cap
    try:
        gram = gram_matrix(args.lam, size_cap)
    except ValueError as exc:
        parser.error(str(exc))
    det = gram.determinant()
    valuation = cyclotomic_valuation(det, args.n)
    rank = gram_rank_at_root(args.lam, args.n, size_cap)
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
        import logging

        logging.basicConfig(level=logging.INFO)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
