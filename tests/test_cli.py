"""CLI behaviour: formats, exit codes, cache round-trips, a failing check."""

import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest

import fockdec
from fockdec.cli import REPORT_FORMATS, MatrixCache, cached_matrix, main
from fockdec.canonical import DecompositionMatrix, decomposition_matrix
from fockdec.fock import BarMatrix, bar_matrix
from fockdec import canonical, hecke, schaper, verify

BENCHMARK_EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


class TestDecomp:
    def test_json_entry(self, capsys, tmp_path):
        code, out = run(
            ["decomp", "--n", "2", "--m", "2", "--format", "json", "--cache-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["entries"][1][0] == "q"
        assert data["order"] == [[2], [1, 1]]

    def test_semisimple_identity(self, capsys, tmp_path):
        code, out = run(
            ["decomp", "--n", "5", "--m", "3", "--format", "json", "--cache-dir", str(tmp_path)],
            capsys,
        )
        data = json.loads(out)
        for i, row in enumerate(data["entries"]):
            for j, entry in enumerate(row):
                assert entry == ("1" if i == j else "0")

    def test_usage_error_exit_2(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["decomp", "--n", "1", "--m", "2", "--cache-dir", str(tmp_path)])
        assert err.value.code == 2


    @pytest.mark.parametrize("n,m", [(2, 11), (3, 12)])
    def test_json_matches_benchmark_digest(self, n, m, capsys, tmp_path, monkeypatch):
        expected = json.loads(BENCHMARK_EXPECTED.read_text())["full"]["decomp"][f"{n},{m}"]
        argv = ["decomp", "--n", str(n), "--m", str(m), "--format", "json", "--cache-dir", str(tmp_path)]
        code, computed = run(argv, capsys)
        assert code == 0
        # The second run must be served from the file the first one wrote.
        monkeypatch.setattr(canonical, "decomposition_matrix", None)
        code, loaded = run(argv, capsys)
        assert code == 0
        for out in (computed, loaded):
            assert hashlib.sha256(out.encode()).hexdigest() == expected


class TestBar:
    def test_entry_value(self, capsys, tmp_path):
        code, out = run(
            ["bar", "--n", "2", "--m", "2", "--format", "json", "--cache-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["entries"][1][0] == "-q^-1 + q"

    def test_m0_scalar(self, capsys, tmp_path):
        code, out = run(
            ["bar", "--n", "3", "--m", "0", "--format", "json", "--cache-dir", str(tmp_path)],
            capsys,
        )
        data = json.loads(out)
        assert data["entries"] == [["1"]]


class TestSchaper:
    def test_column_pair(self, capsys):
        code, out = run(["schaper", "--lambda", "1,1", "--n", "2"], capsys)
        assert code == 0
        assert "S(2)" in out
        assert "nu = 1" in out
        assert "PASS" in out

    def test_single_row(self, capsys):
        code, out = run(["schaper", "--lambda", "2", "--n", "2"], capsys)
        assert code == 0
        assert "nu = 0" in out

    def test_malformed_lambda(self, capsys):
        for text in ("1,x", "True,True"):
            with pytest.raises(SystemExit) as err:
                main(["schaper", "--lambda", text, "--n", "2"])
            assert err.value.code == 2


class TestVerify:
    def test_default_subset_passes(self, capsys):
        code, out = run(
            ["verify", "--max-m", "3", "--n-set", "2,3", "--suite", "involution,theorem1,det-bridge"],
            capsys,
        )
        assert code == 0
        assert "0 failures" in out

    def test_json_report_schema(self, capsys):
        code, out = run(
            ["verify", "--max-m", "2", "--n-set", "2", "--suite", "theorem1", "--format", "json"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data
        for item in data:
            assert set(item) == {"lambda", "n", "check", "pass", "lhs", "rhs"}
            assert item["pass"] is True

    def test_empty_range(self, capsys):
        code, out = run(
            ["verify", "--max-m", "0", "--n-set", "2", "--suite", "involution"],
            capsys,
        )
        assert code == 0

    def test_injected_fault_fails(self, capsys, monkeypatch):
        # The sum formula of (1, 1) at n = 2 comes back negated, so exactly
        # that Theorem-1 case fails.
        sum_rhs = schaper.schaper_sum_rhs

        def faulty(lam, n):
            value = sum_rhs(lam, n)
            return value.scale(-1) if lam == (1, 1) else value

        monkeypatch.setattr(schaper, "schaper_sum_rhs", faulty)
        code, out = run(
            ["verify", "--max-m", "3", "--n-set", "2", "--suite", "theorem1"],
            capsys,
        )
        assert code == 1
        assert "FAIL theorem1 lambda=(1,1) n=2" in out
        assert out.endswith("7 checks, 1 failures\n")

    @pytest.mark.parametrize(
        "option,value", [("--suite", ","), ("--suite", ""), ("--n-set", ","), ("--n-set", "")]
    )
    @pytest.mark.parametrize("fmt", REPORT_FORMATS)
    def test_empty_option_is_a_usage_error(self, option, value, fmt, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--max-m", "2", option, value, "--format", fmt])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{option} {value!r} names no" in captured.err

    def test_library_rejects_empty_suites_and_n_set(self):
        with pytest.raises(ValueError, match="suites is empty"):
            verify.run_verification(2, (2,), ())
        with pytest.raises(ValueError, match="n_set is empty"):
            verify.run_verification(2, ())

    def test_repeated_modulus_runs_once(self):
        assert verify.run_verification(2, (2, 2)) == verify.run_verification(2, (2,))

    def test_library_rejects_bad_ranges(self):
        with pytest.raises(ValueError, match="max_m must be non-negative"):
            verify.run_verification(-1, (2,))
        with pytest.raises(ValueError, match="at least 2"):
            verify.run_verification(2, (1,), ("ariki",))
        with pytest.raises(ValueError, match="at least 2"):
            verify.run_verification(2, (3, 0))

    @pytest.mark.parametrize(
        "option,value,message",
        [
            ("--max-m", "-1", "max_m must be non-negative"),
            ("--n-set", "2,1", "at least 2"),
            ("--suite", "involution,nonsense", "unknown suite 'nonsense'"),
        ],
    )
    def test_library_errors_are_usage_errors(self, option, value, message, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--max-m", "1", "--n-set", "2", option, value])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_suite_fault_is_not_a_usage_error(self, capsys, monkeypatch):
        def broken(n, m):
            raise ValueError("internal fault")

        _, runs_at = verify.SUITES["involution"]
        monkeypatch.setitem(verify.SUITES, "involution", (broken, runs_at))
        with pytest.raises(ValueError, match="internal fault"):
            main(["verify", "--max-m", "1", "--n-set", "2", "--suite", "involution"])

    @pytest.mark.parametrize(
        "max_m,n_set,counts",
        [
            (
                7,
                (4, 6),
                {
                    "bar-structure": 32,
                    "bar-triangle": 16,
                    "canonical-structure": 106,
                    "derivative": 16,
                    "det-bridge": 90,
                    "involution": 90,
                    "k-stability": 60,
                    "oracle": 12,
                    "semisimple": 20,
                    "theorem1": 90,
                },
            ),
            (
                3,
                (2,),
                {
                    "ariki": 7,
                    "bar-structure": 8,
                    "bar-triangle": 4,
                    "canonical-structure": 11,
                    "derivative": 4,
                    "det-bridge": 7,
                    "involution": 7,
                    "k-stability": 7,
                    "oracle": 7,
                    "semisimple": 11,
                    "theorem1": 7,
                },
            ),
            (
                0,
                (5,),
                {
                    "bar-structure": 2,
                    "bar-triangle": 1,
                    "canonical-structure": 2,
                    "derivative": 1,
                    "det-bridge": 1,
                    "involution": 1,
                    "k-stability": 1,
                    "semisimple": 2,
                    "theorem1": 1,
                },
            ),
        ],
    )
    def test_suite_ranges(self, max_m, n_set, counts):
        # Ranges the default report cannot see: m past every cap, moduli
        # outside 2..5, and a degree where only the uncapped suites run.
        results = verify.run_verification(max_m, n_set)
        assert Counter(r.check for r in results) == counts
        assert all(r.passed for r in results)

    def test_unknown_suite(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--suite", "nonsense"])
        assert err.value.code == 2

    def test_default_report_matches_benchmark_digest(self, capsys):
        expected = json.loads(BENCHMARK_EXPECTED.read_text())["full"]["verify"]
        code, out = run(["verify", "--format", "json"], capsys)
        assert code == 0
        assert len(json.loads(out)) == expected["cases"]
        assert hashlib.sha256(out.encode()).hexdigest() == expected["sha256"]

    def test_reordered_suites_match_benchmark_digest(self, capsys):
        # The benchmark names every suite in a seed-shuffled order, so the
        # report must not depend on the order of --suite.
        expected = json.loads(BENCHMARK_EXPECTED.read_text())["full"]["verify"]
        suites = ",".join(reversed(verify.ALL_SUITES))
        code, out = run(["verify", "--format", "json", "--suite", suites], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == expected["sha256"]


@pytest.mark.parametrize(
    "argv",
    [
        ["schaper", "--lambda", "2,1", "--n", "2"],
        ["verify", "--max-m", "1", "--n-set", "2"],
        ["gram", "--lambda", "2,1", "--n", "2"],
    ],
)
def test_report_commands_reject_matrix_formats(argv, capsys):
    for fmt in ("csv", "latex"):
        with pytest.raises(SystemExit) as err:
            main([*argv, "--format", fmt])
        assert err.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [["schaper", "--lambda", "2,1", "--n", "2"], ["gram", "--lambda", "2,1", "--n", "2"]],
)
def test_cache_dir_only_where_read(argv, capsys, tmp_path):
    with pytest.raises(SystemExit) as err:
        main([*argv, "--cache-dir", str(tmp_path)])
    assert err.value.code == 2


class TestGram:
    def test_column_pair(self, capsys):
        code, out = run(["gram", "--lambda", "1,1", "--n", "2"], capsys)
        assert code == 0
        assert "nu(det)        : 1" in out

    def test_single_row(self, capsys):
        code, out = run(["gram", "--lambda", "2", "--n", "2", "--format", "json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["nu"] == 0
        assert data["rank_at_root"] == 1

    def test_size_cap_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["gram", "--lambda", "4,2", "--n", "2"])
        assert err.value.code == 2

    def test_builds_matrix_once(self, capsys, monkeypatch):
        # Determinant and rank at the root read the same matrix.
        build = hecke._gram_matrix.__wrapped__
        built = []

        def counting(lam):
            built.append(lam)
            return build(lam)

        monkeypatch.setattr(hecke, "_gram_matrix", lru_cache(maxsize=None)(counting))
        code, _ = run(["gram", "--lambda", "2,1,1", "--n", "2"], capsys)
        assert code == 0
        assert built == [(2, 1, 1)]


class TestCache:
    def test_round_trip(self, tmp_path):
        fresh = cached_matrix("decomp", 2, 3, tmp_path)
        assert (tmp_path / "decomp-n2-m3.json").exists()
        reloaded = cached_matrix("decomp", 2, 3, tmp_path)
        assert reloaded == fresh
        assert reloaded == decomposition_matrix(2, 3)

    def test_stale_schema_recomputed(self, tmp_path):
        cached_matrix("bar", 2, 2, tmp_path)
        path = tmp_path / "bar-n2-m2.json"
        payload = json.loads(path.read_text())
        payload["schema"] = "ancient"
        path.write_text(json.dumps(payload))
        cache = MatrixCache(tmp_path)
        assert cache.load("bar", 2, 2, BarMatrix) is None
        matrix = cached_matrix("bar", 2, 2, tmp_path)
        assert json.loads(path.read_text())["schema"] != "ancient"
        assert matrix.entry((1, 1), (2,)) is not None

    def test_corrupt_file_recomputed(self, tmp_path):
        path = tmp_path / "decomp-n2-m2.json"
        path.write_text("{not json")
        matrix = cached_matrix("decomp", 2, 2, tmp_path)
        assert matrix == decomposition_matrix(2, 2)

    @staticmethod
    def assert_each_warned_and_recomputed(argv, path, payloads, capsys, caplog):
        """Each payload, written over the entry `argv` stores at `path`, is
        logged once at WARNING and replaced by the entry a fresh run writes."""
        code, computed = run(argv, capsys)
        assert code == 0
        good = path.read_text()
        for payload in payloads(good):
            path.write_text(json.dumps(payload))
            caplog.clear()
            with caplog.at_level("WARNING", logger="fockdec.cli"):
                code, out = run(argv, capsys)
            assert code == 0
            assert out == computed
            assert [record.levelname for record in caplog.records] == ["WARNING"]
            assert str(path) in caplog.records[0].getMessage()
            assert path.read_text() == good

    def test_invalid_entry_warned_and_recomputed(self, capsys, caplog, tmp_path):
        # An entry that fails validate(), then valid JSON of the wrong shape:
        # not an object, a non-list order, an integer grid, labels that are
        # not partitions, which validate() alone lets through, and an entry
        # that names the right polynomial in non-canonical text.
        def payloads(good):
            failing = json.loads(good)
            order = failing["matrix"]["order"]
            failing["matrix"]["entries"][order.index([2, 1])][order.index([3])] = "q^-5"
            grid = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
            yield failing
            yield []
            yield {"schema": "fockdec-1", "matrix": {"n": 2, "m": 3, "order": 5, "entries": []}}
            yield {**failing, "matrix": {**failing["matrix"], "entries": grid}}
            for old, new in [([2, 1], [1, 2]), ([1, 1, 1], [True, True, True])]:
                relabelled = json.loads(good)
                relabelled["matrix"]["order"][order.index(old)] = new
                yield relabelled
            reworded = json.loads(good)
            row = reworded["matrix"]["entries"][order.index([1, 1, 1])]
            assert row[order.index([3])] == "q"
            row[order.index([3])] = "0*q^3 + 1q"
            yield reworded

        argv = ["decomp", "--n", "2", "--m", "3", "--format", "csv", "--cache-dir", str(tmp_path)]
        path = tmp_path / "decomp-n2-m3.json"
        self.assert_each_warned_and_recomputed(argv, path, payloads, capsys, caplog)

    def test_bool_degree_warned_and_recomputed(self, capsys, caplog, tmp_path):
        # True equals 1, so only a type check tells this entry from a good one.
        def payloads(good):
            payload = json.loads(good)
            payload["matrix"]["m"] = True
            yield payload

        argv = ["decomp", "--n", "2", "--m", "1", "--format", "json", "--cache-dir", str(tmp_path)]
        path = tmp_path / "decomp-n2-m1.json"
        self.assert_each_warned_and_recomputed(argv, path, payloads, capsys, caplog)

    def test_unwritable_cache_warned_and_skipped(self, capsys, caplog, tmp_path):
        argv = ["decomp", "--n", "2", "--m", "3", "--format", "json", "--cache-dir"]
        code, computed = run([*argv, str(tmp_path)], capsys)
        assert code == 0
        not_a_directory = tmp_path / "file"
        not_a_directory.write_text("")
        caplog.clear()
        with caplog.at_level("WARNING", logger="fockdec.cli"):
            code, out = run([*argv, str(not_a_directory)], capsys)
        assert code == 0
        assert out == computed
        assert [record.levelname for record in caplog.records] == ["WARNING"]
        assert str(not_a_directory / "decomp-n2-m3.json") in caplog.records[0].getMessage()

    def test_store_leaves_only_final_file(self, tmp_path):
        directory = tmp_path / "cache"
        MatrixCache(directory).store("bar", 2, 3, bar_matrix(2, 3))
        assert [path.name for path in directory.iterdir()] == ["bar-n2-m3.json"]
        assert MatrixCache(directory).load("bar", 2, 3, BarMatrix) == bar_matrix(2, 3)

    def test_failed_store_keeps_old_file(self, monkeypatch, tmp_path):
        cache = MatrixCache(tmp_path)
        cache.store("bar", 2, 2, bar_matrix(2, 2))
        old = (tmp_path / "bar-n2-m2.json").read_text()

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError):
            cache.store("bar", 2, 2, bar_matrix(2, 2))
        assert [path.name for path in tmp_path.iterdir()] == ["bar-n2-m2.json"]
        assert (tmp_path / "bar-n2-m2.json").read_text() == old

    def test_env_default(self, monkeypatch, tmp_path):
        from fockdec.cli import default_cache_dir

        monkeypatch.setenv("FOCKDEC_CACHE", str(tmp_path / "envcache"))
        assert default_cache_dir() == tmp_path / "envcache"
        monkeypatch.delenv("FOCKDEC_CACHE")
        assert str(default_cache_dir()) == ".fockdec-cache"


def test_verbose_bar_writes_nothing_to_stderr(tmp_path):
    # -v logs at INFO; building A at (2, 6) into a fresh cache has nothing to log.
    src = Path(fockdec.__file__).resolve().parents[1]
    argv = ["-v", "bar", "--n", "2", "--m", "6", "--cache-dir", str(tmp_path)]
    proc = subprocess.run(
        [sys.executable, "-m", "fockdec.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_import_leaves_fractions_unloaded():
    # In a fresh interpreter, so that what other tests import cannot matter.
    src = Path(fockdec.__file__).resolve().parents[1]
    subprocess.run(
        [sys.executable, "-c", "import sys, fockdec.cli; assert 'fractions' not in sys.modules"],
        check=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=60,
    )
