"""Command-line interface: formats, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from gamma_forest import cli


def run_cli(*args, env=None, timeout=None):
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "gamma_forest.cli", *args],
        capture_output=True,
        text=True,
        env=full_env,
        timeout=timeout,
    )


class TestPolyCommand:
    def test_gamma_text_format(self):
        r = run_cli("poly", "--n", "3", "--basis", "gamma", "--format", "text")
        assert r.returncode == 0
        assert r.stdout == "gamma: 2 1\n"

    def test_json_format_n1(self):
        r = run_cli("poly", "--n", "1", "--format", "json")
        assert r.returncode == 0
        assert r.stdout == '{"degree":0,"coeffs":["1"]}\n'

    def test_standard_text_format(self):
        r = run_cli("poly", "--n", "4", "--format", "text")
        assert r.returncode == 0
        assert r.stdout == "6 26 26 6\n"

    def test_csv_format(self):
        r = run_cli("poly", "--n", "4", "--basis", "gamma", "--format", "csv")
        assert r.stdout == "6,8\n"

    def test_large_n_exact(self):
        r = run_cli("poly", "--n", "20", "--format", "json")
        doc = json.loads(r.stdout)
        assert doc["degree"] == 19
        assert sum(int(c) for c in doc["coeffs"]) == 20**19

    def test_gamma_large_n_prints_peeled_vector(self):
        from gamma_forest.poly import drake_polynomial, to_gamma_basis

        r = run_cli("poly", "--n", "200", "--basis", "gamma", timeout=60)
        assert r.returncode == 0
        peeled = to_gamma_basis(drake_polynomial(200)).gammas
        assert len(peeled) == 100
        assert r.stdout == "gamma: " + " ".join(str(g) for g in peeled) + "\n"

    def test_rejects_bad_n(self):
        r = run_cli("poly", "--n", "0")
        assert r.returncode == 2
        assert "error:" in r.stderr


class TestVerifyCommand:
    def test_default_suite_passes(self):
        r = run_cli("verify", "--suite", "all", "--n-max", "4")
        assert r.returncode == 0
        last = r.stdout.strip().splitlines()[-1]
        assert last.startswith("TOTAL suite=all")
        assert "failed=0" in last

    def test_each_named_suite(self):
        for suite in (
            "drake",
            "gamma",
            "combs",
            "lyndon",
            "stirling",
            "symfunc",
            "eulerian",
        ):
            r = run_cli("verify", "--suite", suite, "--n-max", "3")
            assert r.returncode == 0, (suite, r.stdout, r.stderr)
            assert "failed=0" in r.stdout.strip().splitlines()[-1]

    def test_invalid_suite(self):
        r = run_cli("verify", "--suite", "nonsense")
        assert r.returncode == 2
        assert "unknown suite" in r.stderr
        assert r.stdout == ""

    def test_invalid_suite_raises_typed_error(self):
        with pytest.raises(cli.InvalidSuiteError):
            cli.cmd_verify("nonsense", 3, 1, False)

    def test_above_cap_skips_instead_of_running(self):
        r = run_cli("verify", "--suite", "eulerian", "--n-max", "10")
        assert r.returncode == 0
        assert "SKIP eulerian.gamma-count-vs-peel n=9 reason=above-cap" in r.stdout
        assert "SKIP eulerian.gamma-count-vs-peel n=10 reason=above-cap" in r.stdout

    def test_tree_suites_skip_above_cap(self, monkeypatch):
        from gamma_forest import binary_trees

        monkeypatch.setattr(binary_trees, "DEFAULT_CAP", 4)
        report = cli.cmd_verify("gamma", 6, 1, False)
        skips = [c for c in report.checks if c.status == "skip"]
        assert {(c.check_id, c.params) for c in skips} >= {
            ("gamma.ndrd-rdes", "n=5"),
            ("gamma.ndrd-rdes", "n=6"),
            ("gamma.ndnl-nlyn", "n=5"),
        }
        assert report.counts()[1] == 0  # nothing failed, only skipped

    def test_json_format(self):
        r = run_cli("verify", "--suite", "eulerian", "--n-max", "3", "--format", "json")
        doc = json.loads(r.stdout)
        assert doc["failed"] == 0
        assert all(c["status"] == "pass" for c in doc["checks"])

    def test_stdout_deterministic_across_threads(self):
        # drake at n = 7 reaches the rooted engine's pool, gamma and combs at
        # n = 8 the binary engine's
        for suite, n_max in (("drake", "7"), ("gamma", "8"), ("combs", "8")):
            a = run_cli("verify", "--suite", suite, "--n-max", n_max, "--threads", "1")
            b = run_cli("verify", "--suite", suite, "--n-max", n_max, "--threads", "3")
            assert a.returncode == 0, (suite, a.stderr)
            assert a.stdout == b.stdout, suite

    def test_env_var_thread_fallback(self):
        r = run_cli(
            "verify",
            "--suite",
            "eulerian",
            "--n-max",
            "3",
            env={"GAMMA_FOREST_THREADS": "2"},
        )
        assert r.returncode == 0
        bad = run_cli(
            "verify",
            "--suite",
            "eulerian",
            "--n-max",
            "3",
            env={"GAMMA_FOREST_THREADS": "0"},
        )
        assert bad.returncode == 2

    def test_raising_engine_fails_checks_without_aborting(self, monkeypatch, capsys):
        from gamma_forest import stirling

        def broken(*args, **kwargs):
            raise RuntimeError("word engine down")

        monkeypatch.setattr(stirling, "pair_statistics", broken)
        assert cli.main(["verify", "--suite", "all", "--n-max", "3", "--threads", "1"]) == 1
        lines = capsys.readouterr().out.splitlines()
        for check in ("rdes-equidistribution", "nlyn-equidistribution"):
            assert (
                f"FAIL stirling.{check} n=2 expected=no error actual=error: word engine down"
                in lines
            )
        # the suites after stirling still ran and reported
        assert any(line.startswith("PASS symfunc.") for line in lines)
        assert any(line.startswith("PASS eulerian.") for line in lines)
        assert lines[-1].startswith("TOTAL suite=all n_max=3")

        argv = ["verify", "--suite", "all", "--n-max", "3", "--threads", "1", "--format", "json"]
        assert cli.main(argv) == 1
        doc = json.loads(capsys.readouterr().out)
        failed = [c for c in doc["checks"] if c["status"] == "fail"]
        # the two distributions and both equidistributions read the word engine
        assert {c["check"] for c in failed} == {
            "stirling.naas-vs-gamma",
            "stirling.ntns-vs-gamma",
            "stirling.rdes-equidistribution",
            "stirling.nlyn-equidistribution",
        }
        assert all(
            c["expected"] == "no error" and c["actual"] == "error: word engine down" for c in failed
        )
        assert doc["failed"] == len(failed) == 12

    def test_one_tally_per_n(self, monkeypatch, capsys):
        # the distributions, censuses and marginals are views of the run's one
        # tree tally per n and one word tally per m
        from collections import Counter

        from gamma_forest import binary_trees, stirling

        calls = Counter()
        for module, name in ((binary_trees, "joint_statistics"), (stirling, "pair_statistics")):

            def counting(*args, _fn=getattr(module, name), _name=name):
                calls[(_name, *args)] += 1
                return _fn(*args)

            monkeypatch.setattr(module, name, counting)
        assert cli.main(["verify", "--suite", "all", "--n-max", "5", "--threads", "1"]) == 0
        capsys.readouterr()
        assert {key[:2] for key in calls} == {
            *(("joint_statistics", n) for n in range(1, 7)),
            *(("pair_statistics", m) for m in range(1, 6)),
        }
        assert all(count == 1 for count in calls.values()), calls

    def test_check_sides_read_disjoint_engine_results(self, monkeypatch):
        # a check compares two computations; sharing one engine result between
        # its sides would make it compare a value with itself
        reads = []
        get = cli._Engines._get

        def recording_get(self, fn, *args):
            reads.append((fn, args))
            return get(self, fn, *args)

        monkeypatch.setattr(cli._Engines, "_get", recording_get)
        engines = cli._Engines(1)
        for block in cli._TABLE:
            args = (3, 2) if block.colors else (3,)
            for check_id, expected, actual in block.checks:
                reads.clear()
                expected(engines, *args)
                expected_reads = set(reads)
                reads.clear()
                actual(engines, *args)
                assert not expected_reads & set(reads), check_id

    def test_stirling_trees_stay_within_tree_cap(self):
        # stirling.*-equidistribution at n = m reads the trees on [m + 1]; while
        # the Stirling cap stays below the tree cap, no m the stirling suite runs
        # takes the trees above their cap, so those checks need no skip of their own.
        from gamma_forest import binary_trees, stirling

        assert stirling.DEFAULT_CAP + 1 <= binary_trees.DEFAULT_CAP

    def test_failure_exit_code(self, monkeypatch):
        # force one check to disagree and confirm the suite reports nonzero
        report = cli.SuiteReport("drake", 2)
        cli._check(report, "forced", "n=1", 1, 2)
        assert report.counts() == (0, 1, 0)
        text = cli._render_verify(report, "text")
        assert "FAIL forced" in text


class TestEnumerateCommand:
    def test_stirling_csv_table(self):
        r = run_cli("enumerate", "--family", "stirling", "--n", "2", "--format", "csv")
        assert r.stdout.splitlines() == [
            "word,aapair,tnpair,is_naas,is_ntns",
            "1122,1,0,1,1",
            "1221,0,1,1,1",
            "2211,0,0,1,1",
        ]

    def test_incompatible_stat(self):
        r = run_cli("enumerate", "--family", "rooted", "--n", "3", "--stat", "rdes")
        assert r.returncode == 2
        assert "not defined for family" in r.stderr

    def test_incompatible_stat_raises_typed_error(self):
        with pytest.raises(cli.IncompatibleStatError):
            cli.cmd_enumerate("rooted", 3, "rdes", "text", "auto", 1, False)
        with pytest.raises(cli.IncompatibleStatError):
            cli.cmd_enumerate("nonsense", 3, None, "text", "auto", 1, False)

    def test_cap_refusal_is_report_not_crash(self):
        r = run_cli("enumerate", "--family", "stirling", "--n", "12")
        assert r.returncode == 0
        assert r.stdout.startswith("refused family=stirling n=12 cap=8")

    def test_cap_override_allows_run(self, monkeypatch):
        from gamma_forest import binary_trees

        monkeypatch.setattr(binary_trees, "DEFAULT_CAP", 3)
        chunks, refused = cli.cmd_enumerate(
            "normalized", 4, None, "text", "histogram", 1, False
        )
        assert refused
        assert "".join(chunks).startswith("refused family=normalized n=4 cap=3")
        chunks, refused = cli.cmd_enumerate(
            "normalized", 4, None, "text", "histogram", 1, True
        )
        assert not refused
        text = "".join(chunks)
        total = sum(int(line.split()[1]) for line in text.splitlines())
        assert total == 15  # 5!!

    def test_auto_mode_rows_small(self):
        r = run_cli("enumerate", "--family", "normalized", "--n", "3")
        assert len(r.stdout.splitlines()) == 3  # 3!! = 3 trees, one per row

    def test_auto_mode_histogram_large(self):
        # 7^6 = 117649 > 10^5 switches to histogram
        r = run_cli("enumerate", "--family", "rooted", "--n", "7")
        lines = r.stdout.splitlines()
        assert len(lines) == 7
        assert lines[0] == "0 720"

    def test_histogram_matches_product_form(self):
        r = run_cli(
            "enumerate", "--family", "combs", "--n", "6", "--mode", "histogram"
        )
        counts = [int(line.split()[1]) for line in r.stdout.splitlines()]
        assert counts == [120, 1044, 2724, 2724, 1044, 120]

    def test_rows_deterministic(self):
        a = run_cli("enumerate", "--family", "normalized", "--n", "5", "--mode", "rows")
        b = run_cli("enumerate", "--family", "normalized", "--n", "5", "--mode", "rows")
        assert a.stdout == b.stdout

    def test_json_rows(self):
        r = run_cli(
            "enumerate", "--family", "lyndon", "--n", "3", "--format", "json"
        )
        docs = [json.loads(line) for line in r.stdout.splitlines()]
        assert sum(1 for _ in docs) == 9
        assert all(set(d) == {"tree", "colors", "stat"} for d in docs)


class TestSymfuncCommand:
    def test_text_output(self):
        r = run_cli("symfunc", "--n", "4")
        lines = r.stdout.splitlines()
        assert lines[0] == "e-expansion n=4 weight=3"
        assert "e[1,1,1] 6" in lines
        assert "e[2,1] 8" in lines
        assert "e[3] 1" in lines
        assert lines[-1] == "specialization: 6 26 26 6"

    def test_json_output(self):
        r = run_cli("symfunc", "--n", "3", "--format", "json")
        doc = json.loads(r.stdout)
        assert doc["specialization"] == {"degree": 2, "coeffs": ["2", "5", "2"]}

    def test_cap_refusal(self):
        r = run_cli("symfunc", "--n", "12")
        assert r.returncode == 0
        assert r.stdout.startswith("refused family=symfunc")


class TestThreadResolution:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("GAMMA_FOREST_THREADS", "7")
        assert cli.resolve_threads(2) == 2

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("GAMMA_FOREST_THREADS", "7")
        assert cli.resolve_threads(None) == 7

    def test_default_is_available_cpus(self, monkeypatch):
        import os

        monkeypatch.delenv("GAMMA_FOREST_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert cli.resolve_threads(None) == 3

    def test_default_is_cpu_count(self, monkeypatch):
        # where the platform cannot report the CPUs this process may use
        import os

        monkeypatch.delenv("GAMMA_FOREST_THREADS", raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert cli.resolve_threads(None) == (os.cpu_count() or 1)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            cli.resolve_threads(0)
