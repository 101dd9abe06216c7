"""Command-line interface: formats, exit codes, determinism."""

import csv
import io
import json
import re
import subprocess
import sys
from itertools import groupby, islice

import pytest
from hypothesis import assume, given, settings, strategies as st

from gamma_forest import cli, stirling


def run_cli(*args, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "gamma_forest.cli", *args],
        capture_output=True,
        text=True,
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

    def test_symfunc_suite_through_colored_combs_of_order_7(self):
        # the top of the fmcomb block, n = 7 and k = 1..3, and the comb-type
        # tally at the tree cap
        r = run_cli("verify", "--suite", "symfunc", "--n-max", "10")
        assert r.returncode == 0, r.stderr
        assert "PASS symfunc.fmcomb-vs-expansion n=7 k=3 " in r.stdout
        assert "PASS symfunc.specialization-vs-product n=10 " in r.stdout
        assert "failed=0" in r.stdout.strip().splitlines()[-1]

    def test_invalid_suite(self):
        r = run_cli("verify", "--suite", "nonsense")
        assert r.returncode == 2
        assert "unknown suite" in r.stderr
        assert r.stdout == ""

    def test_rejects_n_max_below_one(self, capsys):
        # a run that checks nothing is refused, not reported as a pass
        for bad in ("0", "-3"):
            assert cli.main(["verify", "--suite", "all", "--n-max", bad]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "error: --n-max must be a positive integer\n"

    def test_invalid_suite_raises_typed_error(self):
        with pytest.raises(cli.InvalidSuiteError):
            cli.cmd_verify("nonsense", 3, False)

    def test_above_cap_skips_instead_of_running(self):
        r = run_cli("verify", "--suite", "eulerian", "--n-max", "10")
        assert r.returncode == 0
        assert "SKIP eulerian.gamma-count-vs-peel n=9 reason=above-cap" in r.stdout
        assert "SKIP eulerian.gamma-count-vs-peel n=10 reason=above-cap" in r.stdout

    def test_tree_suites_skip_above_cap(self, monkeypatch):
        from gamma_forest import binary_trees

        monkeypatch.setattr(binary_trees, "DEFAULT_CAP", 4)
        checks = cli.cmd_verify("gamma", 6, False)
        skips = [c for c in checks if c.status == "skip"]
        assert {(c.check, c.params) for c in skips} >= {
            ("gamma.ndrd-rdes", "n=5"),
            ("gamma.ndrd-rdes", "n=6"),
            ("gamma.ndnl-nlyn", "n=5"),
        }
        assert all(c.status != "fail" for c in checks)  # nothing failed, only skipped

    def test_json_format(self):
        r = run_cli("verify", "--suite", "eulerian", "--n-max", "3", "--format", "json")
        doc = json.loads(r.stdout)
        assert doc["failed"] == 0
        assert all(c["status"] == "pass" for c in doc["checks"])

    def test_stdout_deterministic_across_threads(self):
        # drake at n = 7 reaches the rooted forest walk, gamma and combs at
        # n = 8 the binary-tree class walk
        for suite, n_max in (("drake", "7"), ("gamma", "8"), ("combs", "8")):
            a = run_cli("verify", "--suite", suite, "--n-max", n_max, "--threads", "1")
            b = run_cli("verify", "--suite", suite, "--n-max", n_max, "--threads", "3")
            assert a.returncode == 0, (suite, a.stderr)
            assert a.stdout == b.stdout, suite

    def test_raising_engine_is_called_again(self, monkeypatch, capsys):
        # a shared engine result is kept only when the call returned: the
        # check whose read raised fails, and the next check that reads the
        # same result calls the engine again and passes
        from gamma_forest import poly

        calls = []

        def fails_once(n, _fn=poly.drake_polynomial):
            calls.append(n)
            if len(calls) == 1:
                raise RuntimeError("first call down")
            return _fn(n)

        monkeypatch.setattr(poly, "drake_polynomial", fails_once)
        assert cli.main(["verify", "--suite", "drake", "--n-max", "2"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "FAIL drake.cayley-count n=1 expected=no error actual=error: first call down" in lines
        assert "PASS drake.palindromic n=1 value=True" in lines
        assert [line for line in lines if line.startswith("FAIL ")] == [lines[0]]
        assert calls[:2] == [1, 1]

    def test_stderr_elapsed_lines_follow_the_checks(self, capsys):
        # one "# <check> <params> elapsed_ms=<int>" line per PASS, FAIL or
        # SKIP line, same id and params in the same order, then the suite's
        # line last: the form perfbench/child.py's ElapsedSink parses
        assert cli.main(["verify", "--suite", "all", "--n-max", "3"]) == 0
        out, err = capsys.readouterr()
        params = r"(n=\d+(?: k=\d+)?)"
        status_line = re.compile(rf"(?:PASS|FAIL|SKIP) (\S+) {params} (?:value|expected|reason)=")
        checks = [status_line.match(line).group(1, 2) for line in out.splitlines()[:-1]]
        elapsed_line = re.compile(rf"# (\S+) {params} elapsed_ms=\d+")
        *lines, last = err.splitlines()
        assert [elapsed_line.fullmatch(line).group(1, 2) for line in lines] == checks
        assert len(checks) > 50
        assert re.fullmatch(r"# suite elapsed_ms=\d+", last)

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

    def test_check_sides_read_disjoint_engine_results(self):
        # a check compares two computations; sharing one engine result between
        # its sides would make it compare a value with itself
        reads = []
        engines = cli._Engines()
        get = engines._get

        def recording_get(fn, *args):
            reads.append((fn, args))
            return get(fn, *args)

        engines._get = recording_get
        for block in cli._TABLE:
            args = (3, 2) if block.colors else (3,)
            for check_id, expected, actual in block.checks:
                reads.clear()
                expected(engines, *args)
                expected_reads = set(reads)
                reads.clear()
                actual(engines, *args)
                assert not expected_reads & set(reads), check_id

    def test_product_form_mass_sees_a_dropped_tree(self, monkeypatch, capsys):
        # only the actual side of product-form-mass walks the tuple-tree
        # stream, so a tree that the stream drops shows up as a FAIL.  The
        # first tree, the left comb, has k^(n - 1) colorings; the last, the
        # right comb, has none for k < n - 1 and would go unseen.
        from gamma_forest import binary_trees

        def drop_first(*args, _fn=binary_trees.enumerate_normalized):
            return islice(_fn(*args), 1, None)

        monkeypatch.setattr(binary_trees, "enumerate_normalized", drop_first)
        assert cli.main(["verify", "--suite", "symfunc", "--n-max", "5", "--threads", "1"]) == 1
        lines = capsys.readouterr().out.splitlines()
        for k in (1, 2, 3):
            assert any(
                line.startswith(f"FAIL symfunc.product-form-mass n=5 k={k} ") for line in lines
            )
            assert any(
                line.startswith(f"PASS symfunc.fmcomb-vs-expansion n=5 k={k} ") for line in lines
            )

    def test_product_form_mass_counts_its_trees(self, monkeypatch, capsys):
        # the last tree, the right comb, has no k-coloring for k < n - 1, so
        # only the count of the trees read shows that the stream dropped it
        from gamma_forest import binary_trees

        def drop_last(*args, _fn=binary_trees.enumerate_normalized):
            return iter(list(_fn(*args))[:-1])

        monkeypatch.setattr(binary_trees, "enumerate_normalized", drop_last)
        assert cli.main(["verify", "--suite", "symfunc", "--n-max", "5", "--threads", "1"]) == 1
        lines = capsys.readouterr().out.splitlines()
        for k in (1, 2, 3):
            assert any(
                line.startswith(f"FAIL symfunc.product-form-mass n=5 k={k} ") for line in lines
            )

    def test_dropped_word_fails_only_the_count(self, monkeypatch, capsys):
        # stirling.count reads stirling._words; the pair tally walks classes of
        # words and reads no word stream.  A word dropped at order 4 fails the
        # count at m = 4 and, through its children, at m = 5, and nothing else.
        from gamma_forest import stirling

        def drop_last_of_order_4(n, _fn=stirling._words):
            words = list(_fn(n))
            yield from words[:-1] if n == 4 else words

        monkeypatch.setattr(stirling, "_words", drop_last_of_order_4)
        assert cli.main(["verify", "--suite", "stirling", "--n-max", "5", "--threads", "1"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("FAIL ")] == [
            "FAIL stirling.count n=4 expected=105 actual=104",
            "FAIL stirling.count n=5 expected=945 actual=936",
        ]
        assert lines[-1] == "TOTAL suite=stirling n_max=5 passed=23 failed=2 skipped=0"

    def test_stirling_trees_stay_within_tree_cap(self):
        # stirling.*-equidistribution at n = m reads the trees on [m + 1]; while
        # the Stirling cap stays below the tree cap, no m the stirling suite runs
        # takes the trees above their cap, so those checks need no skip of their own.
        from gamma_forest import binary_trees, stirling

        assert stirling.DEFAULT_CAP + 1 <= binary_trees.DEFAULT_CAP

    def test_failure_exit_code(self, monkeypatch, capsys):
        # drake.descent-vs-product is the one check that reads the rooted
        # engine, so an engine wrong at n = 2 alone fails that check alone,
        # and the run exits 1 where the same run unpatched exits 0
        from gamma_forest import poly, rooted_trees

        argv = ["verify", "--suite", "drake", "--n-max", "3", "--threads", "1"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            "TOTAL suite=drake n_max=3 passed=11 failed=0 skipped=0"
        )

        def wrong_at_2(n, cap, _fn=rooted_trees.descent_polynomial):
            return poly.IntPolynomial([2, 1]) if n == 2 else _fn(n, cap)

        monkeypatch.setattr(rooted_trees, "descent_polynomial", wrong_at_2)
        assert cli.main(argv) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if not line.startswith("PASS ")] == [
            "FAIL drake.descent-vs-product n=2 expected=[1, 1] actual=[2, 1]",
            "TOTAL suite=drake n_max=3 passed=10 failed=1 skipped=0",
        ]


class TestEnumerateCommand:
    def test_reader_closing_early_exits_quietly(self):
        # rooted 7 rows run to megabytes, far more than the pipe holds, so the
        # writer meets the closed pipe
        argv = ["enumerate", "--family", "rooted", "--n", "7", "--mode", "rows"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "gamma_forest.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline().startswith(b'{"n":7,"root":1,')
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert b"Traceback" not in err and b"Exception ignored" not in err, err

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
            cli.cmd_enumerate("rooted", 3, "rdes", "text", "auto", False)
        with pytest.raises(cli.IncompatibleStatError):
            cli.cmd_enumerate("nonsense", 3, None, "text", "auto", False)

    def test_cap_refusal_is_report_not_crash(self):
        r = run_cli("enumerate", "--family", "stirling", "--n", "12")
        assert r.returncode == 0
        assert r.stdout.startswith("refused family=stirling n=12 cap=8")

    def test_cap_override_allows_run(self, monkeypatch):
        from gamma_forest import binary_trees

        monkeypatch.setattr(binary_trees, "DEFAULT_CAP", 3)
        chunks, refused = cli.cmd_enumerate(
            "normalized", 4, None, "text", "histogram", False
        )
        assert refused
        assert "".join(chunks).startswith("refused family=normalized n=4 cap=3")
        chunks, refused = cli.cmd_enumerate(
            "normalized", 4, None, "text", "histogram", True
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

    @pytest.mark.parametrize("family", ["normalized", "combs", "lyndon"])
    def test_binary_histograms_ignore_threads(self, monkeypatch, capsys, family):
        # --threads is accepted, and the binary-tree engines start no process
        import os

        def no_fork(*args, **kwargs):
            raise AssertionError("process started")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(subprocess, "Popen", no_fork)
        out = []
        for threads in ("1", "3"):
            argv = ["enumerate", "--family", family, "--n", "8", "--mode", "histogram"]
            assert cli.main([*argv, "--threads", threads]) == 0
            out.append(capsys.readouterr().out)
        assert out[0] == out[1]
        assert len(out[0].splitlines()) >= 4

    def test_rows_deterministic(self):
        a = run_cli("enumerate", "--family", "normalized", "--n", "5", "--mode", "rows")
        b = run_cli("enumerate", "--family", "normalized", "--n", "5", "--mode", "rows")
        assert a.stdout == b.stdout

    def test_rooted_json_rows_match_validated_trees(self):
        # rows read the decoder's stream without building RootedTrees; the
        # validated trees, tree_to_json_dict and des are the oracle
        from gamma_forest.rooted_trees import enumerate_rooted_trees
        from oracles import des, tree_to_json_dict

        for n in range(1, 7):
            chunks, refused = cli.cmd_enumerate("rooted", n, None, "json", "rows", False)
            expected = "".join(
                json.dumps({**tree_to_json_dict(t), "stat": des(t)}, separators=(",", ":")) + "\n"
                for t in enumerate_rooted_trees(n)
            )
            assert not refused
            assert_same_lines("".join(chunks), expected)

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rooted_row_blocks_match_per_tree_path(self, n, fmt):
        # each validated tree through tree_to_json_dict, des and csv.writer;
        # one block per root and Prufer prefix, so n rows from n = 3 on, one
        # row per root at n = 2, and the one tree at n = 1
        from gamma_forest.rooted_trees import enumerate_rooted_trees
        from oracles import des, prufer_encode, tree_to_json_dict

        def line(t):
            if fmt == "json":
                doc = {**tree_to_json_dict(t), "stat": des(t)}
                return json.dumps(doc, separators=(",", ":")) + "\n"
            obj = json.dumps(tree_to_json_dict(t), separators=(",", ":"))
            return csv_writer_text([(obj, des(t))]) if fmt == "csv" else f"{obj}\t{des(t)}\n"

        def root_and_prefix(t):
            if n == 1:
                return None
            edges = [(t.parent[x], x) for x in range(1, n + 1) if x != t.root]
            return t.root, prufer_encode(n, edges).seq[:-1]

        expected = [
            [line(t) for t in trees]
            for _, trees in groupby(enumerate_rooted_trees(n), root_and_prefix)
        ]
        assert list(map(len, expected)) == {1: [1], 2: [1, 1], 3: [3] * 3, 4: [4] * 16}[n]
        if fmt == "csv":
            expected.insert(0, [csv_writer_text([("object", "stat")])])
        blocks = [("".join(lines), len(lines)) for lines in expected]
        assert list(cli.FAMILIES["rooted"].rows("des", n, fmt)) == blocks

    def test_json_rows(self):
        r = run_cli(
            "enumerate", "--family", "lyndon", "--n", "3", "--format", "json"
        )
        docs = [json.loads(line) for line in r.stdout.splitlines()]
        assert sum(1 for _ in docs) == 9
        assert all(set(d) == {"tree", "colors", "stat"} for d in docs)


def assert_same_lines(text: str, expected: str) -> None:
    # line by line: on a failing == of two long texts, pytest diffs them
    # whole, which took 48 minutes on the 217,548 characters of one chunk
    lines, wanted = text.splitlines(keepends=True), expected.splitlines(keepends=True)
    for i, (line, want) in enumerate(zip(lines, wanted)):
        assert line == want, f"line {i}"
    assert len(lines) == len(wanted)


def csv_writer_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def oracle_rows(family: str, stat: str, n: int) -> tuple[tuple, list]:
    """The csv header of a family and, per object in enumeration order, its
    text line (without the newline), its json document and its csv cells,
    each built from the per-object oracles."""
    from gamma_forest import binary_trees
    from gamma_forest.rooted_trees import enumerate_rooted_trees
    from oracles import (
        aapair, des, free_count, is_naas, is_ntns, nlyn, rdes, tnpair, tree_to_json_dict,
        word_to_string,
    )

    def dumps(doc):
        return json.dumps(doc, separators=(",", ":"))

    def stat_text(value):  # a partition's parts joined by "+", "0" when it has none
        return ("+".join(map(str, value)) or "0") if isinstance(value, tuple) else str(value)

    if family == "rooted":
        return ("object", "stat"), [
            (f"{dumps(d)}\t{des(t)}", {**d, "stat": des(t)}, (dumps(d), des(t)))
            for t in enumerate_rooted_trees(n)
            for d in [tree_to_json_dict(t)]
        ]
    if family == "normalized":
        oracle = {
            "rdes": rdes, "nlyn": nlyn, "free": free_count, "combtype": binary_trees.comb_type
        }[stat]
        rows = []
        for t in binary_trees.enumerate_normalized(n):
            s, v = binary_trees.tree_to_string(t), oracle(t)
            doc = {"tree": s, "stat": list(v) if isinstance(v, tuple) else v}
            rows.append((f"{s}\t{stat_text(v)}", doc, (s, stat_text(v))))
        return ("object", "stat"), rows
    if family in ("combs", "lyndon"):
        colorings = {
            "combs": binary_trees.enumerate_bicolored_combs,
            "lyndon": binary_trees.enumerate_bicolored_lyndon,
        }[family](n)
        rows = []
        for t, c in colorings:
            s = binary_trees.tree_to_string(t)
            doc = {"tree": s, "colors": list(c), "stat": sum(c)}
            cells = (s, " ".join(map(str, c)), sum(c))
            rows.append((f"{s}\t{','.join(map(str, c))}\t{sum(c)}", doc, cells))
        return ("tree", "colors", "stat"), rows
    rows = []
    for w in stirling.enumerate_stirling(n):
        s, v = word_to_string(w), {"aapair": aapair, "tnpair": tnpair}[stat](w)
        cells = (s, aapair(w), tnpair(w), int(is_naas(w)), int(is_ntns(w)))
        rows.append((f"{s}\t{v}", {"word": s, "stat": v}, cells))
    return ("word", "aapair", "tnpair", "is_naas", "is_ntns"), rows


# cell text made of what csv quotes (comma, quote, CR, LF) and what it does not
CSV_TEXT = st.text(alphabet=[",", '"', "\r", "\n", " ", "a", "7", "+"], max_size=6)
CSV_CELLS = st.one_of(CSV_TEXT, st.integers())


class TestRowsMode:
    @given(st.lists(CSV_CELLS, min_size=1, max_size=5))
    @settings(derandomize=True, max_examples=200)
    def test_csv_line_matches_csv_writer(self, row):
        # csv.writer writes a row of one empty cell as "" (a quoted empty
        # string); no csv row here has fewer than two cells
        assume(row != [""])
        assert cli._csv_line(row) == csv_writer_text([row])

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("family", sorted(cli.FAMILIES))
    def test_small_rows_match_per_object_oracles(self, family, n, fmt):
        # the one-leaf tree writes the unquoted cell 1 in csv; every other
        # tree, and no Stirling word below order 10, holds a comma
        for stat in cli.FAMILIES[family].stats:
            header, rows = oracle_rows(family, stat, n)
            if fmt == "text":
                expected = "".join(text + "\n" for text, _, _ in rows)
            elif fmt == "json":
                expected = "".join(json.dumps(doc, separators=(",", ":")) + "\n" for _, doc, _ in rows)
            else:
                expected = csv_writer_text([header, *(cells for _, _, cells in rows)])
            assert "".join(cli._render_rows(family, stat, n, fmt)) == expected, stat

    def test_stirling_csv_rows_with_two_digit_letters(self):
        # from order 10 on, word_to_string separates letters with commas, so
        # the word cell is quoted
        chunk = next(cli._render_rows("stirling", "tnpair", 10, "csv"))
        count = chunk.count("\n")
        rows = islice(stirling.statistics_rows(10, cap=10), count - 1)
        expected = csv_writer_text(
            [("word", "aapair", "tnpair", "is_naas", "is_ntns")]
            + [(w, aa, tn, int(naas), int(ntns)) for w, aa, tn, naas, ntns in rows]
        )
        assert_same_lines(chunk, expected)
        assert chunk.splitlines()[1].startswith('"1,1,2,2,3,3,4,4,5,5,6,6,7,7,8,8,9,9,10,10",')

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    @pytest.mark.parametrize(
        "family, n, block",
        # the most rows one block holds: rooted n trees (and the csv header),
        # normalized and Stirling the children of one parent, colored trees
        # at most 2^(n - 1) colorings of one tree
        [
            ("rooted", 6, 7),
            ("normalized", 7, 11),
            ("stirling", 6, 11),
            ("combs", 6, 32),
            ("lyndon", 6, 32),
        ],
    )
    def test_chunks_hold_whole_blocks(self, family, n, block, fmt):
        # each block's text comes with its row count
        spec = cli.FAMILIES[family]
        blocks = list(spec.rows(spec.stats[0], n, fmt))
        assert all(text.count("\n") == rows for text, rows in blocks)
        assert max(rows for _, rows in blocks) <= block
        chunks = list(cli._render_rows(family, spec.stats[0], n, fmt))
        assert "".join(chunks) == "".join(text for text, _ in blocks)
        assert len(chunks) >= 2
        for chunk in chunks[:-1]:
            assert cli.ROW_CHUNK <= chunk.count("\n") < cli.ROW_CHUNK + block


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
    # nothing resolves --threads to a worker count any more: an explicit
    # value is only checked, and the default asks nothing of the host
    DRAKE = ["verify", "--suite", "drake", "--n-max", "7"]

    def test_explicit_wins(self, capsys):
        assert cli.main([*self.DRAKE, "--threads", "2"]) == 0
        explicit = capsys.readouterr().out
        assert cli.main(self.DRAKE) == 0
        assert capsys.readouterr().out == explicit != ""

    def test_default_is_available_cpus(self, monkeypatch, capsys):
        import os

        def no_affinity(pid):
            raise AssertionError("CPU affinity read")

        monkeypatch.setattr(os, "sched_getaffinity", no_affinity, raising=False)
        assert cli.main(self.DRAKE) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_default_is_cpu_count(self, monkeypatch, capsys):
        # where the platform cannot report the CPUs this process may use
        import os

        def no_count():
            raise AssertionError("CPU count read")

        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", no_count)
        assert cli.main(self.DRAKE) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            cli._check_threads(0)
        cli._check_threads(1)
        cli._check_threads(None)

    def test_threads_is_checked_and_changes_nothing(self, capsys):
        # every run is one process: --threads is accepted on both commands,
        # a value below 1 is refused, and no other value changes stdout
        runs = [["verify", "--suite", "all", "--n-max", "6"]]
        for family, spec in cli.FAMILIES.items():
            for stat in spec.stats:
                for mode in ("rows", "histogram"):
                    argv = ["enumerate", "--family", family, "--n", "6", "--stat", stat, "--mode", mode]
                    runs.append(argv)
        for argv in runs:
            out = []
            for threads in ("1", "3"):
                assert cli.main([*argv, "--threads", threads]) == 0, argv
                out.append(capsys.readouterr().out)
            assert out[0] == out[1] != "", argv
        for argv in (["verify"], ["enumerate", "--family", "rooted", "--n", "4"]):
            assert cli.main([*argv, "--threads", "0"]) == 2, argv
            assert capsys.readouterr() == ("", "error: --threads must be at least 1\n"), argv

    def test_the_package_starts_no_process(self):
        # no command imports multiprocessing or concurrent.futures, even
        # where --threads asks for two; no run pays for dataclasses and the
        # inspect, ast and dis it loads, and only verify, through
        # drake.rational-roots, pays for fractions and decimal
        code = (
            "import sys\n"
            "def loaded(*names): return [m for m in names if m in sys.modules]\n"
            "ALWAYS = ('dataclasses', 'inspect')\n"
            "RATIONALS = ('fractions', 'decimal')\n"
            "PROCESSES = ('multiprocessing', 'concurrent.futures')\n"
            "import gamma_forest\n"
            "assert loaded(*ALWAYS, *RATIONALS) == [], loaded(*ALWAYS, *RATIONALS)\n"
            "from gamma_forest import cli\n"
            "rc = cli.main(['enumerate', '--family', 'normalized', '--n', '4', '--mode', 'rows'])\n"
            "assert rc == 0, rc\n"
            "assert loaded(*ALWAYS, *RATIONALS) == [], loaded(*ALWAYS, *RATIONALS)\n"
            "rc = cli.main(['verify', '--suite', 'all', '--n-max', '7', '--threads', '2'])\n"
            "assert rc == 0, rc\n"
            "assert loaded(*ALWAYS, *PROCESSES) == [], loaded(*ALWAYS, *PROCESSES)\n"
        )
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr[-2000:]

    def test_package_reads_no_environment(self):
        # settings come from the command line only
        from pathlib import Path

        for path in Path(cli.__file__).parent.glob("*.py"):
            source = path.read_text()
            assert "os.environ" not in source and "getenv" not in source, path.name
