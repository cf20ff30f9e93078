"""Command-line surface: output formats and stable exit codes.

Exit code contract: 0 success, 2 verification failure, 3 non-edge in
synthesis, 64 usage error, 70 internal error.
"""

import dataclasses
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

import linemetric.certificates as certificates
import linemetric.cli as cli
import linemetric.line_metrics as line_metrics
from linemetric import HalfLinePair, Perm, SymZMat, Word, cut_metric, inner_product, perm_metric
from linemetric.cli import main
from linemetric.core import parse_matrix_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_matrix(path, mat):
    path.write_text(json.dumps(mat.to_json()))
    return str(path)


class TestEdges:
    def test_count_only_n4(self, capsys):
        code, out, _ = run(capsys, "edges", "4", "--count-only")
        assert code == 0 and out.strip() == "4 (formula: 4)"

    def test_count_only_n5(self, capsys):
        code, out, _ = run(capsys, "edges", "5", "--count-only")
        assert code == 0 and out.strip() == "11 (formula: 11)"

    def test_listing_n3(self, capsys):
        code, out, _ = run(capsys, "edges", "3", "--at", "1,2,3")
        assert code == 0
        assert out.splitlines() == ["100 (incident)", "110 (incident)"]

    def test_count_only_n3_has_no_formula(self, capsys):
        code, out, _ = run(capsys, "edges", "3", "--count-only")
        assert code == 0 and out.strip() == "2"

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "edges", "4", "--json")
        obj = json.loads(out)
        assert obj["command"] == "edges"
        assert obj["results"]["count"] == 4
        assert obj["results"]["formula"] == 4
        assert {e["u"] for e in obj["results"]["edges"]} == {"1000", "1001", "1100", "1110"}
        assert obj["version"]

    def test_bad_n(self, capsys):
        code, _, err = run(capsys, "edges", "99")
        assert code == 64 and "usage error" in err

    def test_bad_perm(self, capsys):
        code, _, err = run(capsys, "edges", "4", "--at", "1,1,2,3")
        assert code == 64


class TestCertify:
    def test_synthesize_and_emit(self, capsys, tmp_path):
        out_path = tmp_path / "cert.json"
        code, out, _ = run(
            capsys, "certify", "4", "--pi", "1,2,3,4", "--u", "1001", "--emit", str(out_path)
        )
        assert code == 0
        assert "pass (farkas condition)" in out
        assert "target=-4" in out
        obj = json.loads(out_path.read_text())
        assert obj["condition"] == "farkas"
        assert obj["construction"] == ["base:C_1001"]

    def test_non_edge_exit_3(self, capsys):
        code, out, _ = run(capsys, "certify", "4", "--pi", "1,2,3,4", "--u", "1101")
        assert code == 3
        assert "not an edge" in out
        assert "M(chi^1101) = M(chi^1110)" in out

    def test_verify_only_roundtrip(self, capsys, tmp_path):
        out_path = tmp_path / "cert.json"
        run(capsys, "certify", "5", "--u", "11001", "--emit", str(out_path))
        code, out, _ = run(
            capsys, "certify", "5", "--u", "11001", "--verify-only", str(out_path)
        )
        assert code == 0 and "pass (farkas condition)" in out

    def test_emit_and_verify_only_are_exclusive(self, capsys, tmp_path):
        # with both, the certificate would be verified and never written
        cert_path, out_path = tmp_path / "c.json", tmp_path / "out.json"
        run(capsys, "certify", "4", "--u", "1001", "--emit", str(cert_path))
        argv = ["certify", "4", "--u", "1001", "--emit", str(out_path)]
        code, out, err = run(capsys, *argv, "--verify-only", str(cert_path))
        assert (code, out) == (64, "")
        assert err == "usage error: argument --verify-only: not allowed with argument --emit\n"
        assert not out_path.exists()

    def test_verify_only_bare_matrix_picks_condition(self, capsys, tmp_path):
        path = write_matrix(tmp_path / "m.json", perm_metric(Perm.identity(4)))
        code, out, _ = run(capsys, "certify", "4", "--u", "1001", "--verify-only", path)
        assert code == 2
        assert "fail" in out and "offender" in out

    def test_verify_only_bare_library_matrix(self, capsys, tmp_path):
        # a bare matrix without a condition tag is tried under both systems;
        # the alternating library matrix passes the mixed one
        from linemetric import base_certificate

        path = write_matrix(tmp_path / "alt.json", base_certificate("C_10101").matrix)
        code, out, _ = run(
            capsys, "certify", "5", "--pi", "1,2,3,4,5", "--u", "10101",
            "--verify-only", path,
        )
        assert code == 0 and "pass (farkas condition)" in out

    def test_verify_only_null_condition_tries_both(self, capsys, tmp_path):
        # a null condition reads as a missing one: both systems are tried
        from linemetric import base_certificate

        path = tmp_path / "alt.json"
        obj = {"matrix": base_certificate("C_10101").matrix.to_json(), "condition": None}
        path.write_text(json.dumps(obj))
        code, out, _ = run(capsys, "certify", "5", "--u", "10101", "--verify-only", str(path))
        assert code == 0 and "pass (farkas condition)" in out

    def test_verify_only_detects_wrong_word(self, capsys, tmp_path):
        out_path = tmp_path / "cert.json"
        run(capsys, "certify", "4", "--u", "1001", "--emit", str(out_path))
        code, out, _ = run(
            capsys, "certify", "4", "--u", "1000", "--verify-only", str(out_path)
        )
        assert code == 2

    def test_verify_only_rejects_duplicate_entries(self, capsys, tmp_path):
        # a repeated (k, l) must not silently replace the first value: the
        # file would then name a matrix other than the one verified
        from linemetric import base_certificate

        obj = base_certificate("C_1001").matrix.to_json()
        obj["entries"].append([1, 3, "5"])
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(
            capsys, "certify", "4", "--u", "1001", "--verify-only", str(path)
        )
        assert code == 64 and out == ""
        assert err == f"usage error: cannot read matrix file {path}: duplicate matrix entry (1,3)\n"

    def test_certify_and_reverify_at_n12(self, capsys, tmp_path):
        out_path = tmp_path / "cert.json"
        argv = ["certify", "12", "--pi", "3,4,11,7,8,1,5,6,12,9,2,10", "--u", "110110110110"]
        code, out, _ = run(capsys, *argv, "--emit", str(out_path))
        assert code == 0 and out.startswith("pass (")
        code, out, _ = run(capsys, *argv, "--verify-only", str(out_path))
        assert code == 0 and out.startswith("pass (")

    def test_exhausted_lift_search_exits_2(self, capsys, monkeypatch):
        # a lift that never verifies is a verification failure, not a fault
        verify = certificates.verify_certificate

        def failing(d, pair, condition):
            return dataclasses.replace(verify(d, pair, condition), passed=False, offender="planted")

        monkeypatch.setattr(certificates, "verify_certificate", failing)
        code, out, err = run(capsys, "certify", "5", "--u", "11001")
        assert code == 2 and err == "" and out.count("\n") == 1
        assert out.startswith("synthesis failed: lift search exhausted after 24 doublings ")
        assert "last margins {" in out
        code, out, err = run(capsys, "certify", "5", "--u", "11001", "--json")
        assert code == 2 and err == ""
        error = json.loads(out)["results"]["error"]
        assert error.startswith("lift search exhausted after 24 doublings at word 1001")

    def test_default_vertex_is_identity(self, capsys):
        code, out, _ = run(capsys, "certify", "4", "--u", "1001")
        assert code == 0

    def test_emit_verify_roundtrip_at_other_vertex(self, capsys, tmp_path):
        # the emitted matrix is conjugated to the vertex, where verify-only checks it
        out_path = tmp_path / "cert.json"
        code, out, _ = run(
            capsys, "certify", "5", "--pi", "3,1,4,2,5", "--u", "01101",
            "--emit", str(out_path),
        )
        assert code == 0
        obj = json.loads(out_path.read_text())
        assert obj["construction"][-1] == "conjugate:sigma=3,1,4,2,5"
        code, out, _ = run(
            capsys, "certify", "5", "--pi", "3,1,4,2,5", "--u", "01101",
            "--verify-only", str(out_path),
        )
        assert code == 0 and "pass" in out

    def test_negated_certificate_offender_is_named_at_the_vertex(self, capsys, tmp_path):
        # the offender is a permutation of the pair's own coordinates that
        # attains the printed minimum against M(pi), never pi's own class
        pi = Perm.parse("2,4,1,3")
        argv = ["certify", "4", "--pi", str(pi), "--u", "0110"]
        path = tmp_path / "cert.json"
        run(capsys, *argv, "--emit", str(path))
        obj = json.loads(path.read_text())
        mat = SymZMat.of_pairs(*parse_matrix_json(obj["matrix"])).scale(-1)
        obj["matrix"] = mat.to_json()
        path.write_text(json.dumps(obj))
        code, out, _ = run(capsys, *argv, "--verify-only", str(path))
        assert code == 2
        perm_min = Fraction(re.search(r"perm_min=(\S+)", out).group(1))
        name, margin = re.search(r"offender: permutation (\S+): margin (\S+) <", out).groups()
        sigma = Perm.parse(name)
        assert sigma.canonical() != pi.canonical()
        assert Fraction(margin) == perm_min < 0
        base = inner_product(mat, perm_metric(pi))
        assert inner_product(mat, perm_metric(sigma)) - base == perm_min


class TestMaxN:
    def test_raising_the_oracle_bound_keeps_the_verifier_bound(self, capsys, monkeypatch):
        monkeypatch.setenv("LINEMETRIC_MAX_N", "7")
        code, out, _ = run(capsys, "certify", "9", "--u", "110011001")
        assert code == 0 and out.startswith("pass")

    @pytest.mark.parametrize(
        "value",
        [
            "x",
            "2",
            # int() reads each of these as 13
            pytest.param("1_3", id="underscore"),
            pytest.param("\u0661\u0663", id="arabic-indic-digits"),
            pytest.param("+13", id="sign"),
            pytest.param(" 13 ", id="spaces"),
        ],
    )
    def test_bad_value_is_a_usage_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("LINEMETRIC_MAX_N", value)
        code, out, err = run(capsys, "certify", "5", "--u", "11001")
        assert code == 64 and out == ""
        assert err == f"usage error: LINEMETRIC_MAX_N must be an integer >= 3, got {value!r}\n"

    def test_bad_value_is_reported_for_a_non_edge(self, capsys, monkeypatch):
        # 10100 is a non-edge: classification alone answers it, no bound is read
        monkeypatch.setenv("LINEMETRIC_MAX_N", "x")
        code, out, err = run(capsys, "certify", "5", "--u", "10100")
        assert code == 64 and out == ""
        assert err.count("\n") == 1 and "LINEMETRIC_MAX_N must be an integer" in err

    def test_bad_value_is_reported_by_check_metric(self, capsys, monkeypatch, tmp_path):
        path = write_matrix(tmp_path / "m.json", perm_metric(Perm.identity(4)))
        monkeypatch.setenv("LINEMETRIC_MAX_N", "x")
        code, out, err = run(capsys, "check-metric", "--matrix", path, "--spreading")
        assert code == 64 and out == ""
        assert err.count("\n") == 1 and "LINEMETRIC_MAX_N must be an integer" in err


class TestInternalError:
    def test_failed_synthesis_check_exits_70(self, capsys, monkeypatch):
        # a verifier that rejects the synthesized certificate trips synthesize's
        # own consistency check: an internal fault, not a usage error
        verify = certificates.verify_certificate

        def failing(d, pair, condition):
            return dataclasses.replace(verify(d, pair, condition), passed=False, offender="planted")

        monkeypatch.setattr(certificates, "verify_certificate", failing)
        code, out, err = run(capsys, "certify", "4", "--u", "1001")
        assert code == 70 and out == ""
        assert err.count("\n") == 1 and err.startswith("internal error: ")
        assert "planted" in err and "Traceback" not in err


    def test_library_value_error_exits_70(self, capsys, monkeypatch):
        # a ValueError from inside the library is a fault, not bad input
        def broken(pair):
            raise ValueError("planted")

        monkeypatch.setattr(cli, "synthesize", broken)
        code, out, err = run(capsys, "certify", "4", "--u", "1001")
        assert code == 70 and out == ""
        assert err == "internal error: planted\n"


class TestCheckMetric:
    def test_separated_metric(self, capsys, tmp_path):
        path = write_matrix(tmp_path / "m.json", perm_metric(Perm.identity(3)))
        code, out, _ = run(
            capsys, "check-metric", "--matrix", path, "--spreading", "--facet"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "E_3: yes"
        assert lines[1] == "E_3^b: yes, pi=1,2,3, x=(-1,0,1)"
        assert "spreading: ok" in lines
        assert "facet slack: 0" in lines

    def test_cut_metric_not_separated(self, capsys, tmp_path):
        path = write_matrix(tmp_path / "m.json", cut_metric(Word.parse("100")))
        code, out, _ = run(capsys, "check-metric", "--matrix", path)
        lines = out.splitlines()
        assert lines[0] == "E_3: yes"
        assert lines[1] == "E_3^b: no (entry (2,3)=0 < 1)"

    def test_non_line_metric(self, capsys, tmp_path):
        from linemetric import SymZMat

        path = write_matrix(
            tmp_path / "m.json", SymZMat(3, {(1, 2): 1, (2, 3): 1, (1, 3): 3})
        )
        code, out, _ = run(capsys, "check-metric", "--matrix", path)
        assert code == 0 and out.splitlines()[0] == "E_3: no"

    def test_scale_normalizes_separation(self, capsys, tmp_path):
        # half the identity metric separates at 1/2; --scale 1/2 normalizes it
        from fractions import Fraction

        path = write_matrix(
            tmp_path / "m.json", perm_metric(Perm.identity(3)).scale(Fraction(1, 2))
        )
        code, out, _ = run(capsys, "check-metric", "--matrix", path)
        assert "E_3^b: no" in out
        code, out, _ = run(capsys, "check-metric", "--matrix", path, "--scale", "1/2")
        assert "E_3^b: yes" in out

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "check-metric", "--matrix", str(tmp_path / "nope.json"))
        assert code == 64

    def test_zero_denominator_scale(self, capsys, tmp_path):
        path = write_matrix(tmp_path / "m.json", perm_metric(Perm.identity(3)))
        code, out, err = run(capsys, "check-metric", "--matrix", path, "--scale", "1/0")
        assert code == 64 and out == ""
        assert err == "usage error: --scale must be a positive rational\n"


    def test_spreading_builds_at_most_one_record(self, capsys, tmp_path, monkeypatch):
        # only the count and the first violation are printed, so only the first is built
        built = []
        record = line_metrics.SpreadingViolation

        def counted(*args):
            built.append(args)
            return record(*args)

        monkeypatch.setattr(line_metrics, "SpreadingViolation", counted)
        path = write_matrix(tmp_path / "m.json", cut_metric(Word.parse("10110100101")))
        for extra in ([], ["--json"]):
            built.clear()
            code, out, _ = run(capsys, "check-metric", "--matrix", path, "--spreading", *extra)
            assert code == 0 and "violations" in out
            assert len(built) <= 1

    def test_spreading_never_computes_weak(self, capsys, tmp_path, monkeypatch):
        # the command prints strong violations only, so weak is never read
        def refuse(report):
            raise AssertionError("weak computed")

        monkeypatch.setattr(line_metrics.SpreadingReport, "weak", property(refuse))
        path = write_matrix(tmp_path / "m.json", cut_metric(Word.parse("10110100101")))
        for extra in ([], ["--json"]):
            code, out, err = run(capsys, "check-metric", "--matrix", path, "--spreading", *extra)
            assert code == 0 and "violations" in out and err == ""

    def test_spreading_size_bound(self, capsys, tmp_path, monkeypatch):
        path = write_matrix(tmp_path / "m.json", perm_metric(Perm.identity(13)))
        monkeypatch.delenv("LINEMETRIC_MAX_N", raising=False)
        code, out, err = run(capsys, "check-metric", "--matrix", path, "--spreading")
        assert code == 64 and out == ""
        assert err == (
            "usage error: too large: n=13 exceeds the exhaustion bound 12 "
            "(set LINEMETRIC_MAX_N to raise it)\n"
        )
        monkeypatch.setenv("LINEMETRIC_MAX_N", "13")
        code, out, _ = run(capsys, "check-metric", "--matrix", path, "--spreading")
        assert code == 0 and "spreading: ok" in out.splitlines()

    def test_spreading_size_bound_before_analysis(self, capsys, tmp_path, monkeypatch):
        # the quadratic membership analysis must not run on a size the
        # spreading scan refuses; without --spreading it still runs
        path = tmp_path / "m.json"
        path.write_text('{"n": 2000, "entries": []}')
        calls = []
        analyze = line_metrics.analyze_metric

        def counted(mat):
            calls.append(mat.n)
            return analyze(mat)

        monkeypatch.setattr(cli, "analyze_metric", counted)
        monkeypatch.delenv("LINEMETRIC_MAX_N", raising=False)
        code, out, err = run(capsys, "check-metric", "--matrix", str(path), "--spreading")
        assert code == 64 and out == "" and calls == []
        assert err == (
            "usage error: too large: n=2000 exceeds the exhaustion bound 12 "
            "(set LINEMETRIC_MAX_N to raise it)\n"
        )
        small = write_matrix(tmp_path / "small.json", perm_metric(Perm.identity(4)))
        code, _, _ = run(capsys, "check-metric", "--matrix", small)
        assert code == 0 and calls == [4]

    def test_metric_size_bound_before_analysis(self, capsys, tmp_path, monkeypatch):
        # without --spreading the quadratic analysis has its own, larger bound
        path = tmp_path / "m.json"
        path.write_text('{"n": 201, "entries": []}')
        calls = []
        analyze = line_metrics.analyze_metric

        def counted(mat):
            calls.append(mat.n)
            return analyze(mat)

        monkeypatch.setattr(cli, "analyze_metric", counted)
        monkeypatch.delenv("LINEMETRIC_MAX_N", raising=False)
        assert cli.metric_bound() == 200
        code, out, err = run(capsys, "check-metric", "--matrix", str(path), "--facet")
        assert code == 64 and out == "" and calls == []
        assert err == (
            "usage error: too large: n=201 exceeds the metric bound 200 "
            "(set LINEMETRIC_MAX_N to raise it)\n"
        )
        monkeypatch.setenv("LINEMETRIC_MAX_N", "201")
        code, out, _ = run(capsys, "check-metric", "--matrix", str(path))
        assert code == 0 and out.startswith("E_201: yes") and calls == [201]


class TestOversizedMatrixFile:
    # a matrix holds all n(n-1)/2 entries, so n is refused before it is
    # built: n = 10^9 would need gigabytes and fail with MemoryError
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["check-metric"], "too large: n=1000000000 exceeds the metric bound 200"),
            (["check-metric", "--spreading"], "too large: n=1000000000 exceeds the exhaustion bound 12"),
            (["certify", "4", "--u", "1001"], "dimension mismatch: matrix 1000000000 vs pair 4"),
        ],
        ids=["check-metric", "spreading", "verify-only"],
    )
    def test_refused_before_it_is_built(self, capsys, tmp_path, monkeypatch, argv, message):
        monkeypatch.delenv("LINEMETRIC_MAX_N", raising=False)
        path = tmp_path / "m.json"
        path.write_text('{"n": 1000000000, "entries": []}')
        flag = "--verify-only" if argv[0] == "certify" else "--matrix"
        code, out, err = run(capsys, *argv, flag, str(path))
        assert code == 64 and out == ""
        assert err.count("\n") == 1 and err.startswith(f"usage error: {message}")


class TestUnreadableInput:
    # a matrix file that does not parse to a matrix, or a certificate path
    # that cannot be written, is one usage-error line, never a traceback

    @pytest.mark.parametrize("command", ["check-metric", "verify-only"])
    @pytest.mark.parametrize(
        "text,reason",
        [
            ('{"n": 2, "entries": [[1, 2, "1/0"]]}', "Fraction(1, 0)"),
            ('{"n": 1e400}', "matrix field 'n' must be an integer, got inf"),
            ("[" * 100000 + "]" * 100000, "maximum recursion depth exceeded"),
            # entries must be a list of [k, l, value] lists
            ('{"n": 4, "entries": {}}', "matrix 'entries' must be a list, got {}\n"),
            ('{"n": 4, "entries": null}', "matrix 'entries' must be a list, got None\n"),
            (
                '{"n": 4, "entries": [[1, 2]]}',
                "matrix entry 1 must be a [k, l, value] list, got [1, 2]\n",
            ),
            (
                '{"n": 4, "entries": [[1, 2, "1"], "12x"]}',
                "matrix entry 2 must be a [k, l, value] list, got '12x'\n",
            ),
        ],
        ids=["zero-denominator", "overflow", "nesting", "object", "null", "pair", "string"],
    )
    def test_bad_matrix_file(self, capsys, tmp_path, command, text, reason):
        path = tmp_path / "m.json"
        path.write_text(text)
        if command == "check-metric":
            argv = ["check-metric", "--matrix", str(path)]
        else:
            argv = ["certify", "4", "--u", "1001", "--verify-only", str(path)]
        code, out, err = run(capsys, *argv)
        assert code == 64 and out == ""
        assert err.count("\n") == 1
        assert err.startswith(f"usage error: cannot read matrix file {path}: {reason}")

    @pytest.mark.parametrize("command", ["check-metric", "verify-only"])
    def test_non_integer_fields(self, capsys, tmp_path, command):
        # int() would read this as the 4x4 path matrix
        path = tmp_path / "m.json"
        path.write_text(
            '{"n": 4.9, "entries": [[1.7, 2, "1"], [2, 3.2, "1"], [3, 4, "1"], [true, 4, "-1"]]}'
        )
        if command == "check-metric":
            argv = ["check-metric", "--matrix", str(path)]
        else:
            argv = ["certify", "4", "--u", "1000", "--verify-only", str(path)]
        code, out, err = run(capsys, *argv)
        assert code == 64 and out == ""
        assert err == (
            f"usage error: cannot read matrix file {path}: "
            "matrix field 'n' must be an integer, got 4.9\n"
        )

    @pytest.mark.parametrize("command", ["check-metric", "verify-only"])
    def test_float_entry_value(self, capsys, tmp_path, command):
        # float() would read the value as 1543209862654321/12500000000000000
        path = tmp_path / "m.json"
        path.write_text(
            '{"n": 4, "entries": [[1, 2, "1"], [2, 3, 0.12345678901234567891], [3, 4, "1"]]}'
        )
        if command == "check-metric":
            argv = ["check-metric", "--matrix", str(path)]
        else:
            argv = ["certify", "4", "--u", "1000", "--verify-only", str(path)]
        code, out, err = run(capsys, *argv)
        assert code == 64 and out == ""
        assert err == (
            f"usage error: cannot read matrix file {path}: matrix entry 2 value must be "
            "a rational string or an integer, got 0.12345678901234568\n"
        )

    def test_omitted_entries_are_zero(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"n": 4}')
        code, out, err = run(capsys, "check-metric", "--matrix", str(path), "--json")
        assert code == 0 and err == ""
        assert json.loads(out)["results"]["min_entry"] == {"pair": [1, 2], "value": "0"}

    def test_non_string_condition(self, capsys, tmp_path):
        # only a missing or null condition tries both systems; a falsy one is refused
        path = tmp_path / "c.json"
        for condition, shown in (
            ([1], "[1]"), (0, "0"), (False, "False"), ("", "''"), ([], "[]"), ({}, "{}")
        ):
            obj = {"matrix": perm_metric(Perm.identity(4)).to_json(), "condition": condition}
            path.write_text(json.dumps(obj))
            argv = ["certify", "4", "--u", "1001", "--verify-only", str(path)]
            code, out, err = run(capsys, *argv)
            assert code == 64 and out == ""
            assert err == f"usage error: unknown condition {shown}\n"

    def test_matrix_of_another_size(self, capsys, tmp_path):
        path = write_matrix(tmp_path / "m.json", perm_metric(Perm.identity(5)))
        code, out, err = run(capsys, "certify", "4", "--u", "1001", "--verify-only", path)
        assert code == 64 and out == ""
        assert err == "usage error: dimension mismatch: matrix 5 vs pair 4\n"

    def test_unwritable_emit_path(self, capsys, tmp_path):
        path = tmp_path / "missing" / "c.json"
        code, out, err = run(capsys, "certify", "4", "--u", "1001", "--emit", str(path))
        assert code == 64 and out == ""
        assert err.count("\n") == 1
        assert err.startswith(f"usage error: cannot write certificate file {path}: ")


class TestCrosscheck:
    def test_oracle_sweep_n4(self, capsys):
        code, out, _ = run(capsys, "crosscheck", "4", "--oracle")
        assert code == 0
        assert "pairs: 84 canonical; agree: 84/84" in out
        assert "result: PASS" in out

    def test_oracle_sweep_n3(self, capsys):
        code, out, _ = run(capsys, "crosscheck", "3", "--oracle")
        assert code == 0
        assert "pairs: 9 canonical; agree: 9/9" in out

    def test_full_sweep_n4(self, capsys):
        code, out, _ = run(capsys, "crosscheck", "4", "--full")
        assert code == 0
        assert "edges certified: 4/4; non-edges witnessed: 3/3" in out

    def test_json_mode(self, capsys):
        code, out, _ = run(capsys, "crosscheck", "4", "--oracle", "--json")
        obj = json.loads(out)
        assert obj["results"]["oracle"]["agree"] == 84

    def test_disagreement_is_listed_and_fails(self, capsys, monkeypatch):
        oracle = cli.oracle_classify
        planted = HalfLinePair(Perm.identity(4), Word.parse("1001"))

        def flipped(pair):
            verdict = oracle(pair)
            if pair == planted:
                verdict = dataclasses.replace(verdict, is_edge=not verdict.is_edge)
            return verdict

        monkeypatch.setattr(cli, "oracle_classify", flipped)
        code, out, err = run(capsys, "crosscheck", "4", "--oracle")
        assert (code, out, err) == (2, "pairs: 84 canonical; agree: 83/84\nresult: FAIL\n", "")
        code, out, err = run(capsys, "crosscheck", "4", "--oracle", "--json")
        assert code == 2 and err == ""
        assert json.loads(out)["results"]["oracle"] == {
            "pairs": 84,
            "agree": 83,
            "disagreements": [{"pi": "1,2,3,4", "u": "1001"}],
        }


class TestUsage:
    def test_no_command(self, capsys):
        code, _, err = run(capsys)
        assert code == 64

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "2", "--u", "10"],
            ["certify", "13", "--u", "1000000000000"],
            # a non-edge, which classification alone would answer
            ["certify", "13", "--u", "1010000000000"],
        ],
    )
    def test_certify_size_bound(self, capsys, monkeypatch, argv):
        monkeypatch.delenv("LINEMETRIC_MAX_N", raising=False)
        code, out, err = run(capsys, *argv)
        assert code == 64 and out == ""
        assert err == "usage error: n must be between 3 and 12\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["certify", "4", "--u", "12"], "not a 0/1 word: '12'"),
            (["certify", "4", "--u", "0000"], "word 0000 must be proper and nonempty"),
            (["certify", "4", "--pi", "1,1,2,3", "--u", "1001"], "not a bijection of [4]: (1, 1, 2, 3)"),
            pytest.param(
                ["edges", "4", "--at", "x"],
                "permutation 'x': 'x' is not a decimal integer",
                id="letter",
            ),
            # int() reads each of these parts as a number, or '' as an error
            # that does not name the permutation
            pytest.param(
                ["certify", "4", "--u", "1001", "--pi", "\u0661,2,3,4"],
                "permutation '\u0661,2,3,4': '\u0661' is not a decimal integer",
                id="arabic-indic-digit",
            ),
            pytest.param(
                ["certify", "4", "--u", "1001", "--pi", "1,2,3,4,"],
                "permutation '1,2,3,4,': '' is not a decimal integer",
                id="trailing-comma",
            ),
            pytest.param(
                ["edges", "4", "--at", "1, 2,3,4"],
                "permutation '1, 2,3,4': ' 2' is not a decimal integer",
                id="space",
            ),
            pytest.param(
                ["edges", "4", "--at", "+1,2,3,0_4"],
                "permutation '+1,2,3,0_4': '+1' is not a decimal integer",
                id="sign",
            ),
        ],
    )
    def test_bad_word_or_permutation(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 64 and out == ""
        assert err == f"usage error: {message}\n"

    # int() reads each of these as a number: 4, 4, 10 and 5
    @pytest.mark.parametrize(
        "token",
        ["+4", "\u0664", "1_0", " 5"],
        ids=["sign", "arabic-indic-digit", "underscore", "space"],
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ["edges", "N", "--count-only"],
            ["certify", "N", "--u", "1001"],
            ["crosscheck", "N", "--full"],
        ],
        ids=["edges", "certify", "crosscheck"],
    )
    def test_positional_n_is_ascii_decimal(self, capsys, argv, token):
        code, out, err = run(capsys, *[token if a == "N" else a for a in argv])
        assert code == 64 and out == ""
        assert err == f"usage error: argument n: N must be a decimal integer, got {token!r}\n"


class TestLongTokens:
    # int() refuses more than 4300 digits with an error that names neither
    # the input nor the option; each site keeps its own message, and cuts
    # the token after 40 characters
    LONG = "9" * 5000

    def check(self, code, out, err, name, length=5000):
        assert code == 64 and out == ""
        assert err.count("\n") == 1 and err.startswith("usage error: ")
        assert name in err and "_positional_n" not in err
        assert f"({length} characters)" in err and len(err) < 200

    def test_positional_n(self, capsys):
        self.check(*run(capsys, "edges", self.LONG), "N must be a decimal integer")

    def test_permutation(self, capsys):
        argv = ["certify", "4", "--u", "1001", "--pi", f"1,2,3,{self.LONG}"]
        self.check(*run(capsys, *argv), "permutation")

    def test_max_n(self, capsys, monkeypatch):
        monkeypatch.setenv("LINEMETRIC_MAX_N", self.LONG)
        self.check(*run(capsys, "edges", "4"), "LINEMETRIC_MAX_N must be an integer")

    def test_word(self, capsys):
        self.check(*run(capsys, "certify", "4", "--u", "2" * 5000), "not a 0/1 word: '2222")

    @pytest.mark.parametrize(
        "obj,name,length",
        [
            ({"n": LONG, "entries": []}, "matrix field 'n' must be an integer", 5000),
            ({"n": 4, "entries": [[LONG, 2, "1"]]}, "'k' of entry 1 must be an integer", 5000),
            ({"n": 4, "entries": LONG}, "matrix 'entries' must be a list", 5000),
            ({"n": 4, "entries": [[1, 2, "1", LONG]]}, "matrix entry 1 must be a [k, l", 5015),
            ({"n": 4, "entries": [[1, 2, [0] * 2000]]}, "matrix entry 1 value must be", 6000),
        ],
        ids=["n", "k", "entries", "entry", "value"],
    )
    def test_matrix_file(self, capsys, tmp_path, monkeypatch, obj, name, length):
        monkeypatch.chdir(tmp_path)
        Path("m.json").write_text(json.dumps(obj))
        verify_only = ["certify", "4", "--u", "1001", "--verify-only"]
        for argv in (["check-metric", "--matrix"], verify_only):
            self.check(*run(capsys, *argv, "m.json"), name, length)

    def test_condition(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        obj = {"matrix": perm_metric(Perm.identity(4)).to_json(), "condition": self.LONG}
        Path("c.json").write_text(json.dumps(obj))
        argv = ["certify", "4", "--u", "1001", "--verify-only", "c.json"]
        self.check(*run(capsys, *argv), "unknown condition '9999")

    def test_permutation_image(self, capsys):
        # 4000 digits pass int(); the image tuple that is not a bijection is cut
        argv = ["certify", "4", "--u", "1001", "--pi", "1,2,3," + "9" * 4000]
        code, out, err = run(capsys, *argv)
        assert code == 64 and out == "" and err.count("\n") == 1
        assert err.startswith("usage error: not a bijection of [4]: (1, 2, 3, 9999")
        assert err.endswith("9... (4011 characters)\n") and len(err.encode()) < 200


class TestRationalGrammar:
    # entry values and --scale are p/q or p in ASCII digits; Fraction() also
    # takes exponents, and expanding 1e-3000000 alone takes seconds
    @pytest.mark.parametrize("value", ["1e-3000000", "1.5", "1_0", "\u0661"])
    def test_entry_value(self, capsys, tmp_path, value):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"n": 2, "entries": [[1, 2, value]]}))
        code, out, err = run(capsys, "check-metric", "--matrix", str(path))
        assert code == 64 and out == ""
        assert err == (
            f"usage error: cannot read matrix file {path}: not a rational p/q: {value!r}\n"
        )

    def test_scale(self, capsys, tmp_path):
        path = write_matrix(tmp_path / "m.json", perm_metric(Perm.identity(3)))
        code, out, err = run(capsys, "check-metric", "--matrix", path, "--scale", "1e3000000")
        assert code == 64 and out == ""
        assert err == "usage error: --scale must be a positive rational\n"


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_calls_in_sequence_match_calls_on_their_own(self, capsys, tmp_path):
        # the reused parser must carry nothing from one call into the next
        matrix = write_matrix(tmp_path / "m.json", perm_metric(Perm.identity(4)))
        sequence = [
            ["certify", "4", "--u", "12"],
            ["certify", "5", "--u", "10110", "--json"],
            ["--version"],
            ["check-metric", "--matrix", matrix, "--scale", "x"],
            ["check-metric", "--matrix", matrix, "--spreading"],
            ["certify", "4", "--u", "1001"],
        ]

        def call(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr()
            return code, re.sub(r'"timing_ms": \d+', "", out.out), out.err

        alone = []
        for argv in sequence:
            cli.build_parser.cache_clear()
            alone.append(call(argv))
        cli.build_parser.cache_clear()
        in_sequence = [call(argv) for argv in sequence]
        assert in_sequence == alone
        assert [code for code, _, _ in alone] == [64, 0, 0, 64, 0, 0]
        assert alone[2][1] == f"linemetric {cli.__version__}\n"
