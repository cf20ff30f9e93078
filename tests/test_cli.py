"""Command-line surface: output formats and stable exit codes.

Exit code contract: 0 success, 2 verification failure, 3 non-edge in
synthesis, 64 usage error.
"""

import json

import pytest

from linemetric import Perm, Word, cut_metric, perm_metric
from linemetric.cli import main


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
        assert err == "usage error: duplicate matrix entry (1,3)\n"

    def test_certify_and_reverify_at_n12(self, capsys, tmp_path):
        out_path = tmp_path / "cert.json"
        argv = ["certify", "12", "--pi", "3,4,11,7,8,1,5,6,12,9,2,10", "--u", "110110110110"]
        code, out, _ = run(capsys, *argv, "--emit", str(out_path))
        assert code == 0 and out.startswith("pass (")
        code, out, _ = run(capsys, *argv, "--verify-only", str(out_path))
        assert code == 0 and out.startswith("pass (")

    def test_default_vertex_is_identity(self, capsys):
        code, out, _ = run(capsys, "certify", "4", "--u", "1001")
        assert code == 0

    def test_emit_verify_roundtrip_at_other_vertex(self, capsys, tmp_path):
        # the emitted matrix is conjugated to the vertex; verify-only undoes it
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


class TestUsage:
    def test_no_command(self, capsys):
        code, _, err = run(capsys)
        assert code == 64

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
