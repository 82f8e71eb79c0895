import csv
import json
import math

import pytest

from genimpl.cli import main

FAST = ["--grid", "11"]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEval:
    def test_basic_tnorm(self, capsys):
        code, out, _ = run(
            capsys, "eval", '{"kind": "basic", "name": "product"}', "0.5", "0.4"
        )
        assert code == 0
        assert float(out) == pytest.approx(0.2)

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "eval", '{"kind": "yager_residual", "p": 2}',
            "0.5", "0.2", "--json",
        )
        assert code == 0
        d = json.loads(out)
        assert d["value"] == pytest.approx(1.0 - math.sqrt(0.39))

    def test_spec_from_file(self, capsys, tmp_path):
        p = tmp_path / "op.json"
        p.write_text('{"kind": "basic", "name": "min"}')
        code, out, _ = run(capsys, "eval", str(p), "0.3", "0.7")
        assert code == 0
        assert float(out) == 0.3

    def test_bad_spec_exits_2(self, capsys):
        code, _, err = run(capsys, "eval", '{"kind": "nope"}', "0.5", "0.5")
        assert code == 2
        assert "error" in err


    @pytest.mark.parametrize("spec, message", [
        ('{"kind": "basic", "name": "nope"}', "unknown basic t-norm 'nope'"),
        ('{"kind": "yager_residual"}', "needs a 'p' field"),
        ('{"kind": "ig", "g": {"kind": "yager_f", "p": 2}}',
         "generator must be increasing"),
        ('{"kind": "yager_tnorm", "p": NaN}', "p must be >= 0"),
        ('{"kind": "yager_tnorm", "p": "nan"}', "p must be >= 0"),
        ('{"kind": "yager_residual", "p": Infinity}', "p must be finite and positive"),
        ('{"kind": "phi_conjugate", "phi": {"kind": "power", "a": Infinity}}',
         "exponent must be finite and positive"),
        ('{"kind": "table", "values": [[0, 0], [0, NaN]]}', "table values must be finite"),
        ('{"kind": "generated_tconorm", "g": {"kind": "table", "direction": "increasing",'
         ' "points": [[0, 0], [1, Infinity]]}}', "table values must be finite"),
        ('{"kind": "ign", "g": {"kind": "power_gp", "p": 2},'
         ' "N": {"kind": "table", "points": [[0, 1], [1, NaN]]}}', "table values must be finite"),
    ])
    def test_malformed_spec_exits_2_with_one_line(self, capsys, spec, message):
        code, out, err = run(capsys, "eval", spec, "0.5", "0.5")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("x, y", [
        ("2", "0.3"), ("nan", "0.3"), ("0.3", "-0.1"), ("0.3", "inf"),
    ])
    def test_point_outside_unit_square_exits_2(self, capsys, x, y):
        code, out, err = run(
            capsys, "eval", '{"kind": "basic", "name": "product"}', x, y
        )
        assert code == 2
        assert out == ""
        assert "outside [0,1]" in err


class TestResidual:
    def test_product_residual(self, capsys):
        code, out, _ = run(
            capsys, "residual", '{"kind": "basic", "name": "product"}',
            "0.8", "0.4",
        )
        assert code == 0
        assert float(out) == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("x, y", [("0.8", "1.5"), ("nan", "0.4")])
    def test_point_outside_unit_square_exits_2(self, capsys, x, y):
        code, out, err = run(
            capsys, "residual", '{"kind": "basic", "name": "product"}', x, y
        )
        assert code == 2
        assert out == ""
        assert "outside [0,1]" in err


class TestVerify:
    def test_passing_properties(self, capsys):
        code, out, _ = run(
            capsys, "verify", '{"kind": "lukasiewicz"}',
            "NP", "IP", "OP", "axioms", *FAST,
        )
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == 4
        assert all(r["verdict"] == "holds-on-samples" for r in reports)

    def test_failure_exits_1_with_witness(self, capsys):
        code, out, _ = run(
            capsys, "verify", '{"kind": "mean_residual"}', "axioms", *FAST
        )
        assert code == 1
        reports = json.loads(out)
        assert reports[0]["verdict"] == "fails"
        assert reports[0]["witness"]["x"] == 0.0

    def test_cp_with_inline_negation(self, capsys):
        code, out, _ = run(
            capsys, "verify", '{"kind": "lukasiewicz"}',
            'CP:{"kind": "standard"}', *FAST,
        )
        assert code == 0

    def test_tnorm_axioms(self, capsys):
        code, out, _ = run(
            capsys, "verify", '{"kind": "yager_tnorm", "p": 2}',
            "tnorm", *FAST,
        )
        assert code == 0

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tolerance_exits_2(self, capsys, tol):
        code, out, err = run(
            capsys, "verify", '{"kind": "mean_residual"}', "axioms", "NP",
            *FAST, "--tol", tol,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "tolerance" in err
        assert err.count("\n") == 1

    def test_unknown_token_exits_2(self, capsys):
        code, _, err = run(
            capsys, "verify", '{"kind": "lukasiewicz"}', "ZZ", *FAST
        )
        assert code == 2


class TestSurfaceAndCompare:
    def test_surface_roundtrip_through_table(self, capsys, tmp_path):
        out_csv = tmp_path / "surf.csv"
        code, _, _ = run(
            capsys, "surface", '{"kind": "yager_tnorm", "p": 2}',
            "-n", "41", "-o", str(out_csv),
        )
        assert code == 0
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "y", "value"]
        assert len(rows) == 1 + 41 * 41

        table_spec = json.dumps({"kind": "table", "path": str(out_csv)})
        code, out, _ = run(
            capsys, "compare", table_spec,
            '{"kind": "yager_tnorm", "p": 2}',
            "--grid", "41", "--tol", "0.01",
        )
        assert code == 0
        report = json.loads(out)
        # bilinear nodes are exact; the random samples see interpolation error
        assert report["max_discrepancy"] < 0.01

    def test_compare_identical(self, capsys):
        code, out, _ = run(
            capsys, "compare", '{"kind": "lukasiewicz"}',
            '{"kind": "yager_residual", "p": 1}', *FAST,
        )
        assert code == 0
        assert json.loads(out)["max_discrepancy"] < 1e-12


class TestClassify:
    def test_conjugate_all_classes(self, capsys):
        spec = json.dumps(
            {"kind": "phi_conjugate", "phi": {"kind": "power", "a": 2}}
        )
        code, out, _ = run(capsys, "classify", spec, *FAST)
        assert code == 0
        results = json.loads(out)
        assert [r["class_id"] for r in results] == [
            "SN", "R-leftcont", "phi-conjugate-LK",
        ]
        assert all(r["overall"] == "consistent-with-membership" for r in results)

    def test_class_subset(self, capsys):
        code, out, _ = run(
            capsys, "classify", '{"kind": "piecewise_f"}',
            "--classes", "sn", *FAST,
        )
        assert code == 0
        results = json.loads(out)
        assert len(results) == 1
        assert results[0]["overall"] == "excluded"

    def test_unknown_class_exits_2(self, capsys):
        code, _, err = run(
            capsys, "classify", '{"kind": "lukasiewicz"}', "--classes", "zz"
        )
        assert code == 2


class TestCounterexample:
    def test_associativity_violation_found(self, capsys):
        spec = json.dumps(
            {"kind": "sn",
             "S": {"kind": "dual", "of": {"kind": "basic", "name": "min"}},
             "N": {"kind": "standard"}}
        )
        # S(N(x), y) built from the dual of min is associative; use the
        # plateau-generated implication's induced disjunction instead
        code, out, _ = run(
            capsys, "counterexample",
            '{"kind": "mean"}', "associativity", *FAST,
        )
        assert code == 1
        report = json.loads(out)
        assert report["witness"] is not None

    def test_associative_connective_passes(self, capsys):
        code, out, _ = run(
            capsys, "counterexample",
            '{"kind": "basic", "name": "min"}', "associativity", *FAST,
        )
        assert code == 0

    def test_ep_counterexample(self, capsys):
        code, out, _ = run(
            capsys, "counterexample", '{"kind": "piecewise_f"}', "EP", *FAST
        )
        assert code == 1
        w = json.loads(out)["witness"]
        assert abs(w["left"] - w["right"]) > 1e-9
