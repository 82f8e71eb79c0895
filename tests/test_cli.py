import csv
import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import genimpl
import genimpl.classes
import genimpl.properties
import genimpl.specs
from genimpl.cli import main
from genimpl.connectives import BinaryConnective

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
        ('{"kind": "yager_tnorm", "p": -1}', "'yager_tnorm' spec: p must be >= 0"),
        ('{"kind": "ig", "g": {"kind": "table", "direction": "increasing",'
         ' "points": [[0, 0.1], [1, 1]]}}', "'table' spec: table must take 0 at x=0"),
        ('{"kind": "yager_residual", "p": Infinity}', "p must be finite and positive"),
        ('{"kind": "yager_residual", "p": -1}', "'yager_residual' spec: p must be finite"),
        ('{"kind": "phi_conjugate", "phi": {"kind": "power", "a": Infinity}}',
         "exponent must be finite and positive"),
        ('{"kind": "table", "values": [[0, 0], [0, NaN]]}', "table values must be finite"),
        ('{"kind": "generated_tconorm", "g": {"kind": "table", "direction": "increasing",'
         ' "points": [[0, 0], [1, Infinity]]}}', "table values must be finite"),
        ('{"kind": "ign", "g": {"kind": "power_gp", "p": 2},'
         ' "N": {"kind": "table", "points": [[0, 1], [1, NaN]]}}', "table values must be finite"),
        ('{"kind": "table", "values": [[0, 0, 0], [0, 0.25, 0.5], [0, 0.5, 1.5]]}',
         "'table' spec: table values must be finite and in [0,1]"),
        ('{"kind": "table", "values": [[-0.25, 0], [0, 1]]}', "table values must be finite and in [0,1]"),
        ('{"kind": "ign", "g": {"kind": "power_gp", "p": 2},'
         ' "N": {"kind": "table", "points": [[0, 1.5], [1, 0]]}}',
         "'table' spec: table values must lie in [0,1]"),
        ('{"kind": "ign", "g": {"kind": "power_gp", "p": 2},'
         ' "N": {"kind": "table", "points": [[0, 1], [0.5, -0.5], [1, 0]]}}',
         "table values must lie in [0,1]"),
        ('{"kind": "ig", "g": {"kind": "table", "direction": "increasing",'
         ' "points": [[0, 0], [0.4, 0.5], [0.6, 0.5], [1, 1]]}}',
         "'table' spec: table points must be strictly increasing"),
        ('{"kind": "generated_tnorm", "f": {"kind": "table", "direction": "decreasing",'
         ' "points": [[0, 0], [1, 1]]}}', "'table' spec: table points must be strictly decreasing"),
        ('{"kind": "ig", "g": {"kind": "table", "direction": "up", "points": [[0, 0], [1, 1]]}}',
         "'table' spec: bad direction 'up'"),
        *((spec, "spec must be a JSON object with a 'kind' field")
          for spec in ('[1, 2]', '{"name": "min"}', '"kind"', '{"kind": "dual", "of": {}}')),
        # longer than a file name may be, so not taken for one
        pytest.param("[" + "1, " * 99 + "1]", "spec must be a JSON object with a 'kind' field",
                     id="300-character array"),
    ])
    def test_malformed_spec_exits_2_with_one_line(self, capsys, spec, message):
        code, out, err = run(capsys, "eval", spec, "0.5", "0.5")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["eval", '{"kind": "yager_tnorm", "p": true}', "0.5", "0.5"],
        ["eval", '{"kind": "table", "values": [[0, 0], [0, true]]}', "0.5", "0.5"],
        ["verify", '{"kind": "yager_residual", "p": 2}', "NP",
         'CP:{"kind": "table", "points": [[0, 1], [1, false]]}'],
    ], ids=["p", "table value", "CP negation"])
    def test_boolean_in_spec_exits_2_with_one_line(self, capsys, argv):
        # float(True) is 1.0: read as a number, p would be 1 and the cell 1
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "no field takes a boolean" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("where", ["file", "inline", "CP negation"])
    def test_deeply_nested_spec_exits_2_with_one_line(self, capsys, tmp_path, where):
        # json's parser recurses once per level, past the interpreter's limit
        deep = "[" * 100_000
        if where == "file":
            path = tmp_path / "deep.json"
            path.write_text(deep)
            argv = ["eval", str(path), "0.5", "0.5"]
        elif where == "inline":
            argv = ["eval", deep, "0.5", "0.5"]
        else:
            argv = ["verify", '{"kind": "lukasiewicz"}', "NP", "CP:" + deep]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: spec nests too deeply to parse\n"

    @pytest.mark.parametrize("depth", [450, 900])
    def test_deeply_nested_dual_exits_2_with_one_line(self, capsys, tmp_path, depth):
        # valid JSON: 450 deep parses and recurses once per level when
        # evaluated, 900 deep recurses in the spec parser itself.  (S,N)
        # nesting, not dual: a pair of duals collapses to its inner operator
        spec = {"kind": "lukasiewicz"}
        for _ in range(depth):
            spec = {"kind": "sn", "S": spec, "N": {"kind": "standard"}}
        path = tmp_path / "sn.json"
        path.write_text(json.dumps(spec))
        code, out, err = run(capsys, "eval", str(path), "0.5", "0.5")
        assert (code, out) == (2, "")
        assert err == "error: spec nests too deeply\n"

    @pytest.mark.parametrize("p", ["inf", "+inf", "infinity", "Infinity", " inf "])
    def test_yager_at_infinite_p_is_the_minimum(self, capsys, p):
        code, out, _ = run(
            capsys, "eval", json.dumps({"kind": "yager_tnorm", "p": p}), "0.3", "0.7"
        )
        assert code == 0
        assert float(out) == 0.3

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


    @pytest.mark.parametrize("p", ["0.0005", "1e-300"])
    def test_yager_at_tiny_p_is_drastic(self, capsys, p):
        code, out, err = run(
            capsys, "eval", f'{{"kind": "yager_tnorm", "p": {p}}}', "0.5", "0.3"
        )
        assert (code, out, err) == (0, "0\n", "")


class TestResidual:
    def test_product_residual(self, capsys):
        code, out, _ = run(
            capsys, "residual", '{"kind": "basic", "name": "product"}',
            "0.8", "0.4",
        )
        assert code == 0
        assert float(out) == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("spec", [
        '{"kind": "yager_tnorm", "p": 2}',
        '{"kind": "generated_tnorm", "f": {"kind": "yager_f", "p": 2}}',
    ])
    def test_generated_tnorm_residual_in_closed_form(self, capsys, spec):
        # f^(-1)(max(f(y) - f(x), 0)), correctly rounded here
        # (0.1079097579280445870... at 50 digits); the bisection gave
        # 0.10790975792804464
        code, out, _ = run(capsys, "residual", spec, "0.748", "0.073")
        assert (code, out.strip()) == (0, "0.10790975792804458")

    @pytest.mark.parametrize("p", ["1e-300", "1e-9"])
    def test_generated_residual_neutral_element_at_tiny_p(self, capsys, p):
        code, out, _ = run(
            capsys, "residual", f'{{"kind": "yager_tnorm", "p": {p}}}', "1", "0.5"
        )
        assert (code, out) == (0, "0.5\n")

    def test_yager_residual_at_large_p(self, capsys):
        # through the generator, f(0.6) - f(0.7) underflowed and this read 1
        code, out, _ = run(
            capsys, "residual", '{"kind": "yager_tnorm", "p": 1000}', "0.7", "0.6"
        )
        assert (code, float(out)) == (0, 0.6)

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

    @pytest.mark.parametrize("flags, plan", [
        ([], genimpl.SampleSpec()),
        (["--grid", "11", "--seed", "7", "--tol", "1e-6"],
         genimpl.SampleSpec(grid_n=11, seed=7, tolerance=1e-6)),
    ], ids=["defaults", "given"])
    def test_plan_flags_set_the_sample_spec(self, capsys, flags, plan):
        # a flag not given leaves SampleSpec's own default in the plan
        code, out, _ = run(capsys, "verify", '{"kind": "lukasiewicz"}', "NP", *flags)
        assert code == 0
        assert json.loads(out)[0]["sample_spec"] == plan.as_dict()

    def test_help_lists_the_plan_flags(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["verify", "--help"])
        assert exit_.value.code == 0
        out = capsys.readouterr().out
        assert all(flag in out for flag in ("--grid GRID", "--seed SEED", "--tol TOL"))

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

    def test_yager_at_tiny_p_passes_tnorm_axioms(self, capsys):
        code, out, _ = run(
            capsys, "verify", '{"kind": "yager_tnorm", "p": 1e-300}', "tnorm",
            *FAST,
        )
        assert code == 0, out

    def test_plan_above_the_cap_exits_2(self, capsys):
        code, out, err = run(
            capsys, "verify", '{"kind": "lukasiewicz"}', "NP",
            "--grid", "1000000",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "sample plan above" in err
        assert err.count("\n") == 1

    def test_residual_of_generated_tnorm_is_an_implication(self, capsys):
        # the bisection residual used to stop just short of 1 at
        # x = y = 0.01, a false IP and OP failure
        spec = ('{"kind": "residual", "of": {"kind": "generated_tnorm", '
                '"f": {"kind": "yager_f", "p": 2}}}')
        code, out, _ = run(capsys, "verify", spec, "IP", "OP")
        assert code == 0
        assert [r["verdict"] for r in json.loads(out)] == ["holds-on-samples"] * 2

    def test_op_of_a_flat_bisected_residual_holds(self, capsys):
        # a double dual is its inner operator, so this is the Yager
        # residual's closed form: 0.9999999994425042 at (0.49353989595376424,
        # 0.4935062888839352), within tol of 1 but below it, so that OP hit
        # does not stand.  The bisection's case is in test_properties.py
        spec = ('{"kind": "residual", "of": {"kind": "dual", "of": {"kind": "dual",'
                ' "of": {"kind": "yager_tnorm", "p": 0.5}}}}')
        code, out, _ = run(capsys, "verify", spec, "OP", "--seed", "5")
        assert code == 0, out
        assert json.loads(out)[0]["verdict"] == "holds-on-samples"

    def test_op_of_a_residual_within_a_double_of_one_holds(self, capsys):
        # at p = 0.3 the residual at that same point lies within one double
        # of 1 (the closed form, as above, reads 0.9999999999999999)
        spec = ('{"kind": "residual", "of": {"kind": "dual", "of": {"kind": "dual",'
                ' "of": {"kind": "yager_tnorm", "p": 0.3}}}}')
        code, out, _ = run(capsys, "verify", spec, "OP", "--seed", "5")
        assert code == 0, out
        assert json.loads(out)[0]["verdict"] == "holds-on-samples"

    def test_unknown_token_exits_2(self, capsys):
        code, out, err = run(
            capsys, "verify", '{"kind": "lukasiewicz"}', "ZZ", *FAST
        )
        assert code == 2
        assert out == ""
        assert err == "error: unknown property 'ZZ'\n"

    @pytest.mark.parametrize("token, message", [
        ("CP", "CP requires a negation"),
        ('NP:{"kind": "standard"}', "NP takes no negation"),
        ('XX:{"kind": "standard"}', "unknown property 'XX'"),
    ])
    def test_malformed_law_exits_2_with_one_line(self, capsys, token, message):
        code, out, err = run(capsys, "verify", '{"kind": "lukasiewicz"}', token, *FAST)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_unknown_token_after_a_known_one_exits_2(self, capsys):
        code, out, err = run(
            capsys, "verify", '{"kind": "lukasiewicz"}', "NP", "XX", *FAST
        )
        assert code == 2
        assert out == ""
        assert err == "error: unknown property 'XX'\n"

    @pytest.mark.parametrize("tokens, message", [
        (["EP", "axioms", "XX"], "unknown property 'XX'"),
        (["tnorm", "EP", 'CP:{"kind": "nope"}'], "unknown negation kind 'nope'"),
        (["EP", "CP:{kind"], "spec is not valid JSON"),
    ])
    def test_every_token_is_checked_before_any_check_runs(
            self, capsys, monkeypatch, tokens, message):
        ran = []
        for name in ("check_property", "check_implication_axioms", "check_tnorm_axioms"):
            monkeypatch.setattr(genimpl.properties, name,
                                lambda *args, name=name: ran.append(name))
        spec = '{"kind": "ign", "g": {"kind": "power_gp", "p": 2}, "N": {"kind": "standard"}}'
        code, out, err = run(capsys, "verify", spec, *tokens)
        assert ran == []
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1


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

    @pytest.mark.parametrize("spec, n, message", [
        # a table generator with f(1) != 0 no longer parses
        ('{"kind": "generated_tnorm", "f": {"kind": "table", '
         '"direction": "decreasing", "points": [[0, 1], [1, -1]]}}', "3",
         "table must take 0 at x=1 when decreasing"),
        ('{"kind": "yager_residual", "p": -1}', "3", "p must be finite and positive"),
        ('{"kind": "yager_tnorm", "p": 2}', "1000000", "sample plan above"),
        ('{"kind": "yager_tnorm", "p": 2}', "1", "grid_n must be >= 2"),
    ])
    def test_surface_error_leaves_no_file(self, capsys, tmp_path, spec, n, message):
        out_csv = tmp_path / "partial.csv"
        code, out, err = run(capsys, "surface", spec, "-n", n, "-o", str(out_csv))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1
        assert not out_csv.exists()

    def test_error_while_evaluating_leaves_no_file(self, capsys, tmp_path, monkeypatch):
        # an operator that parses, then fails at its first value
        def fails(x, y):
            raise ValueError("no value here")
        monkeypatch.setitem(genimpl.specs.OPERATORS, "mean",
                            lambda d: BinaryConnective(fails, "fails"))
        out_csv = tmp_path / "partial.csv"
        code, out, err = run(capsys, "surface", '{"kind": "mean"}', "-n", "3",
                             "-o", str(out_csv))
        assert (code, out, err) == (2, "", "error: no value here\n")
        assert not out_csv.exists()

    @pytest.mark.parametrize("spec, n", [
        ('{"kind": "ig", "g": {"kind": "neg_log"}}', "9"),
        ('{"kind": "phi_conjugate", "phi": {"kind": "power", "a": 2}}', "41"),
    ])
    def test_surface_bytes_are_the_pointwise_values(self, capsys, tmp_path, spec, n):
        # the operator's table gives each value op(x, y) would, bit for bit
        out_csv = tmp_path / "surface.csv"
        code, out, err = run(capsys, "surface", spec, "-n", n, "-o", str(out_csv))
        assert (code, out, err) == (0, "", "")
        op = genimpl.specs.parse_binary(json.loads(spec))
        g = genimpl.SampleSpec(grid_n=int(n)).grid()
        want = "x,y,value\n" + "".join(
            f"{x:.17g},{y:.17g},{op(x, y):.17g}\n" for x in g for y in g)
        assert out_csv.read_bytes() == want.encode()

    def test_shuffled_surface_reads_back_the_same_table(self, capsys, tmp_path):
        out_csv = tmp_path / "surface.csv"
        run(capsys, "surface", '{"kind": "yager_tnorm", "p": 2}', "-n", "11",
            "-o", str(out_csv))
        header, *rows = out_csv.read_text().splitlines(keepends=True)
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text(header + "".join(rows[1::2] + rows[::-2]))
        tables = [genimpl.specs.surface_table_connective(str(p))
                  for p in (out_csv, shuffled)]
        s = genimpl.SampleSpec(grid_n=21, random_count=200)
        assert all(tables[0](x, y) == tables[1](x, y) for x, y in s.pairs())

    @pytest.mark.parametrize("text, message", [
        ("", "expected the header x,y,value"),
        ("x,y\n0,0\n", "expected the header x,y,value"),
        ("x,y,value\n", "n x n rows with n >= 2, found 0"),
        ("x,y,value\n0,0,0\n", "n x n rows with n >= 2, found 1"),
        ("x,y,value\n0,0,0\n0,1,0\n1,0,0\n", "n x n rows with n >= 2, found 3"),
        # a 2-point grid with one row changed
        ("x,y,value\n0,0,0\n0,1,0\n1,0,0\n2,1,1\n", "line 5: not x,y,value at a point"),
        ("x,y,value\n0,0,0\n0,1,0\n-1,0,0\n1,1,1\n", "line 4: not x,y,value at a point"),
        ("x,y,value\n0,0,0\n0,0.5,0\n1,0,0\n1,1,1\n", "line 3: not x,y,value at a point"),
        ("x,y,value\n0,0,0\n0,1,0\n1,0,0\n1,1\n", "line 5: not x,y,value at a point"),
        ("x,y,value\n0,0,0\n0,1,0\n1,0,zero\n1,1,1\n", "line 4: not x,y,value at a point"),
        ("x,y,value\n0,0,0\n0,1,0\n1,0,0\n1,0,1\n", "line 5: the point (1, 0) repeats"),
        ("x,y,value\n0,0,0\n0,1,0\n1,0,0\n1,1,1.5\n", "values must be finite and in [0,1]"),
        ("x,y,value\n0,0,0\n0,1,0\n1,0,0\n1,1,nan\n", "values must be finite"),
        ("x,y,value\n" + "0" * 200_000 + "\n", "field larger than field limit"),
    ])
    def test_bad_surface_file_exits_2_with_one_line(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        code, out, err = run(capsys, "eval", json.dumps({"kind": "table", "path": str(path)}),
                             "0.5", "0.5")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and str(path) in err and message in err
        assert err.count("\n") == 1

    def test_unwritable_output_exits_2_with_one_line(self, capsys, tmp_path):
        out_csv = tmp_path / "missing" / "surface.csv"
        code, out, err = run(capsys, "surface", '{"kind": "lukasiewicz"}',
                             "-n", "3", "-o", str(out_csv))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {out_csv}: ")
        assert err.count("\n") == 1
        assert not out_csv.exists()

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

    @pytest.mark.parametrize("names", ["sn,zz", "r, zz", "lk,sn,zz"])
    def test_every_class_is_checked_before_any_probe_runs(self, capsys, monkeypatch, names):
        ran = []
        for name in ("sn_probe", "r_probe", "conjugate_lk_probe"):
            monkeypatch.setattr(genimpl.classes, name,
                                lambda *args, name=name: ran.append(name))
        spec = '{"kind": "ig", "g": {"kind": "power_gp", "p": 2}}'
        code, out, err = run(capsys, "classify", spec, "--classes", names)
        assert ran == []
        assert (code, out, err) == (2, "", "error: unknown class 'zz'\n")

    def test_probes_are_looked_up_at_call_time(self, capsys, monkeypatch):
        # a replaced probe function is the one that runs
        monkeypatch.setattr(genimpl.classes, "r_probe",
                            lambda i, s: genimpl.classes.ClassProbeResult("stand-in"))
        code, out, _ = run(capsys, "classify", '{"kind": "lukasiewicz"}', "--classes", "r")
        assert code == 0
        assert [r["class_id"] for r in json.loads(out)] == ["stand-in"]

    def test_unknown_class_exits_2(self, capsys):
        code, out, err = run(
            capsys, "classify", '{"kind": "lukasiewicz"}', "--classes", "zz"
        )
        assert code == 2
        assert out == ""
        assert err == "error: unknown class 'zz'\n"


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


# A fresh interpreter imports genimpl, then genimpl.cli, then runs main on
# its arguments (if any) with the output swallowed, and prints as JSON the
# exit code and, after each step, which of the modules named in its first
# argument (comma-separated) were in sys.modules.
_REPORT_LOADED = """
import contextlib, io, sys
names = sys.argv[1].split(",")
def loaded():
    return [name for name in names if name in sys.modules]
import genimpl
steps = [loaded()]
from genimpl import cli
steps.append(loaded())
code = None
if sys.argv[2:]:
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(sys.argv[2:])
    steps.append(loaded())
import json
print(json.dumps([code, steps]))
"""


_PARSE_THEN_REPORT_MPMATH = """
import sys
from genimpl import specs
op = specs.parse_implication(specs.load_spec(sys.argv[1]))
print(op.label.split("[")[0], "mpmath" in sys.modules)
"""


def _env():
    """The environment of a fresh process that imports this genimpl."""
    src = str(Path(genimpl.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def loaded_after(names, *argv):
    """(exit code, the set of ``names`` loaded after each step) of a fresh
    process."""
    out = subprocess.run(
        [sys.executable, "-c", _REPORT_LOADED, ",".join(names), *argv],
        env=_env(), capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    code, steps = json.loads(out)
    return code, [set(step) for step in steps]


def mpmath_after(*argv):
    """(exit code, mpmath loaded after each step) of a fresh process."""
    code, steps = loaded_after(["mpmath"], *argv)
    return code, ["mpmath" in step for step in steps]


class TestMpmathLoading:
    """mpmath is imported at the first wide evaluation, not at start-up."""

    def test_import_does_not_load_it(self):
        assert mpmath_after() == (None, [False, False])

    @pytest.mark.parametrize("argv, code", [
        (["eval", '{"kind": "lukasiewicz"}', "0.3", "0.6"], 0),
        (["residual", '{"kind": "basic", "name": "product"}', "0.8", "0.4"], 0),
        (["verify", '{"kind": "lukasiewicz"}', "NP", "IP"], 0),
        (["eval", '{"kind": "nope"}', "0.5", "0.5"], 2),
        *((["residual", f'{{"kind": "basic", "name": "{n}"}}', "0.8", "0.4"], 0)
          for n in ("min", "lukasiewicz", "drastic")),
    ])
    def test_float_runs_do_not_load_it(self, argv, code):
        assert mpmath_after(*argv) == (code, [False, False, False])

    @pytest.mark.parametrize("argv, code", [
        (["eval", '{"kind": "ig", "g": {"kind": "neg_log"}}', "0.3", "0.6"], 0),
        # the mean fails associativity at an escalated triple
        (["counterexample", '{"kind": "mean"}', "associativity"], 1),
    ])
    def test_wide_runs_load_it(self, argv, code):
        assert mpmath_after(*argv) == (code, [False, False, True])

    @pytest.mark.parametrize("spec", [
        '{"kind": "ig", "g": {"kind": "neg_log"}}',
        '{"kind": "ig", "g": {"kind": "power_gp", "p": 2}}',
        '{"kind": "ign", "g": {"kind": "power_gp", "p": 2}, "N": {"kind": "yager_np", "p": 2}}',
    ])
    def test_parsing_a_generated_implication_does_not_load_it(self, spec):
        # its 40-digit chain and parts resolve mpmath when evaluated, not when built
        out = subprocess.run(
            [sys.executable, "-c", _PARSE_THEN_REPORT_MPMATH, spec],
            env=_env(), capture_output=True, text=True, check=True, timeout=120,
        ).stdout.split()
        assert out == ["IgN" if '"ign"' in spec else "Ig", "False"]


CHECK_MODULES = ["genimpl.properties", "genimpl.classes", "csv"]
LUKASIEWICZ = '{"kind": "lukasiewicz"}'

_BARE_LOADED = "import sys; print(*(n for n in sys.argv[1:] if n in sys.modules))"


@functools.cache
def sampling_modules() -> frozenset:
    """What a command that samples a plan adds to sys.modules: genimpl.reports,
    and dataclasses and inspect unless a bare interpreter has loaded them
    already (a site hook may)."""
    stdlib = ["dataclasses", "inspect"]
    preloaded = subprocess.run(
        [sys.executable, "-c", _BARE_LOADED, *stdlib],
        env=_env(), capture_output=True, text=True, check=True, timeout=120,
    ).stdout.split()
    return frozenset({"genimpl.reports", *stdlib} - set(preloaded))


def loaded_modules_after(*argv):
    """``loaded_after`` of the check modules and ``sampling_modules()``."""
    return loaded_after(CHECK_MODULES + sorted(sampling_modules()), *argv)


class TestCheckModuleLoading:
    """The check engine (properties, classes) loads only for the subcommands
    that run a check, csv only for a spec that reads a surface file, and the
    reports with dataclasses only for the subcommands that sample a plan."""

    @pytest.mark.parametrize("argv, code", [
        (["eval", LUKASIEWICZ, "0.3", "0.6"], 0),
        (["residual", '{"kind": "basic", "name": "product"}', "0.8", "0.4"], 0),
        (["eval", '{"kind": "nope"}', "0.5", "0.5"], 2),
        (["verify", '{"kind": "nope"}', "NP"], 2),
    ], ids=["eval", "residual", "malformed eval", "malformed verify"])
    def test_calls_without_a_check_load_none(self, argv, code):
        assert loaded_modules_after(*argv) == (code, [set(), set(), set()])

    def test_surface_loads_the_reports_only(self):
        argv = ["surface", LUKASIEWICZ, "-n", "5", "-o", os.devnull]
        assert loaded_modules_after(*argv) == (0, [set(), set(), sampling_modules()])

    @pytest.mark.parametrize("argv, code", [
        (["verify", LUKASIEWICZ, "NP", *FAST], 0),
        (["compare", LUKASIEWICZ, LUKASIEWICZ, *FAST], 0),
        (["counterexample", '{"kind": "basic", "name": "min"}', "associativity",
          *FAST], 0),
    ], ids=["verify", "compare", "counterexample"])
    def test_checks_load_properties_only(self, argv, code):
        assert loaded_modules_after(*argv) == (
            code, [set(), set(), {"genimpl.properties", *sampling_modules()}])

    def test_classify_loads_both(self):
        argv = ["classify", LUKASIEWICZ, "--classes", "lk", *FAST]
        assert loaded_modules_after(*argv) == (
            0, [set(), set(), {"genimpl.properties", "genimpl.classes", *sampling_modules()}])

    def test_a_surface_file_spec_loads_csv(self, tmp_path):
        # reading the file back needs the sample grid, so the reports too
        path = tmp_path / "s.csv"
        assert main(["surface", LUKASIEWICZ, "-n", "5", "-o", str(path)]) == 0
        spec = json.dumps({"kind": "table", "path": str(path)})
        assert loaded_modules_after("eval", spec, "0.25", "0.5") == (
            0, [set(), set(), {"csv", *sampling_modules()}])


@pytest.mark.parametrize("argv", [
    ["classify", '{"kind": "lukasiewicz"}', *FAST],
    ["eval", '{"kind": "lukasiewicz"}', "0.3", "0.6"],
])
def test_reader_closing_stdout_early_exits_2_quietly(argv):
    # as `genimpl classify ... | head -c 20`, with the reader gone before
    # the first write, so the write fails whatever the output's size
    with subprocess.Popen(
        [sys.executable, "-m", "genimpl.cli", *argv], env=_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 2
    assert "Traceback" not in err and "Exception ignored" not in err


def test_broken_pipe_with_stdout_not_a_file_exits_2(capsys, monkeypatch):
    # a broken pipe while stdout is captured in-process, with no file descriptor
    def reader_gone(args):
        raise BrokenPipeError
    monkeypatch.setitem(genimpl.cli._COMMANDS, "eval", reader_gone)
    assert main(["eval", '{"kind": "lukasiewicz"}', "0.3", "0.6"]) == 2
