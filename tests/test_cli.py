import contextlib
import io
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import freemono
import freemono.cli
from freemono.cli import main
from freemono.kernels import NonFiniteError
from freemono.opsys import DIAGONAL_MAX, builtin_system, point_from_json
from freemono.report import REPORT_SCHEMA
from freemono.verifiers import halfplane_margin, pair_margin
from freemono.freeexpr import CATALOG_NAMES, catalog


def _m(*rows):
    # the matrix JSON of the given rows
    return {"n": len(rows),
            "entries": [[[complex(v).real, complex(v).imag] for v in row] for row in rows]}


SCALAR_JSON = {"k": 1, "basis": [_m([1])], "id_coeffs": [1.0], "name": "scalar"}
BLOCK2_JSON = {"k": 2, "basis": [_m([1, 0], [0, 0]), _m([0, 0], [0, 1]), _m([0, 1], [1, 0]),
                                 _m([0, 1j], [-1j, 0])],
               "id_coeffs": [1.0, 1.0, 0.0, 0.0], "name": "block2"}

_HYPOTHESIS = settings(derandomize=True, max_examples=100, deadline=None, database=None)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def zero_point(tmp_path):
    path = tmp_path / "zero-point.json"
    path.write_text(json.dumps(
        {"system": "scalar", "level": 1, "coeffs": [{"n": 1, "entries": [[[0.0, 0.0]]]}]}))
    return str(path)


@pytest.fixture
def pd_point(tmp_path):
    path = tmp_path / "pd-point.json"
    path.write_text(json.dumps(
        {"system": "scalar", "level": 1, "coeffs": [{"n": 1, "entries": [[[4.0, 0.0]]]}]}))
    return str(path)


class TestExitCodes:
    def test_pass_is_zero(self, tmp_path):
        code, _, _ = run_cli("check", "--function", "identity", "--suite", "monotone",
                             "--levels", "1..2", "--trials", "20", "--seed", "1",
                             "--out", str(tmp_path / "r.json"))
        assert code == 0

    def test_violation_is_one(self, tmp_path):
        code, _, _ = run_cli("check", "--function", "square", "--suite", "monotone",
                             "--levels", "2..2", "--trials", "1000", "--seed", "7",
                             "--out", str(tmp_path / "r.json"))
        assert code == 1
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["verdict"] == "fail"
        assert doc["reports"][0]["witness"] is not None

    @pytest.mark.parametrize("levels", [
        "0" * 4400 + "1..2",  # int() refuses more than 4,300 digits
        "1.." + "0" * 4400 + "2",
        "\u0661..\u0662",  # Arabic-Indic digits
        "1..\u0662",
        "\u0662",
    ])
    def test_a_bad_levels_value_is_a_usage_error(self, levels):
        code, out, err = run_cli("check", "--function", "square", "--suite", "monotone",
                                 "--levels", levels)
        assert (code, out) == (2, "")
        assert err == f"freemono: bad --levels value {levels!r}; expected A..B\n"

    def test_usage_is_two(self):
        assert run_cli("check", "--suite", "monotone")[0] == 2
        assert run_cli("check", "--suite", "bogus")[0] == 2
        assert run_cli("check", "--function", "nope", "--suite", "monotone")[0] == 2
        assert run_cli("check", "--function", "identity", "--suite", "monotone",
                       "--levels", "0..9")[0] == 2
        assert run_cli("check", "--function", "identity", "--suite", "monotone",
                       "--trials", "0")[0] == 2
        assert run_cli("check", "--function", "identity", "--suite", "monotone",
                       "--jobs", "0")[0] == 2
        assert run_cli("check", "--expr", "X1", "--suite", "monotone")[0] == 2
        assert run_cli("nonsense")[0] == 2

    def test_singular_eval_is_three(self, zero_point):
        # the input system is inferred from the point file
        code, _, err = run_cli("eval", "--expr", "inv(X1)", "--point", zero_point)
        assert code == 3
        assert "singular" in err

    def test_local_suite_on_block_system_is_usage_error(self):
        code, _, err = run_cli("check", "--function", "schur_complement",
                               "--suite", "local", "--trials", "5")
        assert code == 2

    # command -> its argv, given a point file; every command takes --out
    COMMANDS = {
        "check": lambda point: ("check", "--function", "square", "--suite", "monotone",
                                "--levels", "2..2", "--trials", "50", "--seed", "7"),
        "eval": lambda point: ("eval", "--function", "msqrt", "--point", point),
        "parse": lambda point: ("parse", "--expr", "X1"),
        "catalog": lambda point: ("catalog",),
    }

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("target", ["directory", "missing_directory"])
    def test_unwritable_out_is_a_usage_error_before_any_trial(self, monkeypatch, tmp_path,
                                                              pd_point, command, target):
        ran = []
        monkeypatch.setattr(freemono.cli, "check_monotone", lambda *a: ran.append(a))
        out = tmp_path if target == "directory" else tmp_path / "missing" / "r.json"
        code, stdout, err = run_cli(*self.COMMANDS[command](pd_point), "--out", str(out))
        assert (code, stdout, ran) == (2, "", [])
        assert err.startswith(f"freemono: --out {str(out)!r}") and "Traceback" not in err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_failed_write_is_a_usage_error(self, monkeypatch, tmp_path, pd_point, command):
        def fails(self, text):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(Path, "write_text", fails)
        out = str(tmp_path / "r.json")
        code, stdout, err = run_cli(*self.COMMANDS[command](pd_point), "--out", out)
        assert (code, stdout) == (2, "")
        assert err == f"freemono: cannot write --out {out!r}: [Errno 28] No space left on device\n"

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616", "18446744073709551617"])
    def test_seed_outside_64_bits_is_a_usage_error(self, seed):
        code, out, err = run_cli("check", "--function", "identity", "--suite", "monotone",
                                 "--levels", "1..1", "--trials", "1", "--seed", seed)
        assert (code, out, err) == (2, "", "freemono: --seed must be in [0, 2^64)\n")

    def test_largest_seed_is_accepted(self):
        code, out, _ = run_cli("check", "--function", "identity", "--suite", "monotone",
                               "--levels", "1..1", "--trials", "1", "--seed", str(2**64 - 1))
        assert code == 0 and json.loads(out)["config"]["seed"] == 2**64 - 1

    @pytest.mark.parametrize("trials", [str(freemono.cli.TRIALS_MAX + 1), "99999999999999999999"])
    def test_trials_above_the_limit_is_a_usage_error_before_any_trial(self, monkeypatch, trials):
        ran = []
        monkeypatch.setattr(freemono.cli, "equivalence_report", lambda *a: ran.append(a))
        code, out, err = run_cli("check", "--function", "msqrt", "--suite", "equivalence",
                                 "--levels", "1..2", "--trials", trials)
        assert (code, out, ran) == (2, "", [])
        assert err == f"freemono: --trials must be at most {freemono.cli.TRIALS_MAX}\n"

    def test_the_trials_limit_is_accepted(self, monkeypatch):
        ran, original = [], freemono.cli.check_monotone

        def one_trial(f, levels, trials, tol, rng):
            ran.append(trials)
            return original(f, levels, 1, tol, rng)

        monkeypatch.setattr(freemono.cli, "check_monotone", one_trial)
        code, _, _ = run_cli("check", "--function", "identity", "--suite", "monotone",
                             "--levels", "1..1", "--trials", str(freemono.cli.TRIALS_MAX))
        assert freemono.cli.TRIALS_MAX >= 10**5
        assert code == 0 and ran == [freemono.cli.TRIALS_MAX]


class TestOneParser:
    """``main`` builds its argument parser once, when ``cli`` loads, and reuses it."""

    VALID = ("check", "--function", "identity", "--suite", "monotone", "--levels", "1..2",
             "--trials", "3", "--seed", "5")
    BEFORE = {
        "usage_error": ("check", "--function", "identity", "--suite", "monotone",
                        "--trials", "0"),
        "bad_choice": ("check", "--suite", "bogus"),
        "unknown_flag": ("check", "--suite", "monotone", "--bogus", "1"),
        "check_help": ("check", "--help"),
        "help": ("--help",),
        "no_command": (),
    }

    def test_main_builds_no_parser(self, monkeypatch):
        def no_parser():
            raise AssertionError("main built a parser")

        monkeypatch.setattr(freemono.cli, "_build_parser", no_parser)
        assert run_cli("catalog")[0] == 0
        assert run_cli(*self.VALID)[0] == 0

    @pytest.mark.parametrize("before", BEFORE)
    def test_each_call_gives_what_it_gives_alone(self, monkeypatch, before):
        sequence = [self.BEFORE[before], self.VALID, self.BEFORE[before], ("catalog",),
                    self.VALID]
        shared = [run_cli(*argv) for argv in sequence]
        alone = []
        for argv in sequence:
            monkeypatch.setattr(freemono.cli, "_PARSER", freemono.cli._build_parser())
            alone.append(run_cli(*argv))
        assert shared == alone
        assert [code for code, _, _ in shared[:2]] == [0 if "help" in before else 2, 0]


class TestNonFinite:
    BIG = "9" * 300

    def test_overflowing_literal_is_usage_error(self):
        for argv in (("check", "--suite", "monotone", "--system", "scalar"),
                     ("parse",)):
            code, out, err = run_cli(*argv, "--expr", "9" * 320 + "*X1")
            assert code == 2 and out == ""
            assert "overflows to infinity (offset 0)" in err

    def test_overflow_during_check_is_numerical_failure(self):
        code, out, _ = run_cli("check", "--expr", f"X1*{self.BIG}*{self.BIG}",
                               "--system", "scalar", "--suite", "monotone",
                               "--levels", "1..1", "--trials", "2")
        assert code == 3
        doc = json.loads(out)
        jsonschema.validate(doc, REPORT_SCHEMA)
        assert doc["reports"] == []
        assert [(e["check"], e["function"]) for e in doc["numerical_failures"]] == [
            ("monotone", "expr")]

    def test_overflow_during_eval_is_three(self, pd_point):
        code, out, err = run_cli("eval", "--expr", f"X1*{self.BIG}*{self.BIG}",
                                 "--point", pd_point)
        assert code == 3 and out == ""
        assert "finite" in err

    def test_module_entry_point_runs_the_cli(self, pd_point):
        src = Path(freemono.__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-m", "freemono.cli", "eval",
             "--expr", f"X1*{self.BIG}*{self.BIG}", "--point", pd_point],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr == "freemono: evaluation failed: matrix entries must all be finite\n"

    def test_a_root_whose_norm_overflows_is_found(self, tmp_path):
        # the Frobenius norm of diag(1e308, 1e308) overflows: its root is taken
        # at 4^-k times it and scaled back, exactly
        path = tmp_path / "huge-point.json"
        path.write_text(json.dumps({"system": "scalar", "level": 2, "coeffs": [
            {"n": 2, "entries": [[[1e308, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e308, 0.0]]]}]}))
        code, out, err = run_cli("eval", "--function", "msqrt", "--point", str(path))
        assert (code, err) == (0, "")
        root = point_from_json(json.loads(out), builtin_system("scalar")).coeffs[0]
        np.testing.assert_allclose(root, np.diag([1e154, 1e154]), rtol=1e-15)

    def test_square_root_that_fails_to_reconstruct_is_three(self, tmp_path):
        # a rotated Jordan block [[l, 1], [0, l]] with l = 1e-9 (1 + i): its root
        # has entries near 1 / sqrt(l), and no root found in double precision
        # squares back to it within the tolerance
        u = np.array([[0.6, 0.8j], [0.8j, 0.6]])
        m = u @ np.array([[1e-9 + 1e-9j, 1.0], [0.0, 1e-9 + 1e-9j]]) @ u.conj().T
        path = tmp_path / "jordan-point.json"
        path.write_text(json.dumps({"system": "scalar", "level": 2, "coeffs": [
            {"n": 2, "entries": [[[v.real, v.imag] for v in row] for row in m]}]}))
        code, out, err = run_cli("eval", "--function", "msqrt", "--point", str(path))
        assert (code, out) == (3, "")
        assert err == ("freemono: evaluation failed: "
                       "principal square root failed to reconstruct its input\n")

    def test_non_finite_point_file_is_usage_error(self, tmp_path):
        path = tmp_path / "inf-point.json"
        path.write_text('{"system": "scalar", "level": 1, '
                        '"coeffs": [{"n": 1, "entries": [[[1e999, 0.0]]]}]}')
        code, _, err = run_cli("eval", "--function", "identity", "--point", str(path))
        assert code == 2 and "finite" in err

    def test_non_finite_system_file_is_usage_error(self, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(SCALAR_JSON).replace("1.0", "1e999", 1))
        code, _, err = run_cli("parse", "--expr", "X1", "--system", str(path))
        assert code == 2 and "finite" in err

    @pytest.mark.parametrize("tol", ["inf", "1e400"])
    def test_non_finite_tol_is_usage_error(self, tol):
        code, out, err = run_cli("check", "--function", "square", "--suite", "monotone",
                                 "--levels", "1..1", "--trials", "2", "--tol", tol)
        assert (code, out) == (2, "")
        assert err == "freemono: --tol must be finite\n"

    @pytest.mark.parametrize("tol", ["0", "-0.5"])
    def test_tol_that_is_not_positive_is_usage_error(self, tol):
        code, out, err = run_cli("check", "--function", "square", "--suite", "monotone",
                                 "--levels", "1..1", "--trials", "2", "--tol", tol)
        assert (code, out) == (2, "")
        assert err == "freemono: --tol must be positive\n"

    def test_nan_margin_is_numerical_failure(self, monkeypatch):
        monkeypatch.setattr(freemono.verifiers, "pair_margin",
                            lambda f, a, b, errors=None: np.full(len(a.coeffs), np.nan))
        code, out, _ = run_cli("check", "--function", "identity", "--suite", "monotone",
                               "--levels", "1..1", "--trials", "3")
        assert code == 3
        doc = json.loads(out)
        assert doc["reports"] == [] and doc["verdict"] == "fail"
        assert "margin nan" in doc["numerical_failures"][0]["error"]


class TestEval:
    def test_happy_path(self, pd_point):
        code, out, _ = run_cli("eval", "--function", "msqrt", "--point", pd_point)
        assert code == 0
        doc = json.loads(out)
        point = point_from_json(doc)
        np.testing.assert_allclose(point.coeffs[0], [[2.0]], atol=1e-12)

    def test_expr_system_inferred_from_point(self, pd_point):
        code, out, _ = run_cli("eval", "--expr", "X1*X1", "--point", pd_point)
        assert code == 0
        doc = json.loads(out)
        np.testing.assert_allclose(point_from_json(doc).coeffs[0], [[16.0]])

    def test_missing_point_file(self):
        code, _, _ = run_cli("eval", "--function", "identity", "--point", "/nope.json")
        assert code == 2

    @pytest.mark.parametrize("doc, why", [
        ({"level": 1.9}, "'level' must be an integer, got 1.9"),
        ({"level": "1"}, "'level' must be an integer, got '1'"),
        ({"level": True}, "'level' must be an integer, got True"),
        ({"coeffs": [{"n": True, "entries": [[[4.0, 0.0]]]}]}, "'n' must be an integer, got True"),
        ({"coeffs": [{"n": 1.0, "entries": [[[4.0, 0.0]]]}]}, "'n' must be an integer, got 1.0"),
    ], ids=["float_level", "string_level", "bool_level", "bool_n", "float_n"])
    def test_a_size_that_is_not_a_json_integer_is_a_usage_error(self, tmp_path, doc, why):
        path = tmp_path / "point.json"
        path.write_text(json.dumps({"system": "scalar", "level": 1,
                                    "coeffs": [{"n": 1, "entries": [[[4.0, 0.0]]]}], **doc}))
        code, out, err = run_cli("eval", "--function", "msqrt", "--point", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("freemono: bad point file") and err.endswith(why + "\n")

    def test_level_zero_point_is_usage_error(self, tmp_path):
        path = tmp_path / "level-zero.json"
        path.write_text(json.dumps(
            {"system": "scalar", "level": 0, "coeffs": [{"n": 0, "entries": []}]}))
        code, out, err = run_cli("eval", "--function", "square", "--point", str(path))
        assert code == 2 and out == ""
        assert "bad point file" in err and "matrix size must be at least 1" in err

    # A rejected point file: its JSON, the function it is fed to, and the
    # error point_from_json raises for the function's system.
    ONE = _m([4.0])
    REJECTED = {
        "count": ({"system": "diagonal(2)", "level": 1, "coeffs": [ONE]}, "geometric_mean",
                  ValueError, "coefficient count must equal the basis size"),
        "no_coeffs": ({"system": "scalar", "level": 1, "coeffs": []}, "identity",
                      ValueError, "coefficient count must equal the basis size"),
        # the count is checked before the level
        "count_and_level": ({"system": "diagonal(2)", "level": 3, "coeffs": [ONE]},
                            "geometric_mean", ValueError,
                            "coefficient count must equal the basis size"),
        "mixed_sizes": ({"system": "diagonal(2)", "level": 1, "coeffs": [ONE, _m([1, 0], [0, 1])]},
                        "geometric_mean", ValueError, "all coefficients must share one level"),
        "non_square": ({"system": "scalar", "level": 2, "coeffs": [
            {"n": 2, "entries": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                                 [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]]}]}, "identity",
                       ValueError, "matrix JSON entries do not match the declared size"),
        "non_finite": ({"system": "scalar", "level": 1,
                        "coeffs": [{"n": 1, "entries": [[[float("nan"), 0.0]]]}]}, "identity",
                       NonFiniteError, "matrix entries must all be finite"),
        # a bad entry in a later coefficient is found before the count is checked
        "non_finite_second": ({"system": "scalar", "level": 1,
                               "coeffs": [ONE, {"n": 1, "entries": [[[0.0, float("inf")]]]}]},
                              "identity", NonFiniteError, "matrix entries must all be finite"),
        "level": ({"system": "scalar", "level": 2, "coeffs": [ONE]}, "identity",
                  ValueError, "point JSON level does not match its coefficients"),
        "system": ({"system": "block2", "level": 1, "coeffs": [ONE] * 4}, "identity",
                   ValueError, "point JSON names system 'block2', expected 'scalar'"),
        "coeffs_number": ({"system": "scalar", "level": 1, "coeffs": 5}, "identity",
                          TypeError, "'int' object is not iterable"),
        "coeffs_object": ({"system": "scalar", "level": 1, "coeffs": ONE}, "identity",
                          TypeError, "string indices must be integers, not 'str'"),
    }

    @pytest.mark.parametrize("case", REJECTED)
    def test_rejected_point(self, tmp_path, case):
        doc, function, kind, why = self.REJECTED[case]
        with pytest.raises(kind) as info:
            point_from_json(doc, catalog(function).in_system)
        assert type(info.value) is kind and str(info.value) == why
        path = tmp_path / "point.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli("eval", "--function", function, "--point", str(path))
        assert (code, out) == (2, "")
        assert err == f"freemono: bad point file {str(path)!r}: {why}\n"


class TestParseCommand:
    def test_schur_expression(self):
        code, out, _ = run_cli("parse", "--expr", "X[1,1] - X[1,2]*inv(X[2,2])*X[2,1]",
                               "--system", "block2")
        assert code == 0
        doc = json.loads(out)
        assert doc["canonical"] == "X[1,1] - X[1,2] * inv(X[2,2]) * X[2,1]"
        assert doc["ast"]["node"] == "sub"

    def test_full_output_pinned(self):
        # one expression with all ten node kinds; the AST lists each node's
        # fields in order, a complex value as re/im
        expr = "X1 + 2*X[1,2] - sqrt(inv(X[2,2]))*-X[2,1] - i"
        code, out, err = run_cli("parse", "--expr", expr, "--system", "block2")
        assert (code, err) == (0, "")

        def block(row, col):
            return {"node": "block", "row": row, "col": col}

        ast = {"node": "sub",
               "left": {"node": "sub",
                        "left": {"node": "add",
                                 "left": {"node": "var", "index": 1},
                                 "right": {"node": "scalar_mul", "re": 2.0, "im": 0.0,
                                           "child": block(1, 2)}},
                        "right": {"node": "mul",
                                  "left": {"node": "sqrt",
                                           "child": {"node": "inv", "child": block(2, 2)}},
                                  "right": {"node": "neg", "child": block(2, 1)}}},
               "right": {"node": "scalar", "re": 0.0, "im": 1.0}}
        canonical = "X1 + 2.0 * X[1,2] - sqrt(inv(X[2,2])) * -X[2,1] - 1.0i"
        want = {"expr": expr, "canonical": canonical, "ast": ast}
        assert out == json.dumps(want, indent=2) + "\n"

    def test_syntax_error(self):
        code, _, err = run_cli("parse", "--expr", "X[1,", "--system", "block2")
        assert code == 2
        assert "offset 4" in err

    @pytest.mark.parametrize("argv, offset", [
        (("parse", "--expr", "X\u00b2"), 1),
        (("parse", "--expr", "X[\u00b2,1]", "--system", "block2"), 2),
        (("parse", "--expr", "X\u0661"), 1),
        (("check", "--expr", "X\u00b2", "--system", "scalar", "--suite", "monotone"), 1),
    ])
    def test_non_ascii_digit_is_a_usage_error(self, argv, offset):
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, "")
        assert f"unexpected character {argv[2][offset]!r} (offset {offset})" in err

    @pytest.mark.parametrize("expr, why", [
        ("X" + "1" * 5000, f"variable X{'1' * 5000} out of range for system 'block2' (offset 0)"),
        ("X1 + X" + "0" * 5000 + "5", "variable X5 out of range for system 'block2' (offset 5)"),
        ("X[1," + "0" * 5000 + "3]", "block (1,3) out of range for system 'block2' (offset 4)"),
    ], ids=["long_variable", "zeros_variable", "zeros_block"])
    def test_a_long_index_is_out_of_range(self, expr, why):
        # int() refuses more than 4,300 digits; an index that long is out of range
        for argv, prefix in ((("parse", "--expr", expr, "--system", "block2"), ""),
                             (("check", "--expr", expr, "--system", "block2", "--suite",
                               "monotone", "--levels", "1..1", "--trials", "1"),
                              "bad expression: ")):
            code, out, err = run_cli(*argv)
            assert (code, out, err) == (2, "", f"freemono: {prefix}{why}\n")

    def test_leading_zeros_do_not_count_in_an_index(self):
        zeros = "0" * 5000
        code, out, err = run_cli("parse", "--expr", f"X{zeros}1 + X[{zeros}2,1]",
                                 "--system", "block2")
        assert (code, err) == (0, "")
        assert json.loads(out)["canonical"] == "X1 + X[2,1]"

    @pytest.mark.parametrize("nest, offset", [
        (lambda d: "(" * d + "X1" + ")" * d, 100),
        (lambda d: "sqrt(" * d + "X1" + ")" * d, 500),
        (lambda d: "X1+" + "-" * d + "X1", 103),
    ], ids=["parentheses", "calls", "unary_minus"])
    def test_nesting_is_capped_at_100(self, nest, offset):
        # the offset is that of the 101st level
        check = ("check", "--system", "scalar", "--suite", "monotone", "--levels", "1..1",
                 "--trials", "1")
        for argv in (("parse",), check):
            code, out, err = run_cli(*argv, f"--expr={nest(100)}")
            assert (code, err) == (0, "") and out
            code, out, err = run_cli(*argv, f"--expr={nest(101)}")
            assert (code, out) == (2, "")
            assert f"nesting deeper than 100 levels (offset {offset})" in err

    @pytest.mark.parametrize("op", ["+", "*"])
    def test_operator_chains_are_capped_at_200_levels(self, op):
        # a chain of binary operators builds one tree level per operator; the
        # 200th operator (offset 599) would make the tree 201 levels deep
        check = ("check", "--system", "scalar", "--suite", "monotone", "--levels", "1..1",
                 "--trials", "1")
        for argv in (("parse",), check):
            code, out, err = run_cli(*argv, "--expr=X1" + f"{op}X1" * 199)
            assert (code, err) == (0, "") and out
            code, out, err = run_cli(*argv, "--expr=X1" + f"{op}X1" * 1500)
            assert (code, out) == (2, "")
            assert "Traceback" not in err
            assert "expression tree deeper than 200 levels (offset 599)" in err

    @_HYPOTHESIS
    @given(st.one_of(st.text(), st.text(alphabet="X1[],+-*()^.i sqrtinv\u00b2\u0661")))
    @example("X\u00b2")
    def test_any_expression_text_keeps_the_exit_code_contract(self, text):
        # a parse is accepted or a usage error; a check ends with one of the four codes
        assert run_cli("parse", "--expr", text)[0] in (0, 2)
        code, _, _ = run_cli("check", "--expr", text, "--system", "scalar", "--suite", "monotone",
                             "--levels", "1..1", "--trials", "1")
        assert code in (0, 1, 2, 3)


class TestCatalogCommand:
    def test_lists_catalog(self):
        code, out, _ = run_cli("catalog")
        assert code == 0
        doc = json.loads(out)
        names = [f["name"] for f in doc["functions"]]
        assert "schur_complement" in names and "geometric_mean" in names

    def test_listing_pinned(self):
        code, out, _ = run_cli("catalog")
        assert code == 0
        assert [tuple(f.values()) for f in json.loads(out)["functions"]] == [
            ("identity", "scalar", "X1"),
            ("msqrt", "scalar", "sqrt(X1)"),
            ("neg_inverse", "scalar", "-inv(X1)"),
            ("inverse", "scalar", "inv(X1)"),
            ("square", "scalar", "X1*X1"),
            ("schur_complement", "block2", "X[1,1] - X[1,2]*inv(X[2,2])*X[2,1]"),
            ("geometric_mean", "diagonal(2)",
             "sqrt(X1)*sqrt(inv(sqrt(X1))*X2*inv(sqrt(X1)))*sqrt(X1)"),
        ]


class TestDocuments:
    def test_schema_validates(self, tmp_path):
        path = tmp_path / "r.json"
        run_cli("check", "--function", "square", "--suite", "equivalence",
                "--levels", "1..2", "--trials", "30", "--seed", "3", "--out", str(path))
        doc = json.loads(path.read_text())
        jsonschema.validate(doc, REPORT_SCHEMA)

    def test_schema_validates_loewner_suite(self, tmp_path):
        path = tmp_path / "r.json"
        run_cli("check", "--suite", "loewner1d", "--levels", "2..2",
                "--trials", "10", "--seed", "3", "--out", str(path))
        doc = json.loads(path.read_text())
        jsonschema.validate(doc, REPORT_SCHEMA)

    def test_byte_determinism_same_config(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ("check", "--function", "msqrt", "--suite", "equivalence",
                "--levels", "1..2", "--trials", "25", "--seed", "11")
        run_cli(*argv, "--out", str(a))
        run_cli(*argv, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_jobs_do_not_change_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ("check", "--function", "square", "--suite", "monotone",
                "--levels", "1..2", "--trials", "40", "--seed", "5")
        run_cli(*argv, "--jobs", "1", "--out", str(a))
        run_cli(*argv, "--jobs", "8", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_annotate_adds_key_outside_core(self, tmp_path):
        path = tmp_path / "r.json"
        run_cli("check", "--function", "identity", "--suite", "monotone",
                "--levels", "1..1", "--trials", "5", "--seed", "1",
                "--annotate", "--out", str(path))
        doc = json.loads(path.read_text())
        assert "annotations" in doc
        jsonschema.validate(doc, REPORT_SCHEMA)

    def test_no_timestamps_by_default(self, tmp_path):
        path = tmp_path / "r.json"
        run_cli("check", "--function", "identity", "--suite", "monotone",
                "--levels", "1..1", "--trials", "5", "--seed", "1", "--out", str(path))
        doc = json.loads(path.read_text())
        assert "annotations" not in doc

    def test_witness_reproduces_margin(self, tmp_path):
        path = tmp_path / "r.json"
        run_cli("check", "--function", "square", "--suite", "monotone",
                "--levels", "2..2", "--trials", "500", "--seed", "7", "--out", str(path))
        doc = json.loads(path.read_text())
        witness = doc["reports"][0]["witness"]
        square = catalog("square")
        a = point_from_json(witness["A"])
        b = point_from_json(witness["B"])
        assert pair_margin(square, a, b) == witness["margin"]

    @pytest.mark.parametrize("function, suite, levels, seed", [
        ("square", "halfplane", "2..2", "7"),
        ("inverse", "monotone", "3..3", "5"),
        ("inverse", "halfplane", "1..4", "1"),
    ])
    def test_witness_replays_exactly(self, tmp_path, function, suite, levels, seed):
        # a trial's point gets the value it would get alone, so replaying its
        # witness gives the reported margin to the bit
        path = tmp_path / "r.json"
        run_cli("check", "--function", function, "--suite", suite, "--levels", levels,
                "--trials", "50", "--seed", seed, "--out", str(path))
        f = catalog(function)
        for report in json.loads(path.read_text())["reports"]:
            witness = report["witness"]
            if suite == "monotone":
                margin = pair_margin(f, point_from_json(witness["A"]),
                                     point_from_json(witness["B"]))
            else:
                margin = halfplane_margin(f, point_from_json(witness["P"]))
            assert margin == witness["margin"]

    def test_exit_zero_iff_all_pass(self, tmp_path):
        path = tmp_path / "r.json"
        code, _, _ = run_cli("check", "--function", "msqrt", "--suite", "equivalence",
                             "--levels", "1..2", "--trials", "25", "--seed", "2",
                             "--out", str(path))
        doc = json.loads(path.read_text())
        assert (code == 0) == all(r["verdict"] == "pass" for r in doc["reports"])
        assert doc["numerical_failures"] == []


class TestUserSystems:
    def test_system_json_file(self, tmp_path):
        sys_doc = {**BLOCK2_JSON, "name": "my_block2"}
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(sys_doc))
        code, out, _ = run_cli("parse", "--expr", "X[2,1]", "--system", str(path))
        assert code == 0

    @pytest.mark.parametrize("k, why", [(2.9, "got 2.9"), (2.0, "got 2.0"), ("2", "got '2'"),
                                        (True, "got True")])
    def test_a_k_that_is_not_a_json_integer_is_a_usage_error(self, tmp_path, k, why):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps({**BLOCK2_JSON, "k": k}))
        code, out, err = run_cli("parse", "--expr", "X[2,1]", "--system", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("freemono: bad system JSON")
        assert err.endswith(f"'k' must be an integer, {why}\n")

    def test_expr_check_with_named_system(self, tmp_path):
        code, _, _ = run_cli("check", "--expr", "X1 + X2", "--system", "diagonal(2)",
                             "--suite", "monotone", "--levels", "1..2",
                             "--trials", "20", "--seed", "4",
                             "--out", str(tmp_path / "r.json"))
        assert code == 0

    @pytest.mark.parametrize("doc, why", [
        ({"name": "z", "k": 0, "basis": [], "id_coeffs": []}, "k >= 1 and a nonempty basis"),
        ({**SCALAR_JSON, "id_coeffs": [float("inf")]}, "id_coeffs must be finite"),
    ], ids=["empty", "infinite_id_coeffs"])
    @pytest.mark.parametrize("suite", ["monotone", "halfplane", "axioms", "boundary",
                                       "equivalence"])
    def test_degenerate_system_file_is_usage_error(self, tmp_path, doc, why, suite):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(doc))  # an infinite coefficient is written as Infinity
        code, out, err = run_cli("check", "--expr", "1", "--system", str(path), "--suite", suite,
                                 "--levels", "1..1", "--trials", "2")
        assert (code, out) == (2, "")
        assert err.startswith("freemono: bad system JSON") and why in err


class TestDiagonalBound:
    """diagonal(d) is built for 1 <= d <= DIAGONAL_MAX; a larger d is a usage error."""

    WHY = f"diagonal system has at most {DIAGONAL_MAX} slots, got "

    def test_the_bound_is_64(self):
        assert DIAGONAL_MAX == 64
        assert builtin_system("diagonal(64)").size == 64
        with pytest.raises(ValueError, match=re.escape(self.WHY + "65")):
            builtin_system("diagonal(65)")

    def test_the_slot_count_takes_ascii_digits_only(self):
        name = "diagonal(\u0661)"
        code, out, err = run_cli("parse", "--expr", "X1", "--system", name)
        assert (code, out, err) == (2, "", f"freemono: unknown operator system {name!r}\n")

    @pytest.mark.parametrize("d", ["65", "99999999"])
    @pytest.mark.parametrize("command", ["check", "parse", "eval_expr", "eval_point"])
    def test_a_larger_diagonal_is_a_usage_error(self, tmp_path, command, d):
        name = f"diagonal({d})"
        point = tmp_path / "point.json"
        point.write_text(json.dumps(
            {"system": name, "level": 1, "coeffs": [{"n": 1, "entries": [[[1.0, 0.0]]]}]}))
        argv = {
            "check": ("check", "--expr", "X1", "--system", name, "--suite", "monotone",
                      "--levels", "1..1", "--trials", "1"),
            "parse": ("parse", "--expr", "X1", "--system", name),
            "eval_expr": ("eval", "--expr", "X1", "--point", str(point)),  # the file names it
            "eval_point": ("eval", "--function", "identity", "--point", str(point)),
        }[command]
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, "")
        if command == "eval_point":  # identity is over scalar: the point names another system
            assert err.startswith("freemono: bad point file")
        else:
            assert err == f"freemono: {self.WHY}{d}\n"


BIG = 10 ** 400  # a JSON integer that overflows a float
MALFORMED_SYSTEMS = {
    "list_id_coeffs": {**SCALAR_JSON, "id_coeffs": [[1]]},
    "top_level_array": [SCALAR_JSON],
    "huge_id_coeff": {**SCALAR_JSON, "id_coeffs": [BIG]},
    "huge_basis_entry": {**SCALAR_JSON, "basis": [{"n": 1, "entries": [[[BIG, 0]]]}]},
}


class TestMalformedInputFiles:
    """A system or point file that cannot be read or decoded is a usage error."""

    def _assert_usage_error(self, argv, what):
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"freemono: {what}") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["parse", "--expr", "X1"],
        ["check", "--expr", "X1", "--suite", "monotone", "--levels", "1..1", "--trials", "2"],
    ], ids=["parse", "check"])
    def test_system_path_that_is_a_directory(self, tmp_path, argv):
        self._assert_usage_error(argv + ["--system", str(tmp_path)], "bad system JSON")

    @pytest.mark.parametrize("doc", MALFORMED_SYSTEMS.values(), ids=MALFORMED_SYSTEMS)
    def test_malformed_system_file(self, tmp_path, doc):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(doc))
        self._assert_usage_error(["parse", "--expr", "X1", "--system", str(path)],
                                 "bad system JSON")

    @pytest.mark.parametrize("argv, what", [
        (["parse", "--expr", "X1", "--system"], "bad system JSON"),
        (["eval", "--function", "identity", "--point"], "bad point file"),
    ], ids=["system", "point"])
    def test_deeply_nested_file(self, tmp_path, argv, what):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)  # deeper than the JSON decoder recurses
        self._assert_usage_error(argv + [str(path)], what)

    def test_point_file_with_a_huge_integer(self, tmp_path):
        path = tmp_path / "point.json"
        path.write_text(json.dumps(
            {"system": "scalar", "level": 1, "coeffs": [{"n": 1, "entries": [[[BIG, 0]]]}]}))
        self._assert_usage_error(["eval", "--function", "identity", "--point", str(path)],
                                 "bad point file")


# What the argv fuzz draws from: a few valid values of each flag, and values
# that must be usage errors.  Levels and trials stay tiny when they are valid.
_SYSTEM_FILES = {
    "valid.json": json.dumps(BLOCK2_JSON),
    "empty.json": json.dumps({"name": "z", "k": 0, "basis": [], "id_coeffs": []}),
    "non_finite.json": json.dumps({**SCALAR_JSON, "id_coeffs": [float("inf")]}),
    "malformed.json": json.dumps([SCALAR_JSON]),
    "not_json.json": "{",
}
_POINT_FILES = {
    "scalar_point.json": {"system": "scalar", "level": 1,
                          "coeffs": [{"n": 1, "entries": [[[4.0, 0.0]]]}]},
    "block2_point.json": {"system": "block2", "level": 1,
                          "coeffs": [{"n": 1, "entries": [[[v, 0.0]]]} for v in (2, 3, 0, 0)]},
    "huge_diagonal_point.json": {"system": "diagonal(99999999)", "level": 1,
                                 "coeffs": [{"n": 1, "entries": [[[1.0, 0.0]]]}]},
    "zero_level_point.json": {"system": "scalar", "level": 0, "coeffs": []},
}


def _mostly(valid, invalid):
    # a valid value five times in six, so that many runs get past the usage checks
    return st.integers(0, 5).flatmap(lambda k: st.sampled_from(valid if k else invalid))


_FUNCTIONS = _mostly(CATALOG_NAMES, ["nope"])
_EXPRS = _mostly(["X1", "X1*X1", "inv(X1)", "sqrt(X1)", "X1 - X2", "X[1,2]", "0*X1",
                  "X[1,1] - X[1,2]*inv(X[2,2])*X[2,1]"], ["X1 +", "1e400*X1", "X\u00b2"])
_SYSTEMS = _mostly(["scalar", "block2", "diagonal(2)", "diagonal(3)", "valid.json"],
                   ["diagonal(0)", "diagonal(65)", "diagonal(99999999)", "nope", "missing.json",
                    ".", *_SYSTEM_FILES])
_FLAGS = {
    "--suite": _mostly(freemono.cli.SUITES, ["nope"]),
    "--levels": _mostly(["1..1", "1..2", "2"], ["0..1", "2..1", "1..9", "a", ""]),
    "--trials": _mostly(["1", "2"], ["0", "-1", "x", "99999999999999999999"]),
    "--seed": _mostly(["0", "42", "7", str(2**64 - 1)], [str(2**64), "-1", "x"]),
    "--tol": _mostly(["1e-8", "0.5"], ["0", "-1", "inf", "nan", "1e400", "x"]),
    "--jobs": _mostly(["1", "2"], ["0"]),
}
_OUTS = _mostly(["report.json"], [".", "missing/report.json"])
_POINTS = _mostly(["scalar_point.json", "block2_point.json"],
                  ["huge_diagonal_point.json", "zero_level_point.json", "missing.json",
                   "not_json.json"])


@st.composite
def _argv(draw):
    # One argv over the real flag grammar; its file names are resolved in the
    # test's input directory.  --levels and --trials are always given: their
    # defaults would make a long run.
    command = draw(st.sampled_from(["check"] * 6 + ["eval", "parse", "catalog"]))
    argv = [command]
    if command == "check":
        for flag in ("--suite", "--levels", "--trials"):
            argv += [flag, draw(_FLAGS[flag])]
        for flag in draw(st.lists(st.sampled_from(["--seed", "--tol", "--jobs"]), unique=True)):
            argv += [flag, draw(_FLAGS[flag])]
    if command in ("check", "eval"):
        source = draw(_mostly(["function", "expr"], ["both", "neither"]))
        if source in ("function", "both"):
            argv += ["--function", draw(_FUNCTIONS)]
        if source in ("expr", "both"):
            argv += ["--expr", draw(_EXPRS)]
    if command == "parse":
        argv += ["--expr", draw(_EXPRS)]
    if command != "catalog" and draw(_mostly([True], [False])):
        argv += ["--system", draw(_SYSTEMS)]
    if command == "eval":
        argv += ["--point", draw(_POINTS)]
    if draw(st.booleans()):
        argv += ["--out", draw(_OUTS)]
    return argv


class TestArgvContract:
    """Whole argv lists keep the exit-code contract."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("argv")
        for name, text in _SYSTEM_FILES.items():
            (path / name).write_text(text)
        for name, doc in _POINT_FILES.items():
            (path / name).write_text(json.dumps(doc))
        return path

    @_HYPOTHESIS
    @given(argv=_argv())
    @example(argv=["check", "--suite", "monotone", "--levels", "1..1", "--trials", "1",
                   "--expr", "X1", "--system", "diagonal(99999999)"])
    @example(argv=["eval", "--expr", "X1", "--point", "huge_diagonal_point.json"])
    @example(argv=["check", "--suite", "monotone", "--levels", "2..2", "--trials", "2",
                   "--seed", "3", "--function", "square", "--out", "report.json"])
    @example(argv=["check", "--suite", "all", "--levels", "1..1", "--trials", "1"])
    @example(argv=["check", "--function", "square", "--suite", "monotone",
                   "--levels", "0" * 4400 + "1..2"])
    @example(argv=["parse", "--system", "block2", "--expr", "X" + "1" * 5000])
    def test_any_argv_keeps_the_exit_code_contract(self, inputs, argv):
        # the code is one of 0-3 and stderr holds no traceback; a usage error
        # writes nothing to stdout, and a violation comes with a failing report
        (inputs / "report.json").unlink(missing_ok=True)
        files = ("--point", "--out", "--system")
        code, out, err = run_cli(*(
            str(inputs / a) if i and argv[i - 1] in files and (a.endswith(".json") or a == ".")
            else a for i, a in enumerate(argv)))
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err
        if code == 2:
            assert out == ""
        if code == 1:
            written = (inputs / "report.json").read_text() if "--out" in argv else out
            assert argv[0] == "check" and json.loads(written)["verdict"] == "fail"


class TestSuiteTable:
    def test_suite_all_runs_every_unit_in_order(self):
        code, out, _ = run_cli("check", "--suite", "all", "--trials", "2",
                               "--levels", "1..2", "--seed", "1")
        assert code == 1
        doc = json.loads(out)
        assert [(r["check"], r["function"]) for r in doc["reports"]] == [
            ("free_axioms", "identity"), ("monotone", "identity"),
            ("local_monotone", "identity"), ("halfplane", "identity"),
            ("free_axioms", "msqrt"), ("monotone", "msqrt"),
            ("local_monotone", "msqrt"), ("halfplane", "msqrt"),
            ("free_axioms", "neg_inverse"), ("monotone", "neg_inverse"),
            ("local_monotone", "neg_inverse"), ("halfplane", "neg_inverse"),
            ("free_axioms", "inverse"), ("monotone", "inverse"),
            ("local_monotone", "inverse"), ("halfplane", "inverse"),
            ("free_axioms", "square"), ("monotone", "square"),
            ("local_monotone", "square"), ("halfplane", "square"),
            ("free_axioms", "schur_complement"), ("monotone", "schur_complement"),
            ("halfplane", "schur_complement"),
            ("free_axioms", "geometric_mean"), ("monotone", "geometric_mean"),
            ("local_monotone", "geometric_mean"), ("halfplane", "geometric_mean"),
            ("boundary_continuity", "schur_complement"), ("boundary_continuity", "msqrt"),
            ("schur_im_identity", "schur_complement"),
            ("loewner_psd", "x"), ("pick_psd", "x"), ("monotone_1d", "x"),
            ("loewner_psd", "sqrt"), ("pick_psd", "sqrt"), ("monotone_1d", "sqrt"),
            ("loewner_psd", "neg_inverse"), ("pick_psd", "neg_inverse"),
            ("monotone_1d", "neg_inverse"),
            ("loewner_psd", "square"), ("pick_psd", "square"), ("monotone_1d", "square"),
            ("loewner_psd", "cube"), ("pick_psd", "cube"), ("monotone_1d", "cube"),
        ]
        assert [(e["check"], e["function"]) for e in doc["equivalence"]] == [
            *(("equivalence", name) for name in (
                "identity", "msqrt", "neg_inverse", "inverse", "square",
                "schur_complement", "geometric_mean")),
            *(("cross_check_1d", name) for name in ("x", "sqrt", "neg_inverse", "square", "cube")),
        ]

    def test_trials_run_serially_whatever_the_jobs(self, monkeypatch):
        def no_threads(self):
            raise AssertionError("a check started a thread")

        monkeypatch.setattr(threading.Thread, "start", no_threads)
        argv = ("check", "--suite", "all", "--levels", "1..1", "--trials", "2")
        serial = run_cli(*argv, "--jobs", "1")
        assert serial[0] == 1
        assert run_cli(*argv, "--jobs", "8") == serial

    def test_checks_are_looked_up_when_a_unit_runs(self, monkeypatch):
        calls = []
        original = freemono.cli.check_monotone

        def spy(*args, **kwargs):
            calls.append(args[0].name)
            return original(*args, **kwargs)

        monkeypatch.setattr(freemono.cli, "check_monotone", spy)
        code, _, _ = run_cli("check", "--function", "identity", "--suite", "monotone",
                             "--levels", "1..1", "--trials", "2")
        assert code == 0 and calls == ["identity"]
