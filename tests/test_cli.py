import contextlib
import importlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import freemono
import freemono.cli
from freemono.cli import main
from freemono.opsys import builtin_system, point_from_json, system_to_json
from freemono.report import REPORT_SCHEMA
from freemono.verifiers import pair_margin
from freemono.freeexpr import catalog


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

    def test_non_finite_point_file_is_usage_error(self, tmp_path):
        path = tmp_path / "inf-point.json"
        path.write_text('{"system": "scalar", "level": 1, '
                        '"coeffs": [{"n": 1, "entries": [[[1e999, 0.0]]]}]}')
        code, _, err = run_cli("eval", "--function", "identity", "--point", str(path))
        assert code == 2 and "finite" in err

    def test_non_finite_system_file_is_usage_error(self, tmp_path):
        path = tmp_path / "sys.json"
        doc = system_to_json(builtin_system("scalar"))
        path.write_text(json.dumps(doc).replace("1.0", "1e999", 1))
        code, _, err = run_cli("parse", "--expr", "X1", "--system", str(path))
        assert code == 2 and "finite" in err

    def test_nan_margin_is_numerical_failure(self, monkeypatch):
        monkeypatch.setattr(freemono.verifiers, "pair_margin", lambda f, a, b: float("nan"))
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


class TestParseCommand:
    def test_schur_expression(self):
        code, out, _ = run_cli("parse", "--expr", "X[1,1] - X[1,2]*inv(X[2,2])*X[2,1]",
                               "--system", "block2")
        assert code == 0
        doc = json.loads(out)
        assert doc["canonical"] == "X[1,1] - X[1,2] * inv(X[2,2]) * X[2,1]"
        assert doc["ast"]["node"] == "sub"

    def test_syntax_error(self):
        code, _, err = run_cli("parse", "--expr", "X[1,", "--system", "block2")
        assert code == 2
        assert "offset 4" in err


class TestCatalogCommand:
    def test_lists_catalog(self):
        code, out, _ = run_cli("catalog")
        assert code == 0
        doc = json.loads(out)
        names = [f["name"] for f in doc["functions"]]
        assert "schur_complement" in names and "geometric_mean" in names


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
        assert abs(pair_margin(square, a, b) - witness["margin"]) <= 1e-10

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
        sys_doc = system_to_json(builtin_system("block2"))
        sys_doc["name"] = "my_block2"
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(sys_doc))
        code, out, _ = run_cli("parse", "--expr", "X[2,1]", "--system", str(path))
        assert code == 0

    def test_expr_check_with_named_system(self, tmp_path):
        code, _, _ = run_cli("check", "--expr", "X1 + X2", "--system", "diagonal(2)",
                             "--suite", "monotone", "--levels", "1..2",
                             "--trials", "20", "--seed", "4",
                             "--out", str(tmp_path / "r.json"))
        assert code == 0


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

    def test_benchmark_names_resolve(self):
        perfbench = Path(__file__).resolve().parent.parent / "perfbench"
        modules = {}
        for name in ("spans", "workload"):
            spec = importlib.util.spec_from_file_location(f"_bench_{name}", perfbench / f"{name}.py")
            modules[name] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(modules[name])
        for layer, names in modules["spans"].LAYERS.items():
            for name in names:
                owner = importlib.import_module(f"freemono.{layer}")
                for attr in name.split("."):
                    owner = getattr(owner, attr)
                assert callable(owner), f"{layer}.{name}"
        for name in modules["workload"].CLI_CHECKS:
            assert callable(getattr(freemono.cli, name)), name
