"""The command-line front end, run in process through ``helpers.run_cli``: exit codes, stdout and stderr."""

import json

import numpy as np
import pytest

from jacprop import parse_matrix, save_model
from helpers import INVALID, MINIMAL, RELU_EYE, overflowing_activation_model, run_cli, seeded_model

WIDE3 = '{"schema_version": "1", "input_dim": 3, "layers": [{"weights": [[1, 1, 1]], "activation": {"kind": "tanh"}}]}'
OVERFLOW = '{"schema_version": "1", "input_dim": 1, "layers": [%s, %s]}' % (
    ('{"weights": [[1e308]], "activation": {"kind": "identity"}}',) * 2
)

# one identity layer: check's central probes at 0 with step 1 give +-1.7e308, a difference beyond float64
WIDE_STEP = '{"schema_version": "1", "input_dim": 1, "layers": [{"weights": [[1.7e308]], "activation": {"kind": "identity"}}]}'
IDENTITY = '{"schema_version": "1", "input_dim": 1, "layers": [{"weights": [[1]], "activation": {"kind": "identity"}}]}'
# 2->1->1->1 at (1e-200, 0): the Jacobian is 1e200 in each column, its prefix J[3] is 1e400
PREFIX_OVERFLOW = '{"schema_version": "1", "input_dim": 2, "layers": [%s, %s, %s]}' % tuple(
    '{"weights": %s, "activation": {"kind": "identity"}}' % w for w in ("[[1e200, 1e200]]", "[[1e200]]", "[[1e-200]]")
)


@pytest.fixture
def models(tmp_path):
    paths = {}
    for name, doc in (
        ("minimal", MINIMAL),
        ("invalid", INVALID),
        ("relu", RELU_EYE),
        ("wide3", WIDE3),
        ("wide_step", WIDE_STEP),
        ("identity", IDENTITY),
        ("prefix_overflow", PREFIX_OVERFLOW),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(doc)
        paths[name] = str(path)
    smooth = tmp_path / "smooth.json"
    smooth.write_text(save_model(seeded_model(7, (4, 5, 5, 3), ("tanh", "tanh", "softmax"))))
    paths["smooth"] = str(smooth)
    return paths


class TestValidate:
    def test_valid_model(self, models):
        result = run_cli("validate", "--model", models["minimal"])
        assert result.returncode == 0
        assert result.stdout == "OK\n"

    def test_invalid_model_lists_violations(self, models):
        result = run_cli("validate", "--model", models["invalid"])
        assert result.returncode == 2
        assert "layer 1" in result.stdout

    def test_repeated_key(self, tmp_path):
        path = tmp_path / "repeated.json"
        path.write_text(MINIMAL.replace('"input_dim": 2', '"input_dim": 2, "input_dim": 3'))
        result = run_cli("validate", "--model", str(path))
        assert (result.returncode, result.stdout) == (1, "")
        assert "repeated key 'input_dim'" in result.stderr

    def test_unparseable_model(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        result = run_cli("validate", "--model", str(path))
        assert result.returncode == 1
        assert result.stdout == ""
        assert "error" in result.stderr


class TestModelReadErrors:
    """The errors of reading a model document: the same on a first run and on the run after it."""

    @staticmethod
    def assert_twice(expected, *args, cwd=None):
        for run in ("first", "second"):
            result = run_cli(*args, cwd=cwd)
            assert (result.returncode, result.stdout, result.stderr) == expected, run

    def test_non_utf8_document(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_bytes(b"\xff" + MINIMAL.encode())
        message = f"error: {path}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
        self.assert_twice((1, "", message), "validate", "--model", str(path))

    def test_directory(self, tmp_path):
        self.assert_twice((1, "", "error: [Errno 21] Is a directory: '.'\n"), "validate", "--model", ".", cwd=tmp_path)

    def test_lone_carriage_returns_are_newlines(self, tmp_path):
        # as text-mode open translates them; a plain bytes.decode would give line 1, column 53
        path = tmp_path / "m.json"
        path.write_bytes(b'{\r"schema_version":"1",\r  "input_dim":2,\r  "layers" [\r}')
        message = "error: JSON syntax error at line 4, column 12: Expecting ':' delimiter\n"
        self.assert_twice((1, "", message), "validate", "--model", str(path))


class TestForward:
    def test_prints_output_vector(self, models):
        result = run_cli("forward", "--model", models["minimal"], "--input", "1,1")
        assert result.returncode == 0
        assert result.stdout == "3\n"

    def test_verbose_activations_go_to_stderr(self, models):
        result = run_cli("forward", "--model", models["minimal"], "--input", "1,1", "--verbose")
        assert result.stdout == "3\n"
        assert "a[1]" in result.stderr and "a[2]" in result.stderr

    def test_json_format(self, models):
        result = run_cli("forward", "--model", models["minimal"], "--input", "1,1", "--format", "json")
        assert json.loads(result.stdout) == {"output": [3.0]}

    def test_non_finite_activation_is_an_error(self, tmp_path):
        path = tmp_path / "leaky.json"
        path.write_text(save_model(overflowing_activation_model()))
        for command in ("forward", "check"):
            result = run_cli(command, "--model", str(path), "--input=-1e10")
            expected = (1, "", "error: non-finite activation at layer 2\n")
            assert (result.returncode, result.stdout, result.stderr) == expected, command


class TestJacobian:
    def test_minimal_identity_model(self, models):
        result = run_cli("jacobian", "--model", models["minimal"], "--input", "1,1")
        assert result.returncode == 0
        assert result.stdout == "1,2\n"

    def test_layer_1_is_identity_matrix(self, models):
        result = run_cli("jacobian", "--model", models["wide3"], "--input", "0.5,0.5,0.5", "--layer", "1")
        assert result.returncode == 0
        assert np.array_equal(parse_matrix(result.stdout), np.eye(3))

    def test_final_layer_flag_is_byte_identical(self, models):
        plain = run_cli("jacobian", "--model", models["smooth"], "--input", "0.1,-0.2,0.3,-0.4")
        last = run_cli(
            "jacobian", "--model", models["smooth"], "--input", "0.1,-0.2,0.3,-0.4", "--layer", "4"
        )
        assert plain.returncode == last.returncode == 0
        assert plain.stdout == last.stdout

    def test_layer_out_of_range(self, models):
        result = run_cli("jacobian", "--model", models["minimal"], "--input", "1,1", "--layer", "9")
        assert result.returncode == 1

    def test_layer_checked_before_the_pass(self, models):
        # the pass would stop at a kink (exit 3); the range check comes first
        result = run_cli(
            "jacobian", "--model", models["relu"], "--input", "0,5", "--strict-singularities", "--layer", "9"
        )
        assert result.returncode == 1
        assert result.stderr == "error: --layer: layer must be an integer in [1, 2], got 9\n"

    def test_singular_hit_warns_on_stderr(self, models):
        result = run_cli("jacobian", "--model", models["relu"], "--input", "0,5")
        assert result.returncode == 0
        assert np.array_equal(parse_matrix(result.stdout), np.diag([0.0, 1.0]))
        assert "layer 2, coordinate 1" in result.stderr

    def test_strict_singularities_exit_3(self, models):
        result = run_cli(
            "jacobian", "--model", models["relu"], "--input", "0,5", "--strict-singularities"
        )
        assert result.returncode == 3
        assert result.stdout == ""

    def test_overflowing_prefix_fails_only_where_read(self, models):
        full = run_cli("jacobian", "--model", models["prefix_overflow"], "--input", "1e-200,0")
        assert full.returncode == 0
        assert full.stderr == ""
        assert np.allclose(parse_matrix(full.stdout), [[1e200, 1e200]], rtol=1e-15, atol=0)
        prefix = run_cli("jacobian", "--model", models["prefix_overflow"], "--input", "1e-200,0", "--layer", "3")
        assert prefix.returncode == 1
        assert prefix.stdout == ""
        assert prefix.stderr == "error: non-finite Jacobian entries at layer 3\n"

    def test_json_format_carries_hits(self, models):
        result = run_cli("jacobian", "--model", models["relu"], "--input", "0,5", "--format", "json")
        doc = json.loads(result.stdout)
        assert doc["singular_hits"] == [[2, 1]]
        assert doc["jacobian"] == [[0.0, 0.0], [0.0, 1.0]]


class TestCheck:
    def test_within_tolerance_exits_0(self, models):
        result = run_cli("check", "--model", models["smooth"], "--input", "0.1,-0.2,0.3,-0.4")
        assert result.returncode == 0
        row = result.stdout.strip().split(",")
        assert len(row) == 5
        assert float(row[0]) < 1e-5
        assert row[4] == "true"

    def test_tolerance_failure_exits_4(self, models):
        result = run_cli(
            "check",
            "--model", models["smooth"],
            "--input", "0.1,-0.2,0.3,-0.4",
            "--tolerance", "1e-300",
        )
        assert result.returncode == 4
        assert result.stdout.strip().split(",")[4] == "false"

    def test_json_format(self, models):
        result = run_cli(
            "check", "--model", models["smooth"], "--input", "0.1,-0.2,0.3,-0.4",
            "--format", "json",
        )
        doc = json.loads(result.stdout)
        assert doc["within_tolerance"] is True
        assert len(doc["argmax_location"]) == 2

    def test_forward_scheme_flag(self, models):
        result = run_cli(
            "check", "--model", models["smooth"], "--input", "0.1,-0.2,0.3,-0.4",
            "--fd-scheme", "forward", "--fd-step", "1e-7", "--tolerance", "1e-4",
        )
        assert result.returncode == 0

    def test_non_finite_estimate_is_an_error(self, models):
        result = run_cli("check", "--model", models["wide_step"], "--input", "0", "--fd-step", "1")
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == "error: non-finite finite-difference estimate in column 1\n"

    def test_rounded_probe_spacing_is_exact(self, models):
        # 1e4 +- 1e-12 is not 2e-12 apart; dividing by the real spacing gives the exact slope 1
        result = run_cli("check", "--model", models["identity"], "--input", "10000", "--fd-step", "1e-12")
        assert (result.returncode, result.stdout, result.stderr) == (0, "0,0,1,1,true\n", "")

    def test_vanishing_step_is_a_usage_error(self, models):
        result = run_cli("check", "--model", models["identity"], "--input", "1", "--fd-step", "1e-17")
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == "error: --fd-step: step 1e-17 vanishes in rounding at input coordinate 1 (value 1.0)\n"

    def test_bad_step_rejected(self, models):
        result = run_cli(
            "check", "--model", models["smooth"], "--input", "0.1,-0.2,0.3,-0.4",
            "--fd-step", "0",
        )
        assert result.returncode == 1


class TestReport:
    def test_csv_rows(self, models):
        result = run_cli("report", "--model", models["minimal"], "--input", "1,1")
        assert result.returncode == 0
        assert result.stdout == "feature,2,2\nfeature,1,1\noutput,1,2.2360679774997898\n"

    def test_top_k(self, models):
        result = run_cli("report", "--model", models["minimal"], "--input", "1,1", "--top-k", "1")
        lines = result.stdout.strip().split("\n")
        assert lines == ["feature,2,2", "output,1,2.2360679774997898"]

    def test_top_k_below_one_rejected(self, models):
        result = run_cli("report", "--model", models["minimal"], "--input", "1,1", "--top-k", "0")
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == "error: --top-k: k must be >= 1, got 0\n"

    def test_json_format_has_contract_keys(self, models):
        result = run_cli(
            "report", "--model", models["smooth"], "--input", "0.1,-0.2,0.3,-0.4",
            "--format", "json",
        )
        doc = json.loads(result.stdout)
        assert set(doc) == {
            "feature_scores", "output_scores", "feature_ranking",
            "output_ranking", "singular_hits", "same_unit",
        }


class TestInputHandling:
    def test_input_from_file(self, models, tmp_path):
        vec = tmp_path / "x.csv"
        vec.write_text("1,1\n")
        result = run_cli("forward", "--model", models["minimal"], "--input", f"@{vec}")
        assert result.returncode == 0
        assert result.stdout == "3\n"

    def test_missing_input_file(self, models, tmp_path):
        result = run_cli("forward", "--model", models["minimal"], "--input", f"@{tmp_path}/nope.csv")
        assert result.returncode == 1

    def test_repeated_input_is_ambiguous(self, models):
        result = run_cli("forward", "--model", models["minimal"], "--input", "1,1", "--input", "2,2")
        assert result.returncode == 1
        assert "ambiguous" in result.stderr

    def test_malformed_input_token(self, models):
        result = run_cli("forward", "--model", models["minimal"], "--input", "1,zap")
        assert result.returncode == 1

    def test_wrong_input_length(self, models):
        result = run_cli("forward", "--model", models["minimal"], "--input", "1,2,3")
        assert result.returncode == 1

    def test_missing_model_file(self, tmp_path):
        result = run_cli("forward", "--model", f"{tmp_path}/ghost.json", "--input", "1,1")
        assert result.returncode == 1

    @pytest.mark.parametrize("command", ["forward", "jacobian", "check", "report"])
    def test_missing_input_is_named_before_the_model_is_read(self, command, tmp_path):
        result = run_cli(command, "--model", f"{tmp_path}/ghost.json")
        assert result.returncode == 1
        assert result.stderr == "error: --input is required\n"
        repeated = run_cli(command, "--model", f"{tmp_path}/ghost.json", "--input", "1,1", "--input", "2,2")
        assert repeated.returncode == 1
        assert repeated.stderr == "error: --input given more than once; ambiguous instance\n"

    def test_invalid_model_exits_2(self, models):
        result = run_cli("jacobian", "--model", models["invalid"], "--input", "1,1")
        assert result.returncode == 2

    def test_usage_error_exits_1(self):
        result = run_cli("no-such-command")
        assert result.returncode == 1

    @pytest.mark.parametrize(
        "doc,vector,extra,code,named",
        [
            (b"\xff" + MINIMAL.encode(), b"1,1", (), 1, "m.json"),
            (MINIMAL.encode(), b"\xff1,1", (), 1, "x.csv"),
            (MINIMAL.encode(), b"1,1", ("--fd-step", "inf"), 1, None),
            (MINIMAL.encode(), b"1,1", ("--tolerance", "-1"), 1, None),
            (MINIMAL.encode(), b"1,1", ("--tolerance", "nan"), 1, None),
            (MINIMAL.replace('"identity"', '["relu"]').encode(), b"1,1", (), 1, None),
            (MINIMAL.replace('"identity"', '"relu", "relu_zero_policy": []').encode(), b"1,1", (), 1, None),
            (MINIMAL.replace("[[1, 2]]", f"[[{'9' * 400}, 2]]").encode(), b"1,1", (), 2, None),
            (OVERFLOW.encode(), b"1", (), 1, None),
        ],
        ids=[
            "non-utf8-model", "non-utf8-input-file", "fd-step-inf", "tolerance-negative", "tolerance-nan",
            "kind-list", "policy-list", "huge-integer-weight", "overflow",
        ],
    )
    def test_input_faults_are_error_lines_not_tracebacks(self, tmp_path, doc, vector, extra, code, named):
        model, vec = tmp_path / "m.json", tmp_path / "x.csv"
        model.write_bytes(doc)
        vec.write_bytes(vector)
        result = run_cli("check", "--model", str(model), "--input", f"@{vec}", *extra)
        assert result.returncode == code
        assert result.stdout == ""
        assert result.stderr.startswith("error:")
        assert "Traceback" not in result.stderr
        if named:
            assert str(tmp_path / named) in result.stderr


class TestStreamPurity:
    def test_csv_stdout_is_rectangular_for_all_successful_runs(self, models):
        invocations = [
            ("forward", "--model", models["minimal"], "--input", "1,1"),
            ("forward", "--model", models["minimal"], "--input", "1,1", "--verbose"),
            ("jacobian", "--model", models["smooth"], "--input", "0.1,-0.2,0.3,-0.4"),
            ("jacobian", "--model", models["smooth"], "--input", "0.1,-0.2,0.3,-0.4", "--layer", "2"),
            ("jacobian", "--model", models["relu"], "--input", "0,5"),
            ("check", "--model", models["smooth"], "--input", "0.1,-0.2,0.3,-0.4"),
            ("report", "--model", models["smooth"], "--input", "0.1,-0.2,0.3,-0.4"),
            ("validate", "--model", models["minimal"]),
        ]
        for invocation in invocations:
            result = run_cli(*invocation)
            assert result.returncode == 0, invocation
            rows = [line.split(",") for line in result.stdout.strip("\n").split("\n")]
            assert len({len(r) for r in rows}) == 1, invocation
