import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from jacprop import (
    ActivationSpec,
    FormatError,
    LayerDef,
    LayeredModel,
    ModelValidationError,
    NonFiniteError,
    build_report,
    emit_matrix,
    forward,
    jacobian_forward,
    load_model,
    parse_matrix,
    parse_vector,
    report_to_csv,
    report_to_json,
    save_model,
)
from helpers import seeded_model

MINIMAL_DOC = json.dumps(
    {
        "schema_version": "1",
        "input_dim": 2,
        "layers": [{"weights": [[1, 2]], "activation": {"kind": "identity"}}],
    }
)


class TestLoadModel:
    def test_minimal_document(self):
        model = load_model(MINIMAL_DOC)
        assert model.layer_count == 2
        assert model.input_dim == 2
        assert model.layers[0].weights.shape == (1, 2)
        assert model.layers[0].activation.kind == "identity"
        assert model.layers[0].bias_folded is False

    def test_ragged_weights_name_layer_1(self):
        doc = MINIMAL_DOC.replace("[[1, 2]]", "[[1, 2], [3]]")
        with pytest.raises(FormatError, match="layer 1"):
            load_model(doc)

    def test_bias_is_folded_into_weights(self):
        doc = json.dumps(
            {
                "schema_version": "1",
                "input_dim": 2,
                "layers": [
                    {"weights": [[1, 2]], "bias": [0.5], "activation": {"kind": "identity"}}
                ],
            }
        )
        model = load_model(doc)
        assert model.layers[0].bias_folded is True
        assert np.array_equal(model.layers[0].weights, [[1.0, 2.0, 0.5]])

    def test_json_syntax_error_reports_location(self):
        with pytest.raises(FormatError, match=r"line \d+, column \d+"):
            load_model("{\"schema_version\": ,}")

    @pytest.mark.parametrize(
        "mutate,match",
        [
            (lambda d: d.pop("schema_version"), "schema_version"),
            (lambda d: d.update(schema_version="2"), "schema_version"),
            (lambda d: d.update(input_dim=0), "input_dim"),
            (lambda d: d.update(input_dim=True), "input_dim"),
            (lambda d: d.update(layers={}), "layers"),
            (lambda d: d["layers"][0].pop("weights"), "weights"),
            (lambda d: d["layers"][0].update(weights=[[]]), "weights"),
            (lambda d: d["layers"][0].update(weights=[[1, True]]), "numbers"),
            (lambda d: d["layers"][0].update(bias=[1, 2]), "bias length"),
            (lambda d: d["layers"][0].update(bias="x"), "bias"),
            (lambda d: d["layers"][0]["activation"].update(kind="swish"), "activation kind"),
            (lambda d: d["layers"][0]["activation"].update(alpha=0.1), "alpha"),
            (lambda d: d["layers"][0].update(activation={"kind": "leaky_relu", "alpha": "0.5"}), "layer 1: .*alpha"),
            (lambda d: d["layers"][0].update(activation={"kind": "leaky_relu", "alpha": True}), "layer 1: .*alpha"),
            (lambda d: d["layers"][0]["activation"].update(relu_zero_policy="maybe"), "relu_zero_policy"),
            (lambda d: d["layers"][0]["activation"].update(kind=["relu"]), "layer 1: unknown activation kind"),
            (
                lambda d: d["layers"][0]["activation"].update(kind="relu", relu_zero_policy=[]),
                "layer 1: unknown relu_zero_policy",
            ),
        ],
    )
    def test_schema_violations(self, mutate, match):
        doc = json.loads(MINIMAL_DOC)
        mutate(doc)
        with pytest.raises(FormatError, match=match):
            load_model(json.dumps(doc))

    def test_leaky_relu_requires_alpha(self):
        doc = json.loads(MINIMAL_DOC)
        doc["layers"][0]["activation"] = {"kind": "leaky_relu"}
        with pytest.raises(FormatError, match="alpha"):
            load_model(json.dumps(doc))

    @pytest.mark.parametrize("digits", [400, 5000])
    @pytest.mark.parametrize(
        "place,error",
        [("weights", ModelValidationError), ("bias", ModelValidationError), ("alpha", FormatError)],
    )
    def test_integers_beyond_float64_read_as_inf(self, place, error, digits):
        values = {"weights": "1", "bias": "0", "alpha": "0", place: "9" * digits}
        doc = (
            '{"schema_version": "1", "input_dim": 2, "layers": [{"weights": [[%(weights)s, 2]], '
            '"bias": [%(bias)s], "activation": {"kind": "leaky_relu", "alpha": %(alpha)s}}]}' % values
        )
        with pytest.raises(error, match="non-finite|alpha must be finite"):
            load_model(doc)

    def test_policy_round_trips(self):
        doc = json.loads(MINIMAL_DOC)
        doc["layers"][0]["activation"] = {"kind": "relu", "relu_zero_policy": "reject"}
        model = load_model(json.dumps(doc))
        assert model.layers[0].activation.relu_zero_policy == "reject"

    def test_dimension_inconsistency_is_validation_error(self):
        doc = json.loads(MINIMAL_DOC)
        doc["layers"].append({"weights": [[1, 2, 3]], "activation": {"kind": "tanh"}})
        with pytest.raises(ModelValidationError) as excinfo:
            load_model(json.dumps(doc))
        assert any("layer 2" in v for v in excinfo.value.violations)

    def test_strict_parse_rejects_unknown_keys_everywhere(self):
        base = json.loads(save_model(seeded_model(3, (2, 3, 2), ("relu", "softmax"), biased=(1,))))
        spots = [
            lambda d: d.update(comment="hi"),
            lambda d: d["layers"][0].update(name="first"),
            lambda d: d["layers"][1]["activation"].update(temperature=2.0),
        ]
        for mutate in spots:
            doc = json.loads(json.dumps(base))
            mutate(doc)
            with pytest.raises(FormatError, match="unknown key"):
                load_model(json.dumps(doc))

    def test_non_object_document(self):
        with pytest.raises(FormatError):
            load_model("[1, 2, 3]")


class TestSaveModel:
    def test_minimal_round_trip_same_outputs(self):
        model = load_model(MINIMAL_DOC)
        again = load_model(save_model(model))
        x = [0.123456789, -9.87654321]
        assert np.array_equal(forward(model, x)[-1], forward(again, x)[-1])

    @pytest.mark.parametrize("biased", [(), (1,), (1, 2, 3)])
    def test_seeded_round_trip_preserves_jacobians(self, biased):
        model = seeded_model(11, (4, 5, 5, 3), ("tanh", "tanh", "softmax"), biased=biased)
        again = load_model(save_model(model))
        x = np.array([0.1, -0.2, 0.3, -0.4])
        assert np.array_equal(forward(model, x)[-1], forward(again, x)[-1])
        assert np.array_equal(jacobian_forward(model, x).full, jacobian_forward(again, x).full)

    def test_second_save_is_byte_identical(self):
        model = seeded_model(23, (3, 4, 2), ("leaky_relu", "logistic"), biased=(2,))
        first = save_model(model)
        second = save_model(load_model(first))
        assert first == second

    def test_unfolds_bias_on_save(self):
        model = seeded_model(2, (2, 3), ("relu",), biased=(1,))
        doc = json.loads(save_model(model))
        layer = doc["layers"][0]
        assert len(layer["weights"][0]) == 2
        assert len(layer["bias"]) == 3
        assert layer["activation"]["relu_zero_policy"] == "derivative_zero"

    def test_invalid_model_rejected(self):
        model = LayeredModel(
            layers=(LayerDef(weights=[[1.0, 2.0, 3.0]], activation=ActivationSpec("identity")),),
            input_dim=2,
        )
        with pytest.raises(ModelValidationError):
            save_model(model)


class TestMatrixDump:
    def test_example_row(self):
        assert emit_matrix(np.array([[1.0, 0.25]])) == "1,0.25\n"

    def test_parse_vector_with_whitespace(self):
        assert np.array_equal(parse_vector("0.1, -0.2 ,0.3"), [0.1, -0.2, 0.3])

    def test_emit_parse_emit_is_byte_identical(self):
        for seed in range(10):
            model = seeded_model(seed, (3, 5, 4), ("tanh", "softmax"))
            jacobian = jacobian_forward(model, np.array([0.3, -0.6, 0.9])).full
            text = emit_matrix(jacobian)
            assert emit_matrix(parse_matrix(text)) == text
            assert np.array_equal(parse_matrix(text), jacobian)

    def test_malformed_token_names_column(self):
        for token in ("abc", "1_0", "\uff11"):
            with pytest.raises(FormatError, match="malformed numeric token at column 2"):
                parse_vector(f"1.0, {token}, 3.0")

    def test_empty_field_rejected(self):
        with pytest.raises(FormatError, match="column 3"):
            parse_vector("1.0,2.0,")

    def test_non_finite_token_rejected(self):
        with pytest.raises(FormatError, match="column 1"):
            parse_vector("nan,1.0")

    def test_vector_rejects_multiple_lines(self):
        with pytest.raises(FormatError):
            parse_vector("1,2\n3,4")

    def test_matrix_rejects_ragged_rows(self):
        with pytest.raises(FormatError, match="row 2"):
            parse_matrix("1,2\n3\n")

    def test_matrix_round_trips_trailing_newline(self):
        assert np.array_equal(parse_matrix("1,2\n3,4\n"), [[1.0, 2.0], [3.0, 4.0]])

    def test_emit_rejects_non_finite(self):
        with pytest.raises(NonFiniteError):
            emit_matrix(np.array([[np.inf]]))

    def test_optional_header(self):
        text = emit_matrix(np.array([[1.0, 2.0]]), header=["x1", "x2"])
        assert text == "x1,x2\n1,2\n"
        with pytest.raises(ValueError):
            emit_matrix(np.array([[1.0]]), header=["a,b"])

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64), min_size=1, max_size=6))
    def test_values_round_trip_bit_exactly(self, values):
        text = emit_matrix(np.array([values]))
        assert np.array_equal(parse_matrix(text), np.array([values]))


class TestReportSerialization:
    def test_json_shape(self):
        report = build_report([[1.0, 0.0], [0.0, 2.0]])
        doc = json.loads(report_to_json(report, singular_hits=[(2, 1)]))
        assert set(doc) == {
            "feature_scores",
            "output_scores",
            "feature_ranking",
            "output_ranking",
            "singular_hits",
            "same_unit",
        }
        assert doc["feature_ranking"] == [2, 1]
        assert doc["singular_hits"] == [[2, 1]]
        assert doc["same_unit"] is False

    def test_top_k_truncates_rankings_only(self):
        report = build_report(np.eye(3))
        doc = json.loads(report_to_json(report, k=2))
        assert len(doc["feature_ranking"]) == 2
        assert len(doc["feature_scores"]) == 3

    def test_csv_rows(self):
        report = build_report([[1.0, 0.0], [0.0, 2.0]])
        lines = report_to_csv(report).strip().split("\n")
        assert lines == ["feature,2,2", "feature,1,1", "output,2,2", "output,1,1"]
        assert report_to_csv(report, k=1).strip().split("\n") == ["feature,2,2", "output,2,2"]

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected_like_top_k(self, k):
        report = build_report([[1.0, 0.0], [0.0, 2.0]])
        message = f"k must be >= 1, got {k}"
        with pytest.raises(ValueError, match=message):
            report_to_csv(report, k=k)
        with pytest.raises(ValueError, match=message):
            report_to_json(report, k=k)
