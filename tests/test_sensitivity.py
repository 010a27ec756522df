import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from jacprop import DimensionMismatchError, NonFiniteError, build_report, emit_matrix, jacobian_forward, top_k
from helpers import awkward_matrices, clones, seeded_model, spec_seed7_model


class TestBuildReport:
    def test_diagonal_matrix(self):
        report = build_report([[1.0, 0.0], [0.0, 2.0]])
        assert report.feature_scores == pytest.approx([1.0, 2.0])
        assert report.feature_ranking == (2, 1)
        assert report.output_scores == pytest.approx([1.0, 2.0])
        assert report.output_ranking == (2, 1)

    def test_zero_matrix_tie_break(self):
        report = build_report(np.zeros((3, 4)))
        assert np.array_equal(report.feature_scores, np.zeros(4))
        assert report.feature_ranking == (1, 2, 3, 4)
        assert report.output_ranking == (1, 2, 3)

    def test_per_entry_keeps_raw_matrix(self):
        matrix = np.array([[1.0, -2.0], [0.5, 0.25]])
        report = build_report(matrix)
        assert np.array_equal(report.per_entry, matrix)

    def test_seed7_ranking_matches_csv_recompute(self):
        # independent pass: dump the matrix to CSV, recompute column norms
        # with stdlib float/math only, and re-derive the ranking
        model, x = spec_seed7_model()
        jacobian = jacobian_forward(model, x).full
        rows = [
            [float(tok) for tok in line.split(",")]
            for line in emit_matrix(jacobian).strip().split("\n")
        ]
        m = len(rows[0])
        norms = [math.sqrt(sum(row[j] ** 2 for row in rows)) for j in range(m)]
        ranking = tuple(
            j + 1 for j in sorted(range(m), key=lambda j: (-norms[j], j))
        )
        report = build_report(jacobian)
        assert report.feature_ranking == ranking
        assert report.feature_scores == pytest.approx(norms, abs=1e-12)

    def test_constructed_ties_resolve_by_index(self):
        matrix = np.array([[3.0, 3.0, 1.0], [0.0, 0.0, 0.0]])
        report = build_report(matrix)
        assert report.feature_ranking == (1, 2, 3)
        tied_rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        assert build_report(tied_rows).output_ranking == (1, 2, 3)

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            build_report([[np.nan]])

    @pytest.mark.parametrize("matrix,shape", [(np.zeros((0, 3)), r"\(0, 3\)"), (np.zeros((2, 0)), r"\(2, 0\)"), ([], r"\(1, 0\)")])
    def test_empty_matrix_rejected(self, matrix, shape):
        with pytest.raises(DimensionMismatchError, match=f"^jacobian of shape {shape} has no entries to rank$"):
            build_report(matrix)

    def test_more_than_two_dimensions_rejected(self):
        with pytest.raises(DimensionMismatchError, match=r"^jacobian must have at most 2 dimensions, got shape \(1, 1, 2\)$"):
            build_report(np.ones((1, 1, 2)))

    def test_same_unit_recorded(self):
        assert build_report([[1.0]]).same_unit is False
        assert build_report([[1.0]], same_unit=True).same_unit is True
        assert build_report([[1.0]], same_unit=np.bool_(True)).same_unit is True
        assert build_report([[1.0]], same_unit=np.False_).same_unit is False
        for value in ("false", "true", 0, 1, None, 1.0, [True]):
            with pytest.raises(ValueError, match="^same_unit must be a bool, got "):
                build_report([[1.0]], same_unit=value)

    def test_reports_compare_and_hash_by_identity(self):
        # a generated __eq__ over the score arrays would raise "truth value ... is ambiguous", and its __hash__ TypeError
        matrix = np.array([[1.0, -2.0], [0.5, 0.25]])
        first, second = build_report(matrix), build_report(matrix)
        assert first == first and first != second
        assert hash(first) == hash(first) and len({first, second}) == 2

    def test_copies_keep_read_only_arrays(self):
        folded = seeded_model(3, (3, 4, 2), ("leaky_relu", "softmax"), biased=(1, 2)), [0.5, -0.25, 1.0]
        for model, x in (spec_seed7_model(), folded):
            report = build_report(jacobian_forward(model, x).full, same_unit=True)
            for clone in clones(report):
                arrays = ("feature_scores", "output_scores", "per_entry")
                assert not any(getattr(clone, name).flags.writeable for name in arrays)
                assert [getattr(clone, name).tobytes() for name in arrays] == [
                    getattr(report, name).tobytes() for name in arrays
                ]
                assert (clone.feature_ranking, clone.output_ranking, clone.same_unit) == (
                    report.feature_ranking, report.output_ranking, True
                )

    def test_scores_are_non_negative(self):
        rng = np.random.default_rng(2)
        report = build_report(rng.normal(size=(5, 7)))
        assert np.all(report.feature_scores >= 0)
        assert np.all(report.output_scores >= 0)
        assert sorted(report.feature_ranking) == list(range(1, 8))
        assert sorted(report.output_ranking) == list(range(1, 6))


class TestScoresAreNumpysNorm:
    def test_scores_are_linalg_norm_bit_for_bit(self):
        # from 2^-510 up; below it a nonzero vector's squares may have underflowed, and its score is the
        # scaled norm, which math.hypot confirms
        tiny = moved = 0
        for matrix in awkward_matrices(1):
            report = build_report(matrix)
            for scores, axis in ((report.feature_scores, 0), (report.output_scores, 1)):
                vectors = matrix.T if axis == 0 else matrix
                for score, norm, vector in zip(scores, np.linalg.norm(matrix, axis=axis), vectors):
                    if norm >= 2.0**-510:
                        assert score.tobytes() == norm.tobytes()
                    else:
                        assert abs(score - math.hypot(*vector)) <= 1e-15 * math.hypot(*vector)
                        tiny += 1
                        moved += score.tobytes() != norm.tobytes()
        assert (tiny, moved) == (72, 51)

    def test_squares_below_float64_keep_their_scores_and_ranking(self):
        # 1e-200 squared underflows to 0; the scores are still the norms
        report = build_report([[1e-200, 3e-200], [0.0, 0.0]])
        assert report.feature_scores.tolist() == [1e-200, 3e-200]
        assert report.feature_ranking == (2, 1)
        assert report.output_scores[0] == pytest.approx(math.sqrt(10.0) * 1e-200, rel=1e-15, abs=0.0)
        assert report.output_scores[1] == 0.0
        assert report.output_ranking == (1, 2)

    def test_squares_beyond_float64_keep_their_scores_and_ranking(self):
        # 1e200 squared overflows; the scores are still the norms, without a numpy warning
        report = build_report([[1e200, 3e200], [0.0, 2.0]])
        assert report.feature_scores.tolist() == [1e200, 3e200]
        assert report.feature_ranking == (2, 1)
        assert report.output_scores == pytest.approx([math.sqrt(10.0) * 1e200, 2.0], rel=1e-15)
        assert report.output_ranking == (1, 2)

    def test_power_of_two_scaling_keeps_the_bits(self):
        # M moved by a power of two up to a largest entry near 2^1015, whose square overflows: its
        # scores are M's norms moved by the same power, exactly
        rng = np.random.default_rng(4)
        for _ in range(200):
            shape = tuple(int(n) for n in rng.integers(1, 8, size=2))
            matrix = rng.uniform(-1.0, 1.0, size=shape) * 10.0 ** rng.integers(-100, 101, size=shape)
            shift = 1015 - int(np.frexp(np.abs(matrix).max())[1])
            report = build_report(np.ldexp(matrix, shift))
            for scores, axis in ((report.feature_scores, 0), (report.output_scores, 1)):
                assert scores.tobytes() == np.ldexp(np.linalg.norm(matrix, axis=axis), shift).tobytes()

    @pytest.mark.parametrize(
        "matrix,named",
        [([[1.7e308], [1.7e308]], "feature 1"), ([[1.0, 1.7e308], [1.0, 1.7e308]], "feature 2"), ([[1.7e308, 1.7e308]], "output 1")],
    )
    def test_a_score_beyond_float64_is_named(self, matrix, named):
        with pytest.raises(NonFiniteError, match=f"^{named} has a sensitivity score beyond float64's range$"):
            build_report(matrix)

    def test_the_bit_check_sees_another_summation_order(self):
        # summing the squares bottom-up gives the same scores to within rounding, not to the bit
        matrices = awkward_matrices(1)
        assert any(
            np.sqrt((m * m)[::-1].sum(axis=0)).tobytes() != np.linalg.norm(m, axis=0).tobytes() for m in matrices
        )


class TestTopK:
    def test_single_best_feature(self):
        report = build_report([[1.0, 0.0], [0.0, 2.0]])
        assert top_k(report, "feature", 1) == [(2, pytest.approx(2.0))]

    def test_k_larger_than_axis_is_clamped(self):
        report = build_report([[1.0, 0.0], [0.0, 2.0]])
        assert [i for i, _ in top_k(report, "feature", 99)] == [2, 1]

    def test_prefix_property(self):
        model, x = spec_seed7_model()
        report = build_report(jacobian_forward(model, x).full)
        assert [i for i, _ in top_k(report, "feature", 3)] == list(report.feature_ranking[:3])
        assert [i for i, _ in top_k(report, "output", 2)] == list(report.output_ranking[:2])

    def test_full_k_reproduces_ranking(self):
        rng = np.random.default_rng(5)
        report = build_report(rng.normal(size=(4, 6)))
        assert [i for i, _ in top_k(report, "feature", 6)] == list(report.feature_ranking)

    def test_invalid_axis_and_k(self):
        report = build_report([[1.0]])
        with pytest.raises(ValueError):
            top_k(report, "rows", 1)
        with pytest.raises(ValueError):
            top_k(report, "feature", 0)
        for k in (2.5, "2", True):
            with pytest.raises(ValueError, match="k must be an integer"):
                top_k(report, "feature", k)
        assert top_k(report, "feature", np.int64(1)) == top_k(report, "feature", 1)


class TestInvariances:
    @given(seed=st.integers(0, 10_000))
    def test_column_permutation_relabels_features(self, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.normal(size=(3, 5))
        perm = rng.permutation(5)
        base = build_report(matrix)
        permuted = build_report(matrix[:, perm])
        assert permuted.feature_scores == pytest.approx(base.feature_scores[perm])
        # the top feature maps through the permutation (ignoring exact ties,
        # which have measure zero for gaussian draws)
        top_base = base.feature_ranking[0] - 1
        top_perm = permuted.feature_ranking[0] - 1
        assert perm[top_perm] == top_base

    @given(seed=st.integers(0, 10_000), scale=st.floats(1e-3, 1e3))
    def test_positive_scaling_preserves_rankings(self, seed, scale):
        rng = np.random.default_rng(seed)
        matrix = rng.normal(size=(4, 4))
        base = build_report(matrix)
        scaled = build_report(scale * matrix)
        assert scaled.feature_ranking == base.feature_ranking
        assert scaled.output_ranking == base.output_ranking
        assert scaled.feature_scores == pytest.approx(scale * base.feature_scores, rel=1e-9)
