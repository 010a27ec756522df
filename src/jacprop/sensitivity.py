"""Per-instance sensitivity views of a computed Jacobian.

Column norms rank input features by influence per unit change; row norms
rank outputs by how strongly they react to the same perturbation. Row
comparison is most meaningful when all outputs share a unit (e.g. class
probabilities); the caller records that via ``same_unit``, which is
carried but never enforced.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError
from .model import _freeze


@dataclass(frozen=True)
class SensitivityReport:
    """Scores and rankings derived from one Jacobian.

    Rankings hold 1-based indices sorted by descending score, ties broken
    by ascending index. ``per_entry`` keeps the raw matrix for drill-down
    or alternative norms.
    """

    feature_scores: np.ndarray
    output_scores: np.ndarray
    feature_ranking: tuple[int, ...]
    output_ranking: tuple[int, ...]
    per_entry: np.ndarray
    same_unit: bool = False


def _rank(scores: np.ndarray) -> tuple[int, ...]:
    # stable: equal scores keep ascending index order
    return tuple((np.argsort(-scores, kind="stable") + 1).tolist())


def build_report(jacobian, same_unit: bool = False) -> SensitivityReport:
    """Column/row Euclidean norms of the Jacobian plus deterministic rankings."""
    matrix = np.atleast_2d(np.asarray(jacobian, dtype=np.float64))
    if not np.all(np.isfinite(matrix)):
        raise NonFiniteError("jacobian contains non-finite entries")
    feature_scores = np.linalg.norm(matrix, axis=0)
    output_scores = np.linalg.norm(matrix, axis=1)
    return SensitivityReport(
        feature_scores=_freeze(feature_scores),
        output_scores=_freeze(output_scores),
        feature_ranking=_rank(feature_scores),
        output_ranking=_rank(output_scores),
        per_entry=_freeze(matrix.copy()),
        same_unit=bool(same_unit),
    )


def _checked_k(k) -> int:
    k = int(k)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return k


def top_k(report: SensitivityReport, axis: str, k: int) -> list[tuple[int, float]]:
    """First min(k, axis length) (index, score) pairs of the chosen ranking."""
    if axis == "feature":
        ranking, scores = report.feature_ranking, report.feature_scores
    elif axis == "output":
        ranking, scores = report.output_ranking, report.output_scores
    else:
        raise ValueError(f"axis must be 'feature' or 'output', got {axis!r}")
    return [(index, float(scores[index - 1])) for index in ranking[: _checked_k(k)]]
