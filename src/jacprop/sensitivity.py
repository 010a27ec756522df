"""Per-instance sensitivity views of a computed Jacobian.

Column norms rank input features by influence per unit change; row norms
rank outputs by how strongly they react to the same perturbation. Row
comparison is most meaningful when all outputs share a unit (e.g. class
probabilities); the caller records that via ``same_unit``, which is
carried but never enforced.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .activations import _as_matrix
from .errors import DimensionMismatchError, NonFiniteError
from .model import _freeze


@dataclass(frozen=True, eq=False)
class SensitivityReport:
    """Scores and rankings derived from one Jacobian, compared and hashed by identity.

    Rankings hold 1-based indices sorted by descending score, ties broken
    by ascending index. ``per_entry`` keeps the raw matrix for drill-down
    or alternative norms. The constructor makes the scores and
    ``per_entry`` read-only, and pickle, ``copy`` and ``deepcopy`` rebuild
    a report through it.
    """

    feature_scores: np.ndarray
    output_scores: np.ndarray
    feature_ranking: tuple[int, ...]
    output_ranking: tuple[int, ...]
    per_entry: np.ndarray
    same_unit: bool = False

    def __post_init__(self):
        for arr in (self.feature_scores, self.output_scores, self.per_entry):
            _freeze(arr)

    def __reduce__(self):
        return type(self), (
            self.feature_scores, self.output_scores, self.feature_ranking, self.output_ranking, self.per_entry,
            self.same_unit,
        )


def _rank(scores: np.ndarray) -> tuple[int, ...]:
    # stable: equal scores keep ascending index order
    return tuple(((-scores).argsort(kind="stable") + 1).tolist())


# below this bound on peak^2 * (longest axis), no square and no sum of squares leaves float64
_PLAIN_LIMIT = 2.0**1020


def _scaled_norms(matrix: np.ndarray, axis: int, name: str) -> np.ndarray:
    """The Euclidean norms along ``axis``, for a matrix whose squares may overflow.

    Each vector is scaled by the smallest power of two above its largest
    magnitude before it is squared, and its norm scaled back. Scaling by a
    power of two is exact, so a score is the plain formula's wherever that
    one neither overflows nor underflows. NonFiniteError names the first
    score beyond float64.
    """
    exponents = np.frexp(np.maximum.reduce(np.abs(matrix), axis=axis, keepdims=True))[1]
    scaled = np.ldexp(matrix, -exponents)
    with np.errstate(over="ignore"):
        scores = np.ldexp(np.sqrt(np.add.reduce(scaled * scaled, axis=axis)), exponents.squeeze(axis))
    beyond = np.flatnonzero(~np.isfinite(scores))
    if beyond.size:
        raise NonFiniteError(f"{name} {beyond[0] + 1} has a sensitivity score beyond float64's range")
    return scores


# a plain score below this may have lost its vector's squares to underflow; from it up, their sum is at least
# 2^-1020, a normal float64
_TINY = 2.0**-510


def build_report(jacobian, same_unit: bool = False) -> SensitivityReport:
    """Column/row Euclidean norms of the Jacobian plus deterministic rankings.

    A vector or a scalar is one row. Raises
    :class:`DimensionMismatchError` for an array with more than 2
    dimensions or a matrix with no entries, and
    :class:`NonFiniteError` for one with a NaN or an infinity, or with a
    score beyond float64's range, naming the axis and the index (features
    first). Each axis takes the same steps: the plain norms, or scaled
    ones where a square could leave float64, then its ranking. A score
    below 2^-510 is then a scaled norm, so it does not underflow where the
    squares of its vector's entries do, and the axis is ranked again.
    ``same_unit`` must be a bool (ValueError otherwise), and complex
    entries raise ValueError.
    """
    if not isinstance(same_unit, (bool, np.bool_)):
        raise ValueError(f"same_unit must be a bool, got {same_unit!r}")
    matrix = _as_matrix(jacobian, "jacobian")
    if matrix.size == 0:
        raise DimensionMismatchError(f"jacobian of shape {matrix.shape} has no entries to rank")
    peak = float(np.maximum.reduce(np.abs(matrix), axis=None))  # NaN or inf when an entry is
    if not math.isfinite(peak):
        raise NonFiniteError("jacobian contains non-finite entries")
    # np.linalg.norm(matrix, axis=k) is sqrt of the sum of squares along k, and this squares once for both axes
    squares = matrix * matrix if peak * peak * max(matrix.shape) < _PLAIN_LIMIT else None
    axes = []
    for axis, name in ((0, "feature"), (1, "output")):
        scores = _scaled_norms(matrix, axis, name) if squares is None else np.sqrt(np.add.reduce(squares, axis=axis))
        ranking = _rank(scores)
        # a ranking ends at its smallest score: one lookup tells whether any score is that small
        if scores[ranking[-1] - 1] < _TINY:
            low = scores < _TINY
            # the score vectors run across the other axis; all-zero ones score +0 scaled, as they do plain
            if np.count_nonzero(matrix.compress(low, axis=1 - axis)):
                scores = np.where(low, _scaled_norms(matrix, axis, name), scores)
                ranking = _rank(scores)
        axes.append((scores, ranking))
    (feature_scores, feature_ranking), (output_scores, output_ranking) = axes
    return SensitivityReport(
        feature_scores=feature_scores,
        output_scores=output_scores,
        feature_ranking=feature_ranking,
        output_ranking=output_ranking,
        per_entry=matrix.copy(),
        same_unit=bool(same_unit),
    )


def _checked_k(k) -> int:
    if isinstance(k, bool) or not isinstance(k, numbers.Integral):
        raise ValueError(f"k must be an integer, got {k!r}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return int(k)


def top_k(report: SensitivityReport, axis: str, k: int) -> list[tuple[int, float]]:
    """First min(k, axis length) (index, score) pairs of the chosen ranking."""
    if axis == "feature":
        ranking, scores = report.feature_ranking, report.feature_scores
    elif axis == "output":
        ranking, scores = report.output_ranking, report.output_scores
    else:
        raise ValueError(f"axis must be 'feature' or 'output', got {axis!r}")
    return [(index, float(scores[index - 1])) for index in ranking[: _checked_k(k)]]
