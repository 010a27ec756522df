"""Evaluation counters for the one-pass-vs-finite-difference cost comparison."""

from dataclasses import dataclass


@dataclass
class EvalCounter:
    """Counts work done by model evaluations.

    ``model_evals`` increments once per full evaluation of the model
    (a plain forward pass, one finite-difference probe, or one Jacobian
    pass). ``weighted_input_evals`` increments once per weighted-input
    computation W a, i.e. L-1 times per full evaluation. A value pass
    over k instances at once (the finite-difference probes, stacked as
    columns) counts k of each, as k separate passes would.

    Plain integer fields; not safe for concurrent increments. Run
    instrumented operations single-threaded.
    """

    model_evals: int = 0
    weighted_input_evals: int = 0

    def count_model_eval(self, evaluations: int = 1) -> None:
        self.model_evals += evaluations

    def count_weighted_input(self, evaluations: int = 1) -> None:
        self.weighted_input_evals += evaluations

    def reset(self) -> None:
        self.model_evals = 0
        self.weighted_input_evals = 0
