"""Exception types shared across the package."""

from __future__ import annotations


class SnlError(Exception):
    """Base class for package errors."""


class EnergyEvaluationError(SnlError):
    """An energy evaluation produced a non-finite value."""

    def __init__(self, index: int, value: float, where: str):
        self.index = int(index)
        self.value = float(value)
        super().__init__(f"non-finite energy {value!r} at {where} index {index}")


class DegenerateProposalError(SnlError):
    """All importance weights underflowed to zero."""


class NonFiniteObjectiveError(SnlError):
    """An objective evaluated to a non-finite value.

    ``term`` names the offending piece ("data" or "normalizer").
    """

    def __init__(self, term: str, value: float):
        self.term = term
        self.value = float(value)
        super().__init__(f"non-finite objective: {term} term = {value!r}")


class TrainingDivergedError(SnlError):
    """The training objective was non-finite for too many consecutive steps."""

    def __init__(self, step: int, max_energy: float, min_weight: float):
        self.step = int(step)
        self.max_energy = float(max_energy)
        self.min_weight = float(min_weight)
        super().__init__(
            f"training diverged at step {step}: "
            f"max energy {max_energy!r}, min weight {min_weight!r}"
        )


class ConfigError(SnlError):
    """Invalid run configuration. ``problems`` lists every issue found."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {p}" for p in problems))
