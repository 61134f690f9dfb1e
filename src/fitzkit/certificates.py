"""Witness-carrying check outcomes.

A certificate never states a bare verdict: Pass and Fail always carry the
numeric witnesses that justify them, and NotApplicable records the violated
precondition, so suites can distinguish "criterion untriggered" from
"criterion violated". Finite verdicts about suprema are budget-relative
claims; narratives say so.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .vecspace import PairPoint


class Verdict(str, enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    NOT_APPLICABLE = "not_applicable"


WitnessValue = object  # float | Vector | PairPoint


@dataclass(frozen=True, eq=False)
class Certificate:
    verdict: Verdict
    check_name: str
    witnesses: tuple[tuple[str, WitnessValue], ...]
    narrative: str

    def __post_init__(self):
        object.__setattr__(self, "witnesses", tuple(self.witnesses))
        if self.verdict in (Verdict.PASS, Verdict.FAIL) and not self.witnesses:
            raise ValidationError("pass/fail certificates must carry a witness")
        if self.verdict is Verdict.NOT_APPLICABLE and not self.narrative:
            raise ValidationError("not-applicable certificates must name the precondition")

    @property
    def ok(self) -> bool:
        return self.verdict is not Verdict.FAIL

    def witness(self, label: str) -> WitnessValue:
        for k, v in self.witnesses:
            if k == label:
                return v
        raise KeyError(label)


def passed(check_name: str, narrative: str, witnesses) -> Certificate:
    return Certificate(Verdict.PASS, check_name, tuple(witnesses), narrative)


def failed(check_name: str, narrative: str, witnesses) -> Certificate:
    return Certificate(Verdict.FAIL, check_name, tuple(witnesses), narrative)


def not_applicable(check_name: str, precondition: str, witnesses=()) -> Certificate:
    return Certificate(Verdict.NOT_APPLICABLE, check_name, tuple(witnesses), precondition)


@dataclass(frozen=True, eq=False)
class QuotientTrace:
    """Schedule-indexed quotient/product values with their witnesses."""

    entries: tuple[tuple[float, float, PairPoint], ...]

    def __post_init__(self):
        entries = tuple(self.entries)
        params = [e[0] for e in entries]
        if any(b < a for a, b in zip(params, params[1:])):
            raise ValidationError("trace entries must be sorted by schedule parameter")
        if any(not np.isfinite(e[1]) for e in entries):
            raise ValidationError("trace quotients must be finite")
        object.__setattr__(self, "entries", entries)

    def params(self) -> list[float]:
        return [e[0] for e in self.entries]

    def values(self) -> list[float]:
        return [e[1] for e in self.entries]
