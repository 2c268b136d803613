"""Inequality records used by pipelines and certificates."""

from __future__ import annotations

import math
from dataclasses import dataclass


def json_number(v):
    """``v`` as a certificate value: a float, or the string "inf" or "-inf"."""
    return str(float(v)) if math.isinf(v) else float(v)


@dataclass(frozen=True)
class InequalityRecord:
    """One checked inequality ``lhs <= rhs`` with an optional attaining witness.

    ``witness`` names the pair / point / index where the left side is worst,
    so a failed record points at a concrete counterexample.
    """

    name: str
    lhs: float
    rhs: float
    passed: bool
    witness: object = None
    note: str = ""

    def as_dict(self):
        return {
            "name": self.name,
            "lhs": json_number(self.lhs),
            "rhs": json_number(self.rhs),
            "pass": bool(self.passed),
            "witness": self.witness,
            "note": self.note,
        }


def check_le(name, lhs, rhs, *, tol=0.0, witness=None, note=""):
    """Record ``lhs <= rhs`` up to an additive tolerance."""
    return InequalityRecord(name, float(lhs), float(rhs), bool(lhs <= rhs + tol), witness, note)


def all_passed(records) -> bool:
    return all(r.passed for r in records)
