"""Check reports, report documents, and their published JSON schema.

Documents are fully deterministic: no timestamps, no host data, and key
order fixed by construction, so identical configurations serialize to
identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

SCHEMA_VERSION = 1

# Margin recorded when an evaluation failed outright (out of domain), so a
# trial with no finite margin still sorts below every real failure.
OUT_OF_DOMAIN_MARGIN = -1e300


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification run.

    ``worst_margin`` is the most negative scaled margin observed over all
    trials; a trial fails exactly when its margin drops below ``-tol``, so
    ``failures == 0`` iff ``worst_margin >= -tol``.  Margins inside
    ``[-tol, tol]`` are boundary cases and count as passes.  Every margin is
    finite: a trial without one is a numerical failure, not a report.
    """

    check: str
    function: str
    levels: tuple
    trials: int
    failures: int
    worst_margin: float
    witness: dict | None
    seed: int
    tol: float

    @property
    def verdict(self) -> str:
        return "pass" if self.failures == 0 else "fail"

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "function": self.function,
            "levels": [int(x) for x in self.levels],
            "trials": int(self.trials),
            "failures": int(self.failures),
            "worst_margin": float(self.worst_margin),
            "witness": self.witness,
            "seed": int(self.seed),
            "tol": float(self.tol),
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
class ConsistencyReport:
    """Verdict agreement across the sides of an equivalence-style check."""

    check: str
    function: str
    reports: tuple
    sides: dict

    @property
    def consistent(self) -> bool:
        return len(set(self.sides.values())) <= 1

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "function": self.function,
            "sides": dict(self.sides),
            "consistent": self.consistent,
        }


def document(config: dict, reports, consistency=(), numerical_failures=(),
             annotations: dict | None = None) -> dict:
    reports = list(reports)
    failures = list(numerical_failures)
    verdict = "pass"
    if failures or any(r.verdict == "fail" for r in reports):
        verdict = "fail"
    doc = {
        "schema": SCHEMA_VERSION,
        "config": config,
        "reports": [r.to_json() for r in reports],
        "equivalence": [c.to_json() for c in consistency],
        "numerical_failures": failures,
        "verdict": verdict,
    }
    if annotations is not None:
        doc["annotations"] = annotations
    return doc


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


CHECK_REPORT_SCHEMA = {
    "type": "object",
    "properties": {
        "check": {"type": "string"},
        "function": {"type": "string"},
        "levels": {"type": "array", "items": {"type": "integer"}},
        "trials": {"type": "integer", "minimum": 1},
        "failures": {"type": "integer", "minimum": 0},
        "worst_margin": {"type": "number"},
        "witness": {"type": ["object", "null"]},
        "seed": {"type": "integer"},
        "tol": {"type": "number", "exclusiveMinimum": 0},
        "verdict": {"enum": ["pass", "fail"]},
    },
    "required": ["check", "function", "levels", "trials", "failures",
                 "worst_margin", "witness", "seed", "tol", "verdict"],
    "additionalProperties": False,
}

CONSISTENCY_SCHEMA = {
    "type": "object",
    "properties": {
        "check": {"type": "string"},
        "function": {"type": "string"},
        "sides": {"type": "object", "additionalProperties": {"enum": ["pass", "fail"]}},
        "consistent": {"type": "boolean"},
    },
    "required": ["check", "function", "sides", "consistent"],
    "additionalProperties": False,
}

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "schema": {"const": SCHEMA_VERSION},
        "config": {"type": "object"},
        "reports": {"type": "array", "items": CHECK_REPORT_SCHEMA},
        "equivalence": {"type": "array", "items": CONSISTENCY_SCHEMA},
        "numerical_failures": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "check": {"type": "string"},
                    "function": {"type": "string"},
                    "error": {"type": "string"},
                },
                "required": ["check", "error"],
                "additionalProperties": False,
            },
        },
        "verdict": {"enum": ["pass", "fail"]},
        "annotations": {"type": "object"},
    },
    "required": ["schema", "config", "reports", "equivalence",
                 "numerical_failures", "verdict"],
    "additionalProperties": False,
}
