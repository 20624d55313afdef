"""Structured pass/fail records for verification runs."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

SCHEMA_VERSION = 1

# Residual tolerance of a check unless the caller passes its own.
DEFAULT_TOL = 1e-12


@dataclass
class CheckResult:
    """One verification check: a named residual against a tolerance.

    The verdict is derived, never stored: with mode "le" the check passes
    when the residual is at most the tolerance; with mode "gt" (detection
    checks, which must see a mismatch) when it exceeds it.
    """

    name: str
    params: dict
    max_residual: float
    tolerance: float
    mode: str = "le"

    def __post_init__(self):
        if not (math.isfinite(self.max_residual) and self.max_residual >= 0.0):
            raise ValueError(f"residual must be a nonnegative finite number, got {self.max_residual}")
        if self.mode not in ("le", "gt"):
            raise ValueError(f"mode must be 'le' or 'gt', got {self.mode!r}")

    @property
    def passed(self) -> bool:
        if self.mode == "gt":
            return self.max_residual > self.tolerance
        return self.max_residual <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "check": self.name,
            "params": self.params,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


@dataclass
class VerificationReport:
    """A run of checks over one geometry, serialized as versioned JSON.

    overall_pass is the conjunction of the individual pass flags.  The
    timestamp is the only field that varies between identical runs.
    """

    tool_version: str
    geometry: dict
    checks: list[CheckResult] = field(default_factory=list)
    timestamp: str = ""

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "tool_version": self.tool_version,
            "timestamp": self.timestamp,
            "geometry": self.geometry,
            "checks": [c.to_dict() for c in self.checks],
            "overall_pass": self.overall_pass,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)
