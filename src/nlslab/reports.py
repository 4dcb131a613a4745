"""Verification report structure and its JSON/CSV serialization.

A report is pass iff every listed residual is within its tolerance.  The
JSON form is deterministic (sorted keys); wall-clock and timestamp live in
dedicated fields so byte-comparison modulo timing is trivial.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field


TIMING_FIELDS = ("wall_clock_s", "timestamp")


@dataclass
class Residual:
    name: str
    value: float
    tolerance: float

    @property
    def ok(self):
        return self.value <= self.tolerance

    def as_dict(self):
        return {
            "name": self.name,
            "value": float(self.value),
            "tolerance": float(self.tolerance),
            "pass": bool(self.ok),
        }


@dataclass
class VerificationReport:
    identity: str
    params: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    residuals: list = field(default_factory=list)
    fitted_rates: list = field(default_factory=list)
    ladders: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    wall_clock_s: float = 0.0
    timestamp: str = ""
    # name -> ComplexField, written beside the report as NLSF snapshots and
    # left out of its JSON
    snapshots: dict = field(default_factory=dict)
    # ladder name -> header of the CSV table that the ladder is written to
    # beside the report; left out of its JSON
    csv_headers: dict = field(default_factory=dict)

    def add_residual(self, name, value, tolerance):
        self.residuals.append(Residual(name, float(value), float(tolerance)))

    def add_rate(self, name, value):
        self.fitted_rates.append({"name": name, "value": float(value)})

    @property
    def verdict(self):
        return "pass" if all(r.ok for r in self.residuals) else "fail"

    def as_dict(self):
        return {
            "identity": self.identity,
            "params": self.params,
            "grid": self.grid,
            "residuals": [r.as_dict() for r in self.residuals],
            "fitted_rates": list(self.fitted_rates),
            "ladders": self.ladders,
            "notes": list(self.notes),
            "verdict": self.verdict,
            "wall_clock_s": self.wall_clock_s,
            "timestamp": self.timestamp,
        }

    def to_json(self):
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"

    def stamp(self, started_at):
        self.wall_clock_s = time.monotonic() - started_at
        self.timestamp = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())


def strip_timing(report_json: str) -> str:
    """Normalize the timing fields of a serialized report for comparison."""
    data = json.loads(report_json)
    for key in TIMING_FIELDS:
        data.pop(key, None)
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def write_csv_table(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
