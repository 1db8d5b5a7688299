"""Machine-readable experiment reports.

A report is a config echo plus a sorted list of named check records and an
aggregate pass flag.  A record serializes to its name, value, threshold,
comparison op and pass flag, nothing else; the flag is derived from the
other three, never given.  JSON serialization is
deterministic for identical inputs: keys are sorted, records are sorted by
name, and a report holds no wall-clock timing.  Optional named tables carry
plot-ready per-point data for sweep subcommands; they are in the JSON
payload only.  CSV carries the check records of any report, one row each,
with the JSON records' fields in their order.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from typing import Optional

__all__ = [
    "CheckRecord",
    "ExperimentReport",
    "SCHEMA_VERSION",
    "check_flag",
    "check_gt",
    "check_info",
    "check_le",
    "merge_reports",
]

SCHEMA_VERSION = 1

# op -> (value, threshold) -> passed; "info" records always pass
_OPS = {"<=": operator.le, ">": operator.gt, "==": operator.eq, "info": lambda v, t: True}


@dataclass(frozen=True)
class CheckRecord:
    """One named measurement compared against a threshold by ``op``."""

    name: str
    value: float
    threshold: Optional[float]
    op: str
    passed: bool = field(init=False)

    def __post_init__(self):
        if not self.name:
            raise ValueError("record name must be non-empty")
        if self.op not in _OPS:
            raise ValueError(f"unknown comparison op {self.op!r}")
        if self.op != "info" and self.threshold is None:
            raise ValueError(f"record {self.name!r} needs a threshold for op {self.op!r}")
        # the JSON payload has no NaN or infinity, so such a record is refused
        # here, where its name is known
        for what, x in (("value", self.value), ("threshold", self.threshold)):
            if x is not None and not math.isfinite(x):
                raise ValueError(f"record {self.name!r} has a non-finite {what}: {x!r}")
        object.__setattr__(self, "passed", bool(_OPS[self.op](self.value, self.threshold)))

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "threshold": self.threshold,
            "op": self.op,
            "passed": self.passed,
        }


def check_le(name: str, value: float, threshold: float) -> CheckRecord:
    return CheckRecord(name, float(value), float(threshold), "<=")


def check_gt(name: str, value: float, threshold: float) -> CheckRecord:
    return CheckRecord(name, float(value), float(threshold), ">")


def check_flag(name: str, flag: bool, expected: bool = True) -> CheckRecord:
    return CheckRecord(name, float(bool(flag)), float(expected), "==")


def check_info(name: str, value: float) -> CheckRecord:
    return CheckRecord(name, float(value), None, "info")


@dataclass(frozen=True)
class ExperimentReport:
    subcommand: str
    seed: int
    config: dict
    records: tuple
    tables: dict = field(default_factory=dict)

    def __post_init__(self):
        recs = tuple(sorted(self.records, key=lambda r: r.name))
        names = [r.name for r in recs]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate record names: {dupes}")
        object.__setattr__(self, "records", recs)

    @property
    def aggregate_pass(self) -> bool:
        return all(r.passed for r in self.records)

    def to_json(self) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "subcommand": self.subcommand,
            "seed": self.seed,
            "config": self.config,
            "records": [r.to_json() for r in self.records],
            "aggregate_pass": self.aggregate_pass,
        }
        if self.tables:
            out["tables"] = self.tables
        return out

    def json_text(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"),
                          allow_nan=False) + "\n"

    def csv_text(self) -> str:
        """The check records as CSV, one row each: ``name,value,threshold,op,passed``.

        Values and thresholds are ``repr`` of the float (an ``info`` record's
        threshold is empty) and ``passed`` is 0 or 1.  Tables are not written.
        """
        lines = [f"# schema_version={SCHEMA_VERSION}", "name,value,threshold,op,passed"]
        for r in self.records:
            thr = "" if r.threshold is None else repr(r.threshold)
            lines.append(f"{r.name},{r.value!r},{thr},{r.op},{int(r.passed)}")
        return "\n".join(lines) + "\n"

    def summary_text(self) -> str:
        lines = []
        for r in self.records:
            status = "PASS" if r.passed else "FAIL"
            if r.op == "info":
                lines.append(f"{status} {r.name}: {r.value:.6g}")
            else:
                lines.append(
                    f"{status} {r.name}: {r.value:.6g} {r.op} {r.threshold:.6g}"
                )
        verdict = "PASS" if self.aggregate_pass else "FAIL"
        lines.append(
            f"{verdict} {self.subcommand}: {sum(r.passed for r in self.records)}"
            f"/{len(self.records)} checks"
        )
        return "\n".join(lines) + "\n"


def merge_reports(subcommand: str, seed: int, parts: dict) -> ExperimentReport:
    """Concatenate named sub-reports, prefixing record names and table names."""
    records = []
    tables = {}
    config = {}
    for prefix, rep in sorted(parts.items()):
        config[prefix] = rep.config
        for r in rep.records:
            records.append(CheckRecord(f"{prefix}.{r.name}", r.value, r.threshold, r.op))
        for tname, rows in rep.tables.items():
            tables[f"{prefix}.{tname}"] = rows
    return ExperimentReport(
        subcommand=subcommand,
        seed=seed,
        config=config,
        records=tuple(records),
        tables=tables,
    )
