"""Checks, their results and suite reports, with the published JSON shape.

All three are values, kernel._Value namedtuples that no code changes after
they are built.  A Check holds its id, description, equation tag and a
function that has not run yet, and the Checks whose results that function
reads.  Producers in calculus, liealg, hopf and rmatrix return lists of
Checks, cli.SUITES assembles them into suites, and cli.run_suite runs each
distinct id once, a needed one included, and collects the CheckResults in
a SuiteReport: a row that two suites list is the same row in both."""

from __future__ import annotations

import json
import time
from collections import namedtuple

from .kernel import _Value


class CheckResult(_Value, namedtuple(
        "CheckResult", "id description paper_eq status residual duration_ms",
        defaults=(None, 0.0))):
    """The outcome of one Check; status is pass, fail or error."""

    __slots__ = ()

    @property
    def passed(self):
        return self.status == "pass"

    def as_dict(self):
        return {
            "id": self.id,
            "description": self.description,
            "paper_eq": self.paper_eq,
            "status": self.status,
            "residual": self.residual,
            "duration_ms": round(self.duration_ms, 3),
        }


class Check(_Value, namedtuple("Check", "id description paper_eq fn needs",
                                defaults=((),))):
    """A check that has not run yet: fn(*results) returns None when the claim
    holds, and otherwise the text of its residual; results are the
    CheckResults of the checks it needs, in order."""

    __slots__ = ()

    def run(self, results=None):
        """Call fn once, timed, after the checks it needs: each is looked up
        by id in the table `results`, or run now and entered there.  An
        exception, or an error row among the needed checks, makes this an
        error row."""
        t0 = time.perf_counter()
        status, needed = None, ()
        if self.needs:
            table = {} if results is None else results
            needed = [run_once(c, table) for c in self.needs]
            broken = next((r for r in needed if r.status == "error"), None)
            if broken is not None:
                status, residual = "error", f"{broken.id}: {broken.residual}"
        if status is None:
            try:
                residual = self.fn(*needed)
                status = "pass" if residual is None else "fail"
            except Exception as exc:  # a crashed check is an error, not a silent skip
                residual = error_text(exc)
                status = "error"
        ms = (time.perf_counter() - t0) * 1000.0
        return CheckResult(self.id, self.description, self.paper_eq, status,
                           residual, ms)


def run_once(check, results):
    """The result of check in the table `results` by id, run and entered
    when the table has none."""
    result = results.get(check.id)
    if result is None:
        result = results[check.id] = check.run(results)
    return result


def error_text(exc):
    """The residual of an error row: the exception's type and message."""
    return f"{type(exc).__name__}: {exc}"


class SuiteReport(_Value, namedtuple("SuiteReport", "suite checks",
                                     defaults=((),))):
    __slots__ = ()

    @property
    def summary(self):
        out = {"pass": 0, "fail": 0, "error": 0}
        for c in self.checks:
            out[c.status] += 1
        return out

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    def sorted(self):
        return SuiteReport(self.suite, tuple(sorted(self.checks, key=lambda c: c.id)))

    def as_dict(self):
        return {
            "suite": self.suite,
            "checks": [c.as_dict() for c in self.checks],
            "summary": self.summary,
        }

    def to_json(self):
        return json.dumps(self.as_dict(), indent=2)

    def to_text(self):
        lines = []
        for c in self.checks:
            line = f"[{c.status.upper():5s}] {c.id}: {c.description}"
            if c.paper_eq:
                line += f"  [{c.paper_eq}]"
            if c.residual and c.status != "pass":
                line += f"\n        residual: {c.residual}"
            lines.append(line)
        s = self.summary
        lines.append(
            f"suite {self.suite}: {s['pass']} passed, {s['fail']} failed, "
            f"{s['error']} errors"
        )
        return "\n".join(lines)


JSON_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["suite", "checks", "summary"],
    "properties": {
        "suite": {"type": "string"},
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "id", "description", "paper_eq", "status",
                    "residual", "duration_ms",
                ],
                "properties": {
                    "id": {"type": "string"},
                    "description": {"type": "string"},
                    "paper_eq": {"type": "string"},
                    "status": {"enum": ["pass", "fail", "error"]},
                    "residual": {"type": ["string", "null"]},
                    "duration_ms": {"type": "number"},
                },
            },
        },
        "summary": {
            "type": "object",
            "required": ["pass", "fail", "error"],
            "properties": {
                "pass": {"type": "integer"},
                "fail": {"type": "integer"},
                "error": {"type": "integer"},
            },
        },
    },
}
